//! # video — frames, golden models and synthetic scenes
//!
//! The software-reference half of the AutoVision video pipeline:
//!
//! * [`frame`] — 8-bit grayscale [`Frame`]s, DMA word packing, and the
//!   [`MotionVector`] transport format;
//! * [`census`] — the golden census transform (what the Census Image
//!   Engine must produce, bit-exactly);
//! * [`matching`] — the golden optical-flow matcher (what the Matching
//!   Engine must produce);
//! * [`scene`] — deterministic synthetic traffic scenes with ground-truth
//!   motion, standing in for the project's camera footage;
//! * [`draw`] — the motion-vector overlay the PowerPC software renders;
//! * [`io`] — binary PGM files for the Video VIPs;
//! * [`analysis`] — the driver-assistance layer: cluster the motion
//!   field into detected objects and classify scene hazard.
//!
//! The golden models double as the scoreboard reference in the
//! verification environment: any corruption introduced by a DPR bug (lost
//! bitstream words, missing isolation, stale engine state) shows up as a
//! pixel or vector mismatch against these functions.

pub mod analysis;
pub mod census;
pub mod draw;
pub mod frame;
pub mod io;
pub mod matching;
pub mod scene;

pub use analysis::{classify, detect_objects, AnalysisParams, DetectedObject, Hazard};
pub use census::{census_pixel, census_transform, hamming};
pub use draw::{draw_vectors, line};
pub use frame::{Frame, MotionVector};
pub use io::{load_pgm, read_pgm, save_pgm, write_pgm};
pub use matching::{match_frames, search_anchor, MatchParams, Patch};
pub use scene::{Object, Scene};
