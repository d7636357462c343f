//! # verifd — the long-running campaign service
//!
//! The batch flow builds the AutoVision system, runs one experiment and
//! exits, paying the full setup cost (SimB derivation, software images,
//! golden predictions) every time. This crate makes the simulator a
//! *server*: a daemon that keeps one [`autovision::ArtifactCache`] hot
//! across submissions and serves campaign runs over a newline-delimited
//! JSON IPC protocol on a Unix socket and/or TCP.
//!
//! * [`proto`] — the NDJSON frame vocabulary (requests, responses, and
//!   the one-lining rule that keeps multi-line documents NDJSON-safe);
//! * [`server`] — the daemon: admission control over concurrent
//!   campaigns, per-submission row streaming, a bounded campaign
//!   registry for watch/cancel, and a `/metrics`-style scrape of the daemon's
//!   [`obs::MetricsRegistry`];
//! * [`client`] — a small blocking client used by `verifctl`, the bench
//!   harness and the test suite.
//!
//! ## Determinism contract
//!
//! Campaign rows streamed over the socket are **byte-identical** to the
//! rows an in-process [`verif::Campaign`] run renders, because both
//! sides serialize through the one schema definition in [`verif::wire`].
//! Admission control, thread caps and the shared artifact cache may
//! change *when* a row arrives, never *what* it says.

pub mod client;
pub mod proto;
pub mod server;

pub use client::Client;
pub use proto::Done;
pub use server::{Endpoint, RunningServer, Server, ServerConfig};
