//! Golden (software) model of the Matching Engine.
//!
//! The ME compares two consecutive census (feature) images and computes
//! motion vectors: for each anchor on a regular grid it searches a
//! ±[`MatchParams::search_radius`] window in the *previous* census image
//! for the displacement minimising the summed Hamming distance over a
//! patch. The displacement with minimal cost becomes the motion vector —
//! the speed/direction estimate the driver-assistance software draws and
//! analyses.
//!
//! # One word-packed search
//!
//! [`search_anchor`] is the only search: [`match_frames`] runs it for
//! every anchor, and so does the RTL engine's datapath model, so the
//! scan order and the tie-break live here alone. It packs the anchor's
//! `(2h+1)²` census patch once into a [`Patch`], each patch row as words
//! of up to 8 pixels, pixel `j` of a word in byte `j`. A displacement
//! then costs one XOR and one popcount per word against the previous
//! image's row words: the popcount of the XOR of two words is the sum of
//! the per-pixel Hamming distances. A row word is an 8-byte load masked
//! to the patch width; pixels are read one by one, 0 outside the frame,
//! only where the window leaves the frame (or the load would run past
//! the end of the pixel buffer).

use crate::frame::{Frame, MotionVector};

/// Matching engine parameters (DCR-programmable in the RTL engine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchParams {
    /// Grid stride between anchors, in pixels.
    pub grid_step: usize,
    /// Patch half-size: the cost sums over a `(2h+1)²` patch.
    pub patch_half: usize,
    /// Search radius in pixels (displacements in `-r..=r`).
    pub search_radius: usize,
    /// Vectors with best cost above this are reported as no-match.
    pub max_cost: u16,
}

impl MatchParams {
    /// The anchors of a `width` × `height` frame, row by row: the grid
    /// points whose full search window fits in the frame.
    pub fn anchors(&self, width: usize, height: usize) -> impl Iterator<Item = (usize, usize)> {
        let (margin, step) = (self.search_radius + self.patch_half, self.grid_step);
        (margin..height.saturating_sub(margin))
            .step_by(step)
            .flat_map(move |y| {
                (margin..width.saturating_sub(margin))
                    .step_by(step)
                    .map(move |x| (x, y))
            })
    }
}

impl Default for MatchParams {
    fn default() -> Self {
        MatchParams {
            grid_step: 8,
            patch_half: 2,
            search_radius: 4,
            max_cost: 60,
        }
    }
}

/// The `n` (1..=8) pixels of row `y` from column `x` on, pixel `j` in
/// byte `j`; pixels outside the frame read 0.
#[inline]
fn row_word(f: &Frame, x: isize, y: isize, n: usize) -> u64 {
    if y >= 0 && (y as usize) < f.height() && x >= 0 && x as usize + n <= f.width() {
        let at = y as usize * f.width() + x as usize;
        if let Some(bytes) = f.pixels()[at..].first_chunk::<8>() {
            return u64::from_le_bytes(*bytes) & (u64::MAX >> (64 - 8 * n));
        }
    }
    (0..n).fold(0, |word, j| {
        word | (f.get_clamped(x + j as isize, y) as u64) << (8 * j)
    })
}

/// An anchor's census patch, packed once for its whole displacement
/// search (see the module docs).
#[derive(Debug)]
pub struct Patch {
    /// Column and row of the patch's top-left pixel.
    left: isize,
    top: isize,
    /// Patch side, `2h+1` pixels.
    side: usize,
    /// `side` rows of `side.div_ceil(8)` words each.
    words: Vec<u64>,
}

impl Patch {
    /// Pack the `(2h+1)²` patch of `curr` centred on the anchor `(x, y)`,
    /// `h = patch_half`.
    pub fn new(curr: &Frame, x: usize, y: usize, patch_half: usize) -> Patch {
        let side = 2 * patch_half + 1;
        let left = x as isize - patch_half as isize;
        let top = y as isize - patch_half as isize;
        let words = (0..side as isize)
            .flat_map(|r| {
                (0..side)
                    .step_by(8)
                    .map(move |k| row_word(curr, left + k as isize, top + r, (side - k).min(8)))
            })
            .collect();
        Patch {
            left,
            top,
            side,
            words,
        }
    }

    /// Patch cost of displacement `(dx, dy)`: the sum over the patch of
    /// `hamming(curr[p], prev[p - d])`.
    pub fn cost(&self, prev: &Frame, dx: isize, dy: isize) -> u32 {
        let rows = self.words.chunks_exact(self.side.div_ceil(8));
        let mut cost = 0;
        for (y, row) in (self.top - dy..).zip(rows) {
            for (k, &word) in (0..self.side).step_by(8).zip(row) {
                let n = (self.side - k).min(8);
                cost += (word ^ row_word(prev, self.left + k as isize - dx, y, n)).count_ones();
            }
        }
        cost
    }
}

/// The motion vector of the anchor `(x, y)`: the displacement in
/// `-r..=r` with the least patch cost, scanned row by row from
/// `(-r, -r)`. Ties break towards the smaller displacement, so a static
/// scene yields `(0, 0)`; a best cost above `max_cost` is reported as
/// no-match (`u16::MAX`).
pub fn search_anchor(
    prev: &Frame,
    curr: &Frame,
    x: usize,
    y: usize,
    p: &MatchParams,
) -> MotionVector {
    let patch = Patch::new(curr, x, y, p.patch_half);
    let r = p.search_radius as isize;
    let mut best = (0isize, 0isize, u32::MAX);
    for dy in -r..=r {
        for dx in -r..=r {
            let c = patch.cost(prev, dx, dy);
            let better = c < best.2
                || (c == best.2 && (dx * dx + dy * dy) < (best.0 * best.0 + best.1 * best.1));
            if better {
                best = (dx, dy, c);
            }
        }
    }
    let cost = best.2.min(u16::MAX as u32) as u16;
    MotionVector {
        x: x as u16,
        y: y as u16,
        dx: best.0 as i8,
        dy: best.1 as i8,
        cost: if cost > p.max_cost { u16::MAX } else { cost },
    }
}

/// Compute the motion field between two census images, one vector per
/// anchor of [`MatchParams::anchors`].
pub fn match_frames(prev: &Frame, curr: &Frame, p: &MatchParams) -> Vec<MotionVector> {
    assert_eq!(prev.width(), curr.width());
    assert_eq!(prev.height(), curr.height());
    p.anchors(curr.width(), curr.height())
        .map(|(x, y)| search_anchor(prev, curr, x, y, p))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::census::census_transform;

    fn textured(width: usize, height: usize, shift: (isize, isize)) -> Frame {
        // A pseudo-random texture translated by `shift`.
        let mut f = Frame::new(width, height);
        for y in 0..height as isize {
            for x in 0..width as isize {
                let sx = x - shift.0;
                let sy = y - shift.1;
                let v = ((sx * 31 + sy * 17) ^ (sx * sy + 7)) as u32;
                f.put(x, y, (v % 251) as u8);
            }
        }
        f
    }

    #[test]
    fn static_scene_yields_zero_vectors() {
        let f = textured(64, 48, (0, 0));
        let c = census_transform(&f);
        let vs = match_frames(&c, &c, &MatchParams::default());
        assert!(!vs.is_empty());
        for v in &vs {
            assert_eq!((v.dx, v.dy), (0, 0), "at ({},{})", v.x, v.y);
            assert_eq!(v.cost, 0);
        }
    }

    #[test]
    fn global_translation_is_recovered() {
        for shift in [(2isize, 0isize), (0, 3), (-1, 2), (3, -3)] {
            let prev = census_transform(&textured(64, 48, (0, 0)));
            let curr = census_transform(&textured(64, 48, shift));
            let vs = match_frames(&prev, &curr, &MatchParams::default());
            let good = vs
                .iter()
                .filter(|v| (v.dx as isize, v.dy as isize) == shift)
                .count();
            assert!(
                good * 10 >= vs.len() * 8,
                "shift {shift:?}: only {good}/{} vectors correct",
                vs.len()
            );
        }
    }

    #[test]
    fn cost_threshold_marks_garbage_matches() {
        // Uncorrelated frames: best costs are high, so vectors are
        // flagged as no-match.
        let prev = census_transform(&textured(64, 48, (0, 0)));
        let mut junk = Frame::new(64, 48);
        for (i, p) in junk.pixels_mut().iter_mut().enumerate() {
            *p = ((i * 2654435761) >> 7) as u8;
        }
        let curr = census_transform(&junk);
        let strict = MatchParams {
            max_cost: 5,
            ..Default::default()
        };
        let vs = match_frames(&prev, &curr, &strict);
        let rejected = vs.iter().filter(|v| v.cost == u16::MAX).count();
        assert!(rejected * 10 >= vs.len() * 5, "{rejected}/{}", vs.len());
    }

    #[test]
    fn grid_geometry() {
        let f = census_transform(&textured(64, 48, (0, 0)));
        let p = MatchParams::default();
        let vs = match_frames(&f, &f, &p);
        let margin = p.search_radius + p.patch_half;
        for v in &vs {
            assert!(v.x as usize >= margin && (v.x as usize) + margin < 64);
            assert!(v.y as usize >= margin && (v.y as usize) + margin < 48);
            assert_eq!((v.x as usize - margin) % p.grid_step, 0);
        }
    }
}
