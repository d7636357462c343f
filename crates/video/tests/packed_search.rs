//! The word-packed Hamming search against per-pixel references kept
//! here. The golden model and the RTL Matching Engine share that one
//! search, so a bug in it cannot show up as a golden mismatch: these
//! properties are its only independent check.

use proptest::prelude::*;
use video::{match_frames, Frame, MatchParams, MotionVector, Patch};

/// Per-pixel patch cost of displacement `(dx, dy)` for the anchor
/// `(x, y)`: the sum over the `(2h+1)²` patch of
/// `hamming(curr[p], prev[p - d])`, pixels outside a frame reading 0.
fn reference_cost(
    prev: &Frame,
    curr: &Frame,
    (x, y): (usize, usize),
    (dx, dy): (isize, isize),
    h: usize,
) -> u32 {
    let h = h as isize;
    let mut cost = 0;
    for py in -h..=h {
        for px in -h..=h {
            let (cx, cy) = (x as isize + px, y as isize + py);
            cost += (curr.get_clamped(cx, cy) ^ prev.get_clamped(cx - dx, cy - dy)).count_ones();
        }
    }
    cost
}

/// Per-pixel motion field: every interior grid anchor, displacements
/// scanned row by row from `(-r, -r)`, ties broken towards the smaller
/// displacement, costs above `max_cost` reported as no-match.
fn reference_field(prev: &Frame, curr: &Frame, p: &MatchParams) -> Vec<MotionVector> {
    let margin = p.search_radius + p.patch_half;
    let r = p.search_radius as isize;
    let mut out = Vec::new();
    for y in (margin..curr.height().saturating_sub(margin)).step_by(p.grid_step) {
        for x in (margin..curr.width().saturating_sub(margin)).step_by(p.grid_step) {
            let mut best = (0isize, 0isize, u32::MAX);
            for dy in -r..=r {
                for dx in -r..=r {
                    let c = reference_cost(prev, curr, (x, y), (dx, dy), p.patch_half);
                    if c < best.2
                        || (c == best.2 && dx * dx + dy * dy < best.0 * best.0 + best.1 * best.1)
                    {
                        best = (dx, dy, c);
                    }
                }
            }
            let cost = best.2.min(u16::MAX as u32) as u16;
            out.push(MotionVector {
                x: x as u16,
                y: y as u16,
                dx: best.0 as i8,
                dy: best.1 as i8,
                cost: if cost > p.max_cost { u16::MAX } else { cost },
            });
        }
    }
    out
}

/// Two random frames of one random geometry, up to `max_w` × `max_h`.
/// Pixels are any byte, as census signatures are.
fn frame_pair(max_w: usize, max_h: usize) -> impl Strategy<Value = (Frame, Frame)> {
    (1..=max_w / 4, 1..=max_h).prop_flat_map(|(wq, h)| {
        let w = wq * 4;
        (
            prop::collection::vec(any::<u8>(), w * h),
            prop::collection::vec(any::<u8>(), w * h),
        )
            .prop_map(move |(a, b)| (Frame::from_data(w, h, a), Frame::from_data(w, h, b)))
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128 })]

    /// For every displacement of a radius up to 4, the packed cost of a
    /// patch up to 11 pixels wide (two words a row) equals the
    /// per-pixel sum, for anchors inside the frame, on its borders and
    /// past its right and bottom edges.
    #[test]
    fn packed_cost_equals_the_per_pixel_sum(
        (prev, curr) in frame_pair(32, 20),
        (ax, ay) in (0usize..40, 0usize..28),
        h in 0usize..=5,
        r in 0isize..=4,
    ) {
        let (x, y) = (ax % (curr.width() + 8), ay % (curr.height() + 8));
        let patch = Patch::new(&curr, x, y, h);
        for dy in -r..=r {
            for dx in -r..=r {
                prop_assert_eq!(
                    patch.cost(&prev, dx, dy),
                    reference_cost(&prev, &curr, (x, y), (dx, dy), h),
                    "anchor ({}, {}), h {}, d ({}, {})", x, y, h, dx, dy
                );
            }
        }
    }

    /// The motion field equals the per-pixel reference search: same
    /// anchors, scan order, tie-break and no-match threshold.
    #[test]
    fn match_frames_equals_the_per_pixel_search(
        (prev, curr) in frame_pair(40, 28),
        grid_step in 1usize..=6,
        patch_half in 0usize..=5,
        search_radius in 0usize..=4,
        max_cost in 0u16..=120,
    ) {
        let p = MatchParams { grid_step, patch_half, search_radius, max_cost };
        prop_assert_eq!(match_frames(&prev, &curr, &p), reference_field(&prev, &curr, &p));
    }
}
