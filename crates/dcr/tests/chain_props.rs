//! Property tests: random register layouts and operation sequences on
//! the daisy chain behave exactly like a flat register-map model.

use dcr::{DcrChainBuilder, DcrOp, DcrResult, RegFile};
use proptest::prelude::*;
use rtlsim::{Clock, CompKind, ResetGen, Simulator};
use std::collections::HashMap;

const PERIOD: u64 = 10_000;

#[derive(Debug, Clone)]
struct Layout {
    /// (base, count) per slave, disjoint by construction.
    blocks: Vec<(u16, usize)>,
}

fn arb_layout() -> impl Strategy<Value = Layout> {
    prop::collection::vec((1u16..12, 1usize..6), 1..5).prop_map(|raw| {
        let mut blocks = Vec::new();
        let mut base = 0u16;
        for (gap, count) in raw {
            base += gap;
            blocks.push((base, count));
            base += count as u16;
        }
        Layout { blocks }
    })
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Write { addr: u16, value: u32 },
    Read { addr: u16 },
}

fn arb_ops(layout: &Layout) -> impl Strategy<Value = Vec<Op>> {
    let blocks = layout.blocks.clone();
    let max_addr = blocks.last().map(|(b, c)| b + *c as u16).unwrap_or(1) + 4;
    prop::collection::vec(
        (any::<bool>(), 0..max_addr, any::<u32>()).prop_map(move |(w, addr, value)| {
            if w {
                Op::Write { addr, value }
            } else {
                Op::Read { addr }
            }
        }),
        1..20,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    #[test]
    fn chain_behaves_like_a_flat_register_map(
        (layout, ops) in arb_layout().prop_flat_map(|l| {
            let ops = arb_ops(&l);
            (Just(l), ops)
        })
    ) {
        let mut sim = Simulator::new();
        let clk = sim.signal("clk", 1);
        let rst = sim.signal("rst", 1);
        sim.add_component("clk", CompKind::Vip, Box::new(Clock::new(clk, PERIOD)), &[]);
        sim.add_component("rst", CompKind::Vip, Box::new(ResetGen::new(rst, 2 * PERIOD)), &[]);
        let mut chain = DcrChainBuilder::new(&mut sim, "dcr", clk, rst);
        for (i, (base, count)) in layout.blocks.iter().enumerate() {
            chain.add_slave(&format!("s{i}"), RegFile::new(*base, *count), None);
        }
        let handle = chain.finish();

        // Flat reference model.
        let decodes = |addr: u16| layout.blocks.iter().any(|(b, c)| addr >= *b && addr < b + *c as u16);
        let mut model: HashMap<u16, u32> = HashMap::new();

        for op in &ops {
            let dcr_op = match op {
                Op::Write { addr, value } => DcrOp::Write(*addr, *value),
                Op::Read { addr } => DcrOp::Read(*addr),
            };
            handle.request(dcr_op);
            let mut result = None;
            for _ in 0..400 {
                sim.run_for(PERIOD).unwrap();
                if let Some((_, r)) = handle.poll() {
                    result = Some(r);
                    break;
                }
            }
            let result = result.expect("op never completed");
            match op {
                Op::Write { addr, value } => {
                    if decodes(*addr) {
                        prop_assert_eq!(result, DcrResult::Ok(*value));
                        model.insert(*addr, *value);
                    } else {
                        prop_assert_eq!(result, DcrResult::Timeout);
                    }
                }
                Op::Read { addr } => {
                    if decodes(*addr) {
                        let want = model.get(addr).copied().unwrap_or(0);
                        prop_assert_eq!(result, DcrResult::Ok(want));
                    } else {
                        prop_assert_eq!(result, DcrResult::Timeout);
                    }
                }
            }
        }
    }
}
