//! Property tests: data integrity on the shared bus under random
//! multi-master contention, for both arbitration policies.

use plb::dma::Handshake;
use plb::{AddressWindow, ArbMode, BfmOp, MemorySlave, PlbBus, SharedMem, TestMaster};
use proptest::prelude::*;
use rtlsim::Simulator;

const PERIOD: u64 = 10_000;

#[derive(Debug, Clone)]
struct MasterPlan {
    /// (offset within the master's private region, payload words)
    writes: Vec<(u32, Vec<u32>)>,
    delay: u32,
    burst: u32,
}

fn arb_plan() -> impl Strategy<Value = MasterPlan> {
    (
        prop::collection::vec((0u32..64, prop::collection::vec(any::<u32>(), 1..24)), 1..4),
        0u32..8,
        1u32..24,
    )
        .prop_map(|(raw, delay, burst)| {
            // Stack the writes so they never overlap within the region.
            let mut writes = Vec::new();
            let mut cursor = 0u32;
            for (gap, data) in raw {
                let at = cursor + gap * 4;
                cursor = at + data.len() as u32 * 4;
                writes.push((at, data));
            }
            MasterPlan {
                writes,
                delay,
                burst,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16 })]

    #[test]
    fn contended_writes_never_corrupt(
        plans in prop::collection::vec(arb_plan(), 2..4),
        round_robin in any::<bool>(),
        wait_states in 0u32..3,
    ) {
        let mut sim = Simulator::new();
        let clk = sim.signal("clk", 1);
        let rst = sim.signal("rst", 1);
        sim.add_clock(clk, PERIOD);
        sim.add_reset(rst, 2 * PERIOD);
        let mem = SharedMem::new(256 * 1024);
        let (sport, _) =
            MemorySlave::instantiate(&mut sim, "mem", clk, rst, mem.clone(), wait_states, false);

        // Each master owns a disjoint 16 KiB region.
        let mut ports = Vec::new();
        let mut logs = Vec::new();
        for (i, plan) in plans.iter().enumerate() {
            let base = 0x4000 * (i as u32 + 1);
            let mut script = vec![BfmOp::Delay { cycles: plan.delay }];
            for (off, data) in &plan.writes {
                script.push(BfmOp::Write { addr: base + off, data: data.clone() });
            }
            // Read everything back at the end.
            for (off, data) in &plan.writes {
                script.push(BfmOp::Read { addr: base + off, words: data.len() as u32 });
            }
            let (port, log) = TestMaster::instantiate(
                &mut sim,
                format!("m{i}").as_str(),
                clk,
                rst,
                Handshake::Full,
                plan.burst,
                script,
            );
            ports.push(port);
            logs.push(log);
        }
        let arbitration = if round_robin { ArbMode::RoundRobin } else { ArbMode::FixedPriority };
        PlbBus::new(
            &mut sim,
            "plb",
            clk,
            rst,
            arbitration,
            ports,
            vec![(sport, AddressWindow { base: 0, len: 256 * 1024 })],
        );

        sim.run_for(60_000 * PERIOD).unwrap();
        prop_assert!(!sim.has_errors(), "{:?}", sim.messages());
        for (i, (plan, log)) in plans.iter().zip(&logs).enumerate() {
            let base = 0x4000 * (i as u32 + 1);
            let log = log.borrow();
            prop_assert_eq!(log.errors, 0, "master {} bus errors", i);
            prop_assert_eq!(
                log.completed,
                plan.writes.len() * 2,
                "master {} unfinished traffic",
                i
            );
            // Read-back data matches what this master wrote.
            for (ri, (off, data)) in plan.writes.iter().enumerate() {
                prop_assert_eq!(&log.reads[ri], data, "master {} read {}", i, ri);
                // And the memory backing store agrees.
                for (w, expect) in data.iter().enumerate() {
                    let got = mem.read_u32(base + off + 4 * w as u32);
                    prop_assert_eq!(got, Some(*expect));
                }
            }
        }
    }
}
