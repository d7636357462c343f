//! End-to-end transfer tests over the shared bus fabric.

use plb::dma::Handshake;
use plb::{AddressWindow, ArbMode, BfmOp, MemorySlave, PlbBus, PlbMonitor, SharedMem, TestMaster};
use rtlsim::Simulator;

const PERIOD: u64 = 10_000;

struct Tb {
    sim: Simulator,
    mem: SharedMem,
}

fn testbench(
    arbitration: ArbMode,
    wait_states: u32,
    scripts: Vec<(Handshake, u32, Vec<BfmOp>)>,
) -> (Tb, Vec<std::rc::Rc<std::cell::RefCell<plb::bfm::BfmLog>>>) {
    let mut sim = Simulator::new();
    let clk = sim.signal("clk", 1);
    let rst = sim.signal("rst", 1);
    sim.add_clock(clk, PERIOD);
    sim.add_reset(rst, 3 * PERIOD);

    let mem = SharedMem::new(64 * 1024);
    let (sport, _) =
        MemorySlave::instantiate(&mut sim, "mem", clk, rst, mem.clone(), wait_states, false);

    let mut ports = Vec::new();
    let mut logs = Vec::new();
    for (i, (hs, burst, script)) in scripts.into_iter().enumerate() {
        let (port, log) = TestMaster::instantiate(
            &mut sim,
            format!("m{i}").as_str(),
            clk,
            rst,
            hs,
            burst,
            script,
        );
        ports.push((format!("m{i}"), port));
        logs.push(log);
    }
    PlbMonitor::instantiate(&mut sim, "plbmon", clk, rst, ports.clone());
    PlbBus::new(
        &mut sim,
        "plb",
        clk,
        rst,
        arbitration,
        ports.iter().map(|(_, p)| *p).collect(),
        vec![(
            sport,
            AddressWindow {
                base: 0,
                len: 64 * 1024,
            },
        )],
    );
    (Tb { sim, mem }, logs)
}

#[test]
fn single_master_write_then_read_back() {
    let data: Vec<u32> = (0..32).map(|i| 0x1000 + i).collect();
    let (mut tb, logs) = testbench(
        ArbMode::FixedPriority,
        0,
        vec![(
            Handshake::Full,
            16,
            vec![
                BfmOp::Write {
                    addr: 0x100,
                    data: data.clone(),
                },
                BfmOp::Read {
                    addr: 0x100,
                    words: 32,
                },
            ],
        )],
    );
    tb.sim.run_for(3_000 * PERIOD).unwrap();
    let log = logs[0].borrow();
    assert_eq!(log.errors, 0);
    assert_eq!(log.completed, 2);
    assert_eq!(log.reads[0], data);
    // Memory contents visible to the testbench too.
    assert_eq!(tb.mem.read_u32(0x100), Some(0x1000));
    assert_eq!(tb.mem.read_u32(0x100 + 31 * 4), Some(0x1000 + 31));
    assert!(!tb.sim.has_errors(), "{:?}", tb.sim.messages());
}

#[test]
fn wait_states_slow_but_do_not_corrupt() {
    let data: Vec<u32> = (0..64).map(|i| i * 7 + 1).collect();
    let (mut tb, logs) = testbench(
        ArbMode::FixedPriority,
        5,
        vec![(
            Handshake::Full,
            8,
            vec![
                BfmOp::Write {
                    addr: 0,
                    data: data.clone(),
                },
                BfmOp::Read { addr: 0, words: 64 },
            ],
        )],
    );
    tb.sim.run_for(5_000 * PERIOD).unwrap();
    let log = logs[0].borrow();
    assert_eq!(log.completed, 2, "transfers did not finish");
    assert_eq!(log.reads[0], data);
    assert!(!tb.sim.has_errors());
}

#[test]
fn two_masters_interleave_without_data_loss() {
    let a: Vec<u32> = (0..100).map(|i| 0xAA00_0000 + i).collect();
    let b: Vec<u32> = (0..100).map(|i| 0xBB00_0000 + i).collect();
    let (mut tb, logs) = testbench(
        ArbMode::FixedPriority,
        0,
        vec![
            (
                Handshake::Full,
                16,
                vec![
                    BfmOp::Write {
                        addr: 0x0,
                        data: a.clone(),
                    },
                    BfmOp::Read {
                        addr: 0x0,
                        words: 100,
                    },
                ],
            ),
            (
                Handshake::Full,
                16,
                vec![
                    BfmOp::Write {
                        addr: 0x2000,
                        data: b.clone(),
                    },
                    BfmOp::Read {
                        addr: 0x2000,
                        words: 100,
                    },
                ],
            ),
        ],
    );
    tb.sim.run_for(10_000 * PERIOD).unwrap();
    assert_eq!(logs[0].borrow().completed, 2);
    assert_eq!(logs[1].borrow().completed, 2);
    assert_eq!(logs[0].borrow().reads[0], a);
    assert_eq!(logs[1].borrow().reads[0], b);
    assert!(!tb.sim.has_errors());
}

#[test]
fn fixed_priority_prefers_lower_index() {
    // Both masters hammer the bus; master 0 must finish first.
    let mk = |tag: u32| -> Vec<BfmOp> {
        (0..20)
            .map(|i| BfmOp::Write {
                addr: 0x1000 * (tag + 1) + i * 64,
                data: vec![tag; 16],
            })
            .collect()
    };
    let (mut tb, logs) = testbench(
        ArbMode::FixedPriority,
        0,
        vec![(Handshake::Full, 16, mk(0)), (Handshake::Full, 16, mk(1))],
    );
    // Run until master 0 done.
    let mut m0_done_at = None;
    let mut m1_done_at = None;
    for step in 0..4_000 {
        tb.sim.run_for(PERIOD).unwrap();
        if m0_done_at.is_none() && logs[0].borrow().completed == 20 {
            m0_done_at = Some(step);
        }
        if m1_done_at.is_none() && logs[1].borrow().completed == 20 {
            m1_done_at = Some(step);
        }
        if m0_done_at.is_some() && m1_done_at.is_some() {
            break;
        }
    }
    let (d0, d1) = (m0_done_at.unwrap(), m1_done_at.unwrap());
    assert!(
        d0 < d1,
        "fixed priority must favour master 0 ({d0} vs {d1})"
    );
}

#[test]
fn round_robin_shares_the_bus_fairly() {
    let mk = |tag: u32| -> Vec<BfmOp> {
        (0..20)
            .map(|i| BfmOp::Write {
                addr: 0x1000 * (tag + 1) + i * 64,
                data: vec![tag; 16],
            })
            .collect()
    };
    let (mut tb, logs) = testbench(
        ArbMode::RoundRobin,
        0,
        vec![(Handshake::Full, 16, mk(0)), (Handshake::Full, 16, mk(1))],
    );
    let mut m0_done_at = None;
    let mut m1_done_at = None;
    for step in 0..4_000 {
        tb.sim.run_for(PERIOD).unwrap();
        if m0_done_at.is_none() && logs[0].borrow().completed == 20 {
            m0_done_at = Some(step);
        }
        if m1_done_at.is_none() && logs[1].borrow().completed == 20 {
            m1_done_at = Some(step);
        }
        if m0_done_at.is_some() && m1_done_at.is_some() {
            break;
        }
    }
    let (d0, d1) = (m0_done_at.unwrap() as i64, m1_done_at.unwrap() as i64);
    assert!(
        (d0 - d1).abs() <= 25,
        "round robin should finish close together ({d0} vs {d1})"
    );
}

#[test]
fn decode_miss_reports_error_to_master() {
    let (mut tb, logs) = testbench(
        ArbMode::FixedPriority,
        0,
        vec![(
            Handshake::Full,
            16,
            vec![
                BfmOp::Write {
                    addr: 0xDEAD_0000,
                    data: vec![1, 2, 3],
                },
                // A good transfer afterwards proves the bus recovered.
                BfmOp::Write {
                    addr: 0x40,
                    data: vec![9],
                },
            ],
        )],
    );
    tb.sim.run_for(500 * PERIOD).unwrap();
    let log = logs[0].borrow();
    assert_eq!(log.errors, 1);
    assert_eq!(log.completed, 1);
    assert_eq!(tb.mem.read_u32(0x40), Some(9));
}

#[test]
fn fixed_latency_master_fails_on_shared_bus_and_is_flagged() {
    // bug.dpr.4 in miniature: a master keeping the fixed-latency timing
    // of a point-to-point link, dropped onto the arbitrated shared bus. Its data beats
    // fire before/without grant alignment and the transfer corrupts.
    let data: Vec<u32> = (100..116).collect();
    let (mut tb, _logs) = testbench(
        ArbMode::FixedPriority,
        3, // wait states push aready well past the assumed latency
        vec![(
            Handshake::FixedLatency { addr_latency: 2 },
            16,
            vec![BfmOp::Write {
                addr: 0x10,
                data: data.clone(),
            }],
        )],
    );
    tb.sim.run_for(500 * PERIOD).unwrap();
    // The write must NOT have landed intact.
    let written: Vec<Option<u32>> = tb.mem.read_words(0x10, 16);
    let intact = written.iter().zip(&data).all(|(w, d)| *w == Some(*d));
    assert!(!intact, "fixed-latency master should corrupt on shared bus");
    // And the monitor flagged the protocol violation (ungranted drive or
    // the resulting hang/corruption).
    assert!(tb.sim.has_errors(), "monitor should flag the violation");
}

#[test]
fn x_poisoned_memory_reads_back_as_unknown() {
    let (mut tb, logs) = testbench(
        ArbMode::FixedPriority,
        0,
        vec![(
            Handshake::Full,
            8,
            vec![
                BfmOp::Delay { cycles: 5 },
                BfmOp::Read {
                    addr: 0x200,
                    words: 4,
                },
            ],
        )],
    );
    tb.mem.load_words(0x200, &[1, 2, 3, 4]);
    tb.mem.poison_word(0x204);
    tb.sim.run_for(300 * PERIOD).unwrap();
    let log = logs[0].borrow();
    assert_eq!(log.completed, 1);
    // Beat 1 was poisoned.
    assert_eq!(log.reads[0][0], 1);
    assert_eq!(log.reads[0][2], 3);
    assert_eq!(log.reads[0][3], 4);
}
