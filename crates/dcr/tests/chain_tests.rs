//! Integration tests for the DCR daisy chain: register access, chain
//! ordering, timeouts, and X corruption from a mid-chain slave — the
//! mechanism behind the paper's "DCR registers inside the RR" bug class.

use dcr::{DcrChainBuilder, DcrHandle, DcrOp, DcrResult, RegFile};
use rtlsim::{SignalId, Simulator};

const PERIOD: u64 = 10_000;

struct Tb {
    sim: Simulator,
    handle: DcrHandle,
    corrupt: SignalId,
    files: Vec<RegFile>,
}

/// Three slaves: engine params at 0x100, icapctrl at 0x200, misc at 0x300.
/// `corrupt_idx` marks one slave as living inside the reconfigurable
/// region (outputs X while `corrupt` is high).
fn testbench(corrupt_idx: Option<usize>) -> Tb {
    let mut sim = Simulator::new();
    let clk = sim.signal("clk", 1);
    let rst = sim.signal("rst", 1);
    let corrupt = sim.signal_init("rr_reconfiguring", 1, 0);
    sim.add_clock(clk, PERIOD);
    sim.add_reset(rst, 2 * PERIOD);
    let files = vec![
        RegFile::new(0x100, 8),
        RegFile::new(0x200, 8),
        RegFile::new(0x300, 4),
    ];
    let mut chain = DcrChainBuilder::new(&mut sim, "dcr", clk, rst);
    for (i, (label, rf)) in [
        ("engine", &files[0]),
        ("icap", &files[1]),
        ("misc", &files[2]),
    ]
    .iter()
    .enumerate()
    {
        let x = if corrupt_idx == Some(i) {
            Some(corrupt)
        } else {
            None
        };
        chain.add_slave(label, (*rf).clone(), x);
    }
    let handle = chain.finish();
    Tb {
        sim,
        handle,
        corrupt,
        files,
    }
}

fn run_op(tb: &mut Tb, op: DcrOp) -> DcrResult {
    tb.handle.request(op);
    for _ in 0..200 {
        tb.sim.run_for(PERIOD).unwrap();
        if let Some((done_op, r)) = tb.handle.poll() {
            assert_eq!(done_op, op);
            return r;
        }
    }
    panic!("DCR op {op:?} never completed");
}

#[test]
fn write_then_read_each_slave() {
    let mut tb = testbench(None);
    for (base, val) in [
        (0x100u16, 0xAAAA_0001u32),
        (0x200, 0xBBBB_0002),
        (0x300, 0xCCCC_0003),
    ] {
        assert_eq!(run_op(&mut tb, DcrOp::Write(base, val)), DcrResult::Ok(val));
        assert_eq!(run_op(&mut tb, DcrOp::Read(base)), DcrResult::Ok(val));
    }
    assert!(!tb.sim.has_errors());
    // Hardware-side view matches.
    assert_eq!(tb.files[0].get(0), 0xAAAA_0001);
    assert_eq!(tb.files[1].get(0), 0xBBBB_0002);
    assert_eq!(tb.files[2].get(0), 0xCCCC_0003);
}

#[test]
fn hardware_sees_bus_write_events() {
    let mut tb = testbench(None);
    run_op(&mut tb, DcrOp::Write(0x101, 7));
    run_op(&mut tb, DcrOp::Write(0x102, 9));
    let events = tb.files[0].take_writes();
    assert_eq!(events, vec![(1, 7), (2, 9)]);
}

#[test]
fn unmapped_address_times_out() {
    let mut tb = testbench(None);
    assert_eq!(run_op(&mut tb, DcrOp::Read(0x3FF)), DcrResult::Timeout);
    assert!(tb.sim.has_errors(), "timeout must be reported");
    // The chain still works afterwards.
    tb.sim.take_messages();
    assert_eq!(run_op(&mut tb, DcrOp::Write(0x100, 1)), DcrResult::Ok(1));
}

#[test]
fn back_to_back_requests_complete_in_order() {
    let mut tb = testbench(None);
    tb.handle.request(DcrOp::Write(0x100, 10));
    tb.handle.request(DcrOp::Write(0x101, 11));
    tb.handle.request(DcrOp::Read(0x100));
    tb.handle.request(DcrOp::Read(0x101));
    tb.sim.run_for(300 * PERIOD).unwrap();
    let mut results = Vec::new();
    while let Some(r) = tb.handle.poll() {
        results.push(r);
    }
    assert_eq!(
        results,
        vec![
            (DcrOp::Write(0x100, 10), DcrResult::Ok(10)),
            (DcrOp::Write(0x101, 11), DcrResult::Ok(11)),
            (DcrOp::Read(0x100), DcrResult::Ok(10)),
            (DcrOp::Read(0x101), DcrResult::Ok(11)),
        ]
    );
    assert!(!tb.handle.busy());
}

#[test]
fn corrupted_last_slave_poisons_every_access() {
    // Slave 2 (misc, nearest the master's return path) is inside the RR.
    let mut tb = testbench(Some(2));
    // Clean while the region is not reconfiguring.
    assert_eq!(run_op(&mut tb, DcrOp::Write(0x100, 5)), DcrResult::Ok(5));
    // Start "reconfiguration".
    tb.sim.poke_u64(tb.corrupt, 1);
    // ANY access now corrupts — even one addressed to a static slave,
    // because its response must pass through the X-driving slave.
    assert_eq!(run_op(&mut tb, DcrOp::Read(0x100)), DcrResult::CorruptX);
    assert_eq!(run_op(&mut tb, DcrOp::Read(0x200)), DcrResult::CorruptX);
    assert!(tb.sim.has_errors(), "corruption must be reported");
    // Reconfiguration ends; the chain heals.
    tb.sim.take_messages();
    tb.sim.poke_u64(tb.corrupt, 0);
    assert_eq!(run_op(&mut tb, DcrOp::Read(0x100)), DcrResult::Ok(5));
}

#[test]
fn corrupted_first_slave_poisons_downstream_writes_only() {
    // Slave 0 (engine) is inside the RR; slaves 1 and 2 are downstream of
    // it on the WRITE-data path but replace the response themselves.
    let mut tb = testbench(Some(0));
    assert_eq!(run_op(&mut tb, DcrOp::Write(0x200, 42)), DcrResult::Ok(42));
    tb.sim.poke_u64(tb.corrupt, 1);
    // Reads of downstream slaves still work: the selected slave sources
    // both data and ack itself.
    assert_eq!(run_op(&mut tb, DcrOp::Read(0x200)), DcrResult::Ok(42));
    // But a WRITE to a downstream slave passes its data through the
    // corrupted segment and arrives as X.
    run_op(&mut tb, DcrOp::Write(0x201, 99));
    assert!(
        tb.sim
            .messages()
            .iter()
            .any(|m| m.text.contains("received X data")),
        "downstream write corruption must be reported: {:?}",
        tb.sim.messages()
    );
    // Accessing the corrupted slave itself fails outright.
    assert_eq!(run_op(&mut tb, DcrOp::Read(0x100)), DcrResult::CorruptX);
}

#[test]
fn chain_order_matters_for_blast_radius() {
    // The same bug (DCR regs inside the RR) has a wider blast radius the
    // closer the slave sits to the master's return path — quantify it.
    let blast = |idx: usize| -> usize {
        let mut tb = testbench(Some(idx));
        tb.sim.poke_u64(tb.corrupt, 1);
        [0x100u16, 0x200, 0x300]
            .iter()
            .filter(|a| run_op(&mut tb, DcrOp::Read(**a)) == DcrResult::CorruptX)
            .count()
    };
    assert_eq!(blast(0), 1, "first slave: only itself unreadable");
    assert_eq!(blast(1), 2, "middle slave: itself + upstream responses");
    assert_eq!(blast(2), 3, "last slave: every response corrupted");
}
