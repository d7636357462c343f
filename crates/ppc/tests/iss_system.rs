//! Full-stack ISS tests: program fetch from memory, data over the PLB,
//! DCR accesses through a real daisy chain, interrupts through the
//! controller — the complete software execution substrate the AutoVision
//! case study relies on.

use dcr::{DcrChainBuilder, RegFile};
use plb::{AddressWindow, ArbMode, MasterPort, MemorySlave, PlbBus, SharedMem};
use ppc::{assemble, intc::reg as intreg, IntController, PpcIss, ISS_ENTRY};
use rtlsim::{SignalId, Simulator};
use std::cell::RefCell;
use std::rc::Rc;

const PERIOD: u64 = 10_000;

struct Sys {
    sim: Simulator,
    mem: SharedMem,
    stats: Rc<RefCell<ppc::IssStats>>,
    intc_regs: RegFile,
    line0: SignalId,
}

/// Memory map: 1 MB RAM at 0. DCR: scratch regs at 0x100, INTC at 0x300.
fn build(src: &str) -> Sys {
    let mut sim = Simulator::new();
    let clk = sim.signal("clk", 1);
    let rst = sim.signal("rst", 1);
    sim.add_clock(clk, PERIOD);
    sim.add_reset(rst, 2 * PERIOD);

    let mem = SharedMem::new(1 << 20);
    let (sport, _) = MemorySlave::instantiate(&mut sim, "mem", clk, rst, mem.clone(), 1, false);

    let cpu_port = MasterPort::alloc(&mut sim, "cpu");
    PlbBus::new(
        &mut sim,
        "plb",
        clk,
        rst,
        ArbMode::FixedPriority,
        vec![cpu_port],
        vec![(
            sport,
            AddressWindow {
                base: 0,
                len: 1 << 20,
            },
        )],
    );

    let scratch = RegFile::new(0x100, 8);
    let intc_regs = RegFile::new(0x300, 3);
    let mut chain = DcrChainBuilder::new(&mut sim, "dcr", clk, rst);
    chain.add_slave("scratch", scratch.clone(), None);
    chain.add_slave("intc", intc_regs.clone(), None);
    let dcr_handle = chain.finish();

    let line0 = sim.signal_init("irq_line0", 1, 0);
    let line1 = sim.signal_init("irq_line1", 1, 0);
    let irq = sim.signal("irq", 1);
    IntController::instantiate(
        &mut sim,
        "intc",
        clk,
        rst,
        vec![line0, line1],
        irq,
        intc_regs.clone(),
        false,
    );

    let program = assemble(src, ISS_ENTRY).unwrap();
    mem.load_bytes(program.base, &program.to_bytes());
    // Interrupt vector: a jump at 0x500 to the program's `isr` label, if
    // it defines one.
    if let Some(isr) = program.symbols.get("isr") {
        let jump = assemble(&format!("b target\n.equ target, {isr:#x}\n"), 0x500);
        // `b` needs a resolvable relative target; assemble directly:
        drop(jump);
        let word = ppc::Instr::B {
            target: (*isr as i64 - 0x500) as i32,
            link: false,
        }
        .encode();
        mem.write_u32(0x500, word);
    }

    let stats = PpcIss::instantiate(
        &mut sim,
        "cpu",
        clk,
        rst,
        irq,
        cpu_port,
        mem.clone(),
        dcr_handle,
    );
    Sys {
        sim,
        mem,
        stats,
        intc_regs,
        line0,
    }
}

fn run_to_halt(sys: &mut Sys, max_cycles: u64) {
    for _ in 0..max_cycles / 100 {
        sys.sim.run_for(100 * PERIOD).unwrap();
        let s = sys.stats.borrow();
        if s.halted {
            assert!(s.error.is_none(), "CPU error: {:?}", s.error);
            return;
        }
    }
    panic!("program did not halt within {max_cycles} cycles");
}

#[test]
fn program_computes_through_real_memory() {
    // Sum 1..=100 into memory at 0x8000, then read it back and double it.
    let mut sys = build(
        "
        li r3, 0          # acc
        li r4, 100
        mtctr r4
        li r5, 0          # i
loop:   addi r5, r5, 1
        add r3, r3, r5
        bdnz loop
        liw r6, 0x8000
        stw r3, 0(r6)
        lwz r7, 0(r6)
        add r7, r7, r7
        stw r7, 4(r6)
        halt
        ",
    );
    run_to_halt(&mut sys, 100_000);
    assert_eq!(sys.mem.read_u32(0x8000), Some(5050));
    assert_eq!(sys.mem.read_u32(0x8004), Some(10100));
    assert!(!sys.sim.has_errors(), "{:?}", sys.sim.messages());
}

#[test]
fn byte_stores_read_modify_write() {
    let mut sys = build(
        "
        liw r6, 0x8000
        liw r3, 0xAABBCCDD
        stw r3, 0(r6)
        li r4, 0x11
        stb r4, 1(r6)     # replace byte 1 (LE): 0xAABB11DD
        lwz r5, 0(r6)
        stw r5, 4(r6)
        halt
        ",
    );
    run_to_halt(&mut sys, 100_000);
    assert_eq!(sys.mem.read_u32(0x8004), Some(0xAABB11DD));
}

#[test]
fn dcr_round_trip_through_the_chain() {
    let mut sys = build(
        "
        .equ SCRATCH, 0x100
        liw r3, 0x12345678
        mtdcr SCRATCH, r3
        mfdcr r4, SCRATCH
        liw r6, 0x8000
        stw r4, 0(r6)
        halt
        ",
    );
    run_to_halt(&mut sys, 100_000);
    assert_eq!(sys.mem.read_u32(0x8000), Some(0x12345678));
}

#[test]
fn interrupt_service_routine_runs_and_returns() {
    // Main loop spins incrementing r3 and storing it; ISR acknowledges
    // the interrupt and bumps a counter in memory.
    let mut sys = build(
        "
        .equ INTC_STATUS, 0x300
        .equ INTC_ENABLE, 0x301
        .equ INTC_ACK,    0x302
        li r3, 1
        mtdcr INTC_ENABLE, r3  # enable line 0
        li r3, 0x8000          # MSR_EE
        mtmsr r3
        liw r6, 0x8000
        li r3, 0
main:   addi r3, r3, 1
        stw r3, 0(r6)
        b main

isr:    mfdcr r10, INTC_STATUS
        mtdcr INTC_ACK, r10    # clear what we saw
        liw r11, 0x9000
        lwz r12, 0(r11)
        addi r12, r12, 1
        stw r12, 0(r11)
        rfi
        ",
    );
    // Let the main loop get going.
    sys.sim.run_for(2_000 * PERIOD).unwrap();
    assert_eq!(sys.mem.read_u32(0x9000), Some(0));
    // Fire the interrupt line twice (with a gap).
    for _ in 0..2 {
        sys.sim.poke_u64(sys.line0, 1);
        sys.sim.run_for(10 * PERIOD).unwrap();
        sys.sim.poke_u64(sys.line0, 0);
        sys.sim.run_for(3_000 * PERIOD).unwrap();
    }
    assert_eq!(sys.mem.read_u32(0x9000), Some(2), "ISR ran once per edge");
    let s = sys.stats.borrow();
    assert_eq!(s.interrupts, 2);
    assert!(s.isr_cycles > 0);
    assert!(!s.halted);
    // Main loop kept running between interrupts.
    assert!(sys.mem.read_u32(0x8000).unwrap() > 10);
    // Interrupt pending bits were acknowledged.
    assert_eq!(sys.intc_regs.get(intreg::STATUS), 0);
}

#[test]
fn stats_account_for_stalls() {
    let mut sys = build(
        "
        liw r6, 0x8000
        li r3, 7
        stw r3, 0(r6)
        lwz r4, 0(r6)
        halt
        ",
    );
    run_to_halt(&mut sys, 10_000);
    let s = sys.stats.borrow();
    assert!(s.instret >= 6);
    assert!(s.mem_stall_cycles > 0, "bus transactions must cost cycles");
    assert!(
        s.cycles > s.instret,
        "CPI must exceed 1 with memory traffic"
    );
}

#[test]
fn illegal_instruction_halts_with_error() {
    let mut sys = build(".word 0xFFFFFFFF\n");
    sys.sim.run_for(100 * PERIOD).unwrap();
    let s = sys.stats.borrow();
    assert!(s.halted);
    assert!(s.error.as_deref().unwrap().contains("illegal"));
    assert!(sys.sim.has_errors());
}
