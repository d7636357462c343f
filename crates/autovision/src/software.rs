//! The embedded system software (PowerPC assembly).
//!
//! [`generate`] writes the AutoVision control program for either region
//! topology exactly as Figure 2 of the paper describes: the processing
//! flow is pipelined — the CPU draws motion vectors for the *previous*
//! frame while the engines process the current one — and the start, end
//! and reconfiguration of the video engines are controlled by an
//! interrupt service routine independent of the main loop. Both
//! topologies share the main loop, the draw routine, the ISR's entry,
//! housekeeping loop and exit, and the buffer helpers; only the header
//! comments, a few equates and init lines, the ISR's interrupt handlers
//! and the ME start routine differ.
//!
//! Per frame, with CIE and ME time-sharing one region
//! ([`Scenario::SingleRegion`], the paper's demonstrator):
//!
//! 1. video-in interrupt: start the CIE on the captured buffer;
//! 2. engine interrupt (CIE done): isolate the region and start the
//!    IcapCTRL transferring the ME bitstream;
//! 3. IcapCTRL interrupt: drop isolation, program/reset/start the ME;
//! 4. engine interrupt (ME done): flag vectors ready (main loop draws
//!    and displays them), isolate, transfer the CIE bitstream back;
//! 5. IcapCTRL interrupt: drop isolation and request the next frame.
//!
//! Per frame, with the CIE in region A (`ENG_*` control block) and the
//! ME in region B (`ENGB_*`) ([`Scenario::SplitPipeline`]):
//!
//! 1. video-in interrupt: start the CIE in region A *and* isolate
//!    region B while IcapCTRL reloads its ME image — reconfiguration
//!    overlaps computation instead of serialising with it;
//! 2. when *both* the CIE and the reload finish (`PEND` rendezvous,
//!    either order): start the ME in region B and reload region A's
//!    CIE image behind isolation;
//! 3. when both the ME and that reload finish: publish the vectors and
//!    request the next frame.
//!
//! Either way that is *two partial reconfigurations per frame*, as the
//! real system requires to sustain throughput; the split pipeline hides
//! each behind the other region's compute half.
//!
//! Under Virtual Multiplexing the DPR steps are replaced by the "hack":
//! writing the simulation-only `engine_signature` register and starting
//! the other engine immediately — the ~100 modified software lines the
//! paper tallies. In the split pipeline both engines stay resident
//! (their signature registers are programmed once at init) and the ISR
//! simply chains CIE → ME → publish. Under ReSim the program is the
//! production program, unchanged.
//!
//! The software bugs of the catalog are generated as source-level
//! variants of the single-region program, exactly where a real driver
//! would get them wrong, and so is the resilient driver of the recovery
//! policy; [`SystemConfig::scenario`] rejects both in the split
//! pipeline.

use crate::faults::{Bug, FaultSet};
use crate::system::{MemLayout, Scenario, SystemConfig};

/// Which DPR simulation method the program must target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimMethod {
    /// Virtual Multiplexing: hacked software, signature-register swap.
    Vmux,
    /// ReSim: production software, bitstream-triggered swap.
    Resim,
}

impl SimMethod {
    /// Whether the backend this method selects models the configuration
    /// bitstream itself (DMA traffic, error injection, transfer-timed
    /// swaps). Capability checks — where the system build places the
    /// DCR chain, expectation tables, coverage analyses — ask this
    /// rather than match on the method enum.
    pub fn models_bitstream(self) -> bool {
        match self {
            SimMethod::Resim => true,
            SimMethod::Vmux => false,
        }
    }
}

/// DCR address map (shared with `system.rs`).
pub mod dcr_map {
    /// Engine control block base.
    pub const ENG: u16 = 0x100;
    /// IcapCTRL base.
    pub const ICAPC: u16 = 0x110;
    /// Interrupt controller base.
    pub const INTC: u16 = 0x120;
    /// System control base (reg0 = isolate, reg2 = heartbeat).
    pub const SYS: u16 = 0x130;
    /// Video-in VIP base.
    pub const VIN: u16 = 0x140;
    /// Video-out VIP base.
    pub const VOUT: u16 = 0x148;
    /// Engine control block of the second region (split-pipeline
    /// scenario; further regions follow at 8-register strides).
    pub const ENG_B: u16 = 0x150;
    /// VMUX `engine_signature` register (simulation-only; one register
    /// per region, consecutive addresses).
    pub const SIG: u16 = 0x1F0;

    /// Engine control block base of region `idx`.
    pub fn eng_base(idx: usize) -> u16 {
        if idx == 0 {
            ENG
        } else {
            ENG_B + 8 * (idx as u16 - 1)
        }
    }

    /// Signature register address of region `idx`.
    pub fn sig_base(idx: usize) -> u16 {
        SIG + idx as u16
    }
}

/// Software data addresses (below the program, above the vectors).
pub mod data_map {
    /// Vectors-ready flag.
    pub const FLAG: u32 = 0x8000;
    /// Pipeline phase.
    pub const PHASE: u32 = 0x8004;
    /// Frames fully captured/processed.
    pub const FRAME: u32 = 0x8008;
    /// Buffer the main loop should draw onto / display.
    pub const DRAWBUF: u32 = 0x800C;
    /// Frames drawn+displayed by the main loop.
    pub const DRAWN: u32 = 0x8010;
    /// Degraded-mode latch: set when reconfiguration failed permanently
    /// and the driver falls back to stale vectors (recovery builds
    /// only).
    pub const DEGRADED: u32 = 0x8014;
    /// Half-frame rendezvous bitmask (split-pipeline scenario): bit 0 =
    /// the computing engine finished, bit 1 = the idle region's reload
    /// finished. The pipeline advances only when both are set.
    pub const PEND: u32 = 0x8018;
}

/// VMUX signature values.
pub const SIG_CIE: u32 = 1;
/// VMUX signature value for the matching engine.
pub const SIG_ME: u32 = 2;

/// Generate the system program for `cfg`'s region topology
/// ([`SystemConfig::scenario`]) with the buffer and SimB addresses of
/// `layout`. Assemble at `0x1000`.
///
/// The ISR's housekeeping loop runs `cfg.isr_pad_loops` times (the
/// Table II bench calibrates it to the paper's 0.5 ms); bug.dpr.6a's
/// fixed wait runs `cfg.fixed_wait_loops` times. With the recovery
/// policy enabled the ICAP-done handler checks the controller's
/// permanent-failure status bit and, once the hardware retry budget is
/// exhausted, keeps isolation asserted, enters degraded mode and keeps
/// the frame pipeline moving by republishing the previous frame's
/// motion vectors.
pub fn generate(cfg: &SystemConfig, layout: &MemLayout) -> String {
    let split = cfg
        .scenario()
        .expect("region topology must be valid (validated by SystemConfig::builder)")
        == Scenario::SplitPipeline;
    let f = &cfg.faults;
    let simb_words = |(_, words): (u32, u32)| {
        if f.has(Bug::Dpr5StaleSizeCalc) {
            // BUG: the driver still divides the byte count by the original
            // controller's 64-bit word size.
            words / 2
        } else {
            words
        }
    };
    // Interrupt enable mask: videoin | engine (| icap when the software
    // actually waits for transfer completion) (| region B's engine, INTC
    // line 4; line 3 is videoout, left unmasked).
    let waits_for_icap = cfg.method == SimMethod::Resim
        && !f.has(Bug::Dpr6aShortFixedWait)
        && !f.has(Bug::Dpr6bNoWaitTransfer);
    let mut int_mask = if waits_for_icap { 0b0111 } else { 0b0011 };
    if split {
        int_mask |= 0b1_0000;
    }

    let mut s = String::with_capacity(16 * 1024);
    let mut p = |line: &str| {
        s.push_str(line);
        s.push('\n');
    };

    if split {
        p("# AutoVision Optical Flow Demonstrator — split-pipeline software");
        p(&format!("# method={:?} regions=A:CIE B:ME", cfg.method));
    } else {
        p("# AutoVision Optical Flow Demonstrator — system software");
        p(&format!("# method={:?} faults={:?}", cfg.method, f.bugs()));
    }
    let (eng, eng_b) = (dcr_map::ENG as u32, dcr_map::ENG_B as u32);
    let mut equates = if split {
        vec![
            ("ENG_CTRL", eng),
            ("ENG_SRC", eng + 2),
            ("ENG_DST", eng + 3),
            ("ENG_W", eng + 6),
            ("ENG_H", eng + 7),
            ("ENGB_CTRL", eng_b),
            ("ENGB_SRC", eng_b + 2),
            ("ENGB_AUX", eng_b + 4),
            ("ENGB_VEC", eng_b + 5),
            ("ENGB_W", eng_b + 6),
            ("ENGB_H", eng_b + 7),
        ]
    } else {
        vec![
            ("ENG_CTRL", eng),
            ("ENG_STATUS", eng + 1),
            ("ENG_SRC", eng + 2),
            ("ENG_DST", eng + 3),
            ("ENG_AUX", eng + 4),
            ("ENG_VEC", eng + 5),
            ("ENG_W", eng + 6),
            ("ENG_H", eng + 7),
        ]
    };
    equates.extend([
        ("ICAP_CTRL", dcr_map::ICAPC as u32),
        ("ICAP_ADDR", dcr_map::ICAPC as u32 + 2),
        ("ICAP_SIZE", dcr_map::ICAPC as u32 + 3),
        ("INTC_STATUS", dcr_map::INTC as u32),
        ("INTC_ENABLE", dcr_map::INTC as u32 + 1),
        ("INTC_ACK", dcr_map::INTC as u32 + 2),
        ("SYS_ISOLATE", dcr_map::SYS as u32),
        ("SYS_HEARTBEAT", dcr_map::SYS as u32 + 2),
        ("VIN_ADDR", dcr_map::VIN as u32),
        ("VIN_CTRL", dcr_map::VIN as u32 + 1),
        ("VOUT_ADDR", dcr_map::VOUT as u32),
        ("VOUT_CTRL", dcr_map::VOUT as u32 + 1),
        ("VOUT_STATUS", dcr_map::VOUT as u32 + 2),
    ]);
    if split {
        equates.push(("SIG_A_REG", dcr_map::sig_base(0) as u32));
        equates.push(("SIG_B_REG", dcr_map::sig_base(1) as u32));
    } else {
        equates.push(("SIG_REG", dcr_map::SIG as u32));
    }
    equates.extend([
        ("FLAG", data_map::FLAG),
        ("PHASE", data_map::PHASE),
        ("FRAME", data_map::FRAME),
        ("DRAWBUF", data_map::DRAWBUF),
        ("DRAWN", data_map::DRAWN),
    ]);
    if split {
        equates.push(("PEND", data_map::PEND));
    }
    equates.extend([
        ("IN0", layout.in0),
        ("CEN0", layout.cen0),
        ("VECS", layout.vecs),
        ("STRIDE", (cfg.width * cfg.height) as u32),
        ("WIDTH", cfg.width as u32),
        ("HEIGHT", cfg.height as u32),
        ("NFRAMES", cfg.n_frames as u32),
        ("SIMB_ME", layout.simb_me.0),
        ("SIMB_ME_W", simb_words(layout.simb_me)),
        ("SIMB_CIE", layout.simb_cie.0),
        ("SIMB_CIE_W", simb_words(layout.simb_cie)),
        ("INTMASK", int_mask),
        ("ISRPAD", cfg.isr_pad_loops.max(1)),
    ]);
    if !split {
        equates.push(("FIXWAIT", cfg.fixed_wait_loops.max(1)));
    }
    if cfg.recovery.enabled {
        equates.push(("ICAP_STATUS", dcr_map::ICAPC as u32 + 1));
        equates.push(("DEGRADED", data_map::DEGRADED));
    }
    for (name, val) in equates {
        p(&format!(".equ {name}, {val:#x}"));
    }

    // ----- initialisation -----
    p("init:");
    p("  li r3, 0");
    p("  liw r10, FLAG");
    if split {
        p("  stw r3, 0(r10)");
    } else {
        p("  stw r3, 0(r10)          # FLAG = 0");
    }
    let extra_var = if split {
        Some("PEND")
    } else {
        cfg.recovery.enabled.then_some("DEGRADED")
    };
    for var in ["PHASE", "FRAME", "DRAWN"].into_iter().chain(extra_var) {
        p(&format!("  liw r10, {var}"));
        p("  stw r3, 0(r10)");
    }
    if split {
        p("  mtdcr SYS_ISOLATE, r3   # no region isolated");
    } else {
        p("  mtdcr SYS_ISOLATE, r3   # region not isolated");
    }
    p("  li r3, INTMASK");
    p("  mtdcr INTC_ENABLE, r3");
    // Engine geometry never changes: program it once.
    let engines: &[&str] = if split { &["ENG", "ENGB"] } else { &["ENG"] };
    if split {
        p("  # engine geometry never changes: program both regions once");
    }
    for (reg, value) in [("W", "WIDTH"), ("H", "HEIGHT")] {
        p(&format!("  liw r3, {value}"));
        for eng in engines {
            p(&format!("  mtdcr {eng}_{reg}, r3"));
        }
    }
    if cfg.method == SimMethod::Vmux {
        if split {
            p("  # VMUX hack: both engines permanently resident");
            p(&format!("  li r3, {SIG_CIE}"));
            p("  mtdcr SIG_A_REG, r3");
            p(&format!("  li r3, {SIG_ME}"));
            p("  mtdcr SIG_B_REG, r3");
        } else if f.has(Bug::Hw2SignatureUninit) {
            p("  # BUG hw.2: forgot to initialise engine_signature —");
            p("  # the register powers up to garbage, no engine selected");
        } else {
            p("  # VMUX hack: select the CIE in the wrapper");
            p(&format!("  li r3, {SIG_CIE}"));
            p("  mtdcr SIG_REG, r3");
        }
    }
    p("  # request the first frame into IN0");
    p("  liw r3, IN0");
    p("  mtdcr VIN_ADDR, r3");
    p("  li r3, 1");
    p("  mtdcr VIN_CTRL, r3");
    p("  # enable external interrupts");
    p("  liw r3, 0x8000");
    p("  mtmsr r3");

    // ----- main loop (draw + display, pipelined with the engines) -----
    p("main:");
    p("  li r6, 0                # heartbeat counter");
    if f.has(Bug::Sw2FlagCached) {
        p("  # BUG sw.2: flag loaded once, outside the loop");
        p("  liw r10, FLAG");
        p("  lwz r5, 0(r10)");
    }
    p("mloop:");
    p("  addi r6, r6, 1");
    p("  mtdcr SYS_HEARTBEAT, r6 # liveness telemetry every iteration");
    if f.has(Bug::Sw2FlagCached) {
        p("  # (stale r5 from before the loop)");
    } else {
        p("  liw r10, FLAG");
        p("  lwz r5, 0(r10)");
    }
    p("  cmpwi r5, 0");
    p("  beq mloop");
    p("  # vectors ready: clear the flag and draw them");
    p("  li r5, 0");
    p("  liw r10, FLAG");
    p("  stw r5, 0(r10)");
    p("  bl draw");
    p("  # display the drawn buffer");
    p("  liw r10, DRAWBUF");
    p("  lwz r3, 0(r10)");
    p("  mtdcr VOUT_ADDR, r3");
    p("  li r3, 1");
    p("  mtdcr VOUT_CTRL, r3");
    p("  # count it; halt after the last frame drains");
    p("  liw r10, DRAWN");
    p("  lwz r3, 0(r10)");
    p("  addi r3, r3, 1");
    p("  stw r3, 0(r10)");
    p("  cmplwi r3, NFRAMES");
    p("  blt mloop");
    p("wait_vout:");
    p("  mfdcr r3, VOUT_STATUS");
    p("  cmpwi r3, 0");
    p("  bne wait_vout");
    p("  halt");

    // ----- draw: anchor + endpoint markers for each motion vector -----
    p("draw:");
    p("  liw r8, VECS");
    p("  lwz r7, 0(r8)           # vector count");
    p("  cmpwi r7, 0");
    p("  beq drawret");
    p("  mtctr r7");
    p("  addi r8, r8, 4");
    p("  liw r10, DRAWBUF");
    p("  lwz r9, 0(r10)          # target buffer");
    p("  liw r4, WIDTH");
    p("dloop:");
    p("  lwz r11, 0(r8)");
    p("  addi r8, r8, 4");
    p("  srwi r12, r11, 20       # x");
    p("  andi. r12, r12, 0xFFF");
    p("  srwi r13, r11, 8        # y");
    p("  andi. r13, r13, 0xFFF");
    p("  srwi r14, r11, 4        # dx+8");
    p("  andi. r14, r14, 0xF");
    p("  addi r14, r14, -8");
    p("  andi. r15, r11, 0xF     # dy+8");
    p("  addi r15, r15, -8");
    p("  or r16, r14, r15");
    p("  cmpwi r16, 0");
    p("  beq dskip               # zero vector: nothing to draw");
    p("  mullw r16, r13, r4      # anchor marker");
    p("  add r16, r16, r12");
    p("  add r16, r16, r9");
    p("  li r17, 255");
    p("  stb r17, 0(r16)");
    p("  add r18, r12, r14       # endpoint marker at (x+dx, y+dy)");
    p("  add r19, r13, r15");
    p("  mullw r16, r19, r4");
    p("  add r16, r16, r18");
    p("  add r16, r16, r9");
    p("  li r17, 254");
    p("  stb r17, 0(r16)");
    p("dskip:");
    p("  bdnz dloop");
    p("drawret:");
    p("  blr");

    // ----- interrupt service routine -----
    // Register discipline: the ISR owns r20-r31 exclusively; it saves
    // CR and LR because the main loop uses both.
    p("isr:");
    p("  mfcr r29");
    p("  mflr r28");
    p("  mfspr r31, ctr          # the main loop's draw uses CTR too");
    p("  mfdcr r20, INTC_STATUS");
    p("  mtdcr INTC_ACK, r20");
    if !split {
        p("  # NOTE: handlers below assume at most one pipeline-step bit per");
        p("  # invocation; the sequential frame pipeline guarantees it (each");
        p("  # step's interrupt is acked before the next step is even started)");
    }
    p("  # calibrated housekeeping (frame statistics, watchdog petting)");
    p("  liw r21, ISRPAD");
    p("  mtctr r21");
    p("ipad:");
    p("  bdnz ipad");
    if split {
        split_pipeline_handlers(&mut p, cfg.method);
        // The half-frame switches below return through here.
        p("isr_exit:");
    } else {
        single_region_handlers(&mut p, cfg, waits_for_icap);
    }
    p("  mtspr ctr, r31");
    p("  mtlr r28");
    p("  mtcrf r29");
    p("  rfi");
    if split {
        split_pipeline_switches(&mut p, cfg.method);
    }

    // ----- ISR helpers (use r24-r27 and the link register) -----
    p("# r24 = IN[FRAME&1], r25 = CEN[FRAME&1], r26 = CEN[(FRAME+1)&1]");
    p("cur_in:");
    p("  liw r24, FRAME");
    p("  lwz r24, 0(r24)");
    p("  andi. r27, r24, 1");
    p("  liw r25, STRIDE");
    p("  mullw r27, r27, r25");
    p("  liw r24, IN0");
    p("  add r24, r24, r27");
    p("  liw r25, CEN0");
    p("  add r25, r25, r27");
    p("  liw r26, FRAME");
    p("  lwz r26, 0(r26)");
    p("  addi r26, r26, 1");
    p("  andi. r26, r26, 1");
    p("  liw r27, STRIDE");
    p("  mullw r26, r26, r27");
    p("  liw r27, CEN0");
    p("  add r26, r26, r27");
    p("  blr");
    // The ME start routine: region B's control block in the split
    // pipeline, the one region's otherwise.
    if split {
        p("start_me_b:");
        p("  mflr r30                # nested call: save return");
        p("  bl cur_in");
        p("  mtdcr ENGB_SRC, r25     # current census image");
        p("  mtdcr ENGB_AUX, r26     # previous census image");
        p("  liw r27, VECS");
        p("  mtdcr ENGB_VEC, r27");
        p("  li r27, 2");
        p("  mtdcr ENGB_CTRL, r27    # region B: reset (latch ME parameters)");
        p("  li r27, 1");
        p("  mtdcr ENGB_CTRL, r27    # region B: start the ME");
        p("  mtlr r30");
        p("  blr");
    } else {
        // bug.sw.1's publish target: the buffer the camera fills next.
        p("next_in:");
        p("  liw r24, FRAME");
        p("  lwz r24, 0(r24)");
        p("  addi r24, r24, 1");
        p("  andi. r27, r24, 1");
        p("  liw r25, STRIDE");
        p("  mullw r27, r27, r25");
        p("  liw r24, IN0");
        p("  add r24, r24, r27");
        p("  blr");
        p("start_me:");
        p("  mflr r30                # nested call: save return");
        p("  bl cur_in");
        p("  mtdcr ENG_SRC, r25      # current census image");
        p("  mtdcr ENG_AUX, r26      # previous census image");
        p("  liw r27, VECS");
        p("  mtdcr ENG_VEC, r27");
        p("  li r27, 2");
        p("  mtdcr ENG_CTRL, r27     # reset: latch ME parameters");
        p("  li r27, 1");
        p("  mtdcr ENG_CTRL, r27     # start the ME");
        p("  mtlr r30");
        p("  blr");
    }

    p("advance_frame:");
    p("  mflr r30");
    p("  liw r27, FRAME");
    p("  lwz r24, 0(r27)");
    p("  addi r24, r24, 1");
    p("  stw r24, 0(r27)");
    p("  li r25, 0");
    p("  liw r27, PHASE");
    p("  stw r25, 0(r27)         # phase 0: waiting for the camera");
    p("  cmplwi r24, NFRAMES");
    p("  bge adv_done            # no more frames to request");
    p("  bl next_in2");
    p("  mtdcr VIN_ADDR, r24");
    p("  li r25, 1");
    p("  mtdcr VIN_CTRL, r25");
    p("adv_done:");
    p("  mtlr r30");
    p("  blr");
    p("next_in2:");
    p("  liw r24, FRAME");
    p("  lwz r24, 0(r24)");
    p("  andi. r27, r24, 1");
    p("  liw r25, STRIDE");
    p("  mullw r27, r27, r25");
    p("  liw r24, IN0");
    p("  add r24, r24, r27");
    p("  blr");

    s
}

/// The single-region ISR's handlers: video-in done, engine done (the
/// phase tells the CIE from the ME) and, when the software waits for
/// it, IcapCTRL done.
fn single_region_handlers(p: &mut impl FnMut(&str), cfg: &SystemConfig, waits_for_icap: bool) {
    let f = &cfg.faults;
    let recovery = cfg.recovery.enabled;

    // --- video-in done: start the CIE ---
    p("  andi. r21, r20, 1");
    p("  beq n_vin");
    if recovery {
        p("  liw r22, DEGRADED");
        p("  lwz r21, 0(r22)");
        p("  cmpwi r21, 0");
        p("  beq vin_ok");
        p("  # degraded mode: the region is dead behind isolation — skip");
        p("  # the engines and republish the previous frame's vectors");
        p("  bl cur_in");
        p("  liw r22, DRAWBUF");
        p("  stw r24, 0(r22)");
        p("  li r21, 1");
        p("  liw r22, FLAG");
        p("  stw r21, 0(r22)");
        p("  bl advance_frame");
        p("  b n_vin");
        p("vin_ok:");
    }
    p("  bl cur_in               # r24 = IN[FRAME&1], r25 = CEN[FRAME&1]");
    p("  mtdcr ENG_SRC, r24");
    p("  mtdcr ENG_DST, r25");
    p("  li r21, 2               # engine reset (latches parameters)");
    p("  mtdcr ENG_CTRL, r21");
    p("  li r21, 1               # engine start");
    p("  mtdcr ENG_CTRL, r21");
    p("  li r21, 1");
    p("  liw r22, PHASE");
    p("  stw r21, 0(r22)         # phase 1: CIE running");
    p("n_vin:");

    // --- engine done: phase decides CIE->DPR or ME->flag+DPR ---
    p("  andi. r21, r20, 2");
    p("  beq n_eng");
    p("  liw r22, PHASE");
    p("  lwz r23, 0(r22)");
    p("  cmpwi r23, 1");
    p("  bne eng_me");
    // CIE finished: reconfigure region to the ME.
    match cfg.method {
        SimMethod::Vmux => {
            p("  # VMUX hack: instant swap via the signature register");
            p(&format!("  li r21, {SIG_ME}"));
            p("  mtdcr SIG_REG, r21");
            p("  bl start_me");
            p("  li r21, 3");
            p("  liw r22, PHASE");
            p("  stw r21, 0(r22)");
        }
        SimMethod::Resim => {
            emit_isolate_on(p, f);
            p("  liw r21, SIMB_ME");
            p("  mtdcr ICAP_ADDR, r21");
            p("  liw r21, SIMB_ME_W");
            p("  mtdcr ICAP_SIZE, r21");
            p("  li r21, 1");
            p("  mtdcr ICAP_CTRL, r21    # begin bitstream transfer");
            if f.has(Bug::Dpr6bNoWaitTransfer) {
                p("  # BUG dpr.6b: no wait for transfer completion");
                emit_isolate_off(p);
                p("  bl start_me");
                p("  li r21, 3");
                p("  liw r22, PHASE");
                p("  stw r21, 0(r22)");
            } else if f.has(Bug::Dpr6aShortFixedWait) {
                p("  # BUG dpr.6a: fixed wait tuned for the old config clock");
                p("  liw r21, FIXWAIT");
                p("  mtctr r21");
                p("fw1:");
                p("  bdnz fw1");
                emit_isolate_off(p);
                p("  bl start_me");
                p("  li r21, 3");
                p("  liw r22, PHASE");
                p("  stw r21, 0(r22)");
            } else {
                p("  li r21, 2");
                p("  liw r22, PHASE");
                p("  stw r21, 0(r22)         # phase 2: transferring ME");
            }
        }
    }
    p("  b n_eng");
    p("eng_me:");
    p("  cmpwi r23, 3");
    p("  bne n_eng");
    // ME finished: publish vectors, reconfigure back to CIE.
    p("  li r21, 1");
    p("  liw r22, FLAG");
    p("  stw r21, 0(r22)         # vectors ready for the main loop");
    if f.has(Bug::Sw1DrawWrongBuffer) {
        p("  # BUG sw.1: publishes the buffer the camera will overwrite");
        p("  bl next_in");
    } else {
        p("  bl cur_in");
    }
    p("  liw r22, DRAWBUF");
    p("  stw r24, 0(r22)");
    match cfg.method {
        SimMethod::Vmux => {
            p(&format!("  li r21, {SIG_CIE}"));
            p("  mtdcr SIG_REG, r21");
            p("  bl advance_frame");
        }
        SimMethod::Resim => {
            emit_isolate_on(p, f);
            p("  liw r21, SIMB_CIE");
            p("  mtdcr ICAP_ADDR, r21");
            p("  liw r21, SIMB_CIE_W");
            p("  mtdcr ICAP_SIZE, r21");
            p("  li r21, 1");
            p("  mtdcr ICAP_CTRL, r21");
            if f.has(Bug::Dpr6bNoWaitTransfer) {
                emit_isolate_off(p);
                p("  bl advance_frame");
            } else if f.has(Bug::Dpr6aShortFixedWait) {
                p("  liw r21, FIXWAIT");
                p("  mtctr r21");
                p("fw2:");
                p("  bdnz fw2");
                emit_isolate_off(p);
                p("  bl advance_frame");
            } else {
                p("  li r21, 4");
                p("  liw r22, PHASE");
                p("  stw r21, 0(r22)         # phase 4: transferring CIE");
            }
        }
    }
    p("n_eng:");

    // --- IcapCTRL done (only when the software waits for it) ---
    if waits_for_icap {
        p("  andi. r21, r20, 4");
        p("  beq n_icap");
        if recovery {
            p("  mfdcr r21, ICAP_STATUS");
            p("  andi. r21, r21, 4       # bit2: permanent failure");
            p("  beq icap_ok");
            p("  # retries exhausted: keep isolation asserted so the dead");
            p("  # region cannot corrupt the bus, latch degraded mode and");
            p("  # keep the pipeline moving on the last good vectors");
            p("  li r21, 1");
            p("  liw r22, DEGRADED");
            p("  stw r21, 0(r22)");
            p("  liw r22, PHASE");
            p("  lwz r23, 0(r22)");
            p("  cmpwi r23, 2");
            p("  bne icap_dead");
            p("  # the ME never arrived: this frame reuses the previous");
            p("  # frame's vectors (skip the matching pass entirely)");
            p("  bl cur_in");
            p("  liw r22, DRAWBUF");
            p("  stw r24, 0(r22)");
            p("  li r21, 1");
            p("  liw r22, FLAG");
            p("  stw r21, 0(r22)");
            p("icap_dead:");
            p("  bl advance_frame");
            p("  b n_icap");
            p("icap_ok:");
        }
        p("  liw r22, PHASE");
        p("  lwz r23, 0(r22)");
        p("  cmpwi r23, 2");
        p("  bne icap_cie");
        emit_isolate_off(p);
        p("  bl start_me");
        p("  li r21, 3");
        p("  liw r22, PHASE");
        p("  stw r21, 0(r22)");
        p("  b n_icap");
        p("icap_cie:");
        p("  cmpwi r23, 4");
        p("  bne n_icap");
        emit_isolate_off(p);
        p("  bl advance_frame");
        p("n_icap:");
    }
}

/// The split pipeline's ISR handlers: video-in done, region A's engine
/// (CIE) done, region B's engine (ME) done and, under ReSim, IcapCTRL
/// done — the idle region's reload finished. A handler that completes
/// a half-frame's rendezvous branches to a switch of
/// [`split_pipeline_switches`].
fn split_pipeline_handlers(p: &mut impl FnMut(&str), method: SimMethod) {
    let resim = method == SimMethod::Resim;

    // --- video-in done: first half-frame begins ---
    p("  andi. r21, r20, 1");
    p("  beq n_vin");
    p("  bl cur_in               # r24 = IN[FRAME&1], r25 = CEN[FRAME&1]");
    p("  mtdcr ENG_SRC, r24");
    p("  mtdcr ENG_DST, r25");
    p("  li r21, 2               # region A: reset (latch parameters)");
    p("  mtdcr ENG_CTRL, r21");
    p("  li r21, 1               # region A: start the CIE");
    p("  mtdcr ENG_CTRL, r21");
    p("  li r21, 0");
    p("  liw r22, PEND");
    p("  stw r21, 0(r22)");
    p("  li r21, 1");
    p("  liw r22, PHASE");
    p("  stw r21, 0(r22)         # phase 1: CIE computing, B reloading");
    if resim {
        p("  li r21, 2               # isolate region B (bit 1)");
        p("  mtdcr SYS_ISOLATE, r21");
        p("  liw r21, SIMB_ME        # reload B's ME image while A works");
        p("  mtdcr ICAP_ADDR, r21");
        p("  liw r21, SIMB_ME_W");
        p("  mtdcr ICAP_SIZE, r21");
        p("  li r21, 1");
        p("  mtdcr ICAP_CTRL, r21");
    }
    p("n_vin:");

    // --- region A engine (CIE) done ---
    p("  andi. r21, r20, 2");
    p("  beq n_enga");
    p("  liw r22, PHASE");
    p("  lwz r23, 0(r22)");
    p("  cmpwi r23, 1");
    p("  bne n_enga");
    if resim {
        p("  liw r22, PEND");
        p("  lwz r23, 0(r22)");
        p("  ori r23, r23, 1         # CIE half done");
        p("  stw r23, 0(r22)");
        p("  cmpwi r23, 3");
        p("  beq half2               # reload also done: switch halves");
    } else {
        p("  b half2                 # nothing to wait for under VMUX");
    }
    p("n_enga:");

    // --- region B engine (ME) done ---
    p("  andi. r21, r20, 16");
    p("  beq n_engb");
    p("  liw r22, PHASE");
    p("  lwz r23, 0(r22)");
    p("  cmpwi r23, 2");
    p("  bne n_engb");
    p("  li r21, 1");
    p("  liw r22, FLAG");
    p("  stw r21, 0(r22)         # vectors ready for the main loop");
    p("  bl cur_in");
    p("  liw r22, DRAWBUF");
    p("  stw r24, 0(r22)");
    if resim {
        p("  liw r22, PEND");
        p("  lwz r23, 0(r22)");
        p("  ori r23, r23, 1         # ME half done");
        p("  stw r23, 0(r22)");
        p("  cmpwi r23, 3");
        p("  beq frame_done          # reload also done: next frame");
    } else {
        p("  bl advance_frame");
    }
    p("n_engb:");

    // --- IcapCTRL done: the idle region's reload finished ---
    if resim {
        p("  andi. r21, r20, 4");
        p("  beq n_icap");
        p("  # NOTE: isolation is NOT dropped here. The done interrupt");
        p("  # fires when the last word enters the ICAP FIFO; the error-");
        p("  # injection window only closes once the FIFO tail drains.");
        p("  # The half2/frame_done phase switches rewrite the mask later,");
        p("  # safely past the drain.");
        p("  liw r22, PHASE");
        p("  lwz r23, 0(r22)");
        p("  cmpwi r23, 1");
        p("  bne icap_p2");
        p("  liw r22, PEND");
        p("  lwz r23, 0(r22)");
        p("  ori r23, r23, 2         # B reload done");
        p("  stw r23, 0(r22)");
        p("  cmpwi r23, 3");
        p("  beq half2               # CIE also done: switch halves");
        p("  b n_icap");
        p("icap_p2:");
        p("  cmpwi r23, 2");
        p("  bne n_icap");
        p("  liw r22, PEND");
        p("  lwz r23, 0(r22)");
        p("  ori r23, r23, 2         # A reload done");
        p("  stw r23, 0(r22)");
        p("  cmpwi r23, 3");
        p("  beq frame_done          # ME also done: next frame");
        p("n_icap:");
    }
}

/// The split pipeline's half-frame switches, placed after the ISR exit
/// and returning through `isr_exit`.
fn split_pipeline_switches(p: &mut impl FnMut(&str), method: SimMethod) {
    let resim = method == SimMethod::Resim;

    // --- second half-frame: ME computes on B, A reloads its CIE ---
    p("half2:");
    p("  li r21, 0");
    p("  liw r22, PEND");
    p("  stw r21, 0(r22)");
    p("  li r21, 2");
    p("  liw r22, PHASE");
    p("  stw r21, 0(r22)         # phase 2: ME computing, A reloading");
    if resim {
        p("  li r21, 1               # isolate A, release B (mask bit 0)");
        p("  mtdcr SYS_ISOLATE, r21");
    }
    p("  bl start_me_b");
    if resim {
        p("  liw r21, SIMB_CIE       # reload A's CIE image while B works");
        p("  mtdcr ICAP_ADDR, r21");
        p("  liw r21, SIMB_CIE_W");
        p("  mtdcr ICAP_SIZE, r21");
        p("  li r21, 1");
        p("  mtdcr ICAP_CTRL, r21");
    }
    p("  b isr_exit");

    // --- both halves complete: request the next frame ---
    p("frame_done:");
    if resim {
        p("  li r21, 0               # release region A");
        p("  mtdcr SYS_ISOLATE, r21");
    }
    p("  bl advance_frame");
    p("  b isr_exit");
}

/// The sanity applications the paper's designer brought up in week 3
/// before any DPR work: a "hello world" and a "camera to VGA display"
/// passthrough.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SanityApp {
    /// Write a greeting into memory and halt — proves fetch, execute,
    /// store and halt paths.
    HelloWorld {
        /// Where the greeting bytes land.
        at: u32,
    },
    /// Capture `frames` camera frames and display each unmodified —
    /// proves the VIP DMA paths, the DCR chain and the interrupt plumbing
    /// with no engines involved.
    CameraToDisplay {
        /// Frame buffer address.
        buffer: u32,
        /// Frames to pass through.
        frames: u32,
    },
}

/// Generate a sanity program (assemble at `0x1000`).
pub fn generate_sanity(app: SanityApp) -> String {
    let mut s = String::new();
    let mut p = |line: &str| {
        s.push_str(line);
        s.push('\n');
    };
    match app {
        SanityApp::HelloWorld { at } => {
            p("# hello world: store a greeting, then halt");
            p(&format!(".equ DEST, {at:#x}"));
            p("  liw r4, DEST");
            // "HELO" / "DPR!" as little-endian words.
            p("  liw r3, 0x4F4C4548   # 'HELO'");
            p("  stw r3, 0(r4)");
            p("  liw r3, 0x21525044   # 'DPR!'");
            p("  stw r3, 4(r4)");
            p("  halt");
        }
        SanityApp::CameraToDisplay { buffer, frames } => {
            p("# camera to display passthrough (no engines, no DPR)");
            for (name, val) in [
                ("VIN_ADDR", dcr_map::VIN as u32),
                ("VIN_CTRL", dcr_map::VIN as u32 + 1),
                ("VIN_STATUS", dcr_map::VIN as u32 + 2),
                ("VOUT_ADDR", dcr_map::VOUT as u32),
                ("VOUT_CTRL", dcr_map::VOUT as u32 + 1),
                ("VOUT_STATUS", dcr_map::VOUT as u32 + 2),
                ("BUF", buffer),
                ("NFRAMES", frames),
            ] {
                p(&format!(".equ {name}, {val:#x}"));
            }
            p("  li r7, 0              # frames done");
            p("floop:");
            p("  liw r3, BUF");
            p("  mtdcr VIN_ADDR, r3");
            p("  li r3, 1");
            p("  mtdcr VIN_CTRL, r3    # capture one frame");
            p("vin_wait:");
            p("  mfdcr r3, VIN_STATUS");
            p("  cmpwi r3, 0");
            p("  bne vin_wait");
            p("  liw r3, BUF");
            p("  mtdcr VOUT_ADDR, r3");
            p("  li r3, 1");
            p("  mtdcr VOUT_CTRL, r3   # display it");
            p("vout_wait:");
            p("  mfdcr r3, VOUT_STATUS");
            p("  cmpwi r3, 0");
            p("  bne vout_wait");
            p("  addi r7, r7, 1");
            p("  cmplwi r7, NFRAMES");
            p("  blt floop");
            p("  halt");
        }
    }
    s
}

fn emit_isolate_on(p: &mut impl FnMut(&str), f: &FaultSet) {
    if f.has(Bug::Dpr1NoIsolation) {
        p("  # BUG dpr.1: isolation not asserted");
    } else {
        p("  li r21, 1");
        p("  mtdcr SYS_ISOLATE, r21");
    }
}

fn emit_isolate_off(p: &mut impl FnMut(&str)) {
    p("  li r21, 0");
    p("  mtdcr SYS_ISOLATE, r21");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A single-region configuration whose SimBs are 100 words long.
    fn cfg(method: SimMethod, faults: FaultSet) -> SystemConfig {
        SystemConfig {
            method,
            faults,
            n_frames: 3,
            payload_words: 90,
            isr_pad_loops: 10,
            fixed_wait_loops: 100,
            ..Default::default()
        }
    }

    fn program(cfg: &SystemConfig) -> String {
        generate(cfg, &MemLayout::for_config(cfg))
    }

    #[test]
    fn all_variants_assemble() {
        for method in [SimMethod::Resim, SimMethod::Vmux] {
            for bug in Bug::ALL {
                let src = program(&cfg(method, FaultSet::one(bug)));
                let prog = ppc::assemble(&src, 0x1000)
                    .unwrap_or_else(|e| panic!("{method:?}/{}: {e}", bug.id()));
                assert!(prog.words.len() > 100, "{method:?}/{} too small", bug.id());
                assert!(prog.symbols.contains_key("isr"));
            }
            let src = program(&cfg(method, FaultSet::none()));
            ppc::assemble(&src, 0x1000).unwrap();
        }
    }

    #[test]
    fn vmux_program_is_the_hacked_one() {
        let resim = program(&cfg(SimMethod::Resim, FaultSet::none()));
        let vmux = program(&cfg(SimMethod::Vmux, FaultSet::none()));
        assert!(
            vmux.contains("SIG_REG"),
            "vmux writes the signature register"
        );
        assert!(
            !resim.contains("mtdcr SIG_REG"),
            "production software never does"
        );
        assert!(
            resim.contains("ICAP_CTRL, r21"),
            "production software drives IcapCTRL"
        );
        assert!(
            !vmux.contains("mtdcr ICAP_CTRL"),
            "hacked software does not"
        );
    }

    #[test]
    fn stale_size_halves_the_words() {
        let good = program(&cfg(SimMethod::Resim, FaultSet::none()));
        let bad = program(&cfg(
            SimMethod::Resim,
            FaultSet::one(Bug::Dpr5StaleSizeCalc),
        ));
        assert!(good.contains(".equ SIMB_ME_W, 0x64"));
        assert!(bad.contains(".equ SIMB_ME_W, 0x32"));
    }

    #[test]
    fn buggy_waiters_do_not_enable_the_icap_interrupt() {
        for bug in [Bug::Dpr6aShortFixedWait, Bug::Dpr6bNoWaitTransfer] {
            let src = program(&cfg(SimMethod::Resim, FaultSet::one(bug)));
            assert!(src.contains(".equ INTMASK, 0x3"), "{}", bug.id());
        }
        let good = program(&cfg(SimMethod::Resim, FaultSet::none()));
        assert!(good.contains(".equ INTMASK, 0x7"));
    }
}
