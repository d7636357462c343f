//! kernel_throughput — raw simulation-kernel throughput on the full
//! AutoVision system, per execution mode.
//!
//! Two modes:
//!
//! * **default** — runs the paper-scale Table II system plus the small
//!   smoke system under *both* kernel execution modes (event-driven and
//!   compiled), measures the quiescent steady-state tail, and writes
//!   the `BENCH_kernel.json` baseline (schema `bench_kernel/v2`,
//!   committed at the repo root).
//! * **`--smoke`** — re-runs the small system under both modes and
//!   gates against the committed baseline:
//!   1. event-driven kernel counters (evals, deltas, toggles, events,
//!      cycles) must match the baseline *exactly*;
//!   2. the compiled run must agree with the event-driven run on every
//!      mode-independent counter (cycles, toggles, events, frames) —
//!      the bit-identity contract, checked in-process;
//!   3. host-normalized event-driven throughput must not regress by
//!      more than 10% (`KERNEL_SMOKE_MAX_REGRESSION` env override);
//!   4. each mode's steady-state `evals` must match the baseline
//!      exactly (the compiled/event wall ratio is printed, not gated:
//!      it moves whenever either mode's per-eval cost does).
//!
//!   Exits nonzero on any failure, which is what CI gates on.
//!
//! **Steady state** is the quiescent tail: the system is run to
//! software halt, then throughput is timed over a further fixed window
//! in which nothing but the clock generator has work. Event-driven
//! dispatch still evaluates every clocked component twice per cycle
//! there; compiled dispatch parks everything and the window collapses
//! to the clock generator alone. This isolates the dispatch overhead
//! the compiled plane exists to remove — full-run wall clock also
//! improves, but is dominated by eval-body work both modes must do.
//!
//! Wall-clock numbers are host-dependent, so throughput is normalized
//! by a fixed-work calibration loop measured on the same host in the
//! same process; only the *ratio* kernel-throughput / calibration-speed
//! is compared across runs.

use autovision::{AvSystem, SystemConfig, CLK_PERIOD_PS};
use bench::{harness, paper_scale_config, small_config};
use obs::json::Json;
use rtlsim::ExecMode;
use std::time::Instant;

const BASELINE_PATH: &str = "BENCH_kernel.json";
const DEFAULT_MAX_REGRESSION: f64 = 0.10;
/// Clock cycles the steady-state window times.
const STEADY_CYCLES: u64 = 100_000;

/// One measured run of a configuration.
struct Measurement {
    wall_s: f64,
    cycles: u64,
    evals: u64,
    deltas: u64,
    toggles: u64,
    events: u64,
    frames: usize,
}

impl Measurement {
    fn cycles_per_sec(&self) -> f64 {
        self.cycles as f64 / self.wall_s
    }
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_s
    }
}

/// The quiescent-tail measurement of one mode.
struct Steady {
    wall_s: f64,
    cycles: u64,
    evals: u64,
}

impl Steady {
    fn cycles_per_sec(&self) -> f64 {
        self.cycles as f64 / self.wall_s
    }
    fn evals_per_cycle(&self) -> f64 {
        self.evals as f64 / self.cycles as f64
    }
}

fn with_mode(mut cfg: SystemConfig, mode: ExecMode) -> SystemConfig {
    cfg.exec_mode = mode;
    cfg
}

fn measure(cfg: SystemConfig, budget_cycles: u64) -> Measurement {
    let (sys, outcome, wall_s) = harness::run_built(cfg, budget_cycles);
    let stats = sys.sim.stats();
    Measurement {
        wall_s,
        cycles: outcome.cycles,
        evals: stats.evals,
        deltas: stats.deltas,
        toggles: stats.toggles,
        events: stats.events,
        frames: outcome.frames_captured,
    }
}

/// Best-of-n smoke measurement (the run is short; take the fastest to
/// cut scheduler noise).
fn measure_smoke(mode: ExecMode) -> Measurement {
    let mut best: Option<Measurement> = None;
    for _ in 0..5 {
        let m = measure(with_mode(small_config(), mode), 10_000_000);
        if best.as_ref().map(|b| m.wall_s < b.wall_s).unwrap_or(true) {
            best = Some(m);
        }
    }
    best.unwrap()
}

/// Run the small system to software halt, then time a further
/// `STEADY_CYCLES`-cycle window — the steady-state throughput of the
/// given mode on the *same* netlist and architectural state.
fn measure_steady(mode: ExecMode) -> Steady {
    let mut sys = AvSystem::build(with_mode(small_config(), mode));
    let outcome = sys.run(10_000_000);
    assert!(
        outcome.halted,
        "steady-state measurement needs a halted system (mode {mode})"
    );
    let evals_before = sys.sim.stats().evals;
    let t0 = Instant::now();
    sys.sim
        .run_for(STEADY_CYCLES * CLK_PERIOD_PS)
        .expect("steady window kernel error");
    let wall_s = t0.elapsed().as_secs_f64();
    Steady {
        wall_s,
        cycles: STEADY_CYCLES,
        evals: sys.sim.stats().evals - evals_before,
    }
}

/// Fixed-work integer loop, in M ops/sec — a host speed yardstick that
/// cancels out of cross-host throughput comparisons.
fn calibrate_mops() -> f64 {
    let iters = 200_000_000u64;
    let t0 = Instant::now();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for i in 0..iters {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
    }
    std::hint::black_box(x);
    iters as f64 / t0.elapsed().as_secs_f64() / 1e6
}

fn render_section(m: &Measurement, calib_mops: f64) -> String {
    format!(
        concat!(
            "{{\n",
            "    \"wall_seconds\": {:.6},\n",
            "    \"cycles\": {},\n",
            "    \"cycles_per_sec\": {:.1},\n",
            "    \"events\": {},\n",
            "    \"events_per_sec\": {:.1},\n",
            "    \"evals\": {},\n",
            "    \"deltas\": {},\n",
            "    \"toggles\": {},\n",
            "    \"frames\": {},\n",
            "    \"calibration_mops\": {:.1},\n",
            "    \"normalized_score\": {:.6}\n",
            "  }}"
        ),
        m.wall_s,
        m.cycles,
        m.cycles_per_sec(),
        m.events,
        m.events_per_sec(),
        m.evals,
        m.deltas,
        m.toggles,
        m.frames,
        calib_mops,
        m.cycles_per_sec() / (calib_mops * 1e6),
    )
}

fn render_steady(s: &Steady) -> String {
    format!(
        concat!(
            "{{\n",
            "    \"wall_seconds\": {:.6},\n",
            "    \"cycles\": {},\n",
            "    \"kcycles_per_sec\": {:.1},\n",
            "    \"evals\": {},\n",
            "    \"evals_per_cycle\": {:.2}\n",
            "  }}"
        ),
        s.wall_s,
        s.cycles,
        s.cycles_per_sec() / 1e3,
        s.evals,
        s.evals_per_cycle(),
    )
}

/// The baseline's `section.key` number.
fn baseline_number(doc: &Json, section: &str, key: &str) -> Option<f64> {
    doc.get(section)?.get(key)?.as_f64()
}

/// Compare one deterministic counter with the baseline, printing the
/// verdict: any drift means the kernel's scheduling semantics changed.
fn matches_baseline(doc: &Json, section: &str, key: &str, got: u64) -> bool {
    match baseline_number(doc, section, key) {
        Some(want) if want == got as f64 => {
            println!("  {section}.{key} {got} == baseline");
            true
        }
        Some(want) => {
            eprintln!("FAIL: {section}.{key} = {got}, baseline {want} — kernel semantics changed");
            false
        }
        None => {
            eprintln!("FAIL: baseline is missing {section}.{key}");
            false
        }
    }
}

fn print_measurement(label: &str, m: &Measurement, calib: f64) {
    println!("{label}:");
    println!("  wall           : {:.3} s ({} frames)", m.wall_s, m.frames);
    println!(
        "  cycles         : {} ({:.2} M cycles/sec)",
        m.cycles,
        m.cycles_per_sec() / 1e6
    );
    println!(
        "  events         : {} ({:.2} M events/sec)",
        m.events,
        m.events_per_sec() / 1e6
    );
    println!(
        "  evals/deltas   : {} / {} ({:.2} M evals/sec)",
        m.evals,
        m.deltas,
        m.evals as f64 / m.wall_s / 1e6
    );
    println!("  toggles        : {}", m.toggles);
    println!(
        "  normalized     : {:.4} cycles per calibration op (host {:.0} Mops)",
        m.cycles_per_sec() / (calib * 1e6),
        calib
    );
}

fn print_steady(label: &str, s: &Steady) {
    println!(
        "{label}: {:.0} kcycles/sec, {:.2} evals/cycle over {} cycles",
        s.cycles_per_sec() / 1e3,
        s.evals_per_cycle(),
        s.cycles
    );
}

/// The per-mode counters that must be identical across execution modes
/// (evals/deltas are the modes' *allowed* difference — the whole point).
fn assert_mode_identity(event: &Measurement, compiled: &Measurement) -> bool {
    let mut ok = true;
    for (key, e, c) in [
        ("cycles", event.cycles, compiled.cycles),
        ("toggles", event.toggles, compiled.toggles),
        ("events", event.events, compiled.events),
        ("frames", event.frames as u64, compiled.frames as u64),
    ] {
        if e == c {
            println!("  {key:<8} {e} == compiled");
        } else {
            eprintln!("FAIL: {key} differs across modes: event {e}, compiled {c}");
            ok = false;
        }
    }
    ok
}

fn run_full() {
    println!("kernel_throughput — full AutoVision system, both execution modes\n");
    let calib = calibrate_mops();
    let full_ev = measure(paper_scale_config(), 40_000_000);
    let full_co = measure(
        with_mode(paper_scale_config(), ExecMode::Compiled),
        40_000_000,
    );
    let smoke_ev = measure_smoke(ExecMode::EventDriven);
    let smoke_co = measure_smoke(ExecMode::Compiled);
    let steady_ev = measure_steady(ExecMode::EventDriven);
    let steady_co = measure_steady(ExecMode::Compiled);
    print_measurement(
        "paper-scale event-driven (320x240, SimB 4096)",
        &full_ev,
        calib,
    );
    println!();
    print_measurement("paper-scale compiled", &full_co, calib);
    println!();
    print_measurement("smoke event-driven (32x24, SimB 128)", &smoke_ev, calib);
    println!();
    print_measurement("smoke compiled", &smoke_co, calib);
    println!();
    print_steady("steady event-driven", &steady_ev);
    print_steady("steady compiled", &steady_co);
    let ratio = steady_co.cycles_per_sec() / steady_ev.cycles_per_sec();
    println!("steady-state speedup: {ratio:.1}x");
    println!();
    assert!(
        assert_mode_identity(&full_ev, &full_co) && assert_mode_identity(&smoke_ev, &smoke_co),
        "execution modes disagree on mode-independent counters"
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"schema\": \"bench_kernel/v2\",\n",
            "  \"full_event\": {},\n",
            "  \"full_compiled\": {},\n",
            "  \"smoke_event\": {},\n",
            "  \"smoke_compiled\": {},\n",
            "  \"steady_event\": {},\n",
            "  \"steady_compiled\": {},\n",
            "  \"steady_ratio\": {:.2}\n",
            "}}\n"
        ),
        render_section(&full_ev, calib),
        render_section(&full_co, calib),
        render_section(&smoke_ev, calib),
        render_section(&smoke_co, calib),
        render_steady(&steady_ev),
        render_steady(&steady_co),
        ratio,
    );
    std::fs::write(BASELINE_PATH, &json).expect("write BENCH_kernel.json");
    println!("\nwrote {BASELINE_PATH}");
}

fn run_smoke() -> i32 {
    println!("kernel_throughput --smoke — regression gate vs {BASELINE_PATH}\n");
    let doc = match std::fs::read_to_string(BASELINE_PATH) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("FAIL: cannot read {BASELINE_PATH}: {e}");
            eprintln!("run `kernel_throughput` (no args) once to produce it");
            return 2;
        }
    };
    let doc = match Json::parse(&doc) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("FAIL: {BASELINE_PATH} is not valid JSON: {e}");
            return 2;
        }
    };
    if doc.get("schema").and_then(Json::as_str) != Some("bench_kernel/v2") {
        eprintln!("FAIL: baseline is not bench_kernel/v2 — regenerate it");
        return 2;
    }
    let calib = calibrate_mops();
    let m = measure_smoke(ExecMode::EventDriven);
    let mc = measure_smoke(ExecMode::Compiled);
    print_measurement("smoke event-driven (32x24, SimB 128)", &m, calib);
    println!();
    print_measurement("smoke compiled", &mc, calib);
    println!();

    // 1) Deterministic event-driven counters must match the baseline
    //    exactly: any drift means the kernel's scheduling semantics
    //    changed.
    let mut semantic_ok = true;
    for (key, got) in [
        ("evals", m.evals),
        ("deltas", m.deltas),
        ("toggles", m.toggles),
        ("events", m.events),
        ("cycles", m.cycles),
    ] {
        semantic_ok &= matches_baseline(&doc, "smoke_event", key, got);
    }
    if !semantic_ok {
        return 2;
    }

    // 2) The compiled run must agree with the event-driven run on
    //    every mode-independent counter: the bit-identity contract.
    println!();
    if !assert_mode_identity(&m, &mc) {
        return 2;
    }

    // 3) Host-normalized event-driven throughput must not regress
    //    beyond tolerance.
    let max_regression = std::env::var("KERNEL_SMOKE_MAX_REGRESSION")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(DEFAULT_MAX_REGRESSION);
    let baseline_norm = match baseline_number(&doc, "smoke_event", "normalized_score") {
        Some(v) if v > 0.0 => v,
        _ => {
            eprintln!("FAIL: baseline is missing smoke_event.normalized_score");
            return 2;
        }
    };
    let norm = m.cycles_per_sec() / (calib * 1e6);
    let ratio = norm / baseline_norm;
    println!(
        "\n  normalized throughput: {norm:.6} vs baseline {baseline_norm:.6} (ratio {ratio:.3}, \
         tolerance -{:.0}%)",
        max_regression * 100.0
    );
    if ratio < 1.0 - max_regression {
        eprintln!(
            "FAIL: kernel throughput regressed {:.1}% vs committed baseline",
            (1.0 - ratio) * 100.0
        );
        return 1;
    }

    // 4) Each mode's steady-state dispatch count must match the
    //    baseline exactly: the quiescent tail is pure clocking, so its
    //    evals pin what each mode's dispatch filter lets through.
    let steady_ev = measure_steady(ExecMode::EventDriven);
    let steady_co = measure_steady(ExecMode::Compiled);
    print_steady("\n  steady event-driven", &steady_ev);
    print_steady("  steady compiled", &steady_co);
    let sratio = steady_co.cycles_per_sec() / steady_ev.cycles_per_sec();
    println!("  steady-state speedup: {sratio:.1}x (wall clock, not gated)");
    let steady_ok = matches_baseline(&doc, "steady_event", "evals", steady_ev.evals)
        & matches_baseline(&doc, "steady_compiled", "evals", steady_co.evals);
    if !steady_ok {
        return 2;
    }
    println!("\nPASS");
    0
}

fn main() {
    if harness::has_flag("--smoke") {
        std::process::exit(run_smoke());
    }
    run_full();
}
