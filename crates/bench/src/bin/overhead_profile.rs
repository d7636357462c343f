//! §V — the simulation overhead of the ReSim artifacts.
//!
//! The paper profiles its ModelSim run and finds 1.4% of simulation time
//! in the `Engine_wrapper` multiplexer (triggered whenever the engine
//! IOs toggle) and 0.3% in the other simulation-only artifacts
//! (extended portal, error injectors) — 1.7% total. This harness runs
//! the same workload under the kernel profiler and reports the same
//! breakdown for our artifacts.

use autovision::AvSystem;
use bench::{harness, paper_scale_config};
use rtlsim::profile::ProfileRow;
use rtlsim::CompKind;

/// One measured repetition: (mux fraction, other-artifact fraction,
/// user fraction, vip fraction, report rows).
fn measure() -> (f64, f64, f64, f64, Vec<ProfileRow>) {
    let cfg = paper_scale_config();
    let mut sys = AvSystem::build(cfg);
    sys.sim.set_profiling(true);
    let outcome = sys.run(40_000_000);
    assert!(!outcome.hung);
    let names = sys.sim.eval_counts();
    let rows = sys.sim.profiler().report(&names);
    let total: f64 = rows.iter().map(|r| r.time.as_secs_f64()).sum();
    let frac_of = |pred: &dyn Fn(&ProfileRow) -> bool| -> f64 {
        rows.iter()
            .filter(|r| pred(r))
            .map(|r| r.time.as_secs_f64())
            .sum::<f64>()
            / total
    };
    let mux = frac_of(&|r| r.kind == CompKind::Artifact && r.name.ends_with(".mux"));
    let other = frac_of(&|r| r.kind == CompKind::Artifact && !r.name.ends_with(".mux"));
    let user = frac_of(&|r| matches!(r.kind, CompKind::UserStatic | CompKind::UserReconf));
    let vip = frac_of(&|r| r.kind == CompKind::Vip);
    (mux, other, user, vip, rows)
}

use harness::median;

fn main() {
    harness::args(&["--exec-mode", "--metrics-out"], &[]);
    let cfg = paper_scale_config();
    println!(
        "ReSim simulation overhead profile ({}x{}, {} frames; median of 3 sampled runs)\n",
        cfg.width, cfg.height, cfg.n_frames
    );
    let runs: Vec<_> = (0..3).map(|_| measure()).collect();
    let mux = median(runs.iter().map(|r| r.0).collect());
    let other = median(runs.iter().map(|r| r.1).collect());
    let user_frac = median(runs.iter().map(|r| r.2).collect());
    let vip_frac = median(runs.iter().map(|r| r.3).collect());
    let rows = runs.into_iter().last().unwrap().4;

    println!("{:<44} {:>10} {:>12}", "component class", "here", "paper");
    println!("{}", harness::rule(70));
    println!(
        "{:<44} {:>9.2}% {:>12}",
        "Engine_wrapper multiplexer (region mux)",
        100.0 * mux,
        "1.4%"
    );
    println!(
        "{:<44} {:>9.2}% {:>12}",
        "other artifacts (portal, ICAP, injector)",
        100.0 * other,
        "0.3%"
    );
    println!(
        "{:<44} {:>9.2}% {:>12}",
        "total simulation-only overhead",
        100.0 * (mux + other),
        "1.7%"
    );
    println!(
        "{:<44} {:>9.2}%",
        "user design (static + reconfigurable)",
        100.0 * user_frac
    );
    println!(
        "{:<44} {:>9.2}%",
        "verification IP (ISS, VIPs, monitors)",
        100.0 * vip_frac
    );
    println!("\ntop components by eval time:");
    for r in rows.iter().take(10) {
        let kind = format!("{:?}", r.kind);
        println!(
            "  {:<28} {:<10}  {:>8.3} s  ({:>5.2}%)  {} evals",
            r.name,
            kind,
            r.time.as_secs_f64(),
            100.0 * r.fraction,
            r.evals
        );
    }
    println!(
        "\nshape check: artifacts under 20% ({}), mux dominates artifacts ({})",
        100.0 * (mux + other) < 20.0,
        mux > other
    );

    // The profiler doubles as a metrics-registry producer: fold the
    // per-kind breakdown into the standard snapshot when requested.
    if let Some(path) = harness::ObsArgs::from_env().metrics_out {
        let mut reg = obs::MetricsRegistry::new();
        obs::record_profile(&mut reg, &rows);
        reg.gauge("profile.artifact.mux_fraction", mux);
        reg.gauge("profile.artifact.other_fraction", other);
        std::fs::write(&path, reg.snapshot_json()).expect("write metrics artifact");
        println!("wrote metrics snapshot to {}", path.display());
    }
}
