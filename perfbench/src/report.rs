//! What a run reports: end-to-end metrics, the per-layer table, pinned
//! deterministic counters, and the timer that attributes traced wall
//! time to the calls into each layer.

use crate::stats;
use rtlsim::profile::ProfileRow;
use rtlsim::SimStats;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Share of the traced wall the timed calls may leave unattributed.
pub const UNATTRIBUTED_TOLERANCE: f64 = 0.10;

/// Every end-to-end metric, with its unit. Each workload reports all of
/// them with `--trace 0`; README.md defines the operation per workload.
pub const END_TO_END: [(&str, &str); 3] =
    [("op_ms", "ms"), ("first_result_ms", "ms"), ("setup_s", "s")];

/// Every per-layer metric, with its unit. Each workload reports all of
/// them with `--trace 1`; a layer the workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 57] = [
    ("verifd.accept_ms", "ms"),
    ("verifd.overhead_ms", "ms"),
    ("verifd.busy_rejects", "count"),
    ("wire.parse_us", "us"),
    ("wire.row_render_us", "us"),
    ("wire.row_bytes", "bytes"),
    ("executor.busy_share", "share"),
    ("executor.idle_s", "s"),
    ("executor.tail_s", "s"),
    ("executor.steals", "count"),
    ("executor.reorder_depth_max", "count"),
    ("scenario.ms", "ms"),
    ("scenario.max_ms", "ms"),
    ("scenario.budget_burn_share", "share"),
    ("trace.events", "count"),
    ("trace.coverage_us", "us"),
    ("artifacts.derive_s", "s"),
    ("artifacts.hits", "count"),
    ("artifacts.misses", "count"),
    ("artifacts.hit_share", "share"),
    ("build.system_ms", "ms"),
    ("build.systems", "count"),
    ("kernel.run_s", "s"),
    ("kernel.cycles", "count"),
    ("kernel.events", "count"),
    ("kernel.evals", "count"),
    ("kernel.deltas", "count"),
    ("kernel.toggles", "count"),
    ("kernel.ns_per_event", "ns"),
    ("kernel.evals_per_cycle", "evals/cycle"),
    ("kernel.sched_s", "s"),
    ("eval.engines_s", "s"),
    ("eval.engines_evals", "count"),
    ("eval.plb_s", "s"),
    ("eval.plb_evals", "count"),
    ("eval.ppc_s", "s"),
    ("eval.ppc_evals", "count"),
    ("eval.dcr_s", "s"),
    ("eval.dcr_evals", "count"),
    ("eval.resim_s", "s"),
    ("eval.resim_evals", "count"),
    ("eval.autovision_s", "s"),
    ("eval.autovision_evals", "count"),
    ("eval.other_s", "s"),
    ("eval.other_evals", "count"),
    ("eval.resim_share", "share"),
    ("stage.cie_s", "s"),
    ("stage.me_s", "s"),
    ("stage.dpr_s", "s"),
    ("stage.other_s", "s"),
    ("sim.cie_ms", "ms"),
    ("sim.me_ms", "ms"),
    ("sim.isr_ms", "ms"),
    ("sim.dpr_ms", "ms"),
    ("sim.frame_ms", "ms"),
    ("bench.trace_overhead_share", "share"),
    ("bench.unattributed_share", "share"),
];

/// Crates whose eval bodies the profiler rows are grouped into; `other`
/// holds the kernel's clock/reset generators and measurement probes.
const EVAL_CRATES: [&str; 7] = [
    "engines",
    "plb",
    "ppc",
    "dcr",
    "resim",
    "autovision",
    "other",
];

/// The crate that registers a component, from its instance name.
fn crate_of(component: &str) -> &'static str {
    let stem = component.split('.').next().unwrap_or(component);
    match stem {
        "cie" | "isolation" | "rrb_isolation" => "engines",
        s if s.starts_with("me") || s.starts_with("eng_ctrl") => "engines",
        "ddr" | "plb" | "plb_monitor" => "plb",
        "intc" | "ppc_iss" => "ppc",
        "dcr" => "dcr",
        "icap_artifact" => "resim",
        s if s.starts_with("rr") && component.contains('.') => "resim",
        s if s.starts_with("vmux") => "resim",
        "sysctrl" | "icapctrl" | "videoin" | "videoout" | "rr_rsp_relay" | "rrb_rsp_relay" => {
            "autovision"
        }
        _ => "other",
    }
}

/// One run's result.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (frames, rows, submissions).
    pub attempted: u64,
    /// Operations that failed an output check.
    pub failed: u64,
    /// Reported metrics by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Deterministic counters that must repeat exactly for the
    /// workload, seed and trace mode.
    pub counters: Vec<(String, String)>,
}

impl Report {
    /// A report whose per-layer table starts at zero, for `--trace 1`.
    pub fn traced() -> Report {
        let mut r = Report::default();
        for (name, _) in PER_LAYER {
            r.metrics.insert(name, 0.0);
        }
        r
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.metrics.entry(name).or_insert(0.0) += value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    /// Record a failed output check, with the reason on stdout.
    pub fn fail(&mut self, why: impl AsRef<str>) {
        println!("FAIL: {}", why.as_ref());
        self.failed += 1;
    }

    pub fn pin(&mut self, name: impl Into<String>, value: impl ToString) {
        self.counters.push((name.into(), value.to_string()));
    }

    /// Fold a finished simulator's exact kernel counters into the
    /// `kernel.*` table.
    pub fn add_kernel(&mut self, stats: &SimStats, cycles: u64) {
        self.add("kernel.cycles", cycles as f64);
        self.add("kernel.events", stats.events as f64);
        self.add("kernel.evals", stats.evals as f64);
        self.add("kernel.deltas", stats.deltas as f64);
        self.add("kernel.toggles", stats.toggles as f64);
    }

    /// Fold a profiler report into the per-crate `eval.*` table.
    pub fn add_profile(&mut self, rows: &[ProfileRow]) {
        for r in rows {
            let (time, evals) = match crate_of(r.name.as_ref()) {
                "engines" => ("eval.engines_s", "eval.engines_evals"),
                "plb" => ("eval.plb_s", "eval.plb_evals"),
                "ppc" => ("eval.ppc_s", "eval.ppc_evals"),
                "dcr" => ("eval.dcr_s", "eval.dcr_evals"),
                "resim" => ("eval.resim_s", "eval.resim_evals"),
                "autovision" => ("eval.autovision_s", "eval.autovision_evals"),
                _ => ("eval.other_s", "eval.other_evals"),
            };
            self.add(time, r.time.as_secs_f64());
            self.add(evals, r.evals as f64);
        }
    }

    /// Derived kernel and eval ratios, once `kernel.run_s`, the counts
    /// and the profile are in.
    pub fn finish_kernel(&mut self) {
        let run_s = self.get("kernel.run_s");
        let events = self.get("kernel.events");
        let cycles = self.get("kernel.cycles");
        let eval_s: f64 = EVAL_CRATES
            .iter()
            .map(|c| self.get(&format!("eval.{c}_s")))
            .sum();
        if events > 0.0 {
            self.set("kernel.ns_per_event", run_s * 1e9 / events);
        }
        if cycles > 0.0 {
            self.set("kernel.evals_per_cycle", self.get("kernel.evals") / cycles);
        }
        self.set("kernel.sched_s", (run_s - eval_s).max(0.0));
        if eval_s > 0.0 {
            self.set("eval.resim_share", self.get("eval.resim_s") / eval_s);
        }
    }

    /// Check the pinned counters against the ledger of earlier runs of
    /// the same workload, seed and mode (the first run writes it).
    pub fn check_ledger(&mut self, key: &str) {
        let dir = std::path::Path::new(crate::STATE_DIR);
        let path = dir.join(format!("{key}.counters"));
        let mine: String = self
            .counters
            .iter()
            .map(|(k, v)| format!("{k}={v}\n"))
            .collect();
        match std::fs::read_to_string(&path) {
            Ok(prev) if prev == mine => println!("counters: identical to earlier runs ({key})"),
            Ok(prev) => {
                for (a, b) in prev.lines().zip(mine.lines()) {
                    if a != b {
                        println!("counter changed: was {a}, now {b}");
                    }
                }
                self.fail(format!(
                    "deterministic counters differ from earlier runs ({key})"
                ));
            }
            Err(_) => {
                let tmp = dir.join(format!("{key}.counters.tmp"));
                let written = std::fs::create_dir_all(dir)
                    .and_then(|()| std::fs::write(&tmp, &mine))
                    .and_then(|()| std::fs::rename(&tmp, &path));
                match written {
                    Ok(()) => println!("counters: first run for {key}, recorded"),
                    Err(e) => self.fail(format!("cannot record counters: {e}")),
                }
            }
        }
        for (k, v) in &self.counters {
            println!("  {k} = {v}");
        }
    }

    /// The one-line JSON result: the metrics of `table`, each checked
    /// against the name grammar.
    pub fn to_json(&self, table: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = table
            .iter()
            .map(|&(name, unit)| {
                assert!(
                    stats::valid_name(name) && stats::valid_unit(unit),
                    "bad metric {name}"
                );
                let v = self.get(name);
                assert!(v.is_finite(), "metric {name} is not finite");
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Wall-clock intervals of the timed calls of a traced run, shared by
/// the threads of one run.
#[derive(Clone)]
pub struct Timer {
    epoch: Instant,
    spans: Arc<Mutex<Vec<(f64, f64)>>>,
}

impl Timer {
    pub fn new() -> Timer {
        Timer {
            epoch: Instant::now(),
            spans: Arc::default(),
        }
    }

    /// Run `f` as one timed call; returns its result and duration (s).
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> (T, f64) {
        let t0 = self.epoch.elapsed().as_secs_f64();
        let out = f();
        let t1 = self.epoch.elapsed().as_secs_f64();
        self.spans.lock().expect("timer poisoned").push((t0, t1));
        (out, t1 - t0)
    }

    /// Wall time since the timer started.
    pub fn wall(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Share of the wall so far that no timed call covers; records it
    /// and fails the run when it exceeds the stated tolerance.
    pub fn close(&self, report: &mut Report) {
        let wall = self.wall();
        let covered = stats::covered(&self.spans.lock().expect("timer poisoned"));
        let share = stats::unattributed_share(covered, wall);
        report.set("bench.unattributed_share", share);
        println!(
            "attribution: timed calls cover {covered:.3} s of {wall:.3} s traced wall \
             ({:.2}% unattributed, tolerance {:.0}%)",
            100.0 * share,
            100.0 * UNATTRIBUTED_TOLERANCE
        );
        if !stats::layers_cover(covered, wall, UNATTRIBUTED_TOLERANCE) {
            report.fail("timed calls do not account for the traced wall");
        }
    }
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .expect("peak RSS needs /proc/self/status")
}

/// FNV-1a over a sequence of strings (order-sensitive): a row digest.
pub fn digest<'a>(parts: impl IntoIterator<Item = &'a str>) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in parts {
        for b in p.bytes().chain(std::iter::once(b'\n')) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_follow_the_name_grammar_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(stats::valid_name(name), "{name}");
            assert!(stats::valid_unit(unit), "{unit}");
            assert!(seen.insert(*name), "{name} listed twice");
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let names = |key: &str| -> Vec<(String, String)> {
            let v = obs::json::Json::parse(&doc).expect("BENCHMARK.json parses");
            v.get(key)
                .and_then(obs::json::Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k| {
                        m.get(k)
                            .and_then(obs::json::Json::as_str)
                            .unwrap()
                            .to_string()
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn components_map_to_their_crates() {
        for (name, krate) in [
            ("cie", "engines"),
            ("me1", "engines"),
            ("eng_ctrl1", "engines"),
            ("rrb_isolation", "engines"),
            ("ddr", "plb"),
            ("plb.arbiter", "plb"),
            ("plb_monitor", "plb"),
            ("ppc_iss", "ppc"),
            ("intc", "ppc"),
            ("dcr.slave.eng", "dcr"),
            ("icap_artifact", "resim"),
            ("rr0.mux", "resim"),
            ("rrb1.portal", "resim"),
            ("vmux1.ctl", "resim"),
            ("rr_rsp_relay", "autovision"),
            ("videoout", "autovision"),
            ("clkgen", "other"),
            ("probe.cie", "other"),
        ] {
            assert_eq!(crate_of(name), krate, "{name}");
        }
    }

    #[test]
    fn digest_is_order_sensitive() {
        assert_eq!(digest(["a", "b"]), digest(["a", "b"]));
        assert_ne!(digest(["a", "b"]), digest(["b", "a"]));
        assert_ne!(digest(["ab"]), digest(["a", "b"]));
    }
}
