//! `service_fuzz`: a closed loop of two clients on a Unix socket, each
//! submitting seeded `campaign_submit/v1` documents to an in-process
//! `verifd` one after another.

use crate::campaign::executor_layers;
use crate::inputs::{self, FUZZ_PER_DOC, RECOVERY_PER_DOC};
use crate::report::{self, Report, Timer};
use crate::stats::{fastest, median, Timing};
use autovision::{ArtifactCache, AvSystem, RecoveryPolicy, SimMethod, SystemConfig, CLK_PERIOD_PS};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;
use verif::wire::{CampaignSubmission, WireOutcome, WireRow};
use verif::{
    Campaign, CampaignReport, CampaignRow, MatrixConfig, RunClass, Scenario, ScenarioOutcome,
};
use verifd::{proto, Client, Endpoint, RunningServer, ServerConfig};

/// Client connections (the host has 2 cores).
const CLIENTS: u64 = 2;
/// Daemon boots per run, half before and half after the timed loop;
/// `setup_s` is the fastest.
const SETUP_REPS: usize = 10;
/// Documents each client cycles through in the timed loop; every
/// document repeats, so its fastest submission filters out host
/// contention.
const POOL: u64 = 8;
/// Documents each client submits in the traced run.
const TRACE_DOCS: u64 = 3;
/// Trace-ring capacity of the replayed fuzz runs, as the fuzzer uses.
const FUZZ_TRACE_CAPACITY: usize = 1 << 16;

/// Document index `k` of client `c`; document 0 warms the daemon.
fn doc_index(c: u64, k: u64) -> u64 {
    1 + CLIENTS * k + c
}

fn socket() -> PathBuf {
    PathBuf::from(crate::STATE_DIR).join(format!("verifd-{}.sock", std::process::id()))
}

fn endpoint() -> String {
    format!("unix:{}", socket().display())
}

/// Boot a daemon with the library defaults and serve the warming
/// document on one connection; returns the daemon and the served rows.
fn boot(seed: u64) -> (RunningServer, verifd::client::Served) {
    std::fs::create_dir_all(crate::STATE_DIR).expect("create the state directory");
    let server = RunningServer::start(ServerConfig::default(), &[Endpoint::Unix(socket())])
        .expect("boot verifd");
    let mut client = Client::connect(&endpoint()).expect("connect to verifd");
    let served = client
        .submit(&inputs::service_doc(seed, 0))
        .expect("warming submission");
    (server, served)
}

/// Boot `reps` daemons one after another, timing each boot plus its
/// warming submission into `setups`. Every boot binds the same socket
/// path, so each daemon goes down before the next starts; the last one
/// keeps running and is returned.
fn set_up(
    seed: u64,
    setups: &mut Vec<f64>,
    reps: usize,
) -> Option<(RunningServer, verifd::client::Served)> {
    let mut last = None;
    for _ in 0..reps {
        if let Some((server, _)) = last.take() {
            RunningServer::shutdown(server);
        }
        let t0 = Instant::now();
        last = Some(boot(seed));
        setups.push(t0.elapsed().as_secs_f64());
    }
    last
}

/// One served submission as a client saw it.
struct Sub {
    index: u64,
    wall: f64,
    /// Host seconds from submit to each streamed row.
    stamps: Vec<f64>,
    /// Send → `campaign_accepted/v1` (traced submissions only).
    accept: f64,
    result: Result<(Vec<String>, proto::Done), String>,
}

impl Sub {
    fn first_row(&self) -> f64 {
        self.stamps.first().copied().unwrap_or(self.wall)
    }

    /// The submission cut at each row: submit → first row, the gaps
    /// between rows, and last row → `done`.
    fn pieces(&self) -> Vec<f64> {
        let mut prev = 0.0;
        let mut out: Vec<f64> = self
            .stamps
            .iter()
            .map(|&t| {
                let d = t - prev;
                prev = t;
                d
            })
            .collect();
        out.push(self.wall - prev);
        out
    }
}

/// Submit through `Client::submit_streaming`.
fn submit(client: &mut Client, index: u64, doc: &CampaignSubmission) -> Sub {
    let t0 = Instant::now();
    let mut stamps = Vec::new();
    let result = client
        .submit_streaming(doc, |_| stamps.push(t0.elapsed().as_secs_f64()))
        .map(|s| (s.rows, s.done))
        .map_err(|e| e.to_string());
    Sub {
        index,
        wall: t0.elapsed().as_secs_f64(),
        stamps,
        accept: 0.0,
        result,
    }
}

/// Submit frame by frame, timing the `campaign_accepted/v1` reply.
fn submit_traced(client: &mut Client, index: u64, line: &str) -> Sub {
    let t0 = Instant::now();
    let mut accept = 0.0;
    let mut stamps = Vec::new();
    let mut session = || -> Result<(Vec<String>, proto::Done), String> {
        let e = |e: std::io::Error| e.to_string();
        client.send(line).map_err(e)?;
        let v = client.expect_frame().map_err(e)?;
        accept = t0.elapsed().as_secs_f64();
        if proto::schema_of(&v) != Some(proto::ACCEPTED_SCHEMA) {
            return Err("expected campaign_accepted/v1".into());
        }
        let mut rows = Vec::new();
        loop {
            let v = client.expect_frame().map_err(e)?;
            match proto::schema_of(&v) {
                Some(proto::ROW_SCHEMA) => {
                    let row = v.get("row").ok_or("row frame without row")?;
                    rows.push(WireRow::from_value(row)?.to_json());
                    stamps.push(t0.elapsed().as_secs_f64());
                }
                Some(proto::DONE_SCHEMA) => return Ok((rows, proto::Done::from_value(&v)?)),
                other => return Err(format!("unexpected frame {other:?}")),
            }
        }
    };
    let result = session();
    Sub {
        index,
        wall: t0.elapsed().as_secs_f64(),
        stamps,
        accept,
        result,
    }
}

/// Count a submission and its rows as operations, failing any error or
/// busy reply, failed row, or short stream.
fn check_sub(report: &mut Report, sub: &Sub) {
    let want = FUZZ_PER_DOC + RECOVERY_PER_DOC;
    report.attempted += 1 + want as u64;
    match &sub.result {
        Err(e) => {
            report.fail(format!("document {}: {e}", sub.index));
            report.failed += want as u64;
        }
        Ok((rows, done)) => {
            if done.failures > 0 {
                report.fail(format!(
                    "document {}: {} rows failed",
                    sub.index, done.failures
                ));
                report.failed += done.failures - 1;
            }
            if rows.len() != want || done.cancelled {
                report.fail(format!(
                    "document {}: {} of {want} rows",
                    sub.index,
                    rows.len()
                ));
            }
        }
    }
}

/// The in-process rendering of a document: the same plan `verifd`
/// makes, with per-scenario spans, run on `artifacts`.
fn in_process(doc: &CampaignSubmission, artifacts: &ArtifactCache) -> CampaignReport {
    let mut b = Campaign::builder()
        .seed(doc.seed)
        .budget_cycles(doc.budget_cycles)
        .exec_mode(doc.exec_mode)
        .threads(doc.threads)
        .spans(true)
        .scenarios(doc.scenarios.iter().copied());
    if doc.recovery_runs > 0 {
        b = b.recovery_campaign(doc.recovery_runs, doc.recovery_on);
    }
    b.build().run_streaming_with(artifacts, None, |_| {})
}

/// Compare streamed rows with the in-process rendering.
fn check_rows(report: &mut Report, index: u64, served: &[String], local: &[String]) {
    if served != local {
        report.fail(format!(
            "document {index}: streamed rows differ from the in-process rendering"
        ));
    }
}

fn rendered(c: &CampaignReport) -> Vec<String> {
    c.rows.iter().map(verif::row_to_json).collect()
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    println!(
        "service_fuzz: {CLIENTS} closed-loop clients on a Unix socket, documents of \
         {FUZZ_PER_DOC} fuzz schedules + {RECOVERY_PER_DOC} recovery runs, 1 thread each, \
         default ServerConfig"
    );
    if trace {
        return traced(seed);
    }
    let mut report = Report::default();
    let mut setups = Vec::new();
    let (server, warming) =
        set_up(seed, &mut setups, SETUP_REPS / 2).expect("the last boot keeps running");
    let t0 = Instant::now();
    let subs: Vec<Vec<Sub>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || {
                    let mut client = Client::connect(&endpoint()).expect("connect to verifd");
                    let mut subs: Vec<Sub> = Vec::new();
                    for k in 0.. {
                        let index = doc_index(c, k % POOL);
                        subs.push(submit(
                            &mut client,
                            index,
                            &inputs::service_doc(seed, index),
                        ));
                        let walls: Vec<f64> = subs.iter().map(|s| s.wall).collect();
                        if t0.elapsed().as_secs_f64() + median(&walls) > seconds {
                            break;
                        }
                    }
                    subs
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect()
    });
    let loop_wall = t0.elapsed().as_secs_f64();
    server.shutdown();
    if let Some((again, _)) = set_up(seed, &mut setups, SETUP_REPS / 2) {
        again.shutdown();
    }

    let all: Vec<&Sub> = subs.iter().flatten().collect();
    for sub in &all {
        check_sub(&mut report, sub);
    }
    // Streamed rows of the warming document and of each client's first
    // document must equal the in-process rendering.
    let mut checked = vec![(0, warming.rows.clone())];
    for client in &subs {
        if let Some(Sub {
            index,
            result: Ok((rows, _)),
            ..
        }) = client.first()
        {
            checked.push((*index, rows.clone()));
        }
    }
    let mut local_rows = Vec::new();
    for (index, served) in &checked {
        let local = rendered(&in_process(
            &inputs::service_doc(seed, *index),
            &ArtifactCache::new(),
        ));
        check_rows(&mut report, *index, served, &local);
        local_rows.extend(local);
    }

    // Every repetition of a document must stream the same rows. Each
    // piece of a document's submission (see `Sub::pieces`) keeps its
    // fastest repetition.
    let mut first_rows: BTreeMap<u64, &Vec<String>> = BTreeMap::new();
    let mut best: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for sub in &all {
        let Ok((rows, _)) = &sub.result else { continue };
        if first_rows.entry(sub.index).or_insert(rows) != &rows {
            report.fail(format!(
                "document {}: repeated submission streamed other rows",
                sub.index
            ));
        }
        let pieces = sub.pieces();
        let b = best.entry(sub.index).or_insert_with(|| pieces.clone());
        for (b, p) in b.iter_mut().zip(pieces) {
            *b = b.min(p);
        }
    }
    let ok: Vec<&Sub> = all.iter().copied().filter(|s| s.result.is_ok()).collect();
    if ok.is_empty() {
        report.fail("no submission succeeded");
        return report;
    }
    let walls: Vec<f64> = ok.iter().map(|s| s.wall).collect();
    let firsts: Vec<f64> = ok.iter().map(|s| s.first_row()).collect();
    let rows: usize = ok
        .iter()
        .map(|s| s.result.as_ref().map_or(0, |r| r.0.len()))
        .sum();
    let (hits, misses) = ok.iter().fold((0, 0), |(h, m), s| {
        let d = &s.result.as_ref().expect("ok submission").1;
        (h + d.artifact_hits, m + d.artifact_misses)
    });
    let mean = |f: fn(&Vec<f64>) -> f64| best.values().map(f).sum::<f64>() / best.len() as f64;
    let (best_wall, best_first) = (mean(|b| b.iter().sum()), mean(|b| b[0]));
    println!(
        "submissions     : {} of {} documents ({} rows)",
        walls.len(),
        best.len(),
        rows
    );
    println!(
        "submit_ms       : {}",
        Timing::of(&to_ms(&walls)).describe("ms")
    );
    println!(
        "first_row_ms    : {}",
        Timing::of(&to_ms(&firsts)).describe("ms")
    );
    println!(
        "fastest pieces  : submit {:.4} ms, first row {:.4} ms (mean over documents)",
        1e3 * best_wall,
        1e3 * best_first
    );
    println!("scenarios_per_s : {:.4}", rows as f64 / loop_wall);
    println!("daemon cache    : {hits} hits, {misses} misses while serving");
    report.set("op_ms", 1e3 * best_wall);
    report.set("first_result_ms", 1e3 * best_first);
    report.set("setup_s", fastest(&setups));
    report.pin("warming.artifacts.misses", warming.done.artifact_misses);
    report.pin(
        "rows.digest",
        report::digest(local_rows.iter().map(String::as_str)),
    );
    report
}

fn to_ms(v: &[f64]) -> Vec<f64> {
    v.iter().map(|x| 1e3 * x).collect()
}

/// The systems a document builds: each fuzz schedule over the matrix
/// base, and the recovery runs' ReSim build.
fn doc_configs(doc: &CampaignSubmission, base: &SystemConfig) -> Vec<SystemConfig> {
    let mut out: Vec<SystemConfig> = doc
        .scenarios
        .iter()
        .filter_map(|s| match s {
            Scenario::Fuzz(spec) => Some(spec.schedule.apply(base)),
            _ => None,
        })
        .collect();
    out.push(SystemConfig {
        method: SimMethod::Resim,
        recovery: RecoveryPolicy {
            enabled: doc.recovery_on,
            ..Default::default()
        },
        ..base.clone()
    });
    out
}

/// The traced run: the two clients submit a fixed set of documents
/// twice, first through `submit_streaming`, then frame by frame. Each
/// document is then served once more with the daemon otherwise idle and
/// run in-process on the daemon's cache, which isolates the daemon's
/// own overhead; the first document's fuzz schedules finally replay
/// with the trace ring and the profiler on.
fn traced(seed: u64) -> Report {
    let mut report = Report::traced();
    let timer = Timer::new();
    let base = MatrixConfig::default().base;
    let cold = ArtifactCache::new();
    let ((), derive_s) = timer.time(|| {
        for c in doc_configs(&inputs::service_doc(seed, 0), &base) {
            cold.warm(&c);
        }
    });
    report.set("artifacts.derive_s", derive_s);
    let ((server, warming), _) = timer.time(|| boot(seed));

    let run_clients = |traced: bool| -> Vec<Sub> {
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let timer = timer.clone();
                    s.spawn(move || {
                        let mut client = Client::connect(&endpoint()).expect("connect to verifd");
                        (0..TRACE_DOCS)
                            .map(|k| {
                                let index = doc_index(c, k);
                                let doc = inputs::service_doc(seed, index);
                                let line = proto::oneline(&doc.to_json());
                                timer
                                    .time(|| {
                                        if traced {
                                            submit_traced(&mut client, index, &line)
                                        } else {
                                            submit(&mut client, index, &doc)
                                        }
                                    })
                                    .0
                            })
                            .collect::<Vec<Sub>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("client thread"))
                .collect()
        })
    };
    let plain = run_clients(false);
    let subs = run_clients(true);
    for sub in plain.iter().chain(&subs) {
        check_sub(&mut report, sub);
        if let Err(e) = &sub.result {
            if e.contains("busy") {
                report.add("verifd.busy_rejects", 1.0);
            }
        }
    }
    let wall_of = |v: &[Sub]| median(&v.iter().map(|s| s.wall).collect::<Vec<_>>());
    report.set(
        "bench.trace_overhead_share",
        wall_of(&subs) / wall_of(&plain) - 1.0,
    );
    report.set(
        "verifd.accept_ms",
        1e3 * median(&subs.iter().map(|s| s.accept).collect::<Vec<_>>()),
    );

    // In-process reruns of the same documents on the daemon's cache:
    // the daemon's overhead, the wire layer and the executor layers.
    let daemon = server.server().artifacts();
    let (mut parse_us, mut render_us, mut overhead_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut bytes, mut rendered_rows) = (0usize, 0usize);
    let (hits, misses) = plain
        .iter()
        .chain(&subs)
        .fold((0, 0), |(h, m), s| match &s.result {
            Ok((_, d)) => (h + d.artifact_hits, m + d.artifact_misses),
            Err(_) => (h, m),
        });
    let mut solo = Client::connect(&endpoint()).expect("connect to verifd");
    let mut locals = Vec::new();
    let mut served_rows = Vec::new();
    for sub in &subs {
        let Ok((rows, _)) = &sub.result else {
            continue;
        };
        let line = proto::oneline(&inputs::service_doc(seed, sub.index).to_json());
        let (doc, dt) = timer.time(|| CampaignSubmission::from_json(&line));
        parse_us.push(1e6 * dt);
        let doc = doc.expect("generated document parses");
        let (alone, _) = timer.time(|| submit(&mut solo, sub.index, &doc));
        check_sub(&mut report, &alone);
        let (local, wall) = timer.time(|| in_process(&doc, daemon));
        overhead_ms.push(1e3 * (alone.wall - wall));
        let mut mine = Vec::new();
        for row in &local.rows {
            let (json, dt) = timer.time(|| verif::row_to_json(row));
            render_us.push(1e6 * dt);
            bytes += json.len();
            mine.push(json);
        }
        rendered_rows += mine.len();
        check_rows(&mut report, sub.index, rows, &mine);
        served_rows.push((sub.index, rows.clone()));
        locals.push(local);
    }
    if locals.is_empty() {
        report.fail("no traced submission succeeded");
        return report;
    }
    report.set("verifd.overhead_ms", median(&overhead_ms));
    report.set("wire.parse_us", median(&parse_us));
    report.set("wire.row_render_us", median(&render_us));
    report.set("wire.row_bytes", bytes as f64 / rendered_rows as f64);
    report.set("artifacts.hits", hits as f64);
    report.set("artifacts.misses", misses as f64);
    report.set(
        "artifacts.hit_share",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    let budget = inputs::service_doc(seed, 0).budget_cycles;
    let burning = |row: &CampaignRow| match &row.outcome {
        ScenarioOutcome::Fuzz(f) => f.cycles >= budget,
        ScenarioOutcome::Recovery(r) => r.class == RunClass::Hung,
        _ => false,
    };
    executor_layers(&mut report, &locals.iter().collect::<Vec<_>>(), burning);

    // Trace and kernel layers: replay the first document's fuzz
    // schedules as the fuzzer runs them, on the daemon's cache.
    let first = &subs[0];
    let doc = inputs::service_doc(seed, first.index);
    let streamed = served_rows
        .iter()
        .find(|(i, _)| *i == first.index)
        .map(|(_, r)| r.clone())
        .unwrap_or_default();
    let (mut events, mut coverage_us, mut builds) = (0usize, Vec::new(), Vec::new());
    for (j, s) in doc.scenarios.iter().enumerate() {
        let Scenario::Fuzz(spec) = s else { continue };
        let cfg = spec.schedule.apply(&base);
        let n_frames = cfg.n_frames;
        let (mut sys, b) = timer.time(|| AvSystem::build_with(cfg, daemon));
        builds.push(b);
        sys.sim.enable_trace_with_capacity(FUZZ_TRACE_CAPACITY);
        sys.sim.set_profiling(true);
        let warmup = u64::from(spec.schedule.warmup_cycles) * CLK_PERIOD_PS;
        let (outcome, run_s) = timer.time(|| {
            let _ = sys.sim.run_for(warmup);
            sys.run(budget)
        });
        report.add("kernel.run_s", run_s);
        report.add_kernel(&sys.sim.stats(), outcome.cycles);
        let (rows, _) = timer.time(|| sys.sim.profiler().report(&sys.sim.eval_counts()));
        report.add_profile(&rows);
        let (verdict, _) = timer.time(|| verif::detect::classify(&sys, &outcome, n_frames));
        let (trace, _) = timer.time(|| sys.sim.trace_events());
        events += trace.len();
        let (keys, dt) = timer.time(|| verif::coverage_of(&trace, &verdict));
        coverage_us.push(1e6 * dt);
        let want = streamed
            .get(j)
            .and_then(|r| WireRow::from_json(r).ok())
            .and_then(|r| match r.outcome {
                WireOutcome::Fuzz { coverage_keys, .. } => Some(coverage_keys),
                _ => None,
            });
        if want != Some(keys.len()) {
            report.fail(format!(
                "replayed fuzz schedule {j} covers {} keys, the daemon streamed {want:?}",
                keys.len()
            ));
        }
    }
    report.finish_kernel();
    report.set("trace.events", events as f64 / coverage_us.len() as f64);
    report.set("trace.coverage_us", median(&coverage_us));
    report.set("build.system_ms", 1e3 * median(&builds));
    report.set("build.systems", builds.len() as f64);
    drop(solo);
    server.shutdown();
    timer.close(&mut report);

    println!(
        "submit wall {:.2} ms plain, {:.2} ms frame by frame; accept {:.3} ms; \
         daemon overhead over in-process {:.3} ms",
        1e3 * wall_of(&plain),
        1e3 * wall_of(&subs),
        report.get("verifd.accept_ms"),
        report.get("verifd.overhead_ms")
    );
    println!(
        "wire: parse {:.1} us per document, render {:.2} us per row ({:.0} bytes); \
         trace: {:.0} events and {:.1} us coverage hashing per fuzz run",
        report.get("wire.parse_us"),
        report.get("wire.row_render_us"),
        report.get("wire.row_bytes"),
        report.get("trace.events"),
        report.get("trace.coverage_us")
    );
    report.pin("warming.artifacts.misses", warming.done.artifact_misses);
    report.pin(
        "rows.digest",
        report::digest(
            served_rows
                .iter()
                .flat_map(|(_, r)| r.iter().map(String::as_str)),
        ),
    );
    for k in [
        "kernel.cycles",
        "kernel.events",
        "kernel.evals",
        "kernel.deltas",
        "kernel.toggles",
    ] {
        report.pin(k, report.get(k) as u64);
    }
    report
}
