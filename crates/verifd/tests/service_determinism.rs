//! The service determinism suite: rows streamed over the socket must be
//! byte-identical to in-process campaign runs, and admission control
//! must never bend row order — even under a forced 1-scenario window
//! with concurrent submissions.

use obs::json::Json;
use rtlsim::ExecMode;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use verif::wire::{
    report_to_json, row_to_json, CampaignSubmission, MAX_BUDGET_CYCLES, MAX_SCENARIOS, MAX_THREADS,
};
use verif::{MatrixConfig, Scenario};
use verifd::client::Client;
use verifd::server::{Endpoint, RunningServer, ServerConfig};

static SOCKET_SERIAL: AtomicU64 = AtomicU64::new(0);

fn socket_path() -> PathBuf {
    let n = SOCKET_SERIAL.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("verifd-test-{}-{n}.sock", std::process::id()))
}

fn start_unix(cfg: ServerConfig) -> (RunningServer, String) {
    let path = socket_path();
    let server =
        RunningServer::start(cfg, &[Endpoint::Unix(path.clone())]).expect("bind unix socket");
    (server, format!("unix:{}", path.display()))
}

fn mixed_submission() -> CampaignSubmission {
    CampaignSubmission {
        scenarios: vec![
            Scenario::Clean,
            Scenario::Bug(autovision::Bug::Dpr4P2pOnSharedBus),
            Scenario::SplitClean,
        ],
        recovery_runs: 2,
        recovery_on: true,
        seed: 0xFA_17,
        ..Default::default()
    }
}

/// In-process reference rows for a submission as the daemon will plan
/// it (thread count cannot change a row, but the report's worker count
/// must match for full-document comparison).
fn reference_rows(sub: &CampaignSubmission, threads: usize) -> (Vec<String>, String) {
    let report = sub.plan(threads, 0).run();
    let rows = report.rows.iter().map(row_to_json).collect();
    (rows, report_to_json(&report))
}

#[test]
fn socket_rows_are_byte_identical_to_in_process_runs() {
    let (server, endpoint) = start_unix(ServerConfig {
        threads: 2,
        ..Default::default()
    });
    let sub = mixed_submission();
    let (want_rows, want_report) = reference_rows(&sub, 2);

    let mut client = Client::connect(&endpoint).expect("connect");
    let served = client.submit(&sub).expect("submit");
    assert_eq!(served.scenarios, 5);
    assert_eq!(
        served.rows, want_rows,
        "socket rows differ from in-process rows"
    );
    assert_eq!(
        served.report_json(),
        want_report,
        "reassembled report differs from in-process rendering"
    );
    assert_eq!(served.done.rows, 5);
    assert_eq!(served.done.failures, 0);
    assert!(!served.done.cancelled);

    // Second identical submission: the shared cache is warm now, so the
    // run derives nothing new — and the rows are still byte-identical.
    let served2 = client.submit(&sub).expect("second submit");
    assert_eq!(served2.rows, want_rows);
    assert_eq!(served2.done.failures, 0);
    assert_eq!(
        served2.done.artifact_misses, 0,
        "warm-cache submission re-derived artifacts"
    );
    assert!(served2.done.artifact_hits > 0);
    drop(client);
    server.shutdown();
}

#[test]
fn concurrent_submissions_under_forced_single_scenario_window_stay_index_ordered() {
    // scenario_budget = 1 forces the tightest admission window the
    // executor supports: the pool may never run ahead of the oldest
    // incomplete scenario.
    let (server, endpoint) = start_unix(ServerConfig {
        max_campaigns: 2,
        threads: 2,
        scenario_budget: 1,
        ..Default::default()
    });
    let sub_a = mixed_submission();
    let sub_b = CampaignSubmission {
        recovery_runs: 4,
        recovery_on: false,
        seed: 0xB0_07,
        ..Default::default()
    };
    let (want_a, _) = reference_rows(&sub_a, 2);
    let (want_b, _) = reference_rows(&sub_b, 2);

    let (got_a, got_b) = std::thread::scope(|s| {
        let ep_a = endpoint.clone();
        let ep_b = endpoint.clone();
        let a = s.spawn(move || {
            let mut c = Client::connect(&ep_a).expect("connect a");
            c.submit(&sub_a).expect("submit a")
        });
        let b = s.spawn(move || {
            let mut c = Client::connect(&ep_b).expect("connect b");
            c.submit(&sub_b).expect("submit b")
        });
        (a.join().expect("a"), b.join().expect("b"))
    });

    for (name, served, want) in [("a", &got_a, &want_a), ("b", &got_b, &want_b)] {
        assert_eq!(served.rows, *want, "campaign {name} rows corrupted");
        for (i, row) in served.rows.iter().enumerate() {
            let parsed = verif::wire::WireRow::from_json(row).expect("row parses");
            assert_eq!(parsed.index, i, "campaign {name} rows out of order");
        }
    }
    assert_ne!(got_a.id, got_b.id, "submissions must get distinct ids");
    server.shutdown();
}

#[test]
fn tcp_endpoint_serves_ping_metrics_and_campaigns() {
    let server = RunningServer::start(
        ServerConfig::default(),
        &[Endpoint::Tcp("127.0.0.1:0".to_string())],
    )
    .expect("bind tcp");
    let addr = server.tcp_addr().expect("resolved tcp addr").to_string();
    let mut client = Client::connect(&format!("tcp:{addr}")).expect("connect tcp");
    client.ping().expect("ping");

    let sub = CampaignSubmission {
        scenarios: vec![Scenario::Clean],
        ..Default::default()
    };
    let (want, _) = reference_rows(&sub, 0);
    let served = client.submit(&sub).expect("submit over tcp");
    assert_eq!(served.rows, want);

    let snap = client.metrics().expect("metrics scrape");
    assert!(snap.contains("\"schema\":\"obs_metrics/v1\""), "{snap}");
    assert!(snap.contains("service.submissions"), "{snap}");
    assert!(snap.contains("compiled.plans"), "{snap}");
    assert!(
        !snap.contains('\n'),
        "metrics snapshot must be one NDJSON line"
    );
    drop(client);
    server.shutdown();
}

/// One counter of a one-line metrics snapshot.
fn counter(snap: &str, name: &str) -> Option<u64> {
    Json::parse(snap).ok()?.get("counters")?.get(name)?.as_u64()
}

#[test]
fn each_server_scrapes_its_own_last_campaign() {
    let (server_a, endpoint_a) = start_unix(ServerConfig::default());
    let (server_b, endpoint_b) = start_unix(ServerConfig::default());
    let clean = |exec_mode| CampaignSubmission {
        scenarios: vec![Scenario::Clean],
        exec_mode,
        ..Default::default()
    };
    let mut a = Client::connect(&endpoint_a).expect("connect a");
    let mut b = Client::connect(&endpoint_b).expect("connect b");
    b.submit(&clean(ExecMode::EventDriven)).expect("submit b");
    a.submit(&clean(ExecMode::Compiled)).expect("submit a");
    let snap_a = a.metrics().expect("scrape a");
    let snap_b = b.metrics().expect("scrape b");
    assert_eq!(counter(&snap_a, "compiled.plans"), Some(2), "{snap_a}");
    assert_eq!(counter(&snap_b, "compiled.plans"), Some(0), "{snap_b}");

    // The next campaign replaces the compiled.* values; nothing adds up.
    a.submit(&clean(ExecMode::EventDriven)).expect("resubmit a");
    let snap_a = a.metrics().expect("rescrape a");
    assert_eq!(counter(&snap_a, "compiled.plans"), Some(0), "{snap_a}");
    assert_eq!(
        counter(&snap_a, "compiled.steady_points"),
        Some(0),
        "{snap_a}"
    );
    drop(a);
    drop(b);
    server_a.shutdown();
    server_b.shutdown();
}

#[test]
fn watch_replays_the_full_row_log_after_completion() {
    let (server, endpoint) = start_unix(ServerConfig::default());
    let sub = CampaignSubmission {
        scenarios: vec![Scenario::Clean, Scenario::SplitClean],
        ..Default::default()
    };
    let mut submitter = Client::connect(&endpoint).expect("connect submitter");
    let served = submitter.submit(&sub).expect("submit");

    let mut watcher = Client::connect(&endpoint).expect("connect watcher");
    let (rows, done) = watcher.watch(served.id, |_| {}).expect("watch");
    assert_eq!(
        rows, served.rows,
        "watch replay differs from the live stream"
    );
    assert_eq!(done, served.done);

    let err = watcher
        .watch(9999, |_| {})
        .expect_err("unknown id must fail");
    assert!(err.to_string().contains("unknown campaign id"), "{err}");
    drop(submitter);
    drop(watcher);
    server.shutdown();
}

#[test]
fn cancellation_keeps_delivery_index_complete() {
    let (server, endpoint) = start_unix(ServerConfig {
        threads: 1,
        ..Default::default()
    });
    let sub = CampaignSubmission {
        recovery_runs: 8,
        recovery_on: true,
        seed: 0xCA_9C,
        ..Default::default()
    };
    let endpoint2 = endpoint.clone();
    let mut client = Client::connect(&endpoint).expect("connect");
    let mut cancelled_sent = false;
    let served = client
        .submit_streaming(&sub, |_| {
            if !cancelled_sent {
                cancelled_sent = true;
                // Cancel from a second connection as soon as the first
                // row lands. The submission id is 1 on a fresh server.
                let mut c = Client::connect(&endpoint2).expect("connect canceller");
                c.cancel(1).expect("cancel");
            }
        })
        .expect("submit");
    assert_eq!(served.done.rows, 8, "cancellation must not drop rows");
    for (i, row) in served.rows.iter().enumerate() {
        let parsed = verif::wire::WireRow::from_json(row).expect("row parses");
        assert_eq!(parsed.index, i);
    }
    let cancelled_rows = served
        .rows
        .iter()
        .filter(|r| r.contains("\"kind\": \"cancelled\""))
        .count() as u64;
    if served.done.cancelled {
        assert_eq!(
            served.done.failures, cancelled_rows,
            "failures must count exactly the cancelled rows here"
        );
    } else {
        assert_eq!(cancelled_rows, 0);
    }
    drop(client);
    server.shutdown();
}

#[test]
fn flooded_daemon_rejects_loudly_instead_of_queueing_forever() {
    let (server, endpoint) = start_unix(ServerConfig {
        max_campaigns: 1,
        max_queued: 0,
        threads: 1,
        ..Default::default()
    });
    let sub = CampaignSubmission {
        recovery_runs: 6,
        recovery_on: true,
        ..Default::default()
    };
    let endpoint2 = endpoint.clone();
    let mut client = Client::connect(&endpoint).expect("connect");
    let mut second_result: Option<std::io::Error> = None;
    let mut tried = false;
    let served = client
        .submit_streaming(&sub, |_| {
            if !tried {
                tried = true;
                // While the first campaign holds the only admission
                // slot, a second submission must be rejected.
                let mut c = Client::connect(&endpoint2).expect("connect second");
                second_result = c
                    .submit(&CampaignSubmission {
                        scenarios: vec![Scenario::Clean],
                        ..Default::default()
                    })
                    .err();
            }
        })
        .expect("first submit");
    assert_eq!(served.done.rows, 6);
    let err = second_result.expect("second submission should have been rejected");
    assert!(err.to_string().contains("busy"), "{err}");
    drop(client);
    server.shutdown();
}

#[test]
fn bad_submissions_get_typed_errors_not_hangups() {
    let (server, endpoint) = start_unix(ServerConfig::default());
    let mut client = Client::connect(&endpoint).expect("connect");

    client.send("this is not json").expect("send garbage");
    let v = client.recv().expect("recv").expect("frame");
    assert_eq!(verifd::proto::schema_of(&v), Some("error/v1"));

    client
        .send("{\"schema\": \"campaign_submit/v99\", \"scenarios\": []}")
        .expect("send wrong version");
    let v = client.recv().expect("recv").expect("frame");
    assert_eq!(verifd::proto::schema_of(&v), Some("error/v1"));
    let msg = v.get("error").and_then(obs::json::Json::as_str).unwrap();
    assert!(msg.contains("campaign_submit/v1"), "{msg}");

    // A pathologically nested line is refused, not a stack overflow.
    client
        .send(&"[".repeat(100_000))
        .expect("send deep nesting");
    let v = client.recv().expect("recv").expect("frame");
    assert_eq!(verifd::proto::schema_of(&v), Some("error/v1"));
    let msg = v.get("error").and_then(obs::json::Json::as_str).unwrap();
    assert!(msg.contains("nesting deeper than"), "{msg}");

    // A line past the frame cap is refused by size, not buffered whole.
    let cap = verifd::proto::MAX_FRAME_BYTES;
    client
        .send(&"x".repeat(cap + 1))
        .expect("send oversized frame");
    let v = client.recv().expect("recv").expect("frame");
    assert_eq!(verifd::proto::schema_of(&v), Some("error/v1"));
    let msg = v.get("error").and_then(obs::json::Json::as_str).unwrap();
    assert!(msg.contains(&cap.to_string()), "{msg}");

    // Work past the wire limits is refused before it is planned or
    // admitted, with the limit named.
    for (member, limit) in [
        (
            format!("\"budget_cycles\": {}", u64::MAX),
            MAX_BUDGET_CYCLES,
        ),
        ("\"threads\": 1000000000000".to_string(), MAX_THREADS as u64),
        (
            "\"recovery_runs\": 1000000000000".to_string(),
            MAX_SCENARIOS as u64,
        ),
    ] {
        client
            .send(&format!(
                "{{\"schema\": \"campaign_submit/v1\", {member}, \"scenarios\": []}}"
            ))
            .expect("send over-limit submission");
        let v = client.recv().expect("recv").expect("frame");
        assert_eq!(verifd::proto::schema_of(&v), Some("error/v1"));
        let msg = v.get("error").and_then(obs::json::Json::as_str).unwrap();
        assert!(msg.contains(&format!("limit of {limit}")), "{msg}");
    }

    // The connection survives every error.
    client.ping().expect("ping still works");
    drop(client);

    // A line that is not UTF-8 gets a typed error too. The client only
    // sends strings, so write the bytes on a raw socket.
    let mut raw = UnixStream::connect(server.unix_path().unwrap()).expect("connect raw");
    raw.write_all(b"\xff\xfe\n{\"schema\": \"ping/v1\"}\n")
        .expect("send non-UTF-8 line, then ping");
    let mut replies = BufReader::new(&raw)
        .lines()
        .map(|line| obs::json::Json::parse(&line.expect("read")).expect("reply parses"));
    let v = replies.next().expect("an error reply, not EOF");
    assert_eq!(verifd::proto::schema_of(&v), Some("error/v1"));
    let msg = v.get("error").and_then(obs::json::Json::as_str).unwrap();
    assert!(msg.contains("UTF-8"), "{msg}");
    let v = replies.next().expect("a pong after the error");
    assert_eq!(verifd::proto::schema_of(&v), Some("pong/v1"));
    drop(raw);
    server.shutdown();
}

#[test]
fn base_config_matches_the_pinned_matrix_base() {
    // The submission schema fixes the base configuration to the matrix
    // default; if that default drifts, wire documents silently change
    // meaning. Pin the load-bearing fields.
    let base = MatrixConfig::default().base;
    assert_eq!((base.width, base.height), (32, 24));
    assert_eq!(base.n_frames, 2);
}
