//! Chrome-trace/Perfetto JSON exporter.
//!
//! Produces the [Trace Event Format] JSON object that both
//! `chrome://tracing` and <https://ui.perfetto.dev> load directly. Each
//! `(category, track)` pair becomes one named "thread" so every
//! subsystem — and every reconfigurable region within a subsystem —
//! renders as its own timeline row.
//!
//! Timestamps are simulation picoseconds converted to the format's
//! microsecond unit by pure integer arithmetic, so the export of a
//! deterministic run is byte-deterministic too.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::json;
use rtlsim::{TraceCat, TraceEvent, TraceKind};
use std::collections::BTreeMap;

/// The process id every event is filed under (there is one simulator).
const PID: u32 = 1;

fn tid_key(cat: TraceCat, track: u32) -> (u8, u32) {
    let c = match cat {
        TraceCat::Simb => 0,
        TraceCat::Icap => 1,
        TraceCat::Isolation => 2,
        TraceCat::Retry => 3,
        TraceCat::Dma => 4,
        TraceCat::Engine => 5,
        TraceCat::Isr => 6,
        TraceCat::Portal => 7,
    };
    (c, track)
}

fn thread_name(cat: TraceCat, track: u32) -> String {
    if track == 0 {
        cat.label().to_string()
    } else {
        format!("{} rr{}", cat.label(), track)
    }
}

/// Serialize a trace-event stream as a Chrome-trace JSON object.
pub fn export(events: &[TraceEvent]) -> String {
    // Stable tid assignment: ordered by (category, track), independent
    // of event order.
    let mut tids: BTreeMap<(u8, u32), u32> = BTreeMap::new();
    for ev in events {
        let next = tids.len() as u32 + 1;
        tids.entry(tid_key(ev.cat, ev.track)).or_insert(next);
    }
    // Re-number in key order so identical event *sets* export
    // identically regardless of first-seen order.
    for (i, v) in tids.values_mut().enumerate() {
        *v = i as u32 + 1;
    }

    let mut lines: Vec<String> = Vec::with_capacity(events.len() + tids.len() + 1);
    lines.push(format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{PID},\"tid\":0,\
         \"args\":{{\"name\":\"rtlsim\"}}}}"
    ));
    let mut names: Vec<(u32, String)> = Vec::new();
    for ev in events {
        let tid = tids[&tid_key(ev.cat, ev.track)];
        if !names.iter().any(|(t, _)| *t == tid) {
            names.push((tid, thread_name(ev.cat, ev.track)));
        }
    }
    names.sort_by_key(|(t, _)| *t);
    for (tid, name) in &names {
        lines.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{PID},\"tid\":{tid},\
             \"args\":{{\"name\":\"{}\"}}}}",
            json::escape(name)
        ));
    }

    for ev in events {
        let tid = tids[&tid_key(ev.cat, ev.track)];
        let ts = json::ps_as_us(ev.time_ps);
        let name = json::escape(ev.name);
        let cat = ev.cat.label();
        let line = match ev.kind {
            TraceKind::Begin => format!(
                "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"B\",\"ts\":{ts},\
                 \"pid\":{PID},\"tid\":{tid},\"args\":{{\"arg\":{}}}}}",
                ev.arg
            ),
            TraceKind::End => format!(
                "{{\"ph\":\"E\",\"ts\":{ts},\"pid\":{PID},\"tid\":{tid},\
                 \"args\":{{\"arg\":{}}}}}",
                ev.arg
            ),
            TraceKind::Instant => format!(
                "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"i\",\"ts\":{ts},\
                 \"pid\":{PID},\"tid\":{tid},\"s\":\"t\",\"args\":{{\"arg\":{}}}}}",
                ev.arg
            ),
        };
        lines.push(line);
    }

    format!(
        "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n{}\n]}}\n",
        lines.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64, time_ps: u64, kind: TraceKind, cat: TraceCat, track: u32) -> TraceEvent {
        TraceEvent {
            time_ps,
            seq,
            kind,
            cat,
            name: "transfer",
            track,
            arg: 7,
        }
    }

    #[test]
    fn export_contains_matched_span_and_thread_names() {
        let evs = [
            ev(1, 1_000_000, TraceKind::Begin, TraceCat::Simb, 1),
            ev(2, 3_000_000, TraceKind::End, TraceCat::Simb, 1),
            ev(3, 2_000_000, TraceKind::Instant, TraceCat::Icap, 0),
        ];
        let out = export(&evs);
        assert!(out.contains("\"ph\":\"B\""));
        assert!(out.contains("\"ph\":\"E\""));
        assert!(out.contains("\"ph\":\"i\""));
        assert!(out.contains("\"name\":\"simb rr1\""));
        assert!(out.contains("\"name\":\"icap\""));
        assert!(out.contains("\"ts\":1.000000"));
        // Balanced braces/brackets — cheap well-formedness check.
        assert_eq!(
            out.matches('{').count(),
            out.matches('}').count(),
            "unbalanced braces"
        );
        assert_eq!(out.matches('[').count(), out.matches(']').count());
    }

    #[test]
    fn export_is_independent_of_first_seen_order() {
        let a = [
            ev(1, 100, TraceKind::Instant, TraceCat::Simb, 2),
            ev(2, 200, TraceKind::Instant, TraceCat::Simb, 1),
        ];
        let b = [
            ev(1, 100, TraceKind::Instant, TraceCat::Simb, 1),
            ev(2, 200, TraceKind::Instant, TraceCat::Simb, 2),
        ];
        // tid of (Simb, 1) must be the same in both exports.
        let ta = export(&a);
        let tb = export(&b);
        let tid_of = |s: &str| {
            s.lines()
                .find(|l| l.contains("simb rr1"))
                .unwrap()
                .to_string()
        };
        assert_eq!(tid_of(&ta), tid_of(&tb));
    }
}
