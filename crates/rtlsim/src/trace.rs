//! Structured event tracing: a fixed-capacity ring-buffer sink for typed
//! trace events emitted by components.
//!
//! The observability counterpart of the VCD writer: where a VCD records
//! *every signal toggle*, the trace buffer records *semantic spans* —
//! "SimB transfer for region 1", "isolation window", "ISR", "DMA burst"
//! — that tools like Perfetto / `chrome://tracing` can render as a
//! timeline (the `obs` crate has the exporter).
//!
//! # Zero cost when disabled
//!
//! Tracing is off by default. Every emission helper is a single inlined
//! branch on the buffer's `enabled` flag; no allocation, clock read or
//! formatting happens unless the buffer was explicitly enabled, and
//! enabling it never changes scheduling (the buffer is a pure observer),
//! so simulation results are identical either way.
//!
//! # Determinism
//!
//! A [`TraceEvent`] carries only simulation-derived fields (simulation
//! time, a kernel-assigned sequence number, static names and integer
//! arguments) — no wall-clock reads — so two identical runs produce
//! byte-identical event streams (pinned by `verif`'s determinism test).
//!
//! The buffer is a single-producer ring: when full, the *oldest* events
//! are overwritten and [`TraceBuf::dropped`] counts the loss, so a
//! long-running simulation keeps the most recent window instead of
//! growing without bound.

/// What a trace event marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// Start of a span (matched by the next `End` with the same name and
    /// track).
    Begin,
    /// End of a span.
    End,
    /// A point event with no duration.
    Instant,
}

/// Coarse category of a trace event — one per instrumented subsystem.
/// The Perfetto exporter maps categories (plus the track id) to threads
/// so each subsystem renders as its own timeline row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceCat {
    /// SimB bitstream transfers (ICAP artifact, per region).
    Simb,
    /// ICAP parse phases and strobes.
    Icap,
    /// Region isolation assert/release windows.
    Isolation,
    /// Reconfiguration controller retry/backoff attempts.
    Retry,
    /// DMA bursts.
    Dma,
    /// Accelerator engine start/done activity.
    Engine,
    /// Processor interrupt-service windows.
    Isr,
    /// Extended-portal module swaps.
    Portal,
}

impl TraceCat {
    /// Stable lower-case label used by exporters.
    pub fn label(self) -> &'static str {
        match self {
            TraceCat::Simb => "simb",
            TraceCat::Icap => "icap",
            TraceCat::Isolation => "isolation",
            TraceCat::Retry => "retry",
            TraceCat::Dma => "dma",
            TraceCat::Engine => "engine",
            TraceCat::Isr => "isr",
            TraceCat::Portal => "portal",
        }
    }
}

/// One recorded event. `Copy` and allocation-free: names are static
/// strings and the only payload is one integer argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulation time of the event in picoseconds.
    pub time_ps: u64,
    /// Monotonic emission number — total order, including within one
    /// timestamp.
    pub seq: u64,
    /// Span begin/end or instant.
    pub kind: TraceKind,
    /// Subsystem category.
    pub cat: TraceCat,
    /// Event name (static so emission never allocates).
    pub name: &'static str,
    /// Track discriminator within the category — the reconfigurable
    /// region id for per-region spans, 0 where there is only one track.
    pub track: u32,
    /// One free integer argument (word counts, error codes...). 0 when
    /// unused.
    pub arg: u64,
}

/// Default ring capacity (events). At 40 bytes per event this is ~10 MiB
/// and covers several frames of the case study with room to spare.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 18;

// ---------------------------------------------------------------------
// Coverage extraction
// ---------------------------------------------------------------------
//
// Coverage-guided harnesses reduce an event stream to a *set of keys*:
// each key names one behaviour the run exhibited ("region 1 saw 2..3
// transfers", "an ISR overlapped an isolation window"). The helpers
// below are the stable primitives those maps are built from — a
// deterministic hash and a count coarsener — kept next to the event
// type so every consumer derives identical keys from identical streams.

/// Deterministic 64-bit FNV-1a over a label plus integer parts. The
/// stable identity of one coverage point; never dependent on pointer
/// values, hash-map iteration order or `DefaultHasher` seeds.
pub fn coverage_key(label: &str, parts: &[u64]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for b in label.as_bytes() {
        h = (h ^ *b as u64).wrapping_mul(PRIME);
    }
    for p in parts {
        for b in p.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(PRIME);
        }
    }
    h
}

/// Coarsen a count into a log₂ bucket: 0, 1, 2 map to themselves, then
/// 3..4 → 3, 5..8 → 4, 9..16 → 5 ... so "one more retry" is novel when
/// retries are rare but not when they number in the hundreds.
pub fn log2_bucket(v: u64) -> u64 {
    match v {
        0..=2 => v,
        _ => 2 + (63 - (v - 1).leading_zeros()) as u64,
    }
}

/// The single-producer ring-buffer sink. Owned by the simulator core;
/// components reach it through `Ctx`'s `trace_*` helpers and testbenches
/// through `Simulator::trace_*`.
pub struct TraceBuf {
    /// Hot-path gate; checked (inlined) before anything else happens.
    pub(crate) enabled: bool,
    buf: Vec<TraceEvent>,
    capacity: usize,
    /// Index of the next write (wraps).
    head: usize,
    seq: u64,
    dropped: u64,
}

impl TraceBuf {
    pub(crate) fn new() -> TraceBuf {
        TraceBuf {
            enabled: false,
            buf: Vec::new(),
            capacity: DEFAULT_TRACE_CAPACITY,
            head: 0,
            seq: 0,
            dropped: 0,
        }
    }

    /// Turn the sink on with `capacity` slots (allocated eagerly so the
    /// hot path never reallocates).
    pub(crate) fn enable(&mut self, capacity: usize) {
        assert!(capacity > 0, "trace capacity must be positive");
        self.enabled = true;
        self.capacity = capacity;
        self.buf.clear();
        self.buf.reserve_exact(capacity);
        self.head = 0;
        self.seq = 0;
        self.dropped = 0;
    }

    /// Record one event (caller has already checked `enabled`).
    #[inline]
    pub(crate) fn push(
        &mut self,
        time_ps: u64,
        kind: TraceKind,
        cat: TraceCat,
        name: &'static str,
        track: u32,
        arg: u64,
    ) {
        self.seq += 1;
        let ev = TraceEvent {
            time_ps,
            seq: self.seq,
            kind,
            cat,
            name,
            track,
            arg,
        };
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Events in emission order (oldest retained first).
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    /// Number of events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total events ever emitted (including overwritten ones).
    pub fn emitted(&self) -> u64 {
        self.seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let mut t = TraceBuf::new();
        t.enable(4);
        for i in 0..6u64 {
            t.push(i * 10, TraceKind::Instant, TraceCat::Dma, "e", 0, i);
        }
        let evs = t.events();
        assert_eq!(evs.len(), 4);
        assert_eq!(t.dropped(), 2);
        assert_eq!(t.emitted(), 6);
        // Oldest retained first: events 2..6.
        let args: Vec<u64> = evs.iter().map(|e| e.arg).collect();
        assert_eq!(args, [2, 3, 4, 5]);
        let seqs: Vec<u64> = evs.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [3, 4, 5, 6]);
    }

    #[test]
    fn disabled_buffer_records_nothing() {
        let t = TraceBuf::new();
        assert!(!t.enabled);
        assert!(t.events().is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn coverage_keys_are_stable_and_distinct() {
        assert_eq!(coverage_key("a", &[1, 2]), coverage_key("a", &[1, 2]));
        assert_ne!(coverage_key("a", &[1, 2]), coverage_key("a", &[2, 1]));
        assert_ne!(coverage_key("a", &[1]), coverage_key("b", &[1]));
        // Parts must not collide with label bytes by concatenation.
        assert_ne!(coverage_key("a", &[0x62]), coverage_key("ab", &[]));
    }

    #[test]
    fn log2_bucket_coarsens_counts() {
        let cases = [
            (0, 0),
            (1, 1),
            (2, 2),
            (3, 3),
            (4, 3),
            (5, 4),
            (8, 4),
            (9, 5),
            (16, 5),
            (17, 6),
        ];
        for (v, want) in cases {
            assert_eq!(log2_bucket(v), want, "bucket({v})");
        }
    }
}
