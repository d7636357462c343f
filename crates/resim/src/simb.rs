//! Simulation-only bitstreams (SimB).
//!
//! A SimB substitutes for a real configuration bitstream: it follows the
//! same framing a Xilinx bitstream uses (SYNC word, type-1/type-2
//! configuration packets, command register writes, DESYNC), but instead
//! of bit-level configuration memory settings its FDRI payload is random
//! filler, and the frame address (FAR) carries numeric IDs naming the
//! reconfigurable region and the module to configure — exactly Table I
//! of the paper.
//!
//! The designer chooses the payload length: ~100 words for fast debug
//! turnaround, the real bitstream's length (129 K words for the
//! AutoVision region) for maximum timing accuracy, or anything between
//! to stress the transfer datapath (FIFO overflow/underflow).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The Xilinx SYNC word that opens configuration traffic.
pub const SYNC_WORD: u32 = 0xAA99_5566;
/// A configuration NOP.
pub const NOP: u32 = 0x2000_0000;
/// Type-1 packet: write 1 word to FAR.
pub const T1_WRITE_FAR: u32 = 0x3000_2001;
/// Type-1 packet: write 1 word to CMD.
pub const T1_WRITE_CMD: u32 = 0x3000_8001;
/// Type-1 packet: write 0 words to FDRI (precedes the type-2 packet).
pub const T1_WRITE_FDRI: u32 = 0x3000_4000;
/// Type-2 packet header template; OR in the payload word count.
pub const T2_HEADER: u32 = 0x5000_0000;
/// CMD register code: write configuration data.
pub const CMD_WCFG: u32 = 0x0000_0001;
/// CMD register code: desynchronise (end of bitstream).
pub const CMD_DESYNC: u32 = 0x0000_000D;
/// CMD register code: capture flip-flop state (state saving, per the
/// authors' FPGA'12 follow-up).
pub const CMD_GCAPTURE: u32 = 0x0000_000C;
/// CMD register code: restore flip-flop state.
pub const CMD_GRESTORE: u32 = 0x0000_000A;
/// Type-1 packet: write 1 word to the CRC register (integrity word).
/// Real bitstreams carry the same packet; a SimB built with
/// [`build_simb_integrity`] appends it just before DESYNC so the ICAP
/// artifact can verify the transfer end to end.
pub const T1_WRITE_CRC: u32 = 0x3000_0001;

/// CRC32 (IEEE 802.3, bit-reversed, init/final `0xFFFF_FFFF`) over a
/// word stream, each word contributing its 4 bytes big-endian — the
/// integrity function of SimB CRC packets.
pub fn crc32(words: &[u32]) -> u32 {
    let mut acc = CRC_INIT;
    for &w in words {
        acc = crc32_fold(acc, w);
    }
    acc ^ 0xFFFF_FFFF
}

const CRC_INIT: u32 = 0xFFFF_FFFF;

/// Fold one word into a raw (not yet finalised) CRC32 accumulator.
fn crc32_fold(mut acc: u32, word: u32) -> u32 {
    for byte in word.to_be_bytes() {
        acc ^= byte as u32;
        for _ in 0..8 {
            let mask = (acc & 1).wrapping_neg();
            acc = (acc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    acc
}

/// Frame-address encoding: region ID in bits \[31:24\], module ID in
/// \[23:16\] (Table I: `FA=0x01020000` selects module 0x02 in region 0x01).
pub fn far_word(rr_id: u8, module_id: u8) -> u32 {
    ((rr_id as u32) << 24) | ((module_id as u32) << 16)
}

/// Decode a FAR word back to (region, module).
pub fn decode_far(fa: u32) -> (u8, u8) {
    ((fa >> 24) as u8, (fa >> 16) as u8)
}

/// Kinds of SimB a testbench can generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimbKind {
    /// Configure `module` into the region (module swap).
    Config {
        /// Module to become active.
        module: u8,
    },
    /// Capture module state (GCAPTURE read-back marker).
    Capture,
    /// Restore module state (GRESTORE).
    Restore,
}

/// Build a SimB word stream.
///
/// `payload_words` is the designer-chosen FDRI payload length (≥1);
/// payload content is seeded-random filler, as in Table I.
pub fn build_simb(kind: SimbKind, rr_id: u8, payload_words: usize, seed: u64) -> Vec<u32> {
    build_simb_opts(kind, rr_id, payload_words, seed, false)
}

/// Build a SimB word stream with a trailing CRC32 integrity packet.
///
/// Identical to [`build_simb`] except that a `T1_WRITE_CRC` packet
/// carrying the CRC32 of every word after SYNC is inserted just before
/// the DESYNC command. The ICAP artifact verifies it and refuses the
/// module swap on mismatch (see `icap::IcapConfig::resilient`).
pub fn build_simb_integrity(
    kind: SimbKind,
    rr_id: u8,
    payload_words: usize,
    seed: u64,
) -> Vec<u32> {
    build_simb_opts(kind, rr_id, payload_words, seed, true)
}

fn build_simb_opts(
    kind: SimbKind,
    rr_id: u8,
    payload_words: usize,
    seed: u64,
    integrity: bool,
) -> Vec<u32> {
    assert!(payload_words >= 1, "SimB needs at least one payload word");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut w = Vec::with_capacity(payload_words + 10);
    w.push(SYNC_WORD);
    w.push(NOP);
    match kind {
        SimbKind::Config { module } => {
            w.push(T1_WRITE_FAR);
            w.push(far_word(rr_id, module));
            w.push(T1_WRITE_CMD);
            w.push(CMD_WCFG);
            w.push(T1_WRITE_FDRI);
            w.push(T2_HEADER | payload_words as u32);
            for _ in 0..payload_words {
                w.push(rng.random());
            }
        }
        SimbKind::Capture => {
            w.push(T1_WRITE_FAR);
            w.push(far_word(rr_id, 0));
            w.push(T1_WRITE_CMD);
            w.push(CMD_GCAPTURE);
        }
        SimbKind::Restore => {
            w.push(T1_WRITE_FAR);
            w.push(far_word(rr_id, 0));
            w.push(T1_WRITE_CMD);
            w.push(CMD_GRESTORE);
        }
    }
    if integrity {
        // CRC covers every word after SYNC, excluding the CRC packet
        // itself — the same span the parser accumulates.
        let crc = crc32(&w[1..]);
        w.push(T1_WRITE_CRC);
        w.push(crc);
    }
    w.push(T1_WRITE_CMD);
    w.push(CMD_DESYNC);
    w
}

/// Events the parser reports as words stream in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimbEvent {
    /// SYNC seen: the "during reconfiguration" phase begins.
    Sync,
    /// FAR written: the region/module addressed by this bitstream.
    Far {
        /// Reconfigurable region ID.
        rr: u8,
        /// Module ID.
        module: u8,
    },
    /// WCFG command: configuration data follows.
    Wcfg,
    /// Type-2 FDRI header: `words` payload words follow. Error injection
    /// starts with the first payload word.
    PayloadStart {
        /// Payload length.
        words: u32,
    },
    /// The final payload word arrived: injection ends and the module
    /// swap triggers.
    PayloadEnd,
    /// GCAPTURE command (state saving).
    Capture,
    /// GRESTORE command (state restoration).
    Restore,
    /// DESYNC: the "during reconfiguration" phase ends.
    Desync,
    /// A word that does not fit the protocol at this point.
    Malformed {
        /// The offending word.
        word: u32,
    },
    /// A CRC packet verified: the stream so far is intact.
    CrcOk,
    /// A CRC packet FAILED verification: the transferred stream is
    /// corrupt and must not trigger a module swap.
    CrcMismatch {
        /// CRC the parser computed over the received words.
        expected: u32,
        /// CRC word carried by the stream.
        got: u32,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ps {
    /// Before SYNC: words are ignored (bus noise / padding).
    Unsynced,
    Idle,
    ExpectFar,
    ExpectCmd,
    ExpectT2,
    ExpectCrc,
    Payload {
        left: u32,
    },
}

/// A streaming SimB parser — the protocol brain of the ICAP artifact.
#[derive(Debug)]
pub struct SimbParser {
    st: Ps,
    /// Words consumed since SYNC (diagnostic).
    pub words_seen: u64,
    /// Raw CRC32 accumulator over post-SYNC words (excluding any CRC
    /// packet); lets the parser verify `T1_WRITE_CRC` integrity words.
    crc_acc: u32,
    /// True once a CRC packet verified OK in the current synced stream.
    crc_verified: bool,
}

impl Default for SimbParser {
    fn default() -> Self {
        Self::new()
    }
}

impl SimbParser {
    /// A parser in the unsynchronised state.
    pub fn new() -> SimbParser {
        SimbParser {
            st: Ps::Unsynced,
            words_seen: 0,
            crc_acc: CRC_INIT,
            crc_verified: false,
        }
    }

    /// True between SYNC and DESYNC.
    pub fn synced(&self) -> bool {
        self.st != Ps::Unsynced
    }

    /// True if a CRC packet verified OK since the last SYNC.
    pub fn crc_verified(&self) -> bool {
        self.crc_verified
    }

    /// Consume one word; return the events it causes (0..=2).
    pub fn push(&mut self, word: u32) -> Vec<SimbEvent> {
        use SimbEvent::*;
        if self.st != Ps::Unsynced {
            self.words_seen += 1;
        }
        // Fold every post-SYNC word into the running CRC except the CRC
        // packet itself (header consumed in Idle, value in ExpectCrc) —
        // mirroring the span `build_simb_integrity` covers.
        let fold = self.st != Ps::Unsynced
            && self.st != Ps::ExpectCrc
            && !(self.st == Ps::Idle && word == T1_WRITE_CRC);
        if fold {
            self.crc_acc = crc32_fold(self.crc_acc, word);
        }
        match self.st {
            Ps::Unsynced => {
                if word == SYNC_WORD {
                    self.st = Ps::Idle;
                    self.words_seen = 1;
                    self.crc_acc = CRC_INIT;
                    self.crc_verified = false;
                    vec![Sync]
                } else {
                    vec![] // pre-sync padding is legal
                }
            }
            Ps::Idle => match word {
                NOP => vec![],
                T1_WRITE_FAR => {
                    self.st = Ps::ExpectFar;
                    vec![]
                }
                T1_WRITE_CMD => {
                    self.st = Ps::ExpectCmd;
                    vec![]
                }
                T1_WRITE_FDRI => {
                    self.st = Ps::ExpectT2;
                    vec![]
                }
                T1_WRITE_CRC => {
                    self.st = Ps::ExpectCrc;
                    vec![]
                }
                w => vec![Malformed { word: w }],
            },
            Ps::ExpectFar => {
                let (rr, module) = decode_far(word);
                self.st = Ps::Idle;
                vec![Far { rr, module }]
            }
            Ps::ExpectCrc => {
                self.st = Ps::Idle;
                let expected = self.crc_acc ^ 0xFFFF_FFFF;
                if word == expected {
                    self.crc_verified = true;
                    vec![CrcOk]
                } else {
                    vec![CrcMismatch {
                        expected,
                        got: word,
                    }]
                }
            }
            Ps::ExpectCmd => {
                self.st = Ps::Idle;
                match word {
                    CMD_WCFG => vec![Wcfg],
                    CMD_DESYNC => {
                        self.st = Ps::Unsynced;
                        vec![Desync]
                    }
                    CMD_GCAPTURE => vec![Capture],
                    CMD_GRESTORE => vec![Restore],
                    w => vec![Malformed { word: w }],
                }
            }
            Ps::ExpectT2 => {
                if word & 0xF800_0000 == T2_HEADER {
                    let words = word & 0x07FF_FFFF;
                    if words == 0 {
                        self.st = Ps::Idle;
                        vec![Malformed { word }]
                    } else {
                        self.st = Ps::Payload { left: words };
                        vec![PayloadStart { words }]
                    }
                } else {
                    self.st = Ps::Idle;
                    vec![Malformed { word }]
                }
            }
            Ps::Payload { left } => {
                if left == 1 {
                    self.st = Ps::Idle;
                    vec![PayloadEnd]
                } else {
                    self.st = Ps::Payload { left: left - 1 };
                    vec![]
                }
            }
        }
    }
}

/// Render a SimB with per-word explanations — the generator behind the
/// Table I reproduction.
pub fn annotate_simb(words: &[u32]) -> Vec<(u32, String)> {
    let mut parser = SimbParser::new();
    let mut out = Vec::with_capacity(words.len());
    let mut payload_total = 0u32;
    let mut payload_idx = 0u32;
    let mut in_payload = false;
    let mut pending: Option<String> = None;
    for &w in words {
        let events = parser.push(w);
        let label = if let Some(p) = pending.take() {
            p
        } else if in_payload {
            let s = match (payload_idx, payload_total) {
                (0, _) => format!("Random SimB Word {payload_idx} — starts error injection"),
                (i, n) if i + 1 == n => {
                    format!("Random SimB Word {i} — ends error injection, triggers module swapping")
                }
                (i, _) => format!("Random SimB Word {i}"),
            };
            payload_idx += 1;
            s
        } else {
            match w {
                SYNC_WORD => "SYNC Word — start the DURING-reconfiguration phase".to_string(),
                NOP => "NOP".to_string(),
                T1_WRITE_FAR => {
                    pending = Some(String::new()); // replaced below by Far event
                    "Type 1 Write FAR".to_string()
                }
                T1_WRITE_CMD => "Type 1 Write CMD".to_string(),
                T1_WRITE_FDRI => "Type 1 Write FDRI".to_string(),
                T1_WRITE_CRC => "Type 1 Write CRC".to_string(),
                _ => String::new(),
            }
        };
        let mut label = label;
        for e in events {
            match e {
                SimbEvent::Far { rr, module } => {
                    label = format!(
                        "FA={w:#010x} — select module id={module:#04x} in region id={rr:#04x}"
                    );
                    pending = None;
                }
                SimbEvent::Wcfg => label = "WCFG — write configuration data".to_string(),
                SimbEvent::Desync => {
                    label = "DESYNC — end the DURING-reconfiguration phase".to_string()
                }
                SimbEvent::Capture => label = "GCAPTURE — capture module state".to_string(),
                SimbEvent::Restore => label = "GRESTORE — restore module state".to_string(),
                SimbEvent::PayloadStart { words } => {
                    label = format!("Type 2 packet, size={words}");
                    payload_total = words;
                    payload_idx = 0;
                    in_payload = true;
                }
                SimbEvent::PayloadEnd => in_payload = false,
                SimbEvent::Malformed { word } => label = format!("MALFORMED word {word:#010x}"),
                SimbEvent::CrcOk => label = format!("CRC={w:#010x} — integrity check passed"),
                SimbEvent::CrcMismatch { expected, got } => {
                    label = format!(
                        "CRC MISMATCH — stream computes {expected:#010x}, word carries {got:#010x}"
                    )
                }
                SimbEvent::Sync => {}
            }
        }
        out.push((w, label));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_one_structure() {
        // The exact shape of the paper's Table I: 4 payload words,
        // module 0x02 into region 0x01.
        let simb = build_simb(SimbKind::Config { module: 0x02 }, 0x01, 4, 7);
        assert_eq!(simb[0], 0xAA995566);
        assert_eq!(simb[1], 0x20000000);
        assert_eq!(simb[2], 0x30002001);
        assert_eq!(simb[3], 0x01020000);
        assert_eq!(simb[4], 0x30008001);
        assert_eq!(simb[5], 0x00000001);
        assert_eq!(simb[6], 0x30004000);
        assert_eq!(simb[7], 0x50000004);
        assert_eq!(simb.len(), 8 + 4 + 2);
        assert_eq!(simb[12], 0x30008001);
        assert_eq!(simb[13], 0x0000000D);
    }

    #[test]
    fn far_round_trip() {
        for (rr, m) in [(0u8, 0u8), (1, 2), (0xFF, 0xAB)] {
            assert_eq!(decode_far(far_word(rr, m)), (rr, m));
        }
    }

    #[test]
    fn payload_is_seeded_deterministic() {
        let a = build_simb(SimbKind::Config { module: 1 }, 1, 16, 99);
        let b = build_simb(SimbKind::Config { module: 1 }, 1, 16, 99);
        let c = build_simb(SimbKind::Config { module: 1 }, 1, 16, 100);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn parser_event_sequence_for_config() {
        let simb = build_simb(SimbKind::Config { module: 3 }, 2, 3, 1);
        let mut p = SimbParser::new();
        let events: Vec<SimbEvent> = simb.iter().flat_map(|w| p.push(*w)).collect();
        assert_eq!(
            events,
            vec![
                SimbEvent::Sync,
                SimbEvent::Far { rr: 2, module: 3 },
                SimbEvent::Wcfg,
                SimbEvent::PayloadStart { words: 3 },
                SimbEvent::PayloadEnd,
                SimbEvent::Desync,
            ]
        );
        assert!(!p.synced(), "DESYNC leaves the parser unsynchronised");
    }

    #[test]
    fn parser_handles_capture_and_restore() {
        for (kind, ev) in [
            (SimbKind::Capture, SimbEvent::Capture),
            (SimbKind::Restore, SimbEvent::Restore),
        ] {
            let simb = build_simb(kind, 1, 1, 0);
            let mut p = SimbParser::new();
            let events: Vec<SimbEvent> = simb.iter().flat_map(|w| p.push(*w)).collect();
            assert!(events.contains(&ev), "{events:?}");
            assert_eq!(*events.last().unwrap(), SimbEvent::Desync);
        }
    }

    #[test]
    fn pre_sync_noise_is_ignored_and_garbage_flagged() {
        let mut p = SimbParser::new();
        assert!(p.push(0xFFFF_FFFF).is_empty());
        assert!(p.push(0x0).is_empty());
        assert_eq!(p.push(SYNC_WORD), vec![SimbEvent::Sync]);
        // Garbage inside the synced stream is malformed.
        assert_eq!(
            p.push(0xDEAD_BEEF),
            vec![SimbEvent::Malformed { word: 0xDEAD_BEEF }]
        );
    }

    #[test]
    fn truncated_payload_never_reports_end() {
        let simb = build_simb(SimbKind::Config { module: 1 }, 1, 10, 5);
        let mut p = SimbParser::new();
        // Drop the last 3 payload words and everything after (the
        // bug.dpr.5 scenario: wrong size calculation).
        let events: Vec<SimbEvent> = simb[..simb.len() - 5]
            .iter()
            .flat_map(|w| p.push(*w))
            .collect();
        assert!(events.contains(&SimbEvent::PayloadStart { words: 10 }));
        assert!(!events.contains(&SimbEvent::PayloadEnd), "{events:?}");
        assert!(p.synced(), "stream left hanging mid-reconfiguration");
    }

    #[test]
    fn integrity_simb_extends_plain_framing_by_one_packet() {
        let plain = build_simb(SimbKind::Config { module: 0x02 }, 0x01, 4, 7);
        let crc = build_simb_integrity(SimbKind::Config { module: 0x02 }, 0x01, 4, 7);
        // Everything before the DESYNC trailer is byte-identical.
        assert_eq!(&crc[..plain.len() - 2], &plain[..plain.len() - 2]);
        assert_eq!(crc.len(), plain.len() + 2);
        assert_eq!(crc[crc.len() - 4], T1_WRITE_CRC);
        assert_eq!(&crc[crc.len() - 2..], &plain[plain.len() - 2..]);
    }

    #[test]
    fn intact_integrity_simb_verifies() {
        let simb = build_simb_integrity(SimbKind::Config { module: 3 }, 2, 16, 11);
        let mut p = SimbParser::new();
        let events: Vec<SimbEvent> = simb.iter().flat_map(|w| p.push(*w)).collect();
        assert!(events.contains(&SimbEvent::CrcOk), "{events:?}");
        assert!(!events
            .iter()
            .any(|e| matches!(e, SimbEvent::CrcMismatch { .. })));
        assert_eq!(*events.last().unwrap(), SimbEvent::Desync);
        assert!(p.crc_verified());
    }

    #[test]
    fn any_single_bit_flip_is_caught() {
        let simb = build_simb_integrity(SimbKind::Config { module: 1 }, 1, 8, 42);
        // Flip one bit in each coverable word (after SYNC, before the
        // CRC packet): no corrupted stream may ever verify. Flips that
        // leave the framing intact must raise an explicit mismatch.
        for i in 1..simb.len() - 4 {
            for bit in [0u32, 13, 31] {
                let mut bad = simb.clone();
                bad[i] ^= 1 << bit;
                let mut p = SimbParser::new();
                let events: Vec<SimbEvent> = bad.iter().flat_map(|w| p.push(*w)).collect();
                assert!(
                    !events.contains(&SimbEvent::CrcOk),
                    "flip at word {i} bit {bit} verified OK: {events:?}"
                );
                assert!(!p.crc_verified(), "flip at word {i} bit {bit}");
            }
            // Payload-word flips never change framing: explicit mismatch.
            if (8..16).contains(&i) {
                let mut bad = simb.clone();
                bad[i] ^= 1 << (i % 32);
                let mut p = SimbParser::new();
                let events: Vec<SimbEvent> = bad.iter().flat_map(|w| p.push(*w)).collect();
                assert!(
                    events
                        .iter()
                        .any(|e| matches!(e, SimbEvent::CrcMismatch { .. })),
                    "payload flip at word {i} went undetected: {events:?}"
                );
            }
        }
    }

    #[test]
    fn plain_simb_reports_no_crc_events() {
        let simb = build_simb(SimbKind::Config { module: 1 }, 1, 8, 42);
        let mut p = SimbParser::new();
        let events: Vec<SimbEvent> = simb.iter().flat_map(|w| p.push(*w)).collect();
        assert!(!events
            .iter()
            .any(|e| matches!(e, SimbEvent::CrcOk | SimbEvent::CrcMismatch { .. })));
        assert!(!p.crc_verified());
    }

    #[test]
    fn crc32_matches_known_vector() {
        // CRC32("abcd") via one big-endian word = 0xED82CD11.
        assert_eq!(crc32(&[0x6162_6364]), 0xED82_CD11);
        assert_eq!(crc32(&[]), 0);
    }

    #[test]
    fn annotation_labels_crc_packet() {
        let simb = build_simb_integrity(SimbKind::Config { module: 0x02 }, 0x01, 4, 7);
        let rows = annotate_simb(&simb);
        let n = rows.len();
        assert!(
            rows[n - 4].1.contains("Type 1 Write CRC"),
            "{:?}",
            rows[n - 4]
        );
        assert!(
            rows[n - 3].1.contains("integrity check passed"),
            "{:?}",
            rows[n - 3]
        );
    }

    #[test]
    fn annotation_matches_table_one() {
        let simb = build_simb(SimbKind::Config { module: 0x02 }, 0x01, 4, 7);
        let rows = annotate_simb(&simb);
        assert!(rows[0].1.contains("SYNC"));
        assert!(rows[3].1.contains("module id=0x02"));
        assert!(rows[3].1.contains("region id=0x01"));
        assert!(rows[8].1.contains("starts error injection"));
        assert!(rows[11].1.contains("triggers module swapping"));
        assert!(rows.last().unwrap().1.contains("DESYNC"));
    }
}
