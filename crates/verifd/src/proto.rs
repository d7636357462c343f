//! The NDJSON frame vocabulary of the `verifd` IPC protocol.
//!
//! Every frame is one line: a single JSON object whose `schema` member
//! names its type and version. Requests:
//!
//! | schema               | payload                                    |
//! |----------------------|--------------------------------------------|
//! | `campaign_submit/v1` | a [`verif::wire::CampaignSubmission`] doc  |
//! | `campaign_watch/v1`  | `id` — replay/follow a submission's rows   |
//! | `campaign_cancel/v1` | `id` — cancel a running submission         |
//! | `metrics_scrape/v1`  | none — scrape the daemon metrics snapshot  |
//! | `ping/v1`            | none                                       |
//! | `shutdown/v1`        | none — stop the daemon                     |
//!
//! Responses: `campaign_accepted/v1` (`id`, `scenarios`), a stream of
//! `campaign_row/v1` frames (each embedding one row object exactly as
//! [`verif::wire::row_to_json`] renders it), a terminal
//! `campaign_done/v1`, plus `cancel_ok/v1`, `pong/v1`, `shutdown_ok/v1`,
//! a one-lined `obs_metrics/v1` snapshot, and `error/v1` for anything
//! rejected.
//!
//! Multi-line documents (submissions, metrics snapshots) are sent
//! through [`oneline`]: raw newlines are structural whitespace in the
//! repo's JSON dialect — escaped strings never contain them — so
//! stripping them preserves the document byte-for-byte after a
//! parse/re-render.

use obs::json::{escape, number, Json};

/// The longest request frame the daemon reads, in bytes, not counting
/// its newline. Fits about 12 000 fuzz scenarios in one
/// `campaign_submit/v1` document; a longer line gets an `error/v1`
/// naming this limit instead of growing a buffer without bound.
pub const MAX_FRAME_BYTES: usize = 4 << 20;

/// Request schemas.
pub const SUBMIT_SCHEMA: &str = verif::wire::CAMPAIGN_SUBMIT_SCHEMA;
/// See [`SUBMIT_SCHEMA`].
pub const WATCH_SCHEMA: &str = "campaign_watch/v1";
/// See [`SUBMIT_SCHEMA`].
pub const CANCEL_SCHEMA: &str = "campaign_cancel/v1";
/// See [`SUBMIT_SCHEMA`].
pub const METRICS_SCHEMA: &str = "metrics_scrape/v1";
/// See [`SUBMIT_SCHEMA`].
pub const PING_SCHEMA: &str = "ping/v1";
/// See [`SUBMIT_SCHEMA`].
pub const SHUTDOWN_SCHEMA: &str = "shutdown/v1";

/// Response schemas.
pub const ACCEPTED_SCHEMA: &str = "campaign_accepted/v1";
/// See [`ACCEPTED_SCHEMA`].
pub const ROW_SCHEMA: &str = "campaign_row/v1";
/// See [`ACCEPTED_SCHEMA`].
pub const DONE_SCHEMA: &str = "campaign_done/v1";
/// See [`ACCEPTED_SCHEMA`].
pub const CANCEL_OK_SCHEMA: &str = "cancel_ok/v1";
/// See [`ACCEPTED_SCHEMA`].
pub const PONG_SCHEMA: &str = "pong/v1";
/// See [`ACCEPTED_SCHEMA`].
pub const SHUTDOWN_OK_SCHEMA: &str = "shutdown_ok/v1";
/// See [`ACCEPTED_SCHEMA`].
pub const ERROR_SCHEMA: &str = "error/v1";

/// Strip raw newlines from a multi-line JSON document so it fits one
/// NDJSON frame. Safe for this repo's JSON dialect: [`escape`] never
/// emits a raw newline inside a string, so every `\n` in a rendered
/// document is structural whitespace.
pub fn oneline(doc: &str) -> String {
    doc.replace('\n', "")
}

/// The `schema` member of a parsed frame.
pub fn schema_of(v: &Json) -> Option<&str> {
    v.get("schema").and_then(Json::as_str)
}

/// An `error/v1` frame.
pub fn error_frame(msg: &str) -> String {
    format!(
        "{{\"schema\": \"{ERROR_SCHEMA}\", \"error\": \"{}\"}}",
        escape(msg)
    )
}

/// A `campaign_accepted/v1` frame.
pub fn accepted_frame(id: u64, scenarios: usize) -> String {
    format!("{{\"schema\": \"{ACCEPTED_SCHEMA}\", \"id\": {id}, \"scenarios\": {scenarios}}}")
}

/// A `campaign_row/v1` frame around one already-rendered row object.
pub fn row_frame(id: u64, row_json: &str) -> String {
    format!("{{\"schema\": \"{ROW_SCHEMA}\", \"id\": {id}, \"row\": {row_json}}}")
}

/// A `campaign_watch/v1` request.
pub fn watch_frame(id: u64) -> String {
    format!("{{\"schema\": \"{WATCH_SCHEMA}\", \"id\": {id}}}")
}

/// A `campaign_cancel/v1` request.
pub fn cancel_frame(id: u64) -> String {
    format!("{{\"schema\": \"{CANCEL_SCHEMA}\", \"id\": {id}}}")
}

/// A bodyless request frame (`ping/v1`, `metrics_scrape/v1`,
/// `shutdown/v1`).
pub fn bare_frame(schema: &str) -> String {
    format!("{{\"schema\": \"{schema}\"}}")
}

/// The terminal summary of one served submission. Everything here is
/// either a deterministic aggregate of the rows or an explicitly
/// wall-clock-dependent service statistic (`wall_s`, cache deltas).
#[derive(Debug, Clone, PartialEq)]
pub struct Done {
    /// Submission id.
    pub id: u64,
    /// Rows delivered (always the full scenario count, even when
    /// cancelled — cancellation yields typed `cancelled` rows).
    pub rows: u64,
    /// Rows that carry no verification result (failed or cancelled).
    pub failures: u64,
    /// Worker threads the daemon granted the run.
    pub workers: u64,
    /// Artifact-cache hits this submission contributed.
    pub artifact_hits: u64,
    /// Artifact-cache misses this submission contributed.
    pub artifact_misses: u64,
    /// Was the submission cancelled mid-run?
    pub cancelled: bool,
    /// Wall-clock seconds of the campaign run.
    pub wall_s: f64,
}

impl Done {
    /// The `campaign_done/v1` frame.
    pub fn to_frame(&self) -> String {
        format!(
            "{{\"schema\": \"{DONE_SCHEMA}\", \"id\": {}, \"rows\": {}, \"failures\": {}, \
             \"workers\": {}, \"artifact_hits\": {}, \"artifact_misses\": {}, \
             \"cancelled\": {}, \"wall_s\": {}}}",
            self.id,
            self.rows,
            self.failures,
            self.workers,
            self.artifact_hits,
            self.artifact_misses,
            self.cancelled,
            number(self.wall_s),
        )
    }

    /// Parse a `campaign_done/v1` frame.
    pub fn from_value(v: &Json) -> Result<Done, String> {
        if schema_of(v) != Some(DONE_SCHEMA) {
            return Err(format!("not a {DONE_SCHEMA} frame"));
        }
        let u = |key: &str| {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing or non-integer key {key}"))
        };
        Ok(Done {
            id: u("id")?,
            rows: u("rows")?,
            failures: u("failures")?,
            workers: u("workers")?,
            artifact_hits: u("artifact_hits")?,
            artifact_misses: u("artifact_misses")?,
            cancelled: v
                .get("cancelled")
                .and_then(Json::as_bool)
                .ok_or("missing or non-bool key cancelled")?,
            wall_s: v.get("wall_s").and_then(Json::as_f64).unwrap_or(0.0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn done_frame_roundtrips() {
        let d = Done {
            id: 3,
            rows: 12,
            failures: 1,
            workers: 4,
            artifact_hits: 30,
            artifact_misses: 2,
            cancelled: false,
            wall_s: 0.25,
        };
        let v = Json::parse(&d.to_frame()).expect("frame parses");
        assert_eq!(Done::from_value(&v).expect("done parses"), d);
    }

    #[test]
    fn oneline_preserves_document_content() {
        let sub = verif::wire::CampaignSubmission {
            scenarios: vec![verif::Scenario::Clean],
            ..Default::default()
        };
        let flat = oneline(&sub.to_json());
        assert!(!flat.contains('\n'));
        assert_eq!(
            verif::wire::CampaignSubmission::from_json(&flat).expect("flat doc parses"),
            sub
        );
    }

    #[test]
    fn a_submission_just_under_the_frame_cap_parses_and_round_trips() {
        let fuzz = verif::Scenario::Fuzz(verif::FuzzSpec {
            id: 0,
            schedule: verif::FuzzSchedule::baseline(&verif::MatrixConfig::default().base),
        });
        let line = |n| {
            oneline(
                &verif::wire::CampaignSubmission {
                    scenarios: vec![fuzz; n],
                    ..Default::default()
                }
                .to_json(),
            )
        };
        let (one, per) = (line(1).len(), line(2).len() - line(1).len());
        let n = 1 + (MAX_FRAME_BYTES - one) / per;
        let doc = line(n);
        assert!(MAX_FRAME_BYTES - doc.len() < per, "{} bytes", doc.len());
        let sub = verif::wire::CampaignSubmission::from_json(&doc).expect("parses");
        assert_eq!(sub.scenarios.len(), n);
        assert_eq!(oneline(&sub.to_json()), doc);
    }

    #[test]
    fn row_frame_embeds_the_row_object_verbatim() {
        let row = "{\"index\": 0, \"scenario\": \"Clean\", \"kind\": \"cancelled\"}";
        let frame = row_frame(7, row);
        let v = Json::parse(&frame).expect("frame parses");
        assert_eq!(schema_of(&v), Some(ROW_SCHEMA));
        assert_eq!(v.get("id").unwrap().as_u64(), Some(7));
        let embedded = v.get("row").expect("row member");
        let rendered = verif::wire::WireRow::from_value(embedded)
            .expect("row parses")
            .to_json();
        assert_eq!(rendered, row);
    }
}
