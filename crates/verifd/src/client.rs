//! A small blocking client for the `verifd` protocol, shared by
//! `verifctl`, the bench harness and the test suite.

use crate::proto::{self, Done};
use crate::server::Endpoint;
use obs::json::Json;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use verif::wire::{CampaignSubmission, WireReport, WireRow};

/// One connection to a daemon.
pub struct Client {
    reader: BufReader<Box<dyn Read + Send>>,
    writer: Box<dyn Write + Send>,
}

/// What a served submission streamed back: the raw row JSON objects
/// (byte-identical to [`verif::wire::row_to_json`] output) and the
/// terminal summary.
#[derive(Debug, Clone, PartialEq)]
pub struct Served {
    /// Submission id the daemon assigned.
    pub id: u64,
    /// Scenario count the daemon planned.
    pub scenarios: usize,
    /// Raw row objects, in delivery (= submission) order.
    pub rows: Vec<String>,
    /// The terminal summary.
    pub done: Done,
}

impl Served {
    /// Reassemble the full `campaign_report/v1` document from the
    /// streamed rows — byte-identical to the in-process
    /// [`verif::wire::report_to_json`] rendering of the same campaign.
    pub fn report_json(&self) -> String {
        WireReport {
            rows: self
                .rows
                .iter()
                .map(|r| WireRow::from_json(r).expect("streamed rows were parsed on arrival"))
                .collect(),
            scenarios: self.rows.len(),
            workers: self.done.workers as usize,
        }
        .to_json()
    }
}

fn proto_err(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

impl Client {
    /// Connect to an endpoint (`unix:<path>`, `tcp:<addr>`, or a bare
    /// Unix socket path).
    pub fn connect(endpoint: &str) -> io::Result<Client> {
        match Endpoint::parse(endpoint) {
            Endpoint::Unix(path) => {
                let s = UnixStream::connect(path)?;
                let r = s.try_clone()?;
                Ok(Client {
                    reader: BufReader::new(Box::new(r)),
                    writer: Box::new(s),
                })
            }
            Endpoint::Tcp(addr) => {
                let s = TcpStream::connect(addr)?;
                let r = s.try_clone()?;
                Ok(Client {
                    reader: BufReader::new(Box::new(r)),
                    writer: Box::new(s),
                })
            }
        }
    }

    /// Send one frame (a line).
    pub fn send(&mut self, frame: &str) -> io::Result<()> {
        self.writer.write_all(frame.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    /// Receive and parse one frame; `None` on a closed connection.
    pub fn recv(&mut self) -> io::Result<Option<Json>> {
        Ok(self.recv_line()?.map(|(_, v)| v))
    }

    /// Receive one frame as its line (without the newline) and its
    /// parse; `None` on a closed connection.
    fn recv_line(&mut self) -> io::Result<Option<(String, Json)>> {
        let mut line = String::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Ok(None);
            }
            if line.trim().is_empty() {
                continue;
            }
            line.truncate(line.trim_end_matches('\n').len());
            let v = Json::parse(&line).map_err(proto_err)?;
            return Ok(Some((line, v)));
        }
    }

    /// Receive one frame, turning EOF and `error/v1` into errors.
    pub fn expect_frame(&mut self) -> io::Result<Json> {
        self.expect_line().map(|(_, v)| v)
    }

    /// [`Client::expect_frame`], also returning the frame's line.
    fn expect_line(&mut self) -> io::Result<(String, Json)> {
        let (line, v) = self
            .recv_line()?
            .ok_or_else(|| proto_err("connection closed mid-response"))?;
        if proto::schema_of(&v) == Some(proto::ERROR_SCHEMA) {
            let msg = v
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("unknown error");
            return Err(proto_err(format!("daemon error: {msg}")));
        }
        Ok((line, v))
    }

    /// Submit a campaign and invoke `on_row` with each raw row JSON
    /// object as it streams in; returns the collected [`Served`].
    pub fn submit_streaming(
        &mut self,
        sub: &CampaignSubmission,
        mut on_row: impl FnMut(&str),
    ) -> io::Result<Served> {
        self.send(&proto::oneline(&sub.to_json()))?;
        let accepted = self.expect_frame()?;
        if proto::schema_of(&accepted) != Some(proto::ACCEPTED_SCHEMA) {
            return Err(proto_err("expected campaign_accepted/v1"));
        }
        let id = accepted
            .get("id")
            .and_then(Json::as_u64)
            .ok_or_else(|| proto_err("accepted frame without id"))?;
        let scenarios = accepted
            .get("scenarios")
            .and_then(Json::as_u64)
            .ok_or_else(|| proto_err("accepted frame without scenario count"))?
            as usize;
        let (rows, done) = self.drain_rows(id, &mut on_row)?;
        Ok(Served {
            id,
            scenarios,
            rows,
            done,
        })
    }

    /// Submit a campaign and collect everything.
    pub fn submit(&mut self, sub: &CampaignSubmission) -> io::Result<Served> {
        self.submit_streaming(sub, |_| {})
    }

    /// Watch (replay + follow) an existing submission.
    pub fn watch(
        &mut self,
        id: u64,
        mut on_row: impl FnMut(&str),
    ) -> io::Result<(Vec<String>, Done)> {
        self.send(&proto::watch_frame(id))?;
        self.drain_rows(id, &mut on_row)
    }

    fn drain_rows(
        &mut self,
        id: u64,
        on_row: &mut impl FnMut(&str),
    ) -> io::Result<(Vec<String>, Done)> {
        let mut rows = Vec::new();
        loop {
            let v = self.expect_frame()?;
            match proto::schema_of(&v) {
                Some(proto::ROW_SCHEMA) => {
                    if v.get("id").and_then(Json::as_u64) != Some(id) {
                        return Err(proto_err("row frame for a different submission"));
                    }
                    let row = v
                        .get("row")
                        .ok_or_else(|| proto_err("row frame without row object"))?;
                    // Canonical re-render: byte-identical to the wire
                    // bytes, since the daemon rendered with the same
                    // single row printer.
                    let raw = WireRow::from_value(row).map_err(proto_err)?.to_json();
                    on_row(&raw);
                    rows.push(raw);
                }
                Some(proto::DONE_SCHEMA) => {
                    let done = Done::from_value(&v).map_err(proto_err)?;
                    if done.id != id {
                        return Err(proto_err("done frame for a different submission"));
                    }
                    return Ok((rows, done));
                }
                other => {
                    return Err(proto_err(format!(
                        "unexpected frame {:?} while streaming rows",
                        other
                    )))
                }
            }
        }
    }

    /// Cancel a submission.
    pub fn cancel(&mut self, id: u64) -> io::Result<()> {
        self.send(&proto::cancel_frame(id))?;
        let v = self.expect_frame()?;
        if proto::schema_of(&v) != Some(proto::CANCEL_OK_SCHEMA) {
            return Err(proto_err("expected cancel_ok/v1"));
        }
        Ok(())
    }

    /// Scrape the daemon's one-lined `obs_metrics/v1` snapshot, as
    /// the daemon sent it.
    pub fn metrics(&mut self) -> io::Result<String> {
        self.send(&proto::bare_frame(proto::METRICS_SCHEMA))?;
        let (line, v) = self.expect_line()?;
        if proto::schema_of(&v) != Some("obs_metrics/v1") {
            return Err(proto_err("expected obs_metrics/v1 snapshot"));
        }
        Ok(line)
    }

    /// Round-trip liveness check.
    pub fn ping(&mut self) -> io::Result<()> {
        self.send(&proto::bare_frame(proto::PING_SCHEMA))?;
        let v = self.expect_frame()?;
        if proto::schema_of(&v) != Some(proto::PONG_SCHEMA) {
            return Err(proto_err("expected pong/v1"));
        }
        Ok(())
    }

    /// Ask the daemon to shut down.
    pub fn shutdown(&mut self) -> io::Result<()> {
        self.send(&proto::bare_frame(proto::SHUTDOWN_SCHEMA))?;
        let v = self.expect_frame()?;
        if proto::schema_of(&v) != Some(proto::SHUTDOWN_OK_SCHEMA) {
            return Err(proto_err("expected shutdown_ok/v1"));
        }
        Ok(())
    }
}
