//! The daemon: admission control, campaign execution, row streaming,
//! watch/cancel, and the metrics scrape.
//!
//! Architecture: each accepted connection gets its own handler thread.
//! A `campaign_submit/v1` runs its campaign *on the submitting
//! connection's thread* (the campaign's claim-cursor pool supplies the
//! parallelism), streaming `campaign_row/v1` frames as the executor
//! delivers rows in submission order. Admission control is a
//! counting gate: at most `max_campaigns` submissions run concurrently;
//! up to `max_queued` more block in line; beyond that submissions are
//! rejected with `error/v1` so a flooded daemon degrades loudly instead
//! of accumulating unbounded threads.
//!
//! Every row frame is also appended to the submission's registry entry,
//! so `campaign_watch/v1` on another connection can replay and follow a
//! run. `campaign_cancel/v1` flips the entry's cancellation flag; the
//! executor converts every not-yet-started scenario into a typed
//! `cancelled` row, keeping delivery index-complete. The registry keeps
//! every running campaign but only the newest finished ones; an evicted
//! id answers `watch` and `cancel` like one never issued.

use crate::proto;
use autovision::ArtifactCache;
use obs::json::Json;
use obs::MetricsRegistry;
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use verif::wire::CampaignSubmission;

/// Finished campaigns the registry keeps for `watch` replay. Older
/// finished entries are evicted as newer ones finish, so the frame logs
/// a long-lived daemon holds stay bounded.
const MAX_FINISHED_CAMPAIGNS: usize = 64;

/// Daemon policy knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Campaigns allowed to run concurrently.
    pub max_campaigns: usize,
    /// Submissions allowed to wait for admission beyond the running
    /// ones; anything past this is rejected.
    pub max_queued: usize,
    /// Worker threads granted per campaign. `0` honours the
    /// submission's request (which may itself be 0 = executor default;
    /// the decoder caps it at [`verif::wire::MAX_THREADS`]).
    pub threads: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_campaigns: 2,
            max_queued: 8,
            threads: 0,
        }
    }
}

#[derive(Default)]
struct EntryState {
    /// Row frames in delivery order (already rendered, ready to replay).
    frames: Vec<String>,
    /// The terminal frame, once the run finished.
    done: Option<String>,
}

/// One submission's registry entry: the frame log watchers replay and
/// the cancellation flag.
struct CampaignEntry {
    cancel: AtomicBool,
    state: Mutex<EntryState>,
    progress: Condvar,
}

impl CampaignEntry {
    fn push_frame(&self, frame: String) {
        let mut st = self.state.lock().expect("entry lock poisoned");
        st.frames.push(frame);
        self.progress.notify_all();
    }

    fn finish(&self, done: String) {
        let mut st = self.state.lock().expect("entry lock poisoned");
        st.done = Some(done);
        self.progress.notify_all();
    }

    fn is_finished(&self) -> bool {
        self.state
            .lock()
            .expect("entry lock poisoned")
            .done
            .is_some()
    }
}

#[derive(Default)]
struct Admission {
    running: usize,
    queued: usize,
}

/// The daemon state shared by every connection: the hot artifact cache,
/// the metrics registry, the admission gate and the campaign registry.
pub struct Server {
    cfg: ServerConfig,
    artifacts: ArtifactCache,
    metrics: Mutex<MetricsRegistry>,
    admission: Mutex<Admission>,
    admit: Condvar,
    next_id: AtomicU64,
    campaigns: Mutex<BTreeMap<u64, Arc<CampaignEntry>>>,
    stopping: AtomicBool,
    /// Resolved listen endpoints, filled in by [`RunningServer::start`]
    /// so [`Server::stop`] can poke each blocking `accept` awake no
    /// matter which thread requests shutdown (`shutdown/v1` arrives on
    /// a connection handler, not the thread that owns the listeners).
    endpoints: Mutex<Vec<Endpoint>>,
}

/// Releases one admission slot on drop, so a panicking campaign cannot
/// wedge the gate.
struct AdmissionGuard<'a> {
    server: &'a Server,
}

impl Drop for AdmissionGuard<'_> {
    fn drop(&mut self) {
        let mut a = self
            .server
            .admission
            .lock()
            .expect("admission lock poisoned");
        a.running -= 1;
        drop(a);
        self.server.admit.notify_all();
    }
}

impl Server {
    /// A server with the given policy and a fresh artifact cache.
    pub fn new(cfg: ServerConfig) -> Server {
        Server {
            cfg,
            artifacts: ArtifactCache::new(),
            metrics: Mutex::new(MetricsRegistry::new()),
            admission: Mutex::new(Admission::default()),
            admit: Condvar::new(),
            next_id: AtomicU64::new(0),
            campaigns: Mutex::new(BTreeMap::new()),
            stopping: AtomicBool::new(false),
            endpoints: Mutex::new(Vec::new()),
        }
    }

    /// The shared artifact cache every submission runs against. Exposed
    /// so harnesses can measure what a warm daemon buys: building a
    /// system against this cache after a few campaigns skips every
    /// derivation a cold in-process run pays for.
    pub fn artifacts(&self) -> &ArtifactCache {
        &self.artifacts
    }

    /// Has shutdown been requested?
    pub fn stopping(&self) -> bool {
        self.stopping.load(Ordering::Acquire)
    }

    /// Request shutdown (listeners stop accepting; in-flight connections
    /// finish their current request). Pokes every listener with a
    /// throwaway connection so blocking `accept` calls observe the flag.
    pub fn stop(&self) {
        self.stopping.store(true, Ordering::Release);
        self.admit.notify_all();
        let endpoints = self.endpoints.lock().expect("endpoint list poisoned");
        for ep in endpoints.iter() {
            match ep {
                Endpoint::Unix(path) => {
                    let _ = UnixStream::connect(path);
                }
                Endpoint::Tcp(addr) => {
                    let _ = TcpStream::connect(addr);
                }
            }
        }
    }

    /// Block until an admission slot is free, or reject when the wait
    /// line itself is full.
    fn admit_one(&self) -> Result<AdmissionGuard<'_>, String> {
        let mut a = self.admission.lock().expect("admission lock poisoned");
        if a.running < self.cfg.max_campaigns {
            a.running += 1;
            return Ok(AdmissionGuard { server: self });
        }
        if a.queued >= self.cfg.max_queued {
            return Err(format!(
                "busy: {} campaigns running, {} queued (limit {})",
                a.running, a.queued, self.cfg.max_queued
            ));
        }
        a.queued += 1;
        while a.running >= self.cfg.max_campaigns && !self.stopping() {
            a = self.admit.wait(a).expect("admission lock poisoned");
        }
        a.queued -= 1;
        if self.stopping() {
            return Err("shutting down".to_string());
        }
        a.running += 1;
        Ok(AdmissionGuard { server: self })
    }

    /// The one-lined `obs_metrics/v1` snapshot: service counters, the
    /// last campaign's executor and compiled-plane stats (the
    /// `campaign.run_ns` histogram adds up across campaigns), and cache
    /// totals.
    pub fn metrics_snapshot(&self) -> String {
        let mut reg = self.metrics.lock().expect("metrics lock poisoned");
        {
            let a = self.admission.lock().expect("admission lock poisoned");
            reg.counter("service.campaigns_running", a.running as u64);
            reg.counter("service.campaigns_queued", a.queued as u64);
        }
        let (hits, misses) = self.artifacts.stats();
        reg.counter("service.artifact_cache.hits", hits);
        reg.counter("service.artifact_cache.misses", misses);
        proto::oneline(&reg.snapshot_json())
    }

    /// Serve one connection: read request frames line by line until EOF
    /// or shutdown. A line longer than [`proto::MAX_FRAME_BYTES`] or not
    /// valid UTF-8 gets an `error/v1` reply and the connection carries
    /// on. Write errors are treated as a vanished client.
    pub fn serve_connection<R: BufRead, W: Write + Send>(
        &self,
        mut reader: R,
        mut writer: W,
    ) -> io::Result<()> {
        let mut buf = Vec::new();
        while let Some(frame) = read_frame(&mut reader, &mut buf)? {
            let line = match frame {
                Ok(line) => line,
                Err(msg) => {
                    reply(&mut writer, &proto::error_frame(&msg))?;
                    continue;
                }
            };
            if line.trim().is_empty() {
                continue;
            }
            if !self.dispatch(line, &mut writer)? {
                break;
            }
        }
        Ok(())
    }

    /// Handle one request frame. Returns `false` when the connection
    /// should close (shutdown).
    fn dispatch<W: Write + Send>(&self, line: &str, writer: &mut W) -> io::Result<bool> {
        let parsed = Json::parse(line);
        let v = match parsed {
            Ok(v) => v,
            Err(e) => {
                reply(writer, &proto::error_frame(&format!("bad frame: {e}")))?;
                return Ok(true);
            }
        };
        match proto::schema_of(&v) {
            Some(proto::SUBMIT_SCHEMA) => {
                self.handle_submit(line, writer)?;
                Ok(true)
            }
            Some(proto::WATCH_SCHEMA) => {
                match v.get("id").and_then(Json::as_u64) {
                    Some(id) => self.handle_watch(id, writer)?,
                    None => reply(writer, &proto::error_frame("watch needs an integer id"))?,
                }
                Ok(true)
            }
            Some(proto::CANCEL_SCHEMA) => {
                let frame = match v.get("id").and_then(Json::as_u64) {
                    Some(id) => {
                        let entry = self
                            .campaigns
                            .lock()
                            .expect("registry lock poisoned")
                            .get(&id)
                            .cloned();
                        match entry {
                            Some(e) => {
                                e.cancel.store(true, Ordering::Release);
                                format!(
                                    "{{\"schema\": \"{}\", \"id\": {id}}}",
                                    proto::CANCEL_OK_SCHEMA
                                )
                            }
                            None => proto::error_frame(&format!("unknown campaign id {id}")),
                        }
                    }
                    None => proto::error_frame("cancel needs an integer id"),
                };
                reply(writer, &frame)?;
                Ok(true)
            }
            Some(proto::METRICS_SCHEMA) => {
                reply(writer, &self.metrics_snapshot())?;
                Ok(true)
            }
            Some(proto::PING_SCHEMA) => {
                reply(writer, &proto::bare_frame(proto::PONG_SCHEMA))?;
                Ok(true)
            }
            Some(proto::SHUTDOWN_SCHEMA) => {
                self.stop();
                reply(writer, &proto::bare_frame(proto::SHUTDOWN_OK_SCHEMA))?;
                Ok(false)
            }
            Some(other) => {
                // A recognised family at the wrong version gets a
                // pointed rejection naming the supported schema, so
                // clients from the future know what to downgrade to.
                let supported = [
                    proto::SUBMIT_SCHEMA,
                    proto::WATCH_SCHEMA,
                    proto::CANCEL_SCHEMA,
                    proto::METRICS_SCHEMA,
                    proto::PING_SCHEMA,
                    proto::SHUTDOWN_SCHEMA,
                ]
                .into_iter()
                .find(|s| {
                    s.rsplit_once('/').map(|(family, _)| family)
                        == other.rsplit_once('/').map(|(family, _)| family)
                });
                let msg = match supported {
                    Some(s) => {
                        format!("unsupported schema version \"{other}\": this daemon speaks {s}")
                    }
                    None => format!("unknown request schema \"{other}\""),
                };
                reply(writer, &proto::error_frame(&msg))?;
                Ok(true)
            }
            None => {
                reply(writer, &proto::error_frame("frame has no schema member"))?;
                Ok(true)
            }
        }
    }

    fn handle_submit<W: Write + Send>(&self, line: &str, writer: &mut W) -> io::Result<()> {
        let sub = match CampaignSubmission::from_json(line) {
            Ok(s) => s,
            Err(e) => return reply(writer, &proto::error_frame(&e)),
        };
        let threads = if self.cfg.threads > 0 {
            self.cfg.threads
        } else {
            sub.threads
        };
        let campaign = sub.plan(threads);
        let guard = match self.admit_one() {
            Ok(g) => g,
            Err(e) => return reply(writer, &proto::error_frame(&e)),
        };
        let id = self.next_id.fetch_add(1, Ordering::AcqRel) + 1;
        let entry = Arc::new(CampaignEntry {
            cancel: AtomicBool::new(false),
            state: Mutex::new(EntryState::default()),
            progress: Condvar::new(),
        });
        self.campaigns
            .lock()
            .expect("registry lock poisoned")
            .insert(id, entry.clone());
        let accepted = proto::accepted_frame(id, campaign.scenarios().len());
        reply(writer, &accepted)?;

        // Stream rows as the executor delivers them. A write failure
        // means the submitter vanished: cancel the run (watchers still
        // get the cancelled tail via the registry) but keep draining so
        // the entry log stays index-complete.
        let client_gone = AtomicBool::new(false);
        let report = {
            let writer = Mutex::new(&mut *writer);
            campaign.run_streaming_with(&self.artifacts, Some(&entry.cancel), |row| {
                let frame = proto::row_frame(id, &verif::wire::row_to_json(row));
                if !client_gone.load(Ordering::Relaxed) {
                    let mut w = writer.lock().expect("writer lock poisoned");
                    let ok = w
                        .write_all(frame.as_bytes())
                        .and_then(|()| w.write_all(b"\n"))
                        .and_then(|()| w.flush())
                        .is_ok();
                    if !ok {
                        client_gone.store(true, Ordering::Relaxed);
                        entry.cancel.store(true, Ordering::Release);
                    }
                }
                entry.push_frame(frame);
            })
        };
        drop(guard);

        let done = proto::Done {
            id,
            rows: report.rows.len() as u64,
            failures: report.failures().len() as u64,
            workers: report.stats.workers.len() as u64,
            artifact_hits: report.stats.artifact_hits,
            artifact_misses: report.stats.artifact_misses,
            cancelled: entry.cancel.load(Ordering::Acquire),
            wall_s: report.stats.wall_s,
        };
        let done_frame = done.to_frame();
        entry.finish(done_frame.clone());
        self.evict_finished();
        {
            let mut reg = self.metrics.lock().expect("metrics lock poisoned");
            reg.add("service.submissions", 1);
            reg.add("service.rows", done.rows);
            reg.add("service.failures", done.failures);
            if done.cancelled {
                reg.add("service.cancelled", 1);
            }
            report.stats.record(&mut reg);
        }
        if client_gone.load(Ordering::Relaxed) {
            return Ok(());
        }
        reply(writer, &done_frame)
    }

    /// Drop the oldest finished campaigns beyond
    /// [`MAX_FINISHED_CAMPAIGNS`]. Ids grow with submission order, so
    /// the map's order is age order; running campaigns are never
    /// evicted.
    fn evict_finished(&self) {
        let mut campaigns = self.campaigns.lock().expect("registry lock poisoned");
        let finished = campaigns.values().filter(|e| e.is_finished()).count();
        let mut excess = finished.saturating_sub(MAX_FINISHED_CAMPAIGNS);
        campaigns.retain(|_, e| {
            if excess > 0 && e.is_finished() {
                excess -= 1;
                return false;
            }
            true
        });
    }

    fn handle_watch<W: Write>(&self, id: u64, writer: &mut W) -> io::Result<()> {
        let entry = self
            .campaigns
            .lock()
            .expect("registry lock poisoned")
            .get(&id)
            .cloned();
        let Some(entry) = entry else {
            return reply(
                writer,
                &proto::error_frame(&format!("unknown campaign id {id}")),
            );
        };
        let mut next = 0usize;
        loop {
            let (frames, done): (Vec<String>, Option<String>) = {
                let mut st = entry.state.lock().expect("entry lock poisoned");
                while st.frames.len() == next && st.done.is_none() {
                    st = entry.progress.wait(st).expect("entry lock poisoned");
                }
                (st.frames[next..].to_vec(), st.done.clone())
            };
            for f in &frames {
                writer.write_all(f.as_bytes())?;
                writer.write_all(b"\n")?;
            }
            writer.flush()?;
            next += frames.len();
            if let Some(d) = done {
                // Only emit the terminal frame once every row frame has
                // been replayed.
                let caught_up = {
                    let st = entry.state.lock().expect("entry lock poisoned");
                    st.frames.len() == next
                };
                if caught_up {
                    return reply(writer, &d);
                }
            }
        }
    }
}

/// Read the next frame into `buf`, reusing its allocation, and return
/// it without its line terminator; `None` at EOF. A frame longer than
/// [`proto::MAX_FRAME_BYTES`] is skipped to its newline without being
/// buffered and comes back as an error naming the limit; so does one
/// that is not UTF-8.
fn read_frame<'b, R: BufRead>(
    reader: &mut R,
    buf: &'b mut Vec<u8>,
) -> io::Result<Option<Result<&'b str, String>>> {
    buf.clear();
    let cap = proto::MAX_FRAME_BYTES as u64 + 1;
    if reader.by_ref().take(cap).read_until(b'\n', buf)? == 0 {
        return Ok(None);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    } else if buf.len() > proto::MAX_FRAME_BYTES {
        reader.skip_until(b'\n')?;
        return Ok(Some(Err(format!(
            "frame exceeds the {}-byte limit",
            proto::MAX_FRAME_BYTES
        ))));
    }
    Ok(Some(
        std::str::from_utf8(buf).map_err(|e| format!("frame is not valid UTF-8: {e}")),
    ))
}

/// Write one frame and its newline, then flush.
fn reply<W: Write>(writer: &mut W, frame: &str) -> io::Result<()> {
    writer.write_all(frame.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

/// Where the daemon listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A Unix domain socket at this path.
    Unix(PathBuf),
    /// A TCP address (`host:port`; port 0 binds an ephemeral port and
    /// the resolved address is reported back).
    Tcp(String),
}

impl Endpoint {
    /// Parse `unix:<path>` / `tcp:<addr>` (a bare string is a Unix
    /// path).
    pub fn parse(s: &str) -> Endpoint {
        if let Some(addr) = s.strip_prefix("tcp:") {
            Endpoint::Tcp(addr.to_string())
        } else if let Some(path) = s.strip_prefix("unix:") {
            Endpoint::Unix(PathBuf::from(path))
        } else {
            Endpoint::Unix(PathBuf::from(s))
        }
    }
}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

/// An accepted connection, split into its read and write halves.
type Halves = (Box<dyn Read + Send>, Box<dyn Write + Send>);

impl Listener {
    /// Block for the next connection.
    fn accept(&self) -> io::Result<Halves> {
        Ok(match self {
            Listener::Unix(l) => {
                let (s, _) = l.accept()?;
                (Box::new(s.try_clone()?), Box::new(s))
            }
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                (Box::new(s.try_clone()?), Box::new(s))
            }
        })
    }
}

/// A started daemon: the shared [`Server`], its resolved endpoints and
/// the accept threads.
pub struct RunningServer {
    server: Arc<Server>,
    endpoints: Vec<Endpoint>,
    accept_threads: Vec<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl RunningServer {
    /// Bind every endpoint and start accepting. TCP endpoints are
    /// reported back with their resolved port; a pre-existing socket
    /// file at a Unix path is replaced.
    pub fn start(cfg: ServerConfig, endpoints: &[Endpoint]) -> io::Result<RunningServer> {
        let server = Arc::new(Server::new(cfg));
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let mut resolved = Vec::new();
        let mut listeners = Vec::new();
        for ep in endpoints {
            listeners.push(match ep {
                Endpoint::Unix(path) => {
                    let _ = std::fs::remove_file(path);
                    resolved.push(Endpoint::Unix(path.clone()));
                    Listener::Unix(UnixListener::bind(path)?)
                }
                Endpoint::Tcp(addr) => {
                    let l = TcpListener::bind(addr)?;
                    resolved.push(Endpoint::Tcp(l.local_addr()?.to_string()));
                    Listener::Tcp(l)
                }
            });
        }
        // Record the endpoints before any connection can be served, so
        // a `shutdown/v1` arriving instantly still pokes every accept.
        *server.endpoints.lock().expect("endpoint list poisoned") = resolved.clone();
        let mut accept_threads = Vec::new();
        for listener in listeners {
            let srv = server.clone();
            let conn_reg = conns.clone();
            accept_threads.push(std::thread::spawn(move || {
                accept_loop(srv, listener, conn_reg)
            }));
        }
        Ok(RunningServer {
            server,
            endpoints: resolved,
            accept_threads,
            conns,
        })
    }

    /// The shared server state (tests poke metrics through this).
    pub fn server(&self) -> &Server {
        &self.server
    }

    /// The resolved endpoints (TCP with its actual port).
    pub fn endpoints(&self) -> &[Endpoint] {
        &self.endpoints
    }

    /// The first Unix endpoint's path, if any.
    pub fn unix_path(&self) -> Option<&PathBuf> {
        self.endpoints.iter().find_map(|e| match e {
            Endpoint::Unix(p) => Some(p),
            _ => None,
        })
    }

    /// The first TCP endpoint's resolved address, if any.
    pub fn tcp_addr(&self) -> Option<&str> {
        self.endpoints.iter().find_map(|e| match e {
            Endpoint::Tcp(a) => Some(a.as_str()),
            _ => None,
        })
    }

    /// Stop accepting, wake the accept loops, and join every thread.
    /// Connection handlers exit when their client disconnects, so the
    /// caller must drop (or have dropped) every open client connection
    /// before calling this, or the join blocks.
    pub fn shutdown(self) {
        self.server.stop();
        self.wait();
    }

    /// Block until every accept thread exits (a client sent
    /// `shutdown/v1`). The daemon binary's main loop.
    pub fn wait(self) {
        for t in self.accept_threads {
            let _ = t.join();
        }
        let conns = std::mem::take(&mut *self.conns.lock().expect("conn registry poisoned"));
        for t in conns {
            let _ = t.join();
        }
        for ep in &self.endpoints {
            if let Endpoint::Unix(path) = ep {
                let _ = std::fs::remove_file(path);
            }
        }
    }
}

fn accept_loop(server: Arc<Server>, listener: Listener, conns: Arc<Mutex<Vec<JoinHandle<()>>>>) {
    while !server.stopping() {
        let Ok((read_half, write_half)) = listener.accept() else {
            continue;
        };
        let srv = server.clone();
        let handle = std::thread::spawn(move || {
            let _ = srv.serve_connection(BufReader::new(read_half), write_half);
        });
        // Join the handlers that have already finished before
        // registering this one, so a long-running daemon does not keep
        // a stack mapped for every connection it ever served.
        let mut conns = conns.lock().expect("conn registry poisoned");
        for done in conns.extract_if(.., |h| h.is_finished()) {
            let _ = done.join();
        }
        conns.push(handle);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use std::net::Shutdown;

    #[test]
    fn frames_up_to_the_cap_are_read_and_longer_ones_skipped() {
        let cap = proto::MAX_FRAME_BYTES;
        let input = format!("{}\n{}\nnext", "a".repeat(cap), "b".repeat(cap + 1));
        let mut reader = io::Cursor::new(input.into_bytes());
        let mut buf = Vec::new();
        let mut next = || {
            read_frame(&mut reader, &mut buf)
                .expect("in-memory read")
                .map(|f| f.map(str::len))
        };
        assert_eq!(next(), Some(Ok(cap)));
        let err = next().expect("a frame").expect_err("over the cap");
        assert!(err.contains(&cap.to_string()), "{err}");
        assert_eq!(
            next(),
            Some(Ok(4)),
            "the frame after a skipped one is intact"
        );
        assert_eq!(next(), None);
    }

    #[test]
    fn finished_connection_handlers_are_joined() {
        let path = std::env::temp_dir().join(format!("verifd-unit-{}.sock", std::process::id()));
        let running =
            RunningServer::start(ServerConfig::default(), &[Endpoint::Unix(path.clone())])
                .expect("bind unix socket");
        for _ in 0..64 {
            let mut conn = UnixStream::connect(&path).expect("connect");
            conn.write_all(format!("{}\n", proto::bare_frame(proto::PING_SCHEMA)).as_bytes())
                .expect("send ping");
            conn.shutdown(Shutdown::Write).expect("half-close");
            // EOF arrives once the handler has dropped its halves.
            let mut replies = String::new();
            conn.read_to_string(&mut replies).expect("read to EOF");
            assert!(replies.contains(proto::PONG_SCHEMA), "{replies}");
        }
        // Each handler is joined when a later connection is accepted, so
        // only the last few may still be registered.
        let live = running.conns.lock().expect("conn registry poisoned").len();
        assert!(live <= 4, "{live} handles kept after 64 connections");
        running.shutdown();
    }

    #[test]
    fn finished_campaigns_past_the_cap_are_evicted() {
        let path = std::env::temp_dir().join(format!("verifd-evict-{}.sock", std::process::id()));
        let running = RunningServer::start(
            ServerConfig {
                threads: 1,
                ..Default::default()
            },
            &[Endpoint::Unix(path.clone())],
        )
        .expect("bind unix socket");
        let endpoint = format!("unix:{}", path.display());
        let mut client = Client::connect(&endpoint).expect("connect");
        // Empty campaigns finish at once; the registry holds them all
        // the same.
        let sub = CampaignSubmission::default();
        let served: Vec<_> = (0..=MAX_FINISHED_CAMPAIGNS)
            .map(|_| client.submit(&sub).expect("submit"))
            .collect();
        let first = served[0].id;
        let err = client.watch(first, |_| {}).expect_err("evicted id");
        assert!(
            err.to_string()
                .contains(&format!("unknown campaign id {first}")),
            "{err}"
        );
        let err = client.cancel(first).expect_err("evicted id");
        assert!(err.to_string().contains("unknown campaign id"), "{err}");
        let last = served.last().expect("submitted");
        let (rows, done) = client.watch(last.id, |_| {}).expect("replay");
        assert_eq!((rows, done), (last.rows.clone(), last.done.clone()));
        assert_eq!(
            running
                .server()
                .campaigns
                .lock()
                .expect("registry lock poisoned")
                .len(),
            MAX_FINISHED_CAMPAIGNS
        );
        drop(client);
        Client::connect(&endpoint)
            .expect("fresh connection")
            .ping()
            .expect("ping");
        running.shutdown();
    }
}
