//! The `pxml serve` daemon: a persistent process answering the wire
//! protocol of [`crate::protocol`] from a registry of loaded instances.
//!
//! ## Architecture
//!
//! ```text
//!                 ┌────────────────────────────────────────────┐
//!   accept loop → │ Registry: RwLock<BTreeMap<name, Arc<Slot>>>│
//!   (1 thread)    │   Slot { path, writer: Mutex<()>,          │
//!   conn threads →│          engine: RwLock<QueryEngine>, wal }│
//!                 │     engine owns the warm MarginalCache     │
//!                 └────────────────────────────────────────────┘
//! ```
//!
//! **Lock order: `slot.writer` → `slot.engine` → `wal`.** The per-slot
//! `writer` mutex serialises every write verb on the slot; the engine
//! `RwLock` guards only in-memory state, so its write side is held for
//! the in-memory apply alone and never across I/O.
//!
//! | verb               | `writer` | `engine`                            | `wal`                  |
//! |--------------------|----------|-------------------------------------|------------------------|
//! | QUERY, STATS       | —        | read                                | —                      |
//! | MUTATE             | held     | read (parse, render); write (apply) | append, no engine lock |
//! | CHECKPOINT         | held     | read across save + rotate           | rotate                 |
//! | RELOAD             | held     | — (readers keep the old engine)     | tail + rebind          |
//! | post-panic rebuild | held     | write across the rebuild            | repair or rotate       |
//!
//! * **Queries** clone the slot's `Arc` out of the registry (a brief
//!   registry read lock), then take the slot's engine **read** lock —
//!   so any number of connections answer concurrently from the shared
//!   [`pxml_query::MarginalCache`], exactly like threads inside
//!   `run_batch`.
//! * **Mutations** take the slot's `writer` lock, then journal and
//!   apply one op at a time: render under the engine read lock, WAL
//!   append (with its fsync) under no engine lock, then the engine
//!   **write** lock just for
//!   [`pxml_query::QueryEngine::apply_mutation_governed`] with
//!   dirty-set invalidation — no flush-on-write, so unrelated cached
//!   answers stay warm across writes. A reader may see the applied
//!   prefix of a multi-op frame while the frame is still running; each
//!   op is atomic, and a frame never was (it stops at its first failing
//!   op and keeps the prefix). Mutations live in registry memory;
//!   `RELOAD` (or a restart) reverts to the on-disk instance.
//! * **Hot reload** builds a fresh engine for one instance under the
//!   slot's `writer` lock alone and swaps the slot's `Arc` in the
//!   registry map atomically. Readers keep answering from the old
//!   engine until the swap; in-flight requests holding the old `Arc`
//!   finish against the old instance; every *other* instance keeps its
//!   warm cache untouched.
//! * **Admission control**: the daemon's `--max-steps/--timeout/
//!   --degrade` defaults apply to every request; requests may tighten
//!   or override them with `k=v` options. Exhaustion maps to wire
//!   status `3` (budget-rejected), mirroring CLI exit 3.
//! * **Durability** (`--wal DIR`): every `MUTATE` op is journalled to
//!   an append-only CRC-framed log ([`pxml_storage::wal`]) *before* it
//!   applies — a failed append refuses the mutation (and physically
//!   rolls its partial bytes back). Boot replays the journal on top of
//!   the loaded snapshot; `CHECKPOINT` snapshots atomically and rotates
//!   the segment, holding `writer` across both so no MUTATE can journal
//!   a record between the captured state and the rotation; `RELOAD`
//!   replays the live tail **and rebinds the journal** to the snapshot
//!   now being served (fresh segment, tail re-journalled) under
//!   `writer`, so acknowledged writes survive both the reload and the
//!   next reboot.
//! * **Fail-safe serving**: dispatch runs under `catch_unwind`, so a
//!   panicking request answers status 1 on its own connection while
//!   the daemon keeps serving (parking_lot locks release, unpoisoned,
//!   during unwind); a panic inside a *write* verb additionally
//!   rebuilds that slot from snapshot + journal so a half-applied
//!   mutation can never keep serving; `--max-conns` sheds excess
//!   connections with an immediate "overloaded" frame; a per-frame
//!   delivery deadline drops slow-loris clients.
//! * **Shutdown** (SIGTERM, SIGINT, or the `SHUTDOWN` verb) stops the
//!   accept loop, lets in-flight requests finish, closes idle
//!   connections, and exits 0.
//!
//! The module doubles as a library so benches and tests can run the
//! daemon in-process: [`Server::start`] → [`ServerHandle`].

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};
use pxml_query::{push_json_escaped, Answer, BudgetSpec, DegradePolicy, QueryEngine};
use pxml_storage::{AttachOutcome, FsyncPolicy, Wal, WalCounters};

use crate::protocol::{
    encode_response, frame_len, read_frame, read_payload, verb_name, write_frame, Request,
    RequestOptions, Status,
};
use crate::translate_query;

/// Where the daemon listens.
#[derive(Clone, Debug)]
pub enum Bind {
    /// TCP on 127.0.0.1; port 0 asks the kernel for an ephemeral port
    /// (see [`ServerHandle::port`]).
    Tcp(u16),
    /// A unix-domain socket at this path (created on start, removed on
    /// clean shutdown).
    Unix(PathBuf),
}

/// Daemon configuration: instances to load plus engine and governance
/// defaults shared by every request.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Instance files; each registers under its file stem.
    pub instances: Vec<PathBuf>,
    /// Listener address.
    pub bind: Bind,
    /// Byte ceiling for each instance's marginal cache.
    pub max_cache_bytes: Option<u64>,
    /// Default per-request work-step ceiling.
    pub max_steps: Option<u64>,
    /// Default per-request wall-clock deadline.
    pub timeout: Option<Duration>,
    /// Default exhaustion policy (requests may override).
    pub degrade: Option<DegradePolicy>,
    /// Enable the static pre-flight inside each engine.
    pub preflight: bool,
    /// Append one JSON trace record per request to this file.
    pub trace_json: Option<PathBuf>,
    /// Directory for per-instance write-ahead logs. `None` disables
    /// durability: mutations live only in registry memory (PR 7
    /// behaviour).
    pub wal_dir: Option<PathBuf>,
    /// When WAL appends reach stable storage (`--fsync`).
    pub fsync: FsyncPolicy,
    /// Connection cap: accepts beyond this many concurrent connections
    /// are shed with an immediate "overloaded" status frame instead of
    /// queueing unboundedly. `None` = unlimited.
    pub max_conns: Option<usize>,
    /// Slow-loris defense: the longest a client may take to deliver one
    /// whole frame once its first byte has arrived.
    pub frame_deadline: Duration,
    /// Test-only hook: a `QUERY` whose QL line (or a `MUTATE` whose ops
    /// body) equals this string panics inside dispatch, exercising the
    /// per-connection panic isolation — and, for the mutate path, the
    /// journalled-but-unapplied slot rebuild — deterministically. The
    /// mutate panic fires *after* the first op's WAL append and before
    /// its apply. Never settable from the CLI.
    pub debug_panic_query: Option<String>,
}

impl ServeConfig {
    /// A config serving `instances` on an ephemeral localhost TCP port
    /// with no governance defaults — what tests and benches want.
    pub fn ephemeral(instances: Vec<PathBuf>) -> Self {
        ServeConfig {
            instances,
            bind: Bind::Tcp(0),
            max_cache_bytes: None,
            max_steps: None,
            timeout: None,
            degrade: None,
            preflight: false,
            trace_json: None,
            wal_dir: None,
            fsync: FsyncPolicy::Always,
            max_conns: None,
            frame_deadline: Duration::from_secs(10),
            debug_panic_query: None,
        }
    }
}

/// One instance's journal plus its always-readable counters (the
/// counters are read by the metrics exporter without taking the `Wal`
/// mutex, which a long mutation may hold).
struct WalHandle {
    wal: Arc<Mutex<Wal>>,
    counters: Arc<WalCounters>,
}

/// One loaded instance: its origin path (for `RELOAD`/`CHECKPOINT`),
/// the engine owning the warm cache, and the instance's WAL when the
/// daemon runs with `--wal`. Write verbs serialise on `writer`; queries
/// share the engine behind its read lock, and the engine's write lock
/// is held only for an in-memory apply or a post-panic rebuild. The
/// `WalHandle` is shared (`Arc`) across `RELOAD` slot swaps so the
/// journal survives hot reloads.
struct Slot {
    path: PathBuf,
    writer: Mutex<()>,
    engine: RwLock<QueryEngine>,
    wal: Option<Arc<WalHandle>>,
}

impl Slot {
    fn new(path: PathBuf, engine: RwLock<QueryEngine>, wal: Option<Arc<WalHandle>>) -> Slot {
        Slot { path, writer: Mutex::new(()), engine, wal }
    }
}

/// Every verb a request counter can carry, sorted so the exposition
/// lists them in the order a `(verb, status)`-keyed map would: the wire
/// verbs of [`verb_name`] plus `ACCEPT` (shed connections) and `FRAME`
/// (undecodable frames).
const COUNTED_VERBS: [&str; 10] = [
    "ACCEPT",
    "CHECKPOINT",
    "FRAME",
    "METRICS",
    "MUTATE",
    "PING",
    "QUERY",
    "RELOAD",
    "SHUTDOWN",
    "STATS",
];

/// Status digits `0..=3`, indexed by [`Status::exit_code`].
const STATUSES: [Status; 4] =
    [Status::Ok, Status::RunError, Status::BadRequest, Status::BudgetRejected];

/// Request counters indexed `(verb, status)` plus connection gauges.
#[derive(Default)]
struct ServeMetrics {
    connections: AtomicU64,
    http_requests: AtomicU64,
    /// Connections shed by the `--max-conns` accept cap.
    shed: AtomicU64,
    /// Requests that panicked inside dispatch (isolated; daemon lives).
    panics: AtomicU64,
    /// Connections dropped by the per-frame slow-loris deadline.
    timeouts: AtomicU64,
    /// `requests[v][s]` counts answers to `COUNTED_VERBS[v]` with
    /// status digit `s` — one atomic per pair, no lock per request.
    requests: [[AtomicU64; 4]; COUNTED_VERBS.len()],
}

struct ServerInner {
    slots: RwLock<BTreeMap<String, Arc<Slot>>>,
    cfg: ServeConfig,
    shutdown: AtomicBool,
    active: AtomicUsize,
    metrics: ServeMetrics,
    trace: Option<Mutex<std::fs::File>>,
    started: Instant,
}

/// A running daemon. Obtained from [`Server::start`]; drop-in for both
/// the CLI (which blocks on [`ServerHandle::shutdown_and_join`]) and in-process
/// benches/tests (which keep driving requests at it).
pub struct ServerHandle {
    inner: Arc<ServerInner>,
    accept: Option<std::thread::JoinHandle<()>>,
    port: Option<u16>,
    socket_path: Option<PathBuf>,
}

/// Namespace for [`Server::start`].
pub struct Server;

impl Server {
    /// Loads every instance, binds the listener, and spawns the accept
    /// loop. Returns once the daemon is ready to answer requests.
    pub fn start(cfg: ServeConfig) -> Result<ServerHandle, String> {
        if cfg.instances.is_empty() {
            return Err("serve needs at least one instance file".into());
        }
        let mut slots = BTreeMap::new();
        for path in &cfg.instances {
            let name = instance_name(path)?;
            // One read serves both the engine and the WAL binding: the
            // CRC is computed from the same buffer the instance was
            // parsed from, so the journal can never bind to different
            // bytes than the ones actually loaded.
            let (pi, crc) = crate::load_with_crc(path)?;
            let engine = build_engine(pi, &cfg);
            let wal = match &cfg.wal_dir {
                None => None,
                Some(dir) => {
                    let (wal, outcome, records) =
                        Wal::attach(dir, &name, crc, cfg.fsync).map_err(|e| {
                            format!("attaching the WAL for {name} under {}: {e}", dir.display())
                        })?;
                    if let AttachOutcome::Orphaned { quarantined } = &outcome {
                        eprintln!(
                            "pxml serve: WAL for {name} did not match its snapshot; quarantined as {}",
                            quarantined.display()
                        );
                    }
                    if !records.is_empty() {
                        // Recovery: re-apply the journalled tail on top
                        // of the snapshot the segment is bound to.
                        let applied = replay_records(&mut engine.write(), &records);
                        eprintln!(
                            "pxml serve: replayed {applied} op(s) from {} WAL record(s) into {name}",
                            records.len()
                        );
                    }
                    let counters = wal.counters();
                    Some(Arc::new(WalHandle { wal: Arc::new(Mutex::new(wal)), counters }))
                }
            };
            if slots
                .insert(name.clone(), Arc::new(Slot::new(path.clone(), engine, wal)))
                .is_some()
            {
                return Err(format!(
                    "two instance files share the registry name {name:?}; rename one"
                ));
            }
        }
        let trace = match &cfg.trace_json {
            Some(path) => Some(Mutex::new(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                    .map_err(|e| format!("{}: {e}", path.display()))?,
            )),
            None => None,
        };

        let (listener, port, socket_path) = bind_listener(&cfg.bind)?;
        let inner = Arc::new(ServerInner {
            slots: RwLock::new(slots),
            cfg,
            shutdown: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            metrics: ServeMetrics::default(),
            trace,
            started: Instant::now(),
        });

        let accept_inner = Arc::clone(&inner);
        let accept = std::thread::Builder::new()
            .name("pxml-serve-accept".into())
            .spawn(move || accept_loop(listener, accept_inner))
            .map_err(|e| format!("spawning the accept loop: {e}"))?;

        Ok(ServerHandle { inner, accept: Some(accept), port, socket_path })
    }
}

impl ServerHandle {
    /// The bound TCP port (`None` for unix sockets). With
    /// [`Bind::Tcp`]`(0)` this is the kernel-assigned ephemeral port.
    pub fn port(&self) -> Option<u16> {
        self.port
    }

    /// Asks the daemon to drain: stop accepting, finish in-flight
    /// requests, close idle connections.
    pub fn request_shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
    }

    /// True once a shutdown was requested (signal, `SHUTDOWN` verb, or
    /// [`ServerHandle::request_shutdown`]).
    pub fn is_shutting_down(&self) -> bool {
        self.inner.shutdown.load(Ordering::SeqCst)
    }

    /// Connections currently being served.
    pub fn active_connections(&self) -> usize {
        self.inner.active.load(Ordering::SeqCst)
    }

    /// Requests shutdown, waits for the accept loop and every in-flight
    /// connection to drain (bounded at ten seconds), and removes the
    /// socket file. Returns an error if connections were still alive at
    /// the deadline.
    pub fn shutdown_and_join(mut self) -> Result<(), String> {
        self.request_shutdown();
        if let Some(h) = self.accept.take() {
            if h.join().is_err() {
                return Err("the accept loop thread failed".into());
            }
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.inner.active.load(Ordering::SeqCst) > 0 {
            if Instant::now() > deadline {
                return Err(format!(
                    "{} connection(s) still active after the 10s drain deadline",
                    self.inner.active.load(Ordering::SeqCst)
                ));
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        if let Some(path) = &self.socket_path {
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }
}

fn instance_name(path: &Path) -> Result<String, String> {
    path.file_stem()
        .and_then(|s| s.to_str())
        .map(str::to_string)
        .ok_or_else(|| format!("{}: cannot derive an instance name", path.display()))
}

fn build_engine(pi: pxml_core::ProbInstance, cfg: &ServeConfig) -> RwLock<QueryEngine> {
    let engine = QueryEngine::new(pi);
    if let Some(bytes) = cfg.max_cache_bytes {
        engine.set_max_cache_bytes(bytes);
    }
    if cfg.preflight {
        engine.set_preflight(true);
    }
    RwLock::new(engine)
}

/// CRC-32 of an instance file's bytes — the value a WAL segment header
/// binds to, recomputed after every checkpoint snapshot. (Boot and
/// reload use [`crate::load_with_crc`] instead, which hashes the same
/// buffer it parses; here the file was just written by `save` under the
/// slot's `writer` lock, so there is no second state to race against.)
fn snapshot_crc(path: &Path) -> Result<u32, String> {
    let bytes =
        std::fs::read(path).map_err(|e| format!("hashing snapshot {}: {e}", path.display()))?;
    Ok(pxml_storage::crc32(&bytes))
}

/// Replays recovered WAL records into an engine, returning the number
/// of ops applied.
///
/// Each record is one ops block in the `pxml mutate` grammar (the live
/// path journals one op per record). Replay mirrors the live dispatch
/// loop exactly: ops apply in order and a record stops at its first
/// failing op. Failures are *expected* here, not corruption — the live
/// path journals an op before applying it, so an op that failed
/// deterministically live (engine unchanged) fails identically on
/// replay and is skipped, converging to the same state.
fn replay_records(engine: &mut QueryEngine, records: &[String]) -> usize {
    let mut applied = 0usize;
    for record in records {
        let Ok(ops) = pxml_core::parse_ops(engine.instance(), record) else {
            continue;
        };
        for op in &ops {
            if engine.apply_mutation(op).is_err() {
                break;
            }
            applied += 1;
        }
    }
    applied
}

fn bind_listener(bind: &Bind) -> Result<(Listener, Option<u16>, Option<PathBuf>), String> {
    match bind {
        Bind::Tcp(port) => {
            let l = TcpListener::bind(("127.0.0.1", *port))
                .map_err(|e| format!("binding 127.0.0.1:{port}: {e}"))?;
            let actual = l.local_addr().map_err(|e| e.to_string())?.port();
            l.set_nonblocking(true).map_err(|e| e.to_string())?;
            Ok((Listener::Tcp(l), Some(actual), None))
        }
        Bind::Unix(path) => {
            // A stale socket file from a dead daemon blocks the bind;
            // remove it (a live daemon keeps the file open, so a racing
            // second daemon is the operator's error either way).
            if path.exists() {
                let _ = std::fs::remove_file(path);
            }
            let l = UnixListener::bind(path)
                .map_err(|e| format!("binding {}: {e}", path.display()))?;
            l.set_nonblocking(true).map_err(|e| e.to_string())?;
            Ok((Listener::Unix(l), None, Some(path.clone())))
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl Listener {
    fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
            Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
        }
    }
}

/// One accepted connection (either transport), blocking with a short
/// read timeout so handlers can poll the shutdown flag while idle.
enum Conn {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Conn {
    fn set_read_timeout(&self, d: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(d),
            Conn::Unix(s) => s.set_read_timeout(d),
        }
    }

    fn set_write_timeout(&self, d: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_write_timeout(d),
            Conn::Unix(s) => s.set_write_timeout(d),
        }
    }

    /// Disables Nagle on TCP (frames are latency-sensitive and written
    /// whole); a no-op for unix sockets.
    fn set_nodelay(&self) {
        if let Conn::Tcp(s) = self {
            let _ = s.set_nodelay(true);
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// Adapter that retries timeout/interrupt errors up to a hard deadline,
/// for payload reads that follow a successfully read prefix. The
/// deadline is the slow-loris defense: without it, a client feeding one
/// byte per read-timeout tick holds this thread forever.
struct Patient<'a> {
    conn: &'a mut Conn,
    deadline: Instant,
}

impl Read for Patient<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            match self.conn.read(buf) {
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::Interrupted
                    ) =>
                {
                    if Instant::now() > self.deadline {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "frame not delivered within the per-frame deadline",
                        ));
                    }
                }
                other => return other,
            }
        }
    }
}

/// Sheds one connection at the accept cap: an immediate "overloaded"
/// status frame, then drop. The write is bounded by a short timeout so
/// a non-reading client cannot stall the accept thread.
fn shed_conn(conn: Conn, active: usize) {
    let mut conn = conn;
    let _ = conn.set_write_timeout(Some(Duration::from_millis(100)));
    conn.set_nodelay();
    let body = format!("overloaded: {active} connection(s) active at --max-conns; retry");
    let _ = write_frame(&mut conn, &encode_response(Status::BudgetRejected, &body));
}

fn accept_loop(listener: Listener, inner: Arc<ServerInner>) {
    while !inner.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok(conn) => {
                inner.metrics.connections.fetch_add(1, Ordering::Relaxed);
                let active = inner.active.load(Ordering::SeqCst);
                if inner.cfg.max_conns.is_some_and(|cap| active >= cap) {
                    inner.metrics.shed.fetch_add(1, Ordering::Relaxed);
                    inner.count_request("ACCEPT", Status::BudgetRejected);
                    shed_conn(conn, active);
                    continue;
                }
                inner.active.fetch_add(1, Ordering::SeqCst);
                let conn_inner = Arc::clone(&inner);
                let spawned = std::thread::Builder::new()
                    .name("pxml-serve-conn".into())
                    .spawn(move || {
                        handle_conn(&conn_inner, conn);
                        conn_inner.active.fetch_sub(1, Ordering::SeqCst);
                    });
                if spawned.is_err() {
                    inner.active.fetch_sub(1, Ordering::SeqCst);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            // Listener died (e.g. socket file unlinked): nothing more
            // to accept; existing connections keep draining.
            Err(_) => break,
        }
    }
}

/// Reads the 4-byte prefix, waking every read-timeout tick to poll the
/// shutdown flag. `Ok(None)` = close this connection (clean EOF, or
/// idle at shutdown). An *idle* connection (no byte of the next frame
/// yet) may wait forever; once the first byte arrives the per-frame
/// deadline starts — a slow-loris client is dropped with `TimedOut`.
fn read_prefix_patient(conn: &mut Conn, inner: &ServerInner) -> io::Result<Option<[u8; 4]>> {
    let mut prefix = [0u8; 4];
    let mut got = 0;
    let mut deadline: Option<Instant> = None;
    loop {
        if got == 0 && inner.shutdown.load(Ordering::SeqCst) {
            return Ok(None);
        }
        match conn.read(&mut prefix[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid frame prefix",
                ))
            }
            Ok(n) => {
                got += n;
                if got == 4 {
                    return Ok(Some(prefix));
                }
                deadline.get_or_insert_with(|| Instant::now() + inner.cfg.frame_deadline);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                if deadline.is_some_and(|d| Instant::now() > d) {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "frame prefix not delivered within the per-frame deadline",
                    ));
                }
            }
            Err(e) => return Err(e),
        }
    }
}

fn handle_conn(inner: &Arc<ServerInner>, mut conn: Conn) {
    if conn.set_read_timeout(Some(Duration::from_millis(100))).is_err() {
        return;
    }
    conn.set_nodelay();
    loop {
        let prefix = match read_prefix_patient(&mut conn, inner) {
            Ok(Some(p)) => p,
            Ok(None) => return,
            Err(e) => {
                if e.kind() == io::ErrorKind::TimedOut {
                    inner.metrics.timeouts.fetch_add(1, Ordering::Relaxed);
                }
                return;
            }
        };
        if &prefix == b"GET " {
            handle_http(inner, &mut conn);
            return; // HTTP exchanges are one-shot (Connection: close).
        }
        let started = Instant::now();
        let frame_deadline = Instant::now() + inner.cfg.frame_deadline;
        let payload = match frame_len(prefix).and_then(|len| {
            read_payload(&mut Patient { conn: &mut conn, deadline: frame_deadline }, len)
        }) {
            Ok(p) => p,
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // Malformed length: answer bad-request, then close (the
                // stream position is unrecoverable).
                let body = format!("{e}");
                inner.count_request("FRAME", Status::BadRequest);
                let _ =
                    write_frame(&mut conn, &encode_response(Status::BadRequest, &body));
                return;
            }
            Err(e) => {
                if e.kind() == io::ErrorKind::TimedOut {
                    inner.metrics.timeouts.fetch_add(1, Ordering::Relaxed);
                }
                return;
            }
        };
        let mut timing = RequestTiming::default();
        let (verb, status, body, req) = match std::str::from_utf8(&payload) {
            Err(_) => {
                ("FRAME", Status::BadRequest, "request payload is not UTF-8".to_string(), None)
            }
            Ok(text) => match crate::protocol::parse_request(text) {
                Err(e) => ("FRAME", Status::BadRequest, e, None),
                Ok(req) => {
                    // Panic isolation: a dispatch that panics answers
                    // status 1 on this connection and the daemon keeps
                    // serving. The engine locks are parking_lot locks,
                    // which unlock (without poisoning) as the panic
                    // unwinds past their guards, so other connections
                    // can still take them — but a panic inside a *write*
                    // verb may have left that slot's engine partially
                    // mutated, so `recover_after_panic` rebuilds the
                    // slot from snapshot + journal before it is served
                    // again (read-only verbs need no repair).
                    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                        || dispatch(inner, &req, &mut timing),
                    ));
                    let (status, body) = match outcome {
                        Ok(r) => r,
                        Err(_) => {
                            inner.metrics.panics.fetch_add(1, Ordering::Relaxed);
                            let note = recover_after_panic(inner, &req);
                            (
                                Status::RunError,
                                format!(
                                    "internal panic while serving this request; the daemon keeps serving{note}"
                                ),
                            )
                        }
                    };
                    (verb_name(&req), status, body, Some(req))
                }
            },
        };
        inner.count_request(verb, status);
        inner.trace_request(verb, status, req.as_ref(), started.elapsed(), &timing);
        if write_frame(&mut conn, &encode_response(status, &body)).is_err() {
            return;
        }
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
    }
}

/// The one-line summary a trace record carries per verb.
fn request_detail(req: &Request) -> String {
    match req {
        Request::Query { instance, query, .. } => format!("{instance}: {query}"),
        Request::Mutate { instance, ops, .. } => {
            format!("{instance}: {} op line(s)", ops.lines().filter(|l| !l.trim().is_empty()).count())
        }
        Request::Stats { instance }
        | Request::Reload { instance }
        | Request::Checkpoint { instance } => instance.clone(),
        Request::Metrics | Request::Ping | Request::Shutdown => String::new(),
    }
}

/// The deliberate test-only panic behind `ServeConfig::debug_panic_query`
/// — the deterministic trigger for the `catch_unwind` isolation path.
/// Unreachable from the CLI (`main.rs` never sets the field), hence the
/// targeted allow under the crate-wide `deny(clippy::panic)`.
#[allow(clippy::panic)]
fn debug_panic(query: &str) -> ! {
    panic!("debug panic requested by query {query:?}")
}

impl ServerInner {
    fn slot(&self, name: &str) -> Option<Arc<Slot>> {
        self.slots.read().get(name).cloned()
    }

    /// True while `slot` is still the registry's live entry for `name`.
    /// Write verbs re-check this *after* taking the slot's `writer` lock:
    /// a `RELOAD` (or post-panic rebuild) may have swapped the slot in
    /// between, and work applied to the stale slot would be acknowledged
    /// yet invisible to every later request.
    fn slot_is_current(&self, name: &str, slot: &Arc<Slot>) -> bool {
        self.slots.read().get(name).is_some_and(|cur| Arc::ptr_eq(cur, slot))
    }

    fn count_request(&self, verb: &'static str, status: Status) {
        // Every counted verb is listed (the unit test below checks).
        if let Some(v) = COUNTED_VERBS.iter().position(|&c| c == verb) {
            self.metrics.requests[v][usize::from(status.exit_code())]
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Appends one `--trace-json` record; the request's detail string
    /// is only formatted when tracing is on.
    fn trace_request(
        &self,
        verb: &str,
        status: Status,
        req: Option<&Request>,
        elapsed: Duration,
        timing: &RequestTiming,
    ) {
        let Some(trace) = &self.trace else { return };
        let detail = req.map_or_else(String::new, request_detail);
        let mut waits = String::new();
        if let Some(d) = timing.lock_wait {
            waits.push_str(&format!(",\"lock_wait_us\":{}", d.as_micros()));
        }
        if let Some(d) = timing.wal {
            waits.push_str(&format!(",\"wal_us\":{}", d.as_micros()));
        }
        let mut line = String::from("{\"verb\":\"");
        push_json_escaped(&mut line, verb);
        line.push_str(&format!(
            "\",\"status\":{},\"micros\":{}{waits},\"detail\":\"",
            status.exit_code(),
            elapsed.as_micros()
        ));
        push_json_escaped(&mut line, &detail);
        line.push_str("\"}\n");
        let mut f = trace.lock();
        let _ = f.write_all(line.as_bytes());
    }

    /// Merges the daemon's governance defaults with one request's
    /// overrides. Returns `None` when nothing is governed at all — the
    /// request then runs on the ungoverned exact path.
    fn spec_for(&self, o: &RequestOptions) -> Option<BudgetSpec> {
        let max_steps = o.max_steps.or(self.cfg.max_steps);
        let timeout = o.timeout_ms.map(Duration::from_millis).or(self.cfg.timeout);
        let degrade = o.degrade.or(self.cfg.degrade);
        if max_steps.is_none() && timeout.is_none() && degrade.is_none() {
            return None;
        }
        Some(BudgetSpec {
            max_steps,
            timeout,
            cancel: None,
            degrade: degrade.unwrap_or_default(),
        })
    }
}

/// Where one request's time went, for its `--trace-json` record.
#[derive(Default)]
struct RequestTiming {
    /// From dispatch until the request held its slot lock: the engine
    /// read lock for QUERY, `writer` for MUTATE.
    lock_wait: Option<Duration>,
    /// Time inside WAL appends (fsync included), summed over a MUTATE's
    /// ops; zero without `--wal`.
    wal: Option<Duration>,
}

fn dispatch(
    inner: &Arc<ServerInner>,
    req: &Request,
    timing: &mut RequestTiming,
) -> (Status, String) {
    let started = Instant::now();
    match req {
        Request::Ping => (Status::Ok, "pong".into()),
        Request::Metrics => (Status::Ok, render_metrics(inner)),
        Request::Shutdown => {
            inner.shutdown.store(true, Ordering::SeqCst);
            (Status::Ok, "draining".into())
        }
        Request::Stats { instance } => match inner.slot(instance) {
            None => unknown_instance(inner, instance),
            Some(slot) => (Status::Ok, slot.engine.read().stats().to_string()),
        },
        Request::Query { instance, options, query } => match inner.slot(instance) {
            None => unknown_instance(inner, instance),
            Some(slot) => {
                if inner.cfg.debug_panic_query.as_deref() == Some(query.as_str()) {
                    debug_panic(query);
                }
                let engine = slot.engine.read();
                timing.lock_wait = Some(started.elapsed());
                let q = match translate_query(engine.instance(), query) {
                    Ok(q) => q,
                    Err(e) => return (Status::BadRequest, e),
                };
                let answer = match inner.spec_for(options) {
                    Some(spec) => engine.run_governed(&q, &spec),
                    None => engine.run(&q).map(Answer::Exact),
                };
                match answer {
                    Ok(Answer::Exact(p)) => (Status::Ok, format!("{p:.6}")),
                    Ok(Answer::Interval(iv)) => {
                        (Status::Ok, format!("[{:.6}, {:.6}]", iv.lo, iv.hi))
                    }
                    Err(e) if e.exhaustion().is_some() => (Status::BudgetRejected, e.to_string()),
                    Err(e) => (Status::RunError, e.to_string()),
                }
            }
        },
        // Write verbs take the slot's `writer` lock, then re-check
        // `slot_is_current` and retry on the swapped-in slot.
        Request::Mutate { instance, options, ops } => loop {
            let Some(slot) = inner.slot(instance) else {
                break unknown_instance(inner, instance);
            };
            let _writer = slot.writer.lock();
            if !inner.slot_is_current(instance, &slot) {
                continue;
            }
            timing.lock_wait = Some(started.elapsed());
            break mutate_as_writer(inner, &slot, options, ops, timing);
        },
        Request::Reload { instance } => loop {
            let Some(slot) = inner.slot(instance) else {
                break unknown_instance(inner, instance);
            };
            // `writer` spans the journal-tail read, the WAL rebind and
            // the slot swap: no MUTATE can journal+apply an op in
            // between, which would leave it acknowledged yet missing
            // from the fresh engine until the next boot. The old
            // engine's lock is never taken, so readers keep answering
            // from it until the swap.
            let _writer = slot.writer.lock();
            if !inner.slot_is_current(instance, &slot) {
                continue;
            }
            break reload_as_writer(inner, instance, &slot);
        },
        Request::Checkpoint { instance } => loop {
            let Some(slot) = inner.slot(instance) else {
                break unknown_instance(inner, instance);
            };
            // `writer` spans the snapshot and the rotation: no MUTATE
            // can slip a journal record between "state captured" and
            // "segment rotated" (the rotation would drop it), so the new
            // segment's binding is exact. The engine read lock only
            // lends the instance to the save.
            let _writer = slot.writer.lock();
            if !inner.slot_is_current(instance, &slot) {
                continue;
            }
            break checkpoint_as_writer(instance, &slot, &slot.engine.read());
        },
    }
}

/// `MUTATE` as the slot's single writer. Holding `writer` means no one
/// else mutates the engine or appends to the journal, so the state an
/// op is parsed and rendered against is the state it applies to, and
/// journal order is apply order. The engine locks are taken per step:
/// read to parse and render, none for the WAL append (whose fsync
/// would otherwise stall every reader), write for the apply alone.
fn mutate_as_writer(
    inner: &Arc<ServerInner>,
    slot: &Slot,
    options: &RequestOptions,
    ops: &str,
    timing: &mut RequestTiming,
) -> (Status, String) {
    let wal_time = timing.wal.insert(Duration::ZERO);
    let parsed = match pxml_core::parse_ops(slot.engine.read().instance(), ops) {
        Ok(p) => p,
        Err(e) => return (Status::BadRequest, e.to_string()),
    };
    let spec = inner.spec_for(options);
    let budget = spec.as_ref().map_or_else(pxml_query::Budget::unlimited, BudgetSpec::budget);
    let mut dirty = 0usize;
    let mut invalidated = 0u64;
    for (idx, op) in parsed.iter().enumerate() {
        // Durability: journal the op *before* applying it.
        // One record per op (not per block), so a block that
        // stops early — deterministic failure or budget
        // exhaustion — never journals ops it did not reach,
        // and replay reproduces the applied prefix exactly.
        // The record is rendered against the engine's state
        // at this point, which is the state replay parses
        // it against.
        if let Some(handle) = &slot.wal {
            let text =
                pxml_core::render_ops(slot.engine.read().instance(), std::slice::from_ref(op));
            let appending = Instant::now();
            let appended = handle.wal.lock().append(&text);
            *wal_time += appending.elapsed();
            if let Err(e) = appended {
                // A mutation that cannot be journalled must
                // not apply: refuse it (and the rest of the
                // block) with the run-error status.
                return (
                    Status::RunError,
                    format!(
                        "op {} of {}: wal append refused the mutation: {e} ({idx} op(s) applied)",
                        idx + 1,
                        parsed.len()
                    ),
                );
            }
        }
        if idx == 0 && inner.cfg.debug_panic_query.as_deref() == Some(ops) {
            // Test hook, after the journal append and before the apply:
            // the op is in the WAL but not in the engine — exactly the
            // divergence the post-panic rebuild must reconcile.
            debug_panic(ops);
        }
        let applied = slot.engine.write().apply_mutation_governed(op, &budget);
        match applied {
            Ok(outcome) => {
                dirty += outcome.effect.dirty.len();
                invalidated += outcome.invalidated.total();
            }
            // The op applied but invalidation exhausted its
            // budget mid-propagation; the engine already
            // flushed wholesale, which is sound. Report the
            // spend so the caller can widen the budget.
            Err(e) if e.exhaustion().is_some() => {
                return (
                    Status::BudgetRejected,
                    format!(
                        "op {} of {}: {e} (mutation applied; cache flushed)",
                        idx + 1,
                        parsed.len()
                    ),
                );
            }
            Err(e) => {
                return (
                    Status::RunError,
                    format!("op {} of {} failed: {e}", idx + 1, parsed.len()),
                );
            }
        }
    }
    (
        Status::Ok,
        format!(
            "applied {} ops ({dirty} dirty objects, {invalidated} cache entries evicted)",
            parsed.len()
        ),
    )
}

/// `RELOAD` as the old slot's writer: builds a fresh engine from one
/// read of the snapshot, **rebinds** the journal to that snapshot (new
/// segment bound to its CRC, acknowledged tail re-journalled), replays
/// the tail, and swaps the slot. Without the rebind the segment header
/// would keep the *old* snapshot's CRC while the daemon serves
/// new-snapshot state — the next boot would see the mismatch and
/// quarantine the whole segment, silently losing every acknowledged,
/// fsynced mutation journalled after the reload.
fn reload_as_writer(inner: &Arc<ServerInner>, name: &str, slot: &Slot) -> (Status, String) {
    let (pi, crc) = match crate::load_with_crc(&slot.path) {
        Ok(v) => v,
        Err(e) => return (Status::RunError, e),
    };
    let objects = pi.object_count();
    let engine = build_engine(pi, &inner.cfg);
    let mut replayed = 0usize;
    if let Some(handle) = &slot.wal {
        let mut wal = handle.wal.lock();
        let tail = match wal.live_records() {
            Ok(tail) => tail,
            Err(e) => {
                return (
                    Status::RunError,
                    format!("reload aborted ({name} keeps serving the old instance): wal read failed: {e}"),
                )
            }
        };
        // The rebind is atomic (built beside the live segment, renamed
        // over it): if it fails, the old slot keeps serving and the old
        // journal is untouched — nothing acknowledged is at risk.
        if let Err(e) = wal.rotate_with_tail(crc, &tail) {
            return (
                Status::RunError,
                format!("reload aborted ({name} keeps serving the old instance): wal rebind failed: {e}"),
            );
        }
        replayed = replay_records(&mut engine.write(), &tail);
    }
    let fresh = Arc::new(Slot::new(slot.path.clone(), engine, slot.wal.clone()));
    // The atomic swap: in-flight requests holding the old Arc finish
    // against the old instance; every other slot keeps its warm cache.
    inner.slots.write().insert(name.to_string(), fresh);
    let suffix = if slot.wal.is_some() {
        format!(", replayed {replayed} journalled op(s)")
    } else {
        String::new()
    };
    (Status::Ok, format!("reloaded {name} ({objects} objects{suffix})"))
}

/// `CHECKPOINT` as the slot's writer, with the engine read lock held.
fn checkpoint_as_writer(name: &str, slot: &Slot, engine: &QueryEngine) -> (Status, String) {
    if let Err(e) = crate::save(engine.instance(), &slot.path) {
        return (Status::RunError, format!("checkpoint snapshot failed: {e}"));
    }
    let mut rotated = String::new();
    if let Some(handle) = &slot.wal {
        let crc = match snapshot_crc(&slot.path) {
            Ok(c) => c,
            Err(e) => return (Status::RunError, e),
        };
        let mut wal = handle.wal.lock();
        match wal.rotate(crc) {
            Ok(()) => rotated = format!(", wal generation {}", wal.generation()),
            Err(e) => {
                // The snapshot IS durable; only the segment
                // swap failed. The stale segment's records
                // are inside the snapshot, and its CRC
                // binding no longer matches — next attach
                // quarantines it rather than replaying
                // doubly. Report honestly.
                return (
                    Status::RunError,
                    format!("snapshot written but wal rotation failed: {e}"),
                );
            }
        }
    }
    (Status::Ok, format!("checkpointed {name} to {}{rotated}", slot.path.display()))
}

/// Damage control after a caught panic. Read-only verbs cannot have
/// mutated engine state (they hold the engine read lock and touch the
/// cache only through its own lock-scoped inserts), so there is nothing
/// to repair. A panic inside a *write* verb may have left the slot's
/// engine partially mutated — and, on the mutate path, the op was
/// already journalled — so the live state could diverge from what the
/// WAL replays at the next boot. Rebuild the slot from snapshot +
/// journal (the boot recovery path) before serving it again; if even
/// the rebuild fails or panics, unregister the slot rather than keep
/// serving unverifiable state.
fn recover_after_panic(inner: &Arc<ServerInner>, req: &Request) -> String {
    let name = match req {
        Request::Mutate { instance, .. }
        | Request::Reload { instance }
        | Request::Checkpoint { instance } => instance.clone(),
        Request::Query { .. }
        | Request::Stats { .. }
        | Request::Metrics
        | Request::Ping
        | Request::Shutdown => return String::new(),
    };
    let Some(slot) = inner.slot(&name) else { return String::new() };
    let rebuilt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        rebuild_slot(inner, &name, &slot)
    }));
    match rebuilt {
        Ok(Ok(replayed)) => format!(
            "; instance {name:?} was rebuilt from its snapshot + journal ({replayed} op(s) replayed)"
        ),
        Ok(Err(e)) => {
            inner.slots.write().remove(&name);
            eprintln!(
                "pxml serve: rebuilding {name} after a panic failed ({e}); instance unregistered"
            );
            format!("; instance {name:?} could not be rebuilt and was unregistered: {e}")
        }
        Err(_) => {
            inner.slots.write().remove(&name);
            eprintln!(
                "pxml serve: rebuilding {name} after a panic panicked again; instance unregistered"
            );
            format!("; instance {name:?} could not be rebuilt and was unregistered")
        }
    }
}

/// Rebuilds one slot exactly as boot recovery would: a fresh engine
/// from the on-disk snapshot with the journal tail replayed on top.
/// Which tail is decided by the CRC binding:
/// * snapshot unchanged (it still hashes to the segment's binding) —
///   the journal is authoritative; first [`pxml_storage::Wal::repair`]
///   drops any frame the panic tore mid-append, then the live tail
///   replays.
/// * snapshot changed (a checkpoint saved it, then panicked before the
///   rotation) — the tail is already *inside* the snapshot; rotate onto
///   an empty segment bound to it instead of double-applying.
fn rebuild_slot(inner: &Arc<ServerInner>, name: &str, slot: &Arc<Slot>) -> Result<usize, String> {
    // Serialise behind any in-flight writer (the panicking request's
    // own guards were released as its unwind passed them), and hold the
    // engine write lock across the rebuild: a half-applied engine must
    // not answer reads.
    let _writer = slot.writer.lock();
    let _stale = slot.engine.write();
    if !inner.slot_is_current(name, slot) {
        // A concurrent reload/rebuild already swapped this slot; the
        // registry entry is no longer ours to repair.
        return Ok(0);
    }
    let (pi, crc) = crate::load_with_crc(&slot.path)?;
    let engine = build_engine(pi, &inner.cfg);
    let mut replayed = 0usize;
    if let Some(handle) = &slot.wal {
        let mut wal = handle.wal.lock();
        if wal.snapshot_crc() == crc {
            wal.repair();
            let tail = wal.live_records().map_err(|e| e.to_string())?;
            replayed = replay_records(&mut engine.write(), &tail);
        } else {
            wal.rotate(crc).map_err(|e| e.to_string())?;
        }
    }
    let fresh = Arc::new(Slot::new(slot.path.clone(), engine, slot.wal.clone()));
    inner.slots.write().insert(name.to_string(), fresh);
    Ok(replayed)
}

fn unknown_instance(inner: &Arc<ServerInner>, name: &str) -> (Status, String) {
    let known: Vec<String> = inner.slots.read().keys().cloned().collect();
    (
        Status::BadRequest,
        format!("unknown instance {name:?} (loaded: {})", known.join(", ")),
    )
}

/// The whole-daemon Prometheus exposition: serve-level request/
/// connection counters plus per-instance engine gauges (labelled by
/// instance so N registries never collide on family names).
fn render_metrics(inner: &Arc<ServerInner>) -> String {
    let mut reg = pxml_query::MetricsRegistry::new();
    let mut labelled: Vec<(String, u64)> = Vec::new();
    for (verb, row) in COUNTED_VERBS.iter().zip(&inner.metrics.requests) {
        for (status, n) in STATUSES.iter().zip(row) {
            let n = n.load(Ordering::Relaxed);
            if n > 0 {
                let label = format!("verb=\"{verb}\",status=\"{}\"", status.byte() as char);
                labelled.push((label, n));
            }
        }
    }
    let borrowed: Vec<(&str, u64)> = labelled.iter().map(|(l, n)| (l.as_str(), *n)).collect();
    reg.counter_vec(
        "pxml_serve_requests_total",
        "Requests answered, by verb and status digit.",
        &borrowed,
    );
    reg.counter(
        "pxml_serve_connections_total",
        "Connections accepted since the daemon started.",
        inner.metrics.connections.load(Ordering::Relaxed),
    );
    reg.counter(
        "pxml_serve_http_requests_total",
        "Plain-HTTP exchanges answered (GET /metrics, /healthz).",
        inner.metrics.http_requests.load(Ordering::Relaxed),
    );
    reg.gauge(
        "pxml_serve_active_connections",
        "Connections currently being served.",
        inner.active.load(Ordering::SeqCst) as f64,
    );
    reg.counter(
        "pxml_serve_shed_total",
        "Connections shed at accept because --max-conns was reached.",
        inner.metrics.shed.load(Ordering::Relaxed),
    );
    reg.counter(
        "pxml_serve_panics_total",
        "Requests that panicked inside dispatch (isolated per connection).",
        inner.metrics.panics.load(Ordering::Relaxed),
    );
    reg.counter(
        "pxml_serve_timeouts_total",
        "Connections dropped by the per-frame slow-loris deadline.",
        inner.metrics.timeouts.load(Ordering::Relaxed),
    );
    reg.counter_f64(
        "pxml_serve_uptime_seconds",
        "Wall-clock seconds since the daemon started.",
        inner.started.elapsed().as_secs_f64(),
    );

    let slots: Vec<(String, Arc<Slot>)> =
        inner.slots.read().iter().map(|(k, v)| (k.clone(), Arc::clone(v))).collect();
    let mut queries = Vec::new();
    let mut mutations = Vec::new();
    let mut hit_rates = Vec::new();
    let mut bytes = Vec::new();
    let mut evictions = Vec::new();
    let mut rejections = Vec::new();
    for (name, slot) in &slots {
        let engine = slot.engine.read();
        let s = engine.stats();
        let label = format!("instance=\"{name}\"");
        queries.push((label.clone(), s.queries_run));
        mutations.push((label.clone(), s.mutations_applied));
        hit_rates.push((label.clone(), s.hit_rate()));
        bytes.push((label.clone(), engine.cache_bytes() as f64));
        evictions.push((label.clone(), s.cache_evictions));
        rejections.push((label, s.cache_admission_rejections));
    }
    fn as_u64(v: &[(String, u64)]) -> Vec<(&str, u64)> {
        v.iter().map(|(l, n)| (l.as_str(), *n)).collect()
    }
    fn as_f64(v: &[(String, f64)]) -> Vec<(&str, f64)> {
        v.iter().map(|(l, n)| (l.as_str(), *n)).collect()
    }
    reg.counter_vec(
        "pxml_serve_instance_queries_total",
        "Queries answered per instance (cache hits included).",
        &as_u64(&queries),
    );
    reg.counter_vec(
        "pxml_serve_instance_mutations_total",
        "Mutations applied per instance.",
        &as_u64(&mutations),
    );
    reg.gauge_vec(
        "pxml_serve_instance_cache_hit_rate",
        "Marginal-cache hit fraction per instance.",
        &as_f64(&hit_rates),
    );
    reg.gauge_vec(
        "pxml_serve_instance_cache_bytes",
        "Accounted marginal-cache footprint per instance.",
        &as_f64(&bytes),
    );
    reg.counter_vec(
        "pxml_serve_instance_cache_evictions_total",
        "Whole-table cache evictions per instance.",
        &as_u64(&evictions),
    );
    reg.counter_vec(
        "pxml_serve_instance_cache_admission_rejected_total",
        "Cache inserts refused because no eviction could make room, per instance.",
        &as_u64(&rejections),
    );

    // WAL families, labelled per instance (present only when the daemon
    // runs with --wal).
    let mut wal_appends = Vec::new();
    let mut wal_fsyncs = Vec::new();
    let mut wal_fsync_nanos = Vec::new();
    let mut wal_replayed = Vec::new();
    let mut wal_rotations = Vec::new();
    for (name, slot) in &slots {
        let Some(handle) = &slot.wal else { continue };
        let label = format!("instance=\"{name}\"");
        let c = &handle.counters;
        wal_appends.push((label.clone(), c.appends.load(Ordering::Relaxed)));
        wal_fsyncs.push((label.clone(), c.fsyncs.load(Ordering::Relaxed)));
        wal_fsync_nanos.push((label.clone(), c.fsync_nanos.load(Ordering::Relaxed)));
        wal_replayed.push((label.clone(), c.replayed.load(Ordering::Relaxed)));
        wal_rotations.push((label, c.rotations.load(Ordering::Relaxed)));
    }
    if !wal_appends.is_empty() {
        reg.counter_vec(
            "pxml_wal_appends_total",
            "Mutation records appended to the write-ahead log, per instance.",
            &as_u64(&wal_appends),
        );
        reg.counter_vec(
            "pxml_wal_fsyncs_total",
            "Explicit fsync calls issued by the WAL fsync policy, per instance.",
            &as_u64(&wal_fsyncs),
        );
        reg.counter_vec(
            "pxml_wal_fsync_nanos_total",
            "Wall-clock nanoseconds spent inside WAL fsync, per instance.",
            &as_u64(&wal_fsync_nanos),
        );
        reg.counter_vec(
            "pxml_wal_replayed_total",
            "WAL records replayed at attach (boot recovery), per instance.",
            &as_u64(&wal_replayed),
        );
        reg.counter_vec(
            "pxml_wal_rotations_total",
            "WAL segment rotations (checkpoints), per instance.",
            &as_u64(&wal_rotations),
        );
    }
    reg.render().to_string()
}

/// Minimal HTTP/1.1 for scrapers: the connection's first four bytes
/// were `GET `; serve `/metrics` or `/healthz` and close.
fn handle_http(inner: &Arc<ServerInner>, conn: &mut Conn) {
    inner.metrics.http_requests.fetch_add(1, Ordering::Relaxed);
    // Read until the header terminator (or a hard cap) — the request
    // line is all we use.
    let mut buf = Vec::with_capacity(512);
    let deadline = Instant::now() + Duration::from_secs(2);
    let mut chunk = [0u8; 512];
    while !buf.windows(4).any(|w| w == b"\r\n\r\n") && buf.len() < 8192 {
        if Instant::now() > deadline {
            break;
        }
        match conn.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                // A bare request line without the full header block is
                // still answerable once we have its CRLF.
                if buf.windows(2).any(|w| w == b"\r\n") {
                    break;
                }
            }
            Err(_) => return,
        }
    }
    let text = String::from_utf8_lossy(&buf);
    let path = text.split_whitespace().next().unwrap_or("");
    let (code, body) = match path {
        "/metrics" => ("200 OK", render_metrics(inner)),
        "/healthz" => ("200 OK", "ok\n".to_string()),
        _ => ("404 Not Found", format!("no such endpoint {path:?}\n")),
    };
    let response = format!(
        "HTTP/1.1 {code}\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = conn.write_all(response.as_bytes());
    let _ = conn.flush();
}

// ---------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------

/// Where `pxml request` (and the benches) connect.
#[derive(Clone, Debug)]
pub enum Target {
    /// `host:port`.
    Tcp(String),
    /// Unix-domain socket path.
    Unix(PathBuf),
}

/// Opens a connection, sends one request, reads one response. The
/// connection closes afterwards; use [`Client`] to pipeline several
/// requests over one connection.
pub fn send_request(target: &Target, req: &Request) -> Result<(Status, String), String> {
    let mut client = Client::connect(target)?;
    client.roundtrip(req)
}

/// [`send_request`] with [`Client::connect_retry`] in front: connect
/// failures of the daemon-is-restarting class back off and retry up to
/// three attempts before giving up. This is what `pxml request` uses
/// unless `--no-retry` is passed.
pub fn send_request_retry(target: &Target, req: &Request) -> Result<(Status, String), String> {
    let mut client = Client::connect_retry(target, 3)?;
    client.roundtrip(req)
}

/// True for connect errors that a daemon restart window produces: the
/// listener is not there *yet* (refused / unbound socket path) or the
/// accept queue pushed back (`EAGAIN`).
fn retryable_connect(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionRefused
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::WouldBlock
            | io::ErrorKind::NotFound
            | io::ErrorKind::AddrNotAvailable
    )
}

/// Cheap sub-millisecond jitter so a fleet of retrying clients doesn't
/// reconnect in lockstep (no RNG dependency in this crate).
fn retry_jitter_ms(attempt: u32) -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos() as u64)
        .unwrap_or(0);
    let mut x = nanos ^ ((std::process::id() as u64) << 17) ^ u64::from(attempt);
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x % 25
}

/// One persistent client connection; requests pipeline in order.
pub struct Client {
    conn: Conn,
}

impl Client {
    fn connect_raw(target: &Target) -> io::Result<Conn> {
        match target {
            Target::Tcp(addr) => TcpStream::connect(addr.as_str()).map(Conn::Tcp),
            Target::Unix(path) => UnixStream::connect(path).map(Conn::Unix),
        }
    }

    fn target_name(target: &Target) -> String {
        match target {
            Target::Tcp(addr) => addr.clone(),
            Target::Unix(path) => path.display().to_string(),
        }
    }

    /// Connects to a daemon (one attempt, no retry).
    pub fn connect(target: &Target) -> Result<Client, String> {
        let conn = Self::connect_raw(target)
            .map_err(|e| format!("{}: {e}", Self::target_name(target)))?;
        conn.set_nodelay();
        Ok(Client { conn })
    }

    /// Connects with bounded, jittered exponential backoff: up to
    /// `attempts` tries, sleeping ~50 ms · 2ᵏ (+ jitter) between them,
    /// retrying only the daemon-restart class of errors
    /// (`ECONNREFUSED`, `EAGAIN`, an unbound socket path). Anything
    /// else fails immediately.
    pub fn connect_retry(target: &Target, attempts: u32) -> Result<Client, String> {
        let attempts = attempts.max(1);
        let mut last: Option<io::Error> = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                let backoff = 50u64 << (attempt - 1);
                std::thread::sleep(Duration::from_millis(backoff + retry_jitter_ms(attempt)));
            }
            match Self::connect_raw(target) {
                Ok(conn) => {
                    conn.set_nodelay();
                    return Ok(Client { conn });
                }
                Err(e) if retryable_connect(&e) => last = Some(e),
                Err(e) => {
                    return Err(format!("{}: {e}", Self::target_name(target)));
                }
            }
        }
        Err(format!(
            "{}: {} (after {attempts} attempts)",
            Self::target_name(target),
            last.map(|e| e.to_string()).unwrap_or_else(|| "connect failed".into())
        ))
    }

    /// Sends one request and waits for its response.
    pub fn roundtrip(&mut self, req: &Request) -> Result<(Status, String), String> {
        write_frame(&mut self.conn, req.render().as_bytes()).map_err(|e| e.to_string())?;
        let payload = read_frame(&mut self.conn)
            .map_err(|e| e.to_string())?
            .ok_or("connection closed without a response")?;
        crate::protocol::parse_response(&payload)
    }
}

// ---------------------------------------------------------------------
// Signal handling (no libc crate in this offline workspace: declare the
// one symbol we need — std already links the C library).
// ---------------------------------------------------------------------

static TERM_REQUESTED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_term(_signum: i32) {
    // Only async-signal-safe work here: one atomic store.
    TERM_REQUESTED.store(true, Ordering::SeqCst);
}

extern "C" {
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> isize;
}

/// Installs SIGTERM/SIGINT handlers that flip a flag read by
/// [`term_requested`] — the daemon's graceful-drain trigger.
pub fn install_term_handler() {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_term);
        signal(SIGINT, on_term);
    }
}

/// True once SIGTERM or SIGINT arrived.
pub fn term_requested() -> bool {
    TERM_REQUESTED.load(Ordering::SeqCst)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `count_request` drops a verb missing from the table, and
    /// `render_metrics` relies on the table's order.
    #[test]
    fn counted_verbs_cover_every_wire_verb_in_sorted_order() {
        assert!(COUNTED_VERBS.windows(2).all(|w| w[0] < w[1]), "{COUNTED_VERBS:?}");
        let (instance, options) = (String::from("i"), RequestOptions::default());
        let query = String::new();
        for req in [
            Request::Query { instance: instance.clone(), options: options.clone(), query },
            Request::Mutate { instance: instance.clone(), options, ops: String::new() },
            Request::Stats { instance: instance.clone() },
            Request::Reload { instance: instance.clone() },
            Request::Checkpoint { instance },
            Request::Metrics,
            Request::Ping,
            Request::Shutdown,
        ] {
            assert!(COUNTED_VERBS.contains(&verb_name(&req)), "{}", verb_name(&req));
        }
        for (i, status) in STATUSES.iter().enumerate() {
            assert_eq!(usize::from(status.exit_code()), i);
        }
    }
}
