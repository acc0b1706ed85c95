//! The production HTTP front end (ROADMAP item 3): a dependency-free
//! non-blocking HTTP/1.1 server for the SQLShare REST interface.
//!
//! Architecture, one sentence per moving part:
//!
//! * **Event loops** ([`HttpConfig::threads`] of them) each run their
//!   own epoll instance; the shared nonblocking listener is registered
//!   with `EPOLLEXCLUSIVE` on every loop so the kernel wakes one loop
//!   per pending accept instead of the whole herd.
//! * **Connections** are owned by the loop that accepted them: reads
//!   feed the incremental parser, complete requests dispatch to the
//!   worker pool, responses drain through an ordered outbox driven by
//!   write readiness ([`conn`]).
//! * **Workers** execute REST dispatch off the event loops so one slow
//!   query never stalls unrelated connections. The lock split does the
//!   rest: read-only routes *and query submission* run under a shared
//!   read lock (`rest::dispatch_read` over `&SqlShare`), only
//!   journal-before-apply mutations take the write lock, so the hot
//!   paths actually run concurrently.
//! * **Admission control** sheds load before queues collapse: a
//!   connection cap at accept (503), an in-flight dispatch cap on the
//!   loops (429 without ever parsing the body), and the scheduler's own
//!   overload rejection surfacing as 429 — every 429/503 carries a
//!   `Retry-After` derived from [`sqlshare_scheduler::LoadSnapshot`].
//! * **Graceful shutdown** stops accepting, lets in-flight dispatches
//!   complete and outboxes flush (bounded by a drain deadline), then
//!   joins every thread.

pub mod config;
pub mod conn;
pub mod http;
pub mod repl;
pub mod sys;

use conn::{Conn, ConnEvent, FlushState, Payload};
use http::ParsedRequest;
pub use repl::ReplHub;
use sqlshare_common::json::{self, Json};
use sqlshare_core::rest::{self, Method, Request};
use sqlshare_core::{AckMode, ReplConfig, Role, ScrubConfig, SqlShare};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::os::fd::AsRawFd;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use sys::{Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};

/// Everything [`Server::start`] is told about how to serve. A binary
/// fills it from the environment through [`config::Config`]; tests and
/// embedders set the fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpConfig {
    /// Event-loop threads.
    pub threads: usize,
    /// Dispatch worker threads.
    pub workers: usize,
    /// Concurrent connection cap; excess accepts are answered `503` and
    /// closed.
    pub max_conns: usize,
    /// Requests dispatched-or-queued across all connections; excess
    /// requests are answered `429`.
    pub max_inflight: usize,
    /// Request body cap in bytes; larger uploads are refused with
    /// `413`, never truncated.
    pub max_body: usize,
    /// Idle keep-alive connections are closed after this long.
    pub idle_timeout: Duration,
    /// How long shutdown waits for in-flight work to drain.
    pub drain_deadline: Duration,
    /// Replication: follow-the-primary standby mode, ack mode, quorum
    /// size, heartbeat/lease timing.
    pub repl: ReplConfig,
    /// Background integrity scrubber cadence and budget; it runs when
    /// enabled and the service has files at rest.
    pub scrub: ScrubConfig,
}

impl Default for HttpConfig {
    fn default() -> Self {
        let cpus = std::thread::available_parallelism().map_or(4, |n| n.get());
        HttpConfig {
            threads: cpus.clamp(2, 4),
            workers: cpus.max(4),
            max_conns: 1024,
            max_inflight: 256,
            max_body: 4 * 1024 * 1024,
            idle_timeout: Duration::from_secs(60),
            drain_deadline: Duration::from_secs(5),
            repl: ReplConfig::default(),
            scrub: ScrubConfig::default(),
        }
    }
}

/// Monotonic counters for observability and test assertions.
#[derive(Debug, Default)]
pub struct ServerStats {
    pub accepted: AtomicU64,
    /// Connections refused at accept because `max_conns` was reached.
    pub conns_rejected: AtomicU64,
    /// Requests fully parsed off sockets.
    pub requests: AtomicU64,
    /// Requests shed with `429` by the server's own in-flight cap
    /// (before any dispatch — distinct from scheduler rejections).
    pub shed: AtomicU64,
    pub responses_2xx: AtomicU64,
    pub responses_4xx: AtomicU64,
    /// Subset of 4xx that were `429 Too Many Requests` (either shed
    /// here or rejected by scheduler admission control).
    pub responses_429: AtomicU64,
    pub responses_5xx: AtomicU64,
}

impl ServerStats {
    fn count_status(&self, status: u16) {
        match status {
            200..=299 => self.responses_2xx.fetch_add(1, Ordering::Relaxed),
            429 => {
                self.responses_4xx.fetch_add(1, Ordering::Relaxed);
                self.responses_429.fetch_add(1, Ordering::Relaxed)
            }
            400..=499 => self.responses_4xx.fetch_add(1, Ordering::Relaxed),
            500..=599 => self.responses_5xx.fetch_add(1, Ordering::Relaxed),
            _ => 0,
        };
    }
}

/// A dispatch finished on a worker; deliver the framed response to the
/// connection (if it still exists and is the same incarnation).
struct Completion {
    fd: i32,
    generation: u64,
    payload: Payload,
    keep_alive: bool,
}

/// Per-event-loop mailbox: workers post completions here and kick the
/// loop's eventfd.
struct LoopMailbox {
    wake: EventFd,
    completions: Mutex<Vec<Completion>>,
}

enum Job {
    Dispatch {
        loop_idx: usize,
        fd: i32,
        generation: u64,
        request: ParsedRequest,
    },
    Exit,
}

/// The worker pool's shared queue.
struct WorkQueue {
    jobs: Mutex<VecDeque<Job>>,
    ready: Condvar,
}

impl WorkQueue {
    fn push(&self, job: Job) {
        self.jobs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push_back(job);
        self.ready.notify_one();
    }

    fn pop(&self) -> Job {
        let mut jobs = self.jobs.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(job) = jobs.pop_front() {
                return job;
            }
            jobs = self.ready.wait(jobs).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// State shared by every loop and worker.
pub(crate) struct Shared {
    pub(crate) service: RwLock<SqlShare>,
    listener: TcpListener,
    pub(crate) config: HttpConfig,
    stats: ServerStats,
    pub(crate) shutdown: AtomicBool,
    conn_count: AtomicUsize,
    /// Dispatches queued or executing, server-wide (the admission cap).
    in_flight: AtomicUsize,
    generation: AtomicU64,
    mailboxes: Vec<LoopMailbox>,
    queue: WorkQueue,
    /// Standby-ack bookkeeping for quorum commits. Acks are recorded
    /// without the service lock, so no mutation holding it can delay
    /// the ack a waiting commit needs.
    pub(crate) repl_hub: Arc<ReplHub>,
    /// WAL file served to standbys, captured at start so the streaming
    /// endpoint never needs the service lock. `None` in ephemeral mode.
    wal_path: Option<PathBuf>,
    /// Query-log sink served to standbys the same lock-free way: the
    /// log is durable acknowledged state too, and its timestamps drive
    /// the clock a promoted standby inherits.
    querylog_path: Option<PathBuf>,
    /// Lock-free mirror of the service's lease epoch for the streaming
    /// endpoint (updated on promote/demote and by the standby driver).
    pub(crate) repl_epoch: AtomicU64,
}

/// A running server. Bind with [`Server::start`], stop with
/// [`ServerHandle::shutdown`].
pub struct Server;

pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    loop_threads: Vec<JoinHandle<()>>,
    worker_threads: Vec<JoinHandle<()>>,
    repl_threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (port 0 picks a free port), take ownership of the
    /// service, and serve until [`ServerHandle::shutdown`].
    pub fn start(
        mut service: SqlShare,
        addr: &str,
        config: HttpConfig,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let mut mailboxes = Vec::with_capacity(config.threads);
        for _ in 0..config.threads {
            mailboxes.push(LoopMailbox {
                wake: EventFd::new()?,
                completions: Mutex::new(Vec::new()),
            });
        }

        // Replication wiring. A node configured with a primary boots as
        // a standby (read-only, polling that primary). In quorum mode
        // the *server* waits on the ack hub after a mutation commits —
        // outside the service write lock (see `execute`), so a slow
        // standby delays only the unacked client, never readers. No
        // commit-time ack gate is installed in the service.
        let repl_hub = Arc::new(ReplHub::default());
        let is_standby = config.repl.primary.is_some();
        if is_standby {
            service.demote(0);
        }
        let wal_path = service.wal_path();
        let querylog_path = service.querylog_path();
        let epoch = service.epoch();

        let shared = Arc::new(Shared {
            service: RwLock::new(service),
            listener,
            config: config.clone(),
            stats: ServerStats::default(),
            shutdown: AtomicBool::new(false),
            conn_count: AtomicUsize::new(0),
            in_flight: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
            mailboxes,
            queue: WorkQueue {
                jobs: Mutex::new(VecDeque::new()),
                ready: Condvar::new(),
            },
            repl_hub,
            wal_path,
            querylog_path,
            repl_epoch: AtomicU64::new(epoch),
        });

        let mut loop_threads = Vec::with_capacity(config.threads);
        for idx in 0..config.threads {
            let shared = Arc::clone(&shared);
            loop_threads.push(
                std::thread::Builder::new()
                    .name(format!("http-loop-{idx}"))
                    .spawn(move || {
                        if let Err(e) = event_loop(idx, &shared) {
                            eprintln!("http-loop-{idx} died: {e}");
                        }
                    })?,
            );
        }
        let mut worker_threads = Vec::with_capacity(config.workers);
        for idx in 0..config.workers {
            let shared = Arc::clone(&shared);
            worker_threads.push(
                std::thread::Builder::new()
                    .name(format!("http-worker-{idx}"))
                    .spawn(move || worker_loop(&shared))?,
            );
        }
        let mut repl_threads = Vec::new();
        if let Some(primary) = config.repl.primary.clone() {
            let shared = Arc::clone(&shared);
            let self_id = addr.to_string();
            repl_threads.push(
                std::thread::Builder::new()
                    .name("repl-standby".into())
                    .spawn(move || repl::standby_loop(shared, primary, self_id))?,
            );
        }
        // Background integrity scrubber, when there is a data directory
        // to sweep and the cadence is not disabled. Joins through the
        // repl thread list.
        let scrub_config = config.scrub;
        if scrub_config.enabled() && shared.wal_path.is_some() {
            let shared = Arc::clone(&shared);
            repl_threads.push(
                std::thread::Builder::new()
                    .name("scrubber".into())
                    .spawn(move || scrub_loop(shared, scrub_config))?,
            );
        }
        Ok(ServerHandle {
            addr,
            shared,
            loop_threads,
            worker_threads,
            repl_threads,
        })
    }
}

impl ServerHandle {
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn stats(&self) -> &ServerStats {
        &self.shared.stats
    }

    /// Shared access to the service, e.g. for test assertions about
    /// state the HTTP traffic should have produced.
    pub fn with_service<T>(&self, f: impl FnOnce(&SqlShare) -> T) -> T {
        f(&self.shared.service.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// The standby-ack hub (quorum bookkeeping), for observability and
    /// test assertions.
    pub fn repl_hub(&self) -> &ReplHub {
        &self.shared.repl_hub
    }

    /// Stop accepting, drain in-flight requests (bounded by the drain
    /// deadline), and join every thread.
    pub fn shutdown(self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for mb in &self.shared.mailboxes {
            mb.wake.signal();
        }
        for t in self.repl_threads {
            let _ = t.join();
        }
        for t in self.loop_threads {
            let _ = t.join();
        }
        for _ in 0..self.worker_threads.len() {
            self.shared.queue.push(Job::Exit);
        }
        for t in self.worker_threads {
            let _ = t.join();
        }
    }
}

/// One epoll readiness loop. Owns its accepted connections outright —
/// no cross-loop sharing, so connection state needs no locks.
fn event_loop(idx: usize, shared: &Shared) -> io::Result<()> {
    let epoll = Epoll::new()?;
    let mailbox = &shared.mailboxes[idx];
    let listener_fd = shared.listener.as_raw_fd();
    epoll.add_exclusive(listener_fd, EPOLLIN)?;
    epoll.add(mailbox.wake.fd(), EPOLLIN)?;

    let mut conns: HashMap<i32, Conn> = HashMap::new();
    let mut last_seen: HashMap<i32, Instant> = HashMap::new();
    let mut events = vec![EpollEvent { events: 0, data: 0 }; 256];
    let mut listener_registered = true;
    let mut drain_started: Option<Instant> = None;

    loop {
        let shutting_down = shared.shutdown.load(Ordering::SeqCst);
        if shutting_down {
            if listener_registered {
                // Stop picking up new connections; other loops race to
                // do the same, which is fine.
                let _ = epoll.delete(listener_fd);
                listener_registered = false;
            }
            let deadline_passed = drain_started
                .get_or_insert_with(Instant::now)
                .elapsed()
                > shared.config.drain_deadline;
            // Close everything idle; keep connections that still owe a
            // response until they drain or the deadline expires.
            let closable: Vec<i32> = conns
                .iter()
                .filter(|(_, c)| c.is_drained() || deadline_passed)
                .map(|(fd, _)| *fd)
                .collect();
            for fd in closable {
                drop_conn(&epoll, &mut conns, &mut last_seen, shared, fd);
            }
            if conns.is_empty() {
                return Ok(());
            }
        }

        let timeout_ms = if shutting_down { 20 } else { 1000 };
        let ready: Vec<(i32, u32)> = epoll
            .wait(&mut events, timeout_ms)?
            .iter()
            .map(|ev| {
                // Copy out of the (possibly packed) struct.
                let data = ev.data;
                let mask = ev.events;
                (data as i32, mask)
            })
            .collect();

        for (fd, mask) in ready {
            if fd == mailbox.wake.fd() {
                mailbox.wake.drain();
            } else if fd == listener_fd {
                accept_ready(shared, &epoll, &mut conns, &mut last_seen);
            } else {
                conn_ready(idx, shared, &epoll, &mut conns, &mut last_seen, fd, mask);
            }
        }

        // Deliver completions posted by workers.
        let completions: Vec<Completion> = std::mem::take(
            &mut *mailbox
                .completions
                .lock()
                .unwrap_or_else(|e| e.into_inner()),
        );
        for done in completions {
            apply_completion(idx, shared, &epoll, &mut conns, &mut last_seen, done);
        }

        // Reap idle keep-alive connections.
        if !shutting_down {
            let now = Instant::now();
            let idle: Vec<i32> = last_seen
                .iter()
                .filter(|(fd, at)| {
                    now.duration_since(**at) > shared.config.idle_timeout
                        && conns.get(*fd).is_some_and(|c| c.is_drained())
                })
                .map(|(fd, _)| *fd)
                .collect();
            for fd in idle {
                drop_conn(&epoll, &mut conns, &mut last_seen, shared, fd);
            }
        }
    }
}

fn accept_ready(
    shared: &Shared,
    epoll: &Epoll,
    conns: &mut HashMap<i32, Conn>,
    last_seen: &mut HashMap<i32, Instant>,
) {
    loop {
        let (stream, _) = match shared.listener.accept() {
            Ok(pair) => pair,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        };
        if shared.conn_count.load(Ordering::Relaxed) >= shared.config.max_conns {
            // Over the connection cap: best-effort 503 and close. The
            // write is nonblocking; a full socket buffer just means the
            // client sees a reset instead of the courtesy response.
            shared.stats.conns_rejected.fetch_add(1, Ordering::Relaxed);
            let _ = stream.set_nonblocking(true);
            let body = b"{\"error\":\"connection limit reached\"}";
            let mut head = http::encode_head(503, http::JSON, Some(body.len()), false, Some(1));
            head.extend_from_slice(body);
            let mut s = stream;
            let _ = io::Write::write(&mut s, &head);
            continue;
        }
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        let _ = stream.set_nodelay(true);
        let fd = stream.as_raw_fd();
        let generation = shared.generation.fetch_add(1, Ordering::Relaxed);
        let mut conn = Conn::new(stream, generation);
        conn.interest = EPOLLIN | EPOLLRDHUP;
        if epoll.add(fd, conn.interest).is_err() {
            continue;
        }
        shared.conn_count.fetch_add(1, Ordering::Relaxed);
        shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
        last_seen.insert(fd, Instant::now());
        conns.insert(fd, conn);
        // A client may have sent its request before we registered;
        // level-triggered epoll reports it on the next wait, so no
        // speculative read is needed here.
    }
}

fn conn_ready(
    idx: usize,
    shared: &Shared,
    epoll: &Epoll,
    conns: &mut HashMap<i32, Conn>,
    last_seen: &mut HashMap<i32, Instant>,
    fd: i32,
    mask: u32,
) {
    if !conns.contains_key(&fd) {
        return;
    }
    last_seen.insert(fd, Instant::now());
    if mask & (EPOLLHUP | EPOLLERR) != 0 {
        drop_conn(epoll, conns, last_seen, shared, fd);
        return;
    }
    if mask & EPOLLOUT != 0 {
        let closed = conns
            .get_mut(&fd)
            .is_some_and(|c| c.flush() == FlushState::Closed);
        if closed {
            drop_conn(epoll, conns, last_seen, shared, fd);
            return;
        }
    }
    if mask & (EPOLLIN | EPOLLRDHUP) != 0 {
        let Some(conn) = conns.get_mut(&fd) else {
            return;
        };
        let events = conn.on_readable(shared.config.max_body);
        for event in events {
            match event {
                ConnEvent::Request(request) => {
                    shared.stats.requests.fetch_add(1, Ordering::Relaxed);
                    offer_request(idx, shared, conn, fd, request);
                }
                ConnEvent::Bad {
                    status,
                    message,
                    recoverable,
                } => {
                    let body = Json::object([("error", Json::str(message))])
                        .to_string()
                        .into_bytes();
                    shared.stats.count_status(status);
                    let payload =
                        Payload::response(status, http::JSON, body, recoverable, true, None);
                    conn.enqueue(payload);
                    if !recoverable {
                        conn.close_after_flush = true;
                        conn.pending.clear();
                    }
                }
                ConnEvent::Eof => {
                    conn.read_closed = true;
                }
            }
        }
    }
    finish_conn_turn(epoll, conns, last_seen, shared, fd);
}

/// Admission-check a parsed request and either hand it to the worker
/// pool or shed it with a 429, honouring one-dispatch-per-connection
/// ordering for pipelined peers.
fn offer_request(idx: usize, shared: &Shared, conn: &mut Conn, fd: i32, request: ParsedRequest) {
    if conn.close_after_flush {
        return;
    }
    // Standby acks are absorbed on the event loop itself: no worker, no
    // service lock. A quorum commit waits for acks after releasing the
    // write lock, but it holds its worker thread while it waits: with
    // `workers` such commits in flight, an ack queued to the pool would
    // sit behind them until `ack_timeout`. (Only when no dispatch is in
    // flight — pipelined responses must stay ordered; the worker path
    // handles acks too.)
    if request.method == "POST"
        && request.path == "/api/repl/ack"
        && !conn.dispatch_in_flight
        && conn.pending.is_empty()
    {
        let (status, body) = record_ack(shared, &json_body(&request.body).unwrap_or(Json::Null));
        shared.stats.count_status(status);
        conn.enqueue(Payload::response(
            status,
            http::JSON,
            body.to_string().into_bytes(),
            request.keep_alive,
            request.http11,
            None,
        ));
        if !request.keep_alive {
            conn.close_after_flush = true;
        }
        return;
    }
    if conn.dispatch_in_flight {
        conn.pending.push_back(request);
        return;
    }
    start_dispatch(idx, shared, conn, fd, request);
}

fn start_dispatch(idx: usize, shared: &Shared, conn: &mut Conn, fd: i32, request: ParsedRequest) {
    // The server-wide in-flight cap: shedding here costs a few hundred
    // nanoseconds and no JSON parse, which is the whole point — under
    // overload the cheap path must stay cheap.
    let admitted = shared
        .in_flight
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
            (n < shared.config.max_inflight).then_some(n + 1)
        })
        .is_ok();
    if !admitted {
        shared.stats.shed.fetch_add(1, Ordering::Relaxed);
        shared.stats.count_status(429);
        let body = Json::object([("error", Json::str("server is at its in-flight request limit"))])
            .to_string()
            .into_bytes();
        let keep_alive = request.keep_alive;
        conn.enqueue(Payload::response(
            429,
            http::JSON,
            body,
            keep_alive,
            request.http11,
            Some(1),
        ));
        if !keep_alive {
            conn.close_after_flush = true;
        }
        return;
    }
    conn.dispatch_in_flight = true;
    shared.queue.push(Job::Dispatch {
        loop_idx: idx,
        fd,
        generation: conn.generation,
        request,
    });
}

fn apply_completion(
    idx: usize,
    shared: &Shared,
    epoll: &Epoll,
    conns: &mut HashMap<i32, Conn>,
    last_seen: &mut HashMap<i32, Instant>,
    done: Completion,
) {
    let fd = done.fd;
    let Some(conn) = conns.get_mut(&fd) else {
        return; // Connection died while the request was in flight.
    };
    if conn.generation != done.generation {
        return; // fd was reused for a newer connection.
    }
    conn.dispatch_in_flight = false;
    conn.enqueue(done.payload);
    if !done.keep_alive {
        conn.close_after_flush = true;
        conn.pending.clear();
    } else if let Some(next) = conn.pending.pop_front() {
        start_dispatch(idx, shared, conn, fd, next);
    }
    finish_conn_turn(epoll, conns, last_seen, shared, fd);
}

/// Flush what we can, update epoll interest, close if this connection
/// is finished. Called at the end of every interaction with a conn.
fn finish_conn_turn(
    epoll: &Epoll,
    conns: &mut HashMap<i32, Conn>,
    last_seen: &mut HashMap<i32, Instant>,
    shared: &Shared,
    fd: i32,
) {
    let Some(conn) = conns.get_mut(&fd) else {
        return;
    };
    match conn.flush() {
        FlushState::Closed => {
            drop_conn(epoll, conns, last_seen, shared, fd);
        }
        FlushState::Blocked => {
            let want = EPOLLIN | EPOLLRDHUP | EPOLLOUT;
            if conn.interest != want && epoll.modify(fd, want).is_ok() {
                conn.interest = want;
            }
        }
        FlushState::Idle => {
            if conn.close_after_flush || (conn.read_closed && conn.is_drained()) {
                drop_conn(epoll, conns, last_seen, shared, fd);
                return;
            }
            let want = EPOLLIN | EPOLLRDHUP;
            if conn.interest != want && epoll.modify(fd, want).is_ok() {
                conn.interest = want;
            }
        }
    }
}

fn drop_conn(
    epoll: &Epoll,
    conns: &mut HashMap<i32, Conn>,
    last_seen: &mut HashMap<i32, Instant>,
    shared: &Shared,
    fd: i32,
) {
    if conns.remove(&fd).is_some() {
        let _ = epoll.delete(fd);
        last_seen.remove(&fd);
        shared.conn_count.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Worker thread: pop dispatch jobs, run them against the service with
/// the narrowest lock that suffices, post framed responses back to the
/// owning event loop.
fn worker_loop(shared: &Shared) {
    loop {
        match shared.queue.pop() {
            Job::Exit => return,
            Job::Dispatch {
                loop_idx,
                fd,
                generation,
                request,
            } => {
                let (payload, keep_alive) = execute(shared, request);
                shared.in_flight.fetch_sub(1, Ordering::Relaxed);
                let mailbox = &shared.mailboxes[loop_idx];
                mailbox
                    .completions
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push(Completion {
                        fd,
                        generation,
                        payload,
                        keep_alive,
                    });
                mailbox.wake.signal();
            }
        }
    }
}

/// Decode, dispatch, frame. Runs on a worker thread; this is the only
/// place the service locks are taken.
fn execute(shared: &Shared, request: ParsedRequest) -> (Payload, bool) {
    let keep_alive = request.keep_alive;
    let http11 = request.http11;
    let respond = |status: u16, content_type: &str, body: Vec<u8>, retry_after: Option<u64>| {
        shared.stats.count_status(status);
        (
            Payload::response(status, content_type, body, keep_alive, http11, retry_after),
            keep_alive,
        )
    };
    let frame = |status: u16, body: Json, retry_after: Option<u64>| {
        respond(
            status,
            http::JSON,
            body.to_string().into_bytes(),
            retry_after,
        )
    };

    let Some(method) = Method::parse(&request.method) else {
        return frame(
            405,
            Json::object([("error", Json::str("unsupported method"))]),
            None,
        );
    };
    let body = match json_body(&request.body) {
        Ok(body) => body,
        // Framing was intact — only the payload is garbage, so the
        // connection survives the 400.
        Err(message) => return frame(400, Json::object([("error", Json::str(message))]), None),
    };
    let req = Request {
        method,
        path: request.path,
        body,
    };

    // Replication control plane, handled ahead of the REST dispatch.
    // The WAL stream reads the journal file directly and the ack sink
    // touches only the hub, so neither waits on a mutation holding the
    // write lock.
    if req.path.starts_with("/api/repl/") {
        let (status, content_type, body) = execute_repl(shared, method, &req.path, &req.body);
        return respond(status, content_type, body, None);
    }

    // The lock split: mutations serialize on the write lock (they
    // journal before applying); everything else — submission included —
    // shares the read lock and runs concurrently.
    let mut response;
    if rest::is_mutation(method, &req.path) {
        let journaled = {
            let mut service = shared.service.write().unwrap_or_else(|e| e.into_inner());
            let before = service.last_lsn();
            response = rest::dispatch(&mut service, &req);
            let after = service.last_lsn();
            (after > before).then_some(after)
        };
        // Quorum ack, waited *after* the write lock is released: the
        // mutation is durable and applied either way, and the lock-free
        // repl endpoints plus this ordering mean a slow standby delays
        // only this one unacked client — readers and other requests
        // keep flowing. Without confirmation the client gets a timeout
        // instead of an ack, so "acknowledged" still implies
        // "replicated".
        if let Some(lsn) = journaled {
            if shared.config.repl.ack == AckMode::Quorum
                && response.status < 300
                && !shared.repl_hub.wait_for(
                    lsn,
                    shared.config.repl.quorum,
                    shared.config.repl.ack_timeout,
                )
            {
                response = rest::Response {
                    status: 504,
                    body: Json::object([
                        (
                            "error",
                            Json::str(format!(
                                "mutation journaled at lsn {lsn} but the standby quorum \
                                 did not confirm it in time; it may or may not survive failover"
                            )),
                        ),
                        ("kind", Json::str("timeout")),
                    ]),
                };
            }
        }
    } else {
        let service = shared.service.read().unwrap_or_else(|e| e.into_inner());
        response = rest::dispatch_read(&service, &req);
    }

    // Overload answers carry a back-off hint scaled to queue depth.
    let retry_after = match response.status {
        429 => {
            let service = shared.service.read().unwrap_or_else(|e| e.into_inner());
            Some(service.scheduler().load().retry_after_secs())
        }
        503 => Some(1),
        _ => None,
    };
    frame(response.status, response.body, retry_after)
}

/// A request body as JSON (`null` when empty), or the message of the 400
/// that refuses bytes that are not UTF-8 or not JSON.
fn json_body(body: &[u8]) -> Result<Json, String> {
    if body.is_empty() {
        return Ok(Json::Null);
    }
    let text = std::str::from_utf8(body).map_err(|_| "bad JSON body: not UTF-8".to_string())?;
    json::parse(text).map_err(|e| format!("bad JSON body: {e}"))
}

/// `POST /api/repl/ack`: standby `standby` has applied everything up to
/// `lsn`. Touches only the ack hub, from an event loop or a worker.
fn record_ack(shared: &Shared, body: &Json) -> (u16, Json) {
    let ack = (|| Some((body.get("standby")?.as_str()?, body.get("lsn")?.as_f64()?)))();
    match ack {
        Some((who, lsn)) => {
            shared.repl_hub.record_ack(who, lsn as u64);
            (200, Json::object([("acked", Json::Bool(true))]))
        }
        None => (400, Json::object([("error", Json::str("ack needs 'standby' and 'lsn'"))])),
    }
}

/// A `/api/repl/*` answer: its status, content type and body.
type ReplAnswer = (u16, &'static str, Vec<u8>);

/// A JSON answer of the `/api/repl/*` routes.
fn repl_json(status: u16, body: Json) -> ReplAnswer {
    (status, http::JSON, body.to_string().into_bytes())
}

/// A `/api/repl/*` refusal: `status` and its reason.
fn repl_error(status: u16, message: String) -> ReplAnswer {
    repl_json(status, Json::object([("error", Json::str(message))]))
}

/// One poll of a record log (`wal.log` or `querylog.log`) from the byte
/// offset `from=` in `query`: a header frame of `header(reset)` (is the
/// file now shorter than `from`?), then up to [`repl::WAL_BATCH_LIMIT`]
/// record frames from `from` on, byte for byte as the file holds them.
/// It reads the file, never the service lock. A missing or malformed
/// `from` is refused with 400.
fn repl_tail(path: &Path, query: &str, header: impl FnOnce(bool) -> Json) -> ReplAnswer {
    let Some(from) = query
        .split('&')
        .find_map(|kv| kv.strip_prefix("from="))
        .and_then(|v| v.parse::<u64>().ok())
    else {
        return repl_error(400, "'from' must be a byte offset (a whole number)".into());
    };
    let tail = match sqlshare_core::read_tail(path, from) {
        Ok(tail) => tail,
        Err(e) => return repl_error(500, format!("{} read failed: {e}", path.display())),
    };
    let shipped = tail.ends.len().min(repl::WAL_BATCH_LIMIT);
    let end = shipped.checked_sub(1).map_or(from, |last| tail.ends[last]);
    let mut body = sqlshare_core::frame(header(tail.reset).to_string().as_bytes());
    body.extend_from_slice(&tail.frames[..(end - from) as usize]);
    (200, http::FRAMES, body)
}

/// The `/api/repl/*` control plane: WAL tail streaming, standby acks,
/// snapshot catch-up, and promote/demote.
fn execute_repl(shared: &Shared, method: Method, path: &str, body: &Json) -> ReplAnswer {
    let durable_only = || {
        repl_error(
            404,
            "replication requires durable mode (no data directory)".into(),
        )
    };
    let (route, query) = match path.split_once('?') {
        Some((r, q)) => (r, q),
        None => (path, ""),
    };
    let (status, body) = match (method, route) {
        // Lock-free by design: reads the journal file itself. Records
        // journaled by a commit that is still blocked waiting for its
        // quorum are already visible here — that is what lets the
        // standby confirm them and unblock the commit.
        (Method::Get, "/api/repl/wal") => {
            let Some(wal_path) = shared.wal_path.as_deref() else {
                return durable_only();
            };
            // Generation before content: if a snapshot resets the WAL
            // between the two reads, the follower sees fresh bytes
            // under the *old* generation and reseeds on its next poll —
            // the reverse order could stamp dead history with the new
            // generation and stall the stream.
            let wal_generation = sqlshare_core::wal_generation(wal_path);
            let epoch = shared.repl_epoch.load(Ordering::Relaxed);
            return repl_tail(wal_path, query, |reset| {
                Json::object([
                    ("reset", Json::Bool(reset)),
                    ("generation", Json::num(wal_generation as f64)),
                    ("epoch", Json::num(epoch as f64)),
                ])
            });
        }
        // The query log is a record log too, served the same lock-free
        // way. It is never reset, so `reset` means the follower's
        // cursor is from another life.
        (Method::Get, "/api/repl/querylog") => {
            let Some(path) = shared.querylog_path.as_deref() else {
                return durable_only();
            };
            return repl_tail(path, query, |reset| {
                Json::object([("reset", Json::Bool(reset))])
            });
        }
        // Worker-pool fallback for acks that arrive on a pipelined
        // connection (the event-loop fast path skips those).
        (Method::Post, "/api/repl/ack") => record_ack(shared, body),
        (Method::Get, "/api/repl/snapshot") => {
            let service = shared.service.read().unwrap_or_else(|e| e.into_inner());
            let document = service.replication_snapshot_bytes();
            return (200, http::FRAMES, sqlshare_core::frame(&document));
        }
        (Method::Post, "/api/repl/promote") => {
            let mut service = shared.service.write().unwrap_or_else(|e| e.into_inner());
            let epoch = service.promote();
            shared.repl_epoch.store(epoch, Ordering::Relaxed);
            (
                200,
                Json::object([
                    ("role", Json::str("primary")),
                    ("epoch", Json::num(epoch as f64)),
                ]),
            )
        }
        // Fence a deposed primary: adopt the cluster's current epoch
        // and stop taking writes. A *primary* steps down only for a
        // strictly newer lease — proof the demoter won (or learned of)
        // a promotion this node has not seen. Anything else is rejected:
        // an unauthenticated equal-or-stale epoch must not be able to
        // depose a healthy primary and leave the cluster writeless.
        (Method::Post, "/api/repl/demote") => {
            let epoch = body.get("epoch").and_then(Json::as_f64).unwrap_or(0.0) as u64;
            let mut service = shared.service.write().unwrap_or_else(|e| e.into_inner());
            if service.role() == Role::Primary && epoch <= service.epoch() {
                return repl_json(
                    409,
                    Json::object([
                        (
                            "error",
                            Json::str(format!(
                                "demote refused: epoch {epoch} does not supersede \
                                 this primary's lease epoch {}",
                                service.epoch()
                            )),
                        ),
                        ("role", Json::str("primary")),
                        ("epoch", Json::num(service.epoch() as f64)),
                    ]),
                );
            }
            service.demote(epoch);
            shared.repl_epoch.store(service.epoch(), Ordering::Relaxed);
            (
                200,
                Json::object([
                    ("role", Json::str("standby")),
                    ("epoch", Json::num(service.epoch() as f64)),
                ]),
            )
        }
        _ => return repl_error(404, "unknown replication route".into()),
    };
    repl_json(status, body)
}

/// Background at-rest integrity scrubber: budgeted sweeps over the data
/// directory (WAL, snapshots, query log), verifying checksums with
/// direct reads. Its progress is mirrored on `GET /api/integrity`, and
/// each finding goes to the service, which rewrites a rotted segment at
/// the next snapshot.
fn scrub_loop(shared: Arc<Shared>, config: ScrubConfig) {
    let scrubber = sqlshare_core::Scrubber::new(config, sqlshare_core::IoCounter::new());
    if let Some(dir) = shared.wal_path.as_deref().and_then(|p| p.parent()) {
        scrubber.add_root(dir);
    }
    let every = Duration::from_millis(config.every_ms.max(1));
    loop {
        // Bounded sleep so shutdown is prompt even on slow cadences.
        let deadline = Instant::now() + every;
        while Instant::now() < deadline {
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            std::thread::sleep(Duration::from_millis(25).min(every));
        }
        let findings = scrubber.tick();
        let service = shared.service.read().unwrap_or_else(|e| e.into_inner());
        service.integrity().set_scrub_status(scrubber.status());
        for f in &findings {
            service.note_scrub_finding(&f.path);
        }
    }
}
