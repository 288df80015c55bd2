//! The network server: one reactor thread multiplexing every connection
//! over epoll/kqueue, which serves requests inline, plus a small fixed
//! worker pool for the steps that would have to wait in the admission
//! gate.
//!
//! ## Division of labor
//!
//! The **reactor** owns every socket. It accepts, reads, frames, and
//! writes, and it runs a request itself whenever that cannot block:
//! [`NavService::try_dispatch`] serves `Ping`, `Open`, `Path` and `Close`
//! outright and admits a `Step` only if the admission gate has a free
//! permit. The response is queued and flushed at once, so an inline
//! request never crosses a thread and never changes the socket's
//! interest.
//!
//! **Workers** take only what the reactor could not run: a `Step` that
//! found every permit taken becomes a `Job` on the worker channel, the
//! connection parks in `Dispatching` (interest [`Interest::NONE`] —
//! level-triggered polling would otherwise spin on buffered bytes we
//! refuse to parse mid-flight), and a worker runs
//! [`NavService::dispatch`], which queues in the gate. The worker frames
//! the response, pushes it onto the completion queue and wakes the
//! reactor through the self-pipe. Workers never touch a socket, so there
//! is no locking around connection state at all — the reactor is the sole
//! owner. Both paths apply their result through the same completion step;
//! [`NetStats::pooled`] counts the requests that took the pool.
//!
//! ## Exactly-once steps
//!
//! Every envelope carries a client-chosen sequence number. The server
//! keeps a per-session cache of `(last seq, framed response)` and consults
//! it *before* dispatching: a resent `Step` (same session, same seq —
//! what the client does after a torn connection) returns the cached bytes
//! without re-applying the step. The cache entry is written **before**
//! the response is queued on the conn, on either path, so even
//! `net.conn_drop` (kill the conn after dispatch, before the write)
//! cannot lose a step: the reconnecting client resends, hits the cache,
//! and observes the bit-identical response it would have gotten the first
//! time.
//!
//! ## Backpressure, in layers
//!
//! 1. **Accept time**: past `max_conns`, the fresh socket gets a single
//!    `Overloaded{retry_after_ms}` frame and is closed — shed before any
//!    buffer, session, or gate resource is touched.
//! 2. **Admission gate**: an admitted connection's step still goes
//!    through [`NavService`]'s semaphore; a shed there comes back as the
//!    same first-class `Overloaded` wire frame, which the client's
//!    [`RetryPolicy`](dln_serve::RetryPolicy) already honors.
//! 3. **Idle TTL**: connections silent past `idle_ttl_ms` (by the
//!    injected [`Clock`], so tests drive it manually) are dropped; their
//!    sessions stay in the registry for the service's own TTL sweep, so a
//!    returning client can reconnect and continue the walk.
//!
//! ## Shutdown
//!
//! [`NetServer::shutdown`] stops accepting, drains pooled dispatches,
//! flushes pending responses (bounded), then closes every connection's
//! sessions through [`NavService::close_session`] — finalizing their
//! walks into the [`NavigationLog`](dln_org::NavigationLog) so feedback
//! evidence survives the restart.

use std::collections::HashMap;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use dln_fault::{failpoints, DlnError, DlnResult};
use dln_serve::{ApiRequest, ApiResponse, Clock, NavService, SessionId, WireError};

use crate::conn::{Conn, ConnState, ReadOutcome};
use crate::poller::{Event, Interest, Poller, Waker};
use crate::wire;

/// Failpoint: drop a freshly accepted socket before registering it.
pub const FP_ACCEPT_FAIL: &str = "net.accept_fail";
/// Failpoint: discard a readiness worth of input and tear the conn down
/// (the client sees EOF mid-request and must reconnect + resend).
pub const FP_READ_TORN: &str = "net.read_torn";
/// Failpoint: flush responses one byte per readiness edge, forcing the
/// partial-write resumption path.
pub const FP_WRITE_PARTIAL: &str = "net.write_partial";
/// Failpoint: after a step is dispatched *and cached*, drop the conn
/// without writing the response (keyed on session⊕seq, so the retried
/// request — a cache hit — is deterministically allowed through).
pub const FP_CONN_DROP: &str = "net.conn_drop";

/// Tuning knobs for [`NetServer`]. Every field has an environment
/// override so deployments configure the front-end without code.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Listen address (`DLN_LISTEN`, default `127.0.0.1:0` = ephemeral).
    pub addr: String,
    /// Connection cap; accepts past it are shed with an `Overloaded`
    /// frame (`DLN_NET_MAX_CONNS`, default 16384).
    pub max_conns: usize,
    /// Worker threads for steps that find the admission gate full
    /// (`DLN_NET_WORKERS`, default 2).
    pub workers: usize,
    /// Idle connection TTL in clock-ms; 0 disables the sweep
    /// (`DLN_NET_IDLE_TTL_MS`, default 0).
    pub idle_ttl_ms: u64,
    /// Per-frame payload cap in bytes (default [`wire::MAX_FRAME_LEN`]).
    pub max_frame_len: u32,
    /// The retry hint attached to accept-time `Overloaded` sheds.
    pub shed_retry_after_ms: u64,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            addr: "127.0.0.1:0".to_string(),
            max_conns: 16384,
            workers: 2,
            idle_ttl_ms: 0,
            max_frame_len: wire::MAX_FRAME_LEN,
            shed_retry_after_ms: 50,
        }
    }
}

fn env_parse<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

impl NetConfig {
    /// Build a config from `DLN_LISTEN` / `DLN_NET_MAX_CONNS` /
    /// `DLN_NET_WORKERS` / `DLN_NET_IDLE_TTL_MS`, falling back to the
    /// defaults above for anything unset or unparseable.
    pub fn from_env() -> NetConfig {
        let d = NetConfig::default();
        NetConfig {
            addr: std::env::var("DLN_LISTEN").unwrap_or(d.addr),
            max_conns: env_parse("DLN_NET_MAX_CONNS", d.max_conns),
            workers: env_parse("DLN_NET_WORKERS", d.workers).max(1),
            idle_ttl_ms: env_parse("DLN_NET_IDLE_TTL_MS", d.idle_ttl_ms),
            max_frame_len: d.max_frame_len,
            shed_retry_after_ms: d.shed_retry_after_ms,
        }
    }
}

/// Counters the benchmark and tests read; all monotonic.
#[derive(Debug, Default)]
pub struct NetStats {
    /// Connections accepted and registered.
    pub accepted: AtomicU64,
    /// Accepts shed at the `max_conns` cap.
    pub shed_accepts: AtomicU64,
    /// Requests dispatched, inline or through the worker pool (cache hits
    /// included).
    pub requests: AtomicU64,
    /// Requests handed to the worker pool because the admission gate had
    /// no free permit for them.
    pub pooled: AtomicU64,
    /// Step retries answered from the exactly-once cache.
    pub dedup_hits: AtomicU64,
    /// Connections torn down by error, EOF, failpoint, or idle TTL.
    pub closed: AtomicU64,
    /// Connections reaped by the idle-TTL sweep specifically.
    pub idle_reaped: AtomicU64,
}

/// One decoded request: served inline on the reactor, or in flight from
/// the reactor to the worker pool.
struct Job {
    token: u64,
    seq: u64,
    req: ApiRequest,
}

/// One finished dispatch, applied to its conn by the reactor.
struct Completion {
    token: u64,
    /// Fully framed response bytes; `None` when `drop_conn` is set.
    framed: Option<Vec<u8>>,
    /// Session to start tracking on this conn (an `Opened` response).
    opened: Option<SessionId>,
    /// Session to stop tracking (a `Close` request, whatever its result).
    closed: Option<SessionId>,
    /// `net.conn_drop` fired: tear the conn down instead of responding.
    drop_conn: bool,
}

type Cache = Mutex<HashMap<u64, (u64, Vec<u8>)>>;

/// The running network front-end. Dropping it without calling
/// [`shutdown`](NetServer::shutdown) aborts the reactor without session
/// finalization — call `shutdown` for the graceful path.
pub struct NetServer {
    local_addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    waker: Arc<Waker>,
    reactor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    stats: Arc<NetStats>,
}

impl NetServer {
    /// Bind, spawn the reactor + worker pool, and start serving `svc`.
    pub fn start(
        svc: Arc<NavService>,
        config: NetConfig,
        clock: Arc<dyn Clock>,
    ) -> DlnResult<NetServer> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| DlnError::io(format!("net bind {}", config.addr), e))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| DlnError::io("net listener nonblocking", e))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| DlnError::io("net local_addr", e))?;

        let stop = Arc::new(AtomicBool::new(false));
        let waker = Arc::new(Waker::new()?);
        let stats = Arc::new(NetStats::default());
        let cache: Arc<Cache> = Arc::new(Mutex::new(HashMap::new()));
        let completions: Arc<Mutex<Vec<Completion>>> = Arc::new(Mutex::new(Vec::new()));

        let (job_tx, job_rx) = channel::<Job>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let mut workers = Vec::with_capacity(config.workers.max(1));
        for i in 0..config.workers.max(1) {
            let svc = Arc::clone(&svc);
            let rx = Arc::clone(&job_rx);
            let completions = Arc::clone(&completions);
            let waker = Arc::clone(&waker);
            let cache = Arc::clone(&cache);
            let stats = Arc::clone(&stats);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("dln-net-worker-{i}"))
                    .spawn(move || worker_loop(svc, rx, completions, waker, cache, stats))
                    .map_err(|e| DlnError::io("net spawn worker", e))?,
            );
        }

        let reactor = {
            let stop = Arc::clone(&stop);
            let waker = Arc::clone(&waker);
            let stats = Arc::clone(&stats);
            let cache = Arc::clone(&cache);
            let completions = Arc::clone(&completions);
            let config = config.clone();
            std::thread::Builder::new()
                .name("dln-net-reactor".to_string())
                .spawn(move || {
                    let mut r = Reactor {
                        listener,
                        poller: match Poller::new() {
                            Ok(p) => p,
                            Err(_) => return, // no poller, no server
                        },
                        waker,
                        conns: HashMap::new(),
                        next_token: 2,
                        svc,
                        clock,
                        config,
                        stop,
                        stats,
                        cache,
                        completions,
                        job_tx,
                    };
                    r.run();
                })
                .map_err(|e| DlnError::io("net spawn reactor", e))?
        };

        Ok(NetServer {
            local_addr,
            stop,
            waker,
            reactor: Some(reactor),
            workers,
            stats,
        })
    }

    /// The bound address (resolves the `:0` ephemeral port).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// Serving counters.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Graceful shutdown: stop accepting, drain pooled dispatches,
    /// flush pending responses, finalize every connection's sessions into
    /// the navigation log, then join the reactor and workers.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
        if let Some(h) = self.reactor.take() {
            let _ = h.join();
        }
        // The reactor dropped the job sender on exit; workers drain the
        // channel and stop.
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
        if let Some(h) = self.reactor.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;

struct Reactor {
    listener: TcpListener,
    poller: Poller,
    waker: Arc<Waker>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    svc: Arc<NavService>,
    clock: Arc<dyn Clock>,
    config: NetConfig,
    stop: Arc<AtomicBool>,
    stats: Arc<NetStats>,
    cache: Arc<Cache>,
    completions: Arc<Mutex<Vec<Completion>>>,
    job_tx: Sender<Job>,
}

impl Reactor {
    fn run(&mut self) {
        if self
            .poller
            .register(self.listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)
            .is_err()
        {
            return;
        }
        if self
            .poller
            .register(self.waker.read_fd(), TOKEN_WAKER, Interest::READ)
            .is_err()
        {
            return;
        }

        let mut events: Vec<Event> = Vec::new();
        while !self.stop.load(Ordering::SeqCst) {
            events.clear();
            // 100 ms cap so the idle sweep and stop flag are checked even
            // on a completely quiet socket set.
            if self.poller.wait(100, &mut events).is_err() {
                break;
            }
            let drained: Vec<Event> = std::mem::take(&mut events);
            for ev in drained {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKER => {
                        self.waker.drain();
                        self.apply_completions();
                    }
                    token => self.conn_ready(token, &ev),
                }
            }
            // Completions can land while we were busy with socket events.
            self.apply_completions();
            self.sweep_idle();
        }
        self.graceful_drain();
    }

    fn now(&self) -> u64 {
        self.clock.now()
    }

    // -- accept path ------------------------------------------------------

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => self.admit(stream),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn admit(&mut self, stream: TcpStream) {
        if failpoints::should_fail(FP_ACCEPT_FAIL) {
            // Injected accept failure: the socket evaporates before the
            // client's first request; the client reconnects.
            self.stats.closed.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if self.conns.len() >= self.config.max_conns {
            self.shed(stream);
            return;
        }
        if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
            return;
        }
        let token = self.next_token;
        self.next_token += 1;
        if self
            .poller
            .register(stream.as_raw_fd(), token, Interest::READ)
            .is_err()
        {
            return;
        }
        self.conns
            .insert(token, Conn::new(stream, self.now(), token));
        self.stats.accepted.fetch_add(1, Ordering::Relaxed);
    }

    /// Over the connection cap: one `Overloaded` frame, then close. The
    /// socket is fresh (empty send buffer), so a best-effort blocking-ish
    /// write of a ~30-byte frame cannot meaningfully stall the reactor.
    fn shed(&mut self, mut stream: TcpStream) {
        self.stats.shed_accepts.fetch_add(1, Ordering::Relaxed);
        let resp = ApiResponse::Error(WireError::Overloaded {
            retry_after_ms: self.config.shed_retry_after_ms,
        });
        let payload = wire::encode_response(0, &resp);
        let mut framed = Vec::new();
        wire::encode_frame(&payload, &mut framed);
        let _ = stream.write_all(&framed);
    }

    // -- conn events ------------------------------------------------------

    fn conn_ready(&mut self, token: u64, ev: &Event) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return; // already torn down this tick
        };
        if ev.writable && conn.state == ConnState::Writing && self.flush(token) {
            self.serve_buffered(token);
        }
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if ev.readable && conn.state == ConnState::Idle {
            self.read(token);
        }
    }

    fn read(&mut self, token: u64) {
        let now = self.now();
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if failpoints::should_fail(FP_READ_TORN) {
            // Injected torn read: the bytes are gone and so is the conn.
            // The client's recovery is reconnect + resend (the dedup cache
            // makes the resend exactly-once).
            self.teardown(token, false);
            return;
        }
        match conn.read_ready(self.config.max_frame_len, now) {
            ReadOutcome::Incomplete => {}
            ReadOutcome::Frame(payload) => {
                if self.dispatch_frame(token, payload) {
                    self.serve_buffered(token);
                }
            }
            ReadOutcome::Eof => self.teardown(token, false),
            ReadOutcome::Broken(_e) => self.teardown(token, false),
        }
    }

    /// Serve one request frame. It runs inline, here on the reactor,
    /// whenever it needs no admission permit or one is free; only a `Step`
    /// that finds the gate full parks the conn and goes to the worker
    /// pool, where `dispatch` queues in the gate. Returns true when the
    /// response is written in full and the conn is idle again.
    fn dispatch_frame(&mut self, token: u64, payload: Vec<u8>) -> bool {
        let (seq, req) = match wire::decode_request(&payload, "net request") {
            Ok(x) => x,
            Err(_) => {
                // Framing held but the payload is garbage: unrecoverable
                // for this conn (we cannot even answer with the right seq).
                self.teardown(token, false);
                return false;
            }
        };
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        let job = Job { token, seq, req };
        let svc = &self.svc;
        if let Some(c) = serve_one(&self.cache, &self.stats, &job, |req| svc.try_dispatch(req)) {
            return self.apply_completion(c);
        }
        // Gate full: park the descriptor — level-triggered READ on bytes
        // we refuse to parse mid-dispatch would spin the loop.
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.state = ConnState::Dispatching;
        }
        self.set_interest(token, Interest::NONE);
        self.stats.pooled.fetch_add(1, Ordering::Relaxed);
        if self.job_tx.send(job).is_err() {
            self.teardown(token, false);
        }
        false
    }

    /// Serve the pipelined requests already buffered on an idle conn, one
    /// after another, until one goes to the pool, a write blocks, or no
    /// complete frame is left. A loop rather than recursion through
    /// `flush`, so a burst of frames cannot grow the reactor's stack.
    fn serve_buffered(&mut self, token: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            match conn.next_buffered_frame(self.config.max_frame_len) {
                ReadOutcome::Frame(payload) => {
                    if !self.dispatch_frame(token, payload) {
                        return;
                    }
                }
                ReadOutcome::Broken(_) => {
                    self.teardown(token, false);
                    return;
                }
                _ => return,
            }
        }
    }

    /// Flush the queued response. Returns true when it is out in full and
    /// the conn is idle (interest READ) again.
    fn flush(&mut self, token: u64) -> bool {
        let now = self.now();
        let Some(conn) = self.conns.get_mut(&token) else {
            return false;
        };
        let chunk = if failpoints::should_fail(FP_WRITE_PARTIAL) {
            1
        } else {
            usize::MAX
        };
        match conn.write_ready(now, chunk) {
            Ok(true) => {
                if conn.close_after_write {
                    self.teardown(token, false);
                    return false;
                }
                self.set_interest(token, Interest::READ);
                true
            }
            Ok(false) => {
                self.set_interest(token, Interest::WRITE);
                false
            }
            Err(_) => {
                self.teardown(token, false);
                false
            }
        }
    }

    /// Point the conn's registration at `interest`, skipping the syscall
    /// when it already is: an inline dispatch whose response flushes at
    /// once never leaves READ.
    fn set_interest(&mut self, token: u64, interest: Interest) {
        if let Some(conn) = self.conns.get_mut(&token) {
            if conn.interest != interest {
                conn.interest = interest;
                let _ = self.poller.modify(conn.stream.as_raw_fd(), token, interest);
            }
        }
    }

    // -- completions ------------------------------------------------------

    /// Apply one finished dispatch — inline or from the pool — to its
    /// conn: session bookkeeping, then queue and flush the response.
    /// Returns true when the response is out in full and the conn is idle.
    fn apply_completion(&mut self, c: Completion) -> bool {
        let Some(conn) = self.conns.get_mut(&c.token) else {
            // The conn died while its request was in flight (torn read,
            // idle reap). Session bookkeeping still applies to nothing —
            // the session itself lives in the registry and will be
            // reclaimed by the service TTL sweep.
            return false;
        };
        if let Some(sid) = c.opened {
            conn.sessions.insert(sid);
        }
        if let Some(sid) = c.closed {
            conn.sessions.remove(&sid);
        }
        if c.drop_conn {
            // net.conn_drop: the response exists in the dedup cache but
            // the conn dies before the write.
            self.teardown(c.token, false);
            return false;
        }
        match c.framed {
            Some(framed) => {
                conn.queue_response(framed);
                self.flush(c.token)
            }
            None => false,
        }
    }

    fn apply_completions(&mut self) {
        let batch: Vec<Completion> = {
            let mut q = match self.completions.lock() {
                Ok(q) => q,
                Err(_) => return,
            };
            std::mem::take(&mut *q)
        };
        for c in batch {
            let token = c.token;
            if self.apply_completion(c) {
                self.serve_buffered(token);
            }
        }
    }

    // -- lifecycle --------------------------------------------------------

    fn sweep_idle(&mut self) {
        if self.config.idle_ttl_ms == 0 {
            return;
        }
        let now = self.now();
        let ttl = self.config.idle_ttl_ms;
        let stale: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                c.state == ConnState::Idle && now.saturating_sub(c.last_active_ms) > ttl
            })
            .map(|(t, _)| *t)
            .collect();
        for token in stale {
            self.stats.idle_reaped.fetch_add(1, Ordering::Relaxed);
            self.teardown(token, false);
        }
    }

    /// Remove a connection. With `finalize`, close its sessions into the
    /// navigation log (graceful shutdown); without, sessions stay in the
    /// registry for the service TTL sweep — the contract that lets a
    /// client reconnect after a torn connection and continue its walk.
    fn teardown(&mut self, token: u64, finalize: bool) {
        let Some(conn) = self.conns.remove(&token) else {
            return;
        };
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        if finalize {
            for sid in &conn.sessions {
                let _ = self.svc.close_session(*sid);
                if let Ok(mut cache) = self.cache.lock() {
                    cache.remove(&sid.0);
                }
            }
        }
        self.stats.closed.fetch_add(1, Ordering::Relaxed);
        // Socket closes on drop.
    }

    /// The graceful path: no new accepts (loop already exited), drain
    /// in-flight dispatches, flush what can be flushed, finalize sessions.
    fn graceful_drain(&mut self) {
        let _ = self.poller.deregister(self.listener.as_raw_fd());
        // Bounded drain: wait for every Dispatching conn's completion.
        let mut spins = 0;
        while self
            .conns
            .values()
            .any(|c| c.state == ConnState::Dispatching)
            && spins < 600
        {
            let mut events = Vec::new();
            let _ = self.poller.wait(10, &mut events);
            self.waker.drain();
            self.apply_completions();
            spins += 1;
        }
        // Best-effort flush of pending responses.
        let now = self.now();
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            if let Some(conn) = self.conns.get_mut(&token) {
                if conn.has_pending_write() {
                    let _ = conn.write_ready(now, usize::MAX);
                }
            }
        }
        // Finalize every surviving connection's sessions.
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.teardown(token, true);
        }
        // job_tx drops with self: workers see a closed channel and exit.
    }
}

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

fn worker_loop(
    svc: Arc<NavService>,
    rx: Arc<Mutex<Receiver<Job>>>,
    completions: Arc<Mutex<Vec<Completion>>>,
    waker: Arc<Waker>,
    cache: Arc<Cache>,
    stats: Arc<NetStats>,
) {
    loop {
        let job = {
            let Ok(guard) = rx.lock() else { break };
            guard.recv()
        };
        let Ok(job) = job else { break };
        let completion = serve_one(&cache, &stats, &job, |req| Some(svc.dispatch(req)));
        if let Ok(mut q) = completions.lock() {
            q.extend(completion);
        }
        waker.wake();
    }
}

/// Serve one request: replay a cached step response, or run `dispatch`
/// and frame what it returns. `None` only when `dispatch` declines (the
/// inline path found the admission gate full); nothing has run then, so
/// the job can go to the worker pool unchanged.
fn serve_one(
    cache: &Cache,
    stats: &NetStats,
    job: &Job,
    dispatch: impl FnOnce(&ApiRequest) -> Option<ApiResponse>,
) -> Option<Completion> {
    let mut completion = Completion {
        token: job.token,
        framed: None,
        opened: None,
        closed: None,
        drop_conn: false,
    };

    // Exactly-once: a resent Step (same session, same seq) replays the
    // cached response instead of re-applying the step.
    let step_session = match &job.req {
        ApiRequest::Step { session, .. } => Some(*session),
        _ => None,
    };
    if let Some(session) = step_session {
        if let Ok(cache) = cache.lock() {
            if let Some((seq, framed)) = cache.get(&session.0) {
                if *seq == job.seq {
                    stats.dedup_hits.fetch_add(1, Ordering::Relaxed);
                    completion.framed = Some(framed.clone());
                    return Some(completion);
                }
            }
        }
    }

    let resp = dispatch(&job.req)?;

    // Session bookkeeping for graceful-shutdown finalization.
    match (&job.req, &resp) {
        (_, ApiResponse::Opened { session }) => completion.opened = Some(*session),
        (ApiRequest::Close { session }, _) => completion.closed = Some(*session),
        _ => {}
    }

    let payload = wire::encode_response(job.seq, &resp);
    let mut framed = Vec::new();
    wire::encode_frame(&payload, &mut framed);

    if let Some(session) = step_session {
        let gone = matches!(
            resp,
            ApiResponse::Error(WireError::SessionNotFound { .. })
                | ApiResponse::Error(WireError::SessionExpired { .. })
        );
        if let Ok(mut cache) = cache.lock() {
            if gone {
                cache.remove(&session.0);
            } else {
                // Store BEFORE the write attempt: this ordering is what
                // makes net.conn_drop recoverable without replaying.
                cache.insert(session.0, (job.seq, framed.clone()));
            }
        }
        // Keyed on (session ⊕ rotated seq): deterministic in the request
        // identity, independent of thread interleaving. Fires only on the
        // first application (a retry is a cache hit and returns above),
        // so a dropped conn cannot loop forever.
        if !gone && failpoints::should_fail_keyed(FP_CONN_DROP, session.0 ^ job.seq.rotate_left(32))
        {
            completion.drop_conn = true;
            return Some(completion);
        }
    }
    if let (ApiRequest::Close { session }, ApiResponse::Closed { .. }) = (&job.req, &resp) {
        if let Ok(mut cache) = cache.lock() {
            cache.remove(&session.0);
        }
    }

    completion.framed = Some(framed);
    Some(completion)
}
