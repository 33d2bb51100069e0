//! The `memhierd` server: a readiness-driven **event loop** front end
//! feeding a bounded job queue drained by a fixed worker pool.
//!
//! One nonblocking thread owns the listener and every connection
//! (multiplexed through the hermetic `polling` shim over epoll /
//! poll(2)); connections are **keep-alive** by default and requests may
//! be **pipelined**.  The split of labor is strict:
//!
//! * the event loop parses requests incrementally and answers
//!   everything cheap inline — health and readiness probes, `/metrics`,
//!   routing and parse errors, and **cache hits** — so hit traffic
//!   never touches a worker thread;
//! * only genuine cache misses (and `/v1/fit`) are handed to the
//!   worker pool through the bounded queue, one in flight per
//!   connection so pipelined responses stay ordered.
//!
//! Degradation is tiered.  Fresh hits are always served.  Entries past
//! `cache_ttl` are served **stale immediately** (`X-Cache: stale`) with
//! a single-flight background revalidation dispatched only while the
//! queue is below half capacity — under load the refresh itself is the
//! first thing shed.  A miss that finds the queue full is answered
//! `429` + `Retry-After` on the spot.  Slow clients cannot wedge the
//! loop: a connection that stalls mid-request is answered `408` at
//! `read_timeout` (the slowloris defense), an idle keep-alive
//! connection is closed at `keepalive_timeout`, and a connection that
//! stops draining its responses is dropped.
//!
//! Workers are owned by a **supervisor** thread: if one dies (an
//! injected `serve:panic` fault), the supervisor respawns it and the
//! job it held is **requeued** by a drop guard — the client's in-flight
//! request survives the respawn instead of seeing a reset.  A job that
//! keeps killing workers is abandoned with a 500 after
//! [`MAX_JOB_ATTEMPTS`] tries, so an always-firing panic rule cannot
//! spin the pool forever.
//!
//! Shutdown is a drain: [`Server::begin_drain`] flips `/readyz` to 503
//! (the load-balancer signal) while traffic continues; [`Server::shutdown`]
//! then closes the listener, finishes every in-flight and buffered
//! pipelined request — final responses switch to `connection: close` —
//! and joins all threads.

use crate::api::{compute_response, revalidate, route_fast, AppState, FastRoute};
use crate::http::{timeout_error, try_parse, Request, Response};
use memhier_bench::{FaultAction, FaultPlan, FaultSite};
use polling::{Event, Events, Poller};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often the supervisor scans for dead workers.
const SUPERVISOR_POLL: Duration = Duration::from_millis(10);

/// Event-loop timer granularity (read/idle deadlines are enforced on
/// this tick; they are coarse bounds, not precision timers).
const TICK: Duration = Duration::from_millis(20);

/// Poller key of the listener; connection keys start above it.
const LISTENER_KEY: usize = 0;

/// Times a job may be requeued after killing its worker before the
/// server gives up and answers 500.
pub const MAX_JOB_ATTEMPTS: u32 = 3;

/// Tunables for one [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port `0` picks an ephemeral port.
    pub addr: String,
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Queued-but-unserved misses allowed before 429s start.
    pub queue_depth: usize,
    /// Per-request compute deadline, measured from parse.
    pub timeout: Duration,
    /// Response-cache entry budget.
    pub cache_capacity: usize,
    /// Response-cache shard count.
    pub cache_shards: usize,
    /// How long a connection may take to deliver one complete request
    /// before it is answered 408 (slowloris defense).
    pub read_timeout: Duration,
    /// How long an idle keep-alive connection is kept open.
    pub keepalive_timeout: Duration,
    /// Age past which a cached response is considered stale and served
    /// under stale-while-revalidate (`None`: entries never go stale).
    pub cache_ttl: Option<Duration>,
    /// Deterministic fault injection for the `serve` site (empty = off).
    pub faults: FaultPlan,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7070".to_string(),
            workers: 4,
            queue_depth: 64,
            timeout: Duration::from_secs(10),
            cache_capacity: 256,
            cache_shards: 8,
            read_timeout: Duration::from_secs(10),
            keepalive_timeout: Duration::from_secs(30),
            cache_ttl: None,
            faults: FaultPlan::default(),
        }
    }
}

/// One unit of worker-pool work.
enum Work {
    /// A cache miss owed a response on connection `token`.
    Request {
        /// Event-loop key of the owning connection.
        token: usize,
        /// The parsed request.
        req: Request,
        /// Memoization key (`None` for `/v1/fit`).
        key: Option<String>,
        /// When the request was parsed (latency + deadline basis).
        started: Instant,
        /// How many workers have already died holding this job.
        attempts: u32,
    },
    /// A background stale-entry refresh; nobody is waiting on it.
    Revalidate {
        /// The request to recompute.
        req: Request,
        /// Cache key to refresh.
        key: String,
    },
}

/// A finished [`Work::Request`] traveling back to the event loop.
struct Completion {
    token: usize,
    response: Response,
    started: Instant,
}

type Queue = Arc<(Mutex<VecDeque<Work>>, Condvar)>;

/// Everything a worker (or the supervisor respawning one) needs.
struct WorkerShared {
    state: Arc<AppState>,
    /// Worker-pool stop flag — raised only *after* the event loop has
    /// drained, so late-dispatched jobs are never stranded.
    workers_stop: Arc<AtomicBool>,
    queue: Queue,
    completions: Arc<Mutex<Vec<Completion>>>,
    poller: Arc<Poller>,
    timeout: Duration,
    faults: FaultPlan,
    /// Fault decision sequence for the `serve` site: one index per
    /// popped job, in pop order.
    serve_seq: AtomicU64,
}

fn lock_queue(queue: &Queue) -> std::sync::MutexGuard<'_, VecDeque<Work>> {
    queue.0.lock().unwrap_or_else(|poison| poison.into_inner())
}

fn lock_completions(c: &Mutex<Vec<Completion>>) -> std::sync::MutexGuard<'_, Vec<Completion>> {
    c.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// A running `memhierd` instance.
pub struct Server {
    local_addr: SocketAddr,
    /// State, queue, poller and stop flag shared with the workers.
    shared: Arc<WorkerShared>,
    stop: Arc<AtomicBool>,
    event_loop: Option<JoinHandle<()>>,
    supervisor: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind `config.addr` and start the event loop plus supervised
    /// worker pool.
    pub fn start(config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let workers = config.workers.max(1);
        let queue_depth = config.queue_depth.max(1);
        let state = Arc::new(AppState::new(
            config.cache_capacity.max(1),
            config.cache_shards.max(1),
            queue_depth,
            workers,
        ));
        let stop = Arc::new(AtomicBool::new(false));
        let workers_stop = Arc::new(AtomicBool::new(false));
        let queue: Queue = Arc::new((Mutex::new(VecDeque::new()), Condvar::new()));
        let completions = Arc::new(Mutex::new(Vec::new()));
        let poller = Arc::new(Poller::new()?);
        poller.add(&listener, Event::readable(LISTENER_KEY))?;

        let shared = Arc::new(WorkerShared {
            state: Arc::clone(&state),
            workers_stop: Arc::clone(&workers_stop),
            queue: Arc::clone(&queue),
            completions: Arc::clone(&completions),
            poller: Arc::clone(&poller),
            timeout: config.timeout,
            faults: config.faults.clone(),
            serve_seq: AtomicU64::new(0),
        });
        let worker_handles = (0..workers)
            .map(|i| spawn_worker(i, &shared))
            .collect::<io::Result<Vec<_>>>()?;
        let supervisor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("memhierd-supervisor".to_string())
                .spawn(move || supervise(&shared, worker_handles))?
        };

        let event_loop = {
            let mut el = EventLoop {
                listener,
                poller: Arc::clone(&poller),
                state: Arc::clone(&state),
                stop: Arc::clone(&stop),
                queue: Arc::clone(&queue),
                completions,
                conns: HashMap::new(),
                next_key: LISTENER_KEY + 1,
                queue_depth,
                read_timeout: config.read_timeout,
                keepalive_timeout: config.keepalive_timeout,
                cache_ttl: config.cache_ttl,
                accepting: true,
            };
            std::thread::Builder::new()
                .name("memhierd-eventloop".to_string())
                .spawn(move || el.run())?
        };

        state.set_ready();
        Ok(Server {
            local_addr,
            shared,
            stop,
            event_loop: Some(event_loop),
            supervisor: Some(supervisor),
        })
    }

    /// The bound address (resolves port `0` to the real ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shared cache/metrics state (used by tests and the CLI's
    /// shutdown report).
    pub fn state(&self) -> &AppState {
        &self.shared.state
    }

    /// Announce shutdown without taking it: `/readyz` flips to 503 so
    /// load balancers drain this instance, while every other endpoint
    /// keeps serving.  Call [`Server::shutdown`] after the grace window.
    pub fn begin_drain(&self) {
        self.shared.state.begin_drain();
    }

    /// Stop accepting, finish every in-flight and buffered request,
    /// and join every thread.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if self.event_loop.is_none() {
            return;
        }
        self.shared.state.begin_drain();
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.shared.poller.notify();
        if let Some(h) = self.event_loop.take() {
            let _ = h.join();
        }
        // Only now may the workers exit: the event loop has drained, so
        // no Work::Request can still be enqueued behind their backs.
        self.shared.workers_stop.store(true, Ordering::SeqCst);
        self.shared.queue.1.notify_all();
        if let Some(h) = self.supervisor.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Per-connection state owned by the event loop.
struct Conn {
    stream: TcpStream,
    /// Inbound bytes not yet parsed into a request.
    buf: Vec<u8>,
    /// Outbound bytes not yet accepted by the socket.
    out: Vec<u8>,
    /// A worker owes this connection a response (at most one, so
    /// pipelined responses keep request order).
    busy: bool,
    /// Stop parsing and close once `out` drains (client sent
    /// `Connection: close`, or framing was lost to a 400/408).
    close_requested: bool,
    /// The peer's read side is gone (EOF seen).
    peer_closed: bool,
    /// When the partial request at the front of `buf` started arriving.
    req_started: Option<Instant>,
    /// Last moment bytes moved in either direction.
    last_activity: Instant,
    /// Requests served on this connection (for `keepalive_reuses`).
    served: u64,
    /// Interest currently registered with the poller.
    interest: (bool, bool),
}

struct EventLoop {
    listener: TcpListener,
    poller: Arc<Poller>,
    state: Arc<AppState>,
    stop: Arc<AtomicBool>,
    queue: Queue,
    completions: Arc<Mutex<Vec<Completion>>>,
    conns: HashMap<usize, Conn>,
    next_key: usize,
    queue_depth: usize,
    read_timeout: Duration,
    keepalive_timeout: Duration,
    cache_ttl: Option<Duration>,
    accepting: bool,
}

impl EventLoop {
    fn run(&mut self) {
        let mut events = Events::new();
        loop {
            if self.poller.wait(&mut events, Some(TICK)).is_err() {
                // A failed wait would spin; back off instead of burning
                // a core, and let the timer logic still run.
                std::thread::sleep(TICK);
            }
            let draining = self.stop.load(Ordering::SeqCst);
            if draining && self.accepting {
                self.accepting = false;
                let _ = self.poller.delete(&self.listener);
            }
            let keys: Vec<(usize, bool, bool)> = events
                .iter()
                .map(|ev| (ev.key, ev.readable, ev.writable))
                .collect();
            for (key, readable, writable) in keys {
                if key == LISTENER_KEY {
                    self.accept_ready();
                } else {
                    self.conn_event(key, readable, writable, draining);
                }
            }
            self.drain_completions(draining);
            self.timer_pass(draining);
            if draining && self.conns.is_empty() {
                return;
            }
        }
    }

    fn accept_ready(&mut self) {
        while self.accepting {
            match self.listener.accept() {
                Ok((stream, _)) => self.register_conn(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
    }

    fn register_conn(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        self.state.metrics.on_accept();
        let key = self.next_key;
        // Skip the reserved listener and notify keys on wraparound.
        self.next_key = match self.next_key.wrapping_add(1) {
            k if k == usize::MAX || k == LISTENER_KEY => LISTENER_KEY + 1,
            k => k,
        };
        if self.poller.add(&stream, Event::readable(key)).is_err() {
            return;
        }
        self.state
            .metrics
            .connections_open
            .fetch_add(1, Ordering::Relaxed);
        self.conns.insert(
            key,
            Conn {
                stream,
                buf: Vec::new(),
                out: Vec::new(),
                busy: false,
                close_requested: false,
                peer_closed: false,
                req_started: None,
                last_activity: Instant::now(),
                served: 0,
                interest: (true, false),
            },
        );
    }

    fn close_conn(&mut self, key: usize) {
        if let Some(conn) = self.conns.remove(&key) {
            let _ = self.poller.delete(&conn.stream);
            let _ = conn.stream.shutdown(Shutdown::Both);
            self.state
                .metrics
                .connections_open
                .fetch_sub(1, Ordering::Relaxed);
        }
    }

    fn conn_event(&mut self, key: usize, readable: bool, writable: bool, draining: bool) {
        if readable && !self.read_ready(key) {
            return; // connection closed
        }
        if writable {
            self.flush(key);
        }
        self.advance(key, draining);
    }

    /// Pull everything the socket has.  Returns `false` when the
    /// connection was torn down.
    fn read_ready(&mut self, key: usize) -> bool {
        let Some(conn) = self.conns.get_mut(&key) else {
            return false;
        };
        if conn.busy || conn.close_requested {
            // Backpressure: leave pipelined bytes in the kernel buffer
            // until the in-flight response lands.
            return true;
        }
        let mut chunk = [0u8; 4096];
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.peer_closed = true;
                    break;
                }
                Ok(n) => {
                    if conn.buf.is_empty() {
                        conn.req_started = Some(Instant::now());
                    }
                    conn.buf.extend_from_slice(&chunk[..n]);
                    conn.last_activity = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(key);
                    return false;
                }
            }
        }
        true
    }

    /// Parse-and-answer until the buffer has no complete request, then
    /// flush, apply close rules, and re-register interest.
    fn advance(&mut self, key: usize, draining: bool) {
        self.process_buffer(key, draining);
        self.flush(key);
        let Some(conn) = self.conns.get_mut(&key) else {
            return;
        };
        let flushed = !conn.busy && conn.out.is_empty();
        if flushed
            && (conn.close_requested || conn.peer_closed || (draining && !has_parseable(&conn.buf)))
        {
            self.close_conn(key);
            return;
        }
        self.update_interest(key, draining);
    }

    fn process_buffer(&mut self, key: usize, draining: bool) {
        loop {
            let Some(conn) = self.conns.get_mut(&key) else {
                return;
            };
            if conn.busy || conn.close_requested {
                return;
            }
            match try_parse(&conn.buf) {
                Ok(None) => {
                    if conn.buf.is_empty() {
                        conn.req_started = None;
                    }
                    return;
                }
                Err(e) => {
                    // Framing is lost; answer and close.
                    let started = conn.req_started.take().unwrap_or_else(Instant::now);
                    conn.buf.clear();
                    conn.close_requested = true;
                    let response = Response::error(e.status, &e.message);
                    self.state
                        .metrics
                        .on_complete(response.status, started.elapsed());
                    self.enqueue_response(key, response, draining);
                    return;
                }
                Ok(Some((req, consumed))) => {
                    conn.buf.drain(..consumed);
                    let started = conn.req_started.take().unwrap_or_else(Instant::now);
                    if !conn.buf.is_empty() {
                        conn.req_started = Some(Instant::now());
                    }
                    conn.served += 1;
                    if conn.served > 1 {
                        self.state.metrics.on_keepalive_reuse();
                    }
                    if req.wants_close() {
                        conn.close_requested = true;
                    }
                    self.dispatch(key, req, started, draining);
                }
            }
        }
    }

    /// Route one parsed request: answer inline, or hand it to the pool.
    fn dispatch(&mut self, key: usize, req: Request, started: Instant, draining: bool) {
        let depth = lock_queue(&self.queue).len();
        let allow_revalidate = depth < self.queue_depth.div_ceil(2);
        match route_fast(&req, &self.state, self.cache_ttl, allow_revalidate) {
            FastRoute::Done(response) => {
                self.state
                    .metrics
                    .on_complete(response.status, started.elapsed());
                self.enqueue_response(key, response, draining);
            }
            FastRoute::StaleRevalidate { response, key: ck } => {
                self.state
                    .metrics
                    .on_complete(response.status, started.elapsed());
                self.enqueue_response(key, response, draining);
                self.push_work(Work::Revalidate { req, key: ck });
            }
            FastRoute::Miss { key: ck } => {
                if depth >= self.queue_depth {
                    // The shedding tier of last resort.
                    self.state.metrics.on_reject_busy();
                    let response = Response::error(429, "admission queue full, retry shortly")
                        .with_header("Retry-After", "1");
                    self.enqueue_response(key, response, draining);
                    return;
                }
                if let Some(conn) = self.conns.get_mut(&key) {
                    conn.busy = true;
                }
                self.push_work(Work::Request {
                    token: key,
                    req,
                    key: ck,
                    started,
                    attempts: 0,
                });
            }
        }
    }

    fn push_work(&self, work: Work) {
        let mut q = lock_queue(&self.queue);
        q.push_back(work);
        self.state
            .metrics
            .queue_depth
            .store(q.len(), Ordering::SeqCst);
        drop(q);
        self.queue.1.notify_one();
    }

    /// Append a response in the right framing and try to send it now.
    fn enqueue_response(&mut self, key: usize, response: Response, draining: bool) {
        let Some(conn) = self.conns.get_mut(&key) else {
            return;
        };
        // The final response before a close is framed `connection:
        // close`; during a drain that is any response with nothing
        // parseable behind it.
        let closing = conn.close_requested
            || (draining && !conn.busy && !has_parseable(&conn.buf))
            || conn.peer_closed;
        if closing {
            conn.close_requested = true;
        }
        conn.out.extend_from_slice(&response.to_bytes(!closing));
    }

    /// Write as much of `out` as the socket will take.
    fn flush(&mut self, key: usize) {
        let Some(conn) = self.conns.get_mut(&key) else {
            return;
        };
        while !conn.out.is_empty() {
            match conn.stream.write(&conn.out) {
                Ok(0) => break,
                Ok(n) => {
                    conn.out.drain(..n);
                    conn.last_activity = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(key);
                    return;
                }
            }
        }
    }

    fn update_interest(&mut self, key: usize, draining: bool) {
        let Some(conn) = self.conns.get_mut(&key) else {
            return;
        };
        let readable = !conn.busy && !conn.close_requested && !conn.peer_closed && !draining;
        let writable = !conn.out.is_empty();
        if conn.interest == (readable, writable) {
            return;
        }
        conn.interest = (readable, writable);
        let ev = Event {
            key,
            readable,
            writable,
        };
        if self.poller.modify(&conn.stream, ev).is_err() {
            self.close_conn(key);
        }
    }

    /// Deliver finished worker responses back onto their connections.
    fn drain_completions(&mut self, draining: bool) {
        let done: Vec<Completion> = std::mem::take(&mut *lock_completions(&self.completions));
        for completion in done {
            let key = completion.token;
            // The connection may have died while its job computed.
            if let Some(conn) = self.conns.get_mut(&key) {
                conn.busy = false;
                self.state
                    .metrics
                    .on_complete(completion.response.status, completion.started.elapsed());
                self.enqueue_response(key, completion.response, draining);
                // A pipelined follow-up may already be buffered.
                self.advance(key, draining);
            }
        }
    }

    /// Enforce the read deadline (408), the write stall bound, and the
    /// keep-alive idle timeout.
    fn timer_pass(&mut self, draining: bool) {
        let keys: Vec<usize> = self.conns.keys().copied().collect();
        for key in keys {
            let Some(conn) = self.conns.get_mut(&key) else {
                continue;
            };
            if conn.busy {
                continue; // the compute deadline (503) governs
            }
            let stalled_read = conn
                .req_started
                .map(|t| t.elapsed() > self.read_timeout)
                .unwrap_or(false);
            if stalled_read && !conn.close_requested {
                let e = timeout_error(&conn.buf);
                let started = conn.req_started.take().unwrap_or_else(Instant::now);
                conn.buf.clear();
                conn.close_requested = true;
                self.state.metrics.on_timeout_408();
                let response = Response::error(e.status, &e.message);
                self.state
                    .metrics
                    .on_complete(response.status, started.elapsed());
                self.enqueue_response(key, response, draining);
                self.advance(key, draining);
                continue;
            }
            let idle = conn.last_activity.elapsed();
            let write_stalled = !conn.out.is_empty() && idle > self.read_timeout;
            let idle_out = conn.out.is_empty()
                && conn.req_started.is_none()
                && (idle > self.keepalive_timeout || draining || conn.close_requested);
            if write_stalled || idle_out {
                self.close_conn(key);
            }
        }
    }
}

/// Whether `buf` holds a complete request (or an error that will turn
/// into a response) — i.e. whether a drain must keep this connection.
fn has_parseable(buf: &[u8]) -> bool {
    !matches!(try_parse(buf), Ok(None))
}

/// Start worker thread `memhierd-worker-{n}` over `shared`.
fn spawn_worker(n: usize, shared: &Arc<WorkerShared>) -> io::Result<JoinHandle<()>> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("memhierd-worker-{n}"))
        .spawn(move || worker_loop(&shared))
}

/// Own the worker pool: join dead workers, respawn replacements (counted
/// in `/metrics` as `worker_respawns`), and on shutdown join everyone
/// once the drain finishes.  Workers only exit cleanly when
/// `workers_stop` is raised, so any earlier exit is a panic escaping
/// `worker_loop`.
fn supervise(shared: &Arc<WorkerShared>, mut handles: Vec<JoinHandle<()>>) {
    let mut next_name = handles.len();
    loop {
        if shared.workers_stop.load(Ordering::SeqCst) {
            // Wake sleepers so the drain can finish, then join the pool.
            shared.queue.1.notify_all();
            for h in handles {
                let _ = h.join();
            }
            return;
        }
        for slot in handles.iter_mut() {
            if !slot.is_finished() || shared.workers_stop.load(Ordering::SeqCst) {
                continue;
            }
            match spawn_worker(next_name, shared) {
                Ok(fresh) => {
                    next_name += 1;
                    let dead = std::mem::replace(slot, fresh);
                    // A clean exit (shutdown race) is not a respawn.
                    if dead.join().is_err() {
                        shared.state.metrics.on_worker_respawn();
                        eprintln!("memhierd: worker died (panic); respawned");
                    }
                }
                // Out of threads: leave the slot and retry next scan.
                Err(e) => eprintln!("memhierd: respawning worker failed: {e}"),
            }
        }
        std::thread::sleep(SUPERVISOR_POLL);
    }
}

/// Drop guard armed while a worker holds a job: if the worker dies with
/// the job unfinished (an injected `serve:panic`), the job is pushed
/// back to the **front** of the queue so the in-flight request survives
/// the respawn — up to [`MAX_JOB_ATTEMPTS`] times, after which the
/// client gets a 500 instead of an infinite respawn loop.
struct JobGuard<'a> {
    shared: &'a WorkerShared,
    work: Option<Work>,
}

impl Drop for JobGuard<'_> {
    fn drop(&mut self) {
        let Some(work) = self.work.take() else { return };
        if !std::thread::panicking() {
            return;
        }
        match work {
            Work::Request {
                token,
                req,
                key,
                started,
                attempts,
            } => {
                if attempts + 1 < MAX_JOB_ATTEMPTS {
                    self.shared.state.metrics.on_requeue();
                    let mut q = lock_queue(&self.shared.queue);
                    q.push_front(Work::Request {
                        token,
                        req,
                        key,
                        started,
                        attempts: attempts + 1,
                    });
                    self.shared
                        .state
                        .metrics
                        .queue_depth
                        .store(q.len(), Ordering::SeqCst);
                    drop(q);
                    self.shared.queue.1.notify_one();
                } else {
                    lock_completions(&self.shared.completions).push(Completion {
                        token,
                        started,
                        response: Response::error(
                            500,
                            "request abandoned after repeated worker panics",
                        ),
                    });
                    let _ = self.shared.poller.notify();
                }
            }
            Work::Revalidate { key, .. } => {
                // Nobody waits on a refresh; just reopen the latch.
                if let Some(entry) = self.shared.state.cache.get(&key) {
                    entry.end_revalidate();
                }
            }
        }
    }
}

fn worker_loop(shared: &WorkerShared) {
    loop {
        let work = {
            let mut q = lock_queue(&shared.queue);
            loop {
                if let Some(work) = q.pop_front() {
                    shared
                        .state
                        .metrics
                        .queue_depth
                        .store(q.len(), Ordering::SeqCst);
                    break Some(work);
                }
                // Drain semantics: only exit once the queue is empty AND
                // shutdown was requested, so dispatched work completes.
                if shared.workers_stop.load(Ordering::SeqCst) {
                    break None;
                }
                q = shared
                    .queue
                    .1
                    .wait(q)
                    .unwrap_or_else(|poison| poison.into_inner());
            }
        };
        let Some(work) = work else { return };
        let mut guard = JobGuard {
            shared,
            work: Some(work),
        };

        // Fault decision for this pop, outside the handler's
        // catch_unwind: an injected panic must kill the worker (that is
        // the failure being rehearsed), not fall into the 500 path.
        // The guard above requeues the job the dying worker holds.
        let index = shared.serve_seq.fetch_add(1, Ordering::SeqCst);
        let injected = match shared.faults.check(FaultSite::Serve, index, 0) {
            Some(FaultAction::Panic) => {
                panic!("injected fault: serve:panic (request {index})");
            }
            Some(FaultAction::Delay(d)) => {
                std::thread::sleep(d);
                None
            }
            Some(FaultAction::Io) => Some(Response::error(
                500,
                &format!("injected fault: serve:io (request {index})"),
            )),
            // `FaultAction` is non-exhaustive; unknown future actions
            // (and no action) serve the request normally.
            _ => None,
        };

        match guard.work.as_ref().expect("job present until defused") {
            Work::Request {
                token,
                req,
                key,
                started,
                ..
            } => {
                let deadline = *started + shared.timeout;
                let response = match injected {
                    Some(r) => r,
                    None => catch_unwind(AssertUnwindSafe(|| {
                        compute_response(req, &shared.state, deadline, key.as_deref())
                    }))
                    .unwrap_or_else(|_| Response::error(500, "internal error (handler panicked)")),
                };
                lock_completions(&shared.completions).push(Completion {
                    token: *token,
                    started: *started,
                    response,
                });
                let _ = shared.poller.notify();
            }
            Work::Revalidate { req, key } => {
                let deadline = Instant::now() + shared.timeout;
                if injected.is_some()
                    || catch_unwind(AssertUnwindSafe(|| {
                        revalidate(req, &shared.state, deadline, key)
                    }))
                    .is_err()
                {
                    // The refresh never happened; reopen the latch.
                    if let Some(entry) = shared.state.cache.get(key) {
                        entry.end_revalidate();
                    }
                }
            }
        }
        guard.work = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw_request(addr: SocketAddr, payload: &str) -> String {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(payload.as_bytes()).unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    }

    fn test_config() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_depth: 8,
            timeout: Duration::from_secs(5),
            ..ServeConfig::default()
        }
    }

    /// A keep-alive test client: reads one framed response at a time,
    /// carrying any over-read bytes (the start of a pipelined follow-up
    /// response) to the next call.
    struct KeepAlive {
        stream: TcpStream,
        carry: Vec<u8>,
    }

    impl KeepAlive {
        fn connect(addr: SocketAddr) -> KeepAlive {
            KeepAlive {
                stream: TcpStream::connect(addr).expect("connect"),
                carry: Vec::new(),
            }
        }

        fn send(&mut self, payload: &str) {
            self.stream.write_all(payload.as_bytes()).expect("send");
        }

        /// Read exactly one HTTP response (head + content-length body).
        fn read_one(&mut self) -> String {
            let mut chunk = [0u8; 1024];
            loop {
                if let Some(head_end) = self.carry.windows(4).position(|w| w == b"\r\n\r\n") {
                    let head = String::from_utf8_lossy(&self.carry[..head_end]).to_string();
                    let clen: usize = head
                        .lines()
                        .find_map(|l| {
                            let (name, v) = l.split_once(':')?;
                            name.eq_ignore_ascii_case("content-length")
                                .then(|| v.trim().parse().ok())?
                        })
                        .expect("content-length present");
                    if self.carry.len() >= head_end + 4 + clen {
                        let rest = self.carry.split_off(head_end + 4 + clen);
                        let one = String::from_utf8_lossy(&self.carry).to_string();
                        self.carry = rest;
                        return one;
                    }
                }
                let n = self.stream.read(&mut chunk).expect("read");
                assert!(
                    n > 0,
                    "connection closed mid-response; got so far:\n{}",
                    String::from_utf8_lossy(&self.carry)
                );
                self.carry.extend_from_slice(&chunk[..n]);
            }
        }

        /// Read until EOF; asserts nothing beyond the carried bytes.
        fn read_rest(&mut self) -> String {
            let mut rest = String::from_utf8_lossy(&self.carry).to_string();
            self.carry.clear();
            let mut tail = String::new();
            self.stream.read_to_string(&mut tail).expect("read rest");
            rest.push_str(&tail);
            rest
        }
    }

    #[test]
    fn healthz_roundtrip_and_clean_shutdown() {
        let server = Server::start(test_config()).expect("start");
        let addr = server.local_addr();
        let reply = raw_request(addr, "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "{reply}");
        assert!(reply.contains("connection: close\r\n"), "{reply}");
        assert!(reply.contains("\"status\": \"ok\""), "{reply}");
        assert_eq!(server.state().metrics.ok_count(), 1);
        server.shutdown();
        assert!(TcpStream::connect(addr).is_err(), "listener closed");
    }

    #[test]
    fn keepalive_serves_sequential_requests_on_one_connection() {
        let server = Server::start(test_config()).expect("start");
        let mut c = KeepAlive::connect(server.local_addr());
        for i in 0..3 {
            c.send("GET /healthz HTTP/1.1\r\n\r\n");
            let reply = c.read_one();
            assert!(reply.starts_with("HTTP/1.1 200"), "request {i}: {reply}");
            assert!(
                reply.contains("connection: keep-alive\r\n"),
                "request {i}: {reply}"
            );
        }
        assert_eq!(server.state().metrics.keepalive_reuse_count(), 2);
        // `Connection: close` is honored and ends the connection.
        c.send("GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
        let reply = c.read_one();
        assert!(reply.contains("connection: close\r\n"), "{reply}");
        assert!(
            c.read_rest().is_empty(),
            "server closed after Connection: close"
        );
        server.shutdown();
    }

    #[test]
    fn pipelined_requests_answer_in_order() {
        let server = Server::start(test_config()).expect("start");
        let mut c = KeepAlive::connect(server.local_addr());
        // A worker-bound miss FOLLOWED by an inline-able GET, written in
        // one burst: the miss response must still come first.
        c.send(concat!(
            "POST /v1/model HTTP/1.1\r\nContent-Length: 39\r\n\r\n",
            r#"{"config": "C5", "workload": "TPC-C"}"#,
            "\r\n",
            "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        ));
        let first = c.read_one();
        assert!(first.starts_with("HTTP/1.1 200"), "{first}");
        assert!(first.contains("e_instr_cycles"), "{first}");
        let second = c.read_one();
        assert!(second.starts_with("HTTP/1.1 200"), "{second}");
        assert!(second.contains("\"status\": \"ok\""), "{second}");
        server.shutdown();
    }

    #[test]
    fn malformed_request_is_400_and_closes_without_parsing_trailing_bytes() {
        let server = Server::start(test_config()).expect("start");
        let mut s = TcpStream::connect(server.local_addr()).unwrap();
        // Malformed first request, valid second request in the same
        // burst: framing is lost, so the server must answer one 400 and
        // close — never parse the trailing bytes as a request.
        s.write_all(b"NOT-HTTP\r\n\r\nGET /healthz HTTP/1.1\r\n\r\n")
            .unwrap();
        let mut all = String::new();
        s.read_to_string(&mut all).unwrap();
        assert!(all.starts_with("HTTP/1.1 400 Bad Request\r\n"), "{all}");
        assert!(all.contains("connection: close\r\n"), "{all}");
        assert_eq!(
            all.matches("HTTP/1.1").count(),
            1,
            "exactly one response: {all}"
        );
        // The server is still alive afterwards.
        let reply = raw_request(
            server.local_addr(),
            "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
        server.shutdown();
    }

    #[test]
    fn stalled_request_answers_408() {
        let server = Server::start(ServeConfig {
            read_timeout: Duration::from_millis(100),
            ..test_config()
        })
        .expect("start");
        let mut s = TcpStream::connect(server.local_addr()).unwrap();
        s.write_all(b"POST /v1/model HTTP/1.1\r\nContent-Length: 500\r\n\r\nabc")
            .unwrap();
        let started = Instant::now();
        let mut all = String::new();
        s.read_to_string(&mut all).unwrap();
        assert!(all.starts_with("HTTP/1.1 408 Request Timeout\r\n"), "{all}");
        assert!(all.contains("3 of 500"), "{all}");
        assert!(started.elapsed() < Duration::from_secs(3));
        server.shutdown();
    }

    #[test]
    fn idle_keepalive_connection_is_reaped() {
        let server = Server::start(ServeConfig {
            keepalive_timeout: Duration::from_millis(80),
            ..test_config()
        })
        .expect("start");
        let mut c = KeepAlive::connect(server.local_addr());
        c.send("GET /healthz HTTP/1.1\r\n\r\n");
        let _ = c.read_one();
        // Idle past the keep-alive window: the server closes silently.
        c.stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let rest = c.read_rest();
        assert!(rest.is_empty(), "silent close, no bytes: {rest}");
        server.shutdown();
    }

    #[test]
    fn full_queue_answers_429_with_retry_after() {
        // One worker held busy by delay faults; queue of one.  Distinct
        // misses stack up: one in the worker, one queued, the third is
        // turned away with 429 — on a still-usable keep-alive conn.
        let server = Server::start(ServeConfig {
            workers: 1,
            queue_depth: 1,
            faults: FaultPlan::parse("serve:delay:ms=1500").expect("fault spec"),
            ..test_config()
        })
        .expect("start");
        let addr = server.local_addr();
        let send_miss = |i: usize| {
            let body = format!(r#"{{"config": "C{}", "workload": "FFT"}}"#, i + 1);
            let mut c = KeepAlive::connect(addr);
            c.send(&format!(
                "POST /v1/model HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
                body.len(),
                body
            ));
            c
        };
        // Barriers on server state, not timing: the worker has popped
        // the first miss (and sleeps in its delay fault), and the queue
        // gauge shows the second one waiting behind it.
        let wait_for = |what: &str, done: &dyn Fn() -> bool| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !done() {
                assert!(Instant::now() < deadline, "timed out waiting for {what}");
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        let _busy = send_miss(0);
        wait_for("the first miss to be dequeued", &|| {
            server.shared.serve_seq.load(Ordering::SeqCst) == 1
        });
        let _queued = send_miss(1);
        wait_for("the second miss to be queued", &|| {
            server.state().metrics.queue_depth.load(Ordering::SeqCst) == 1
        });
        let reply = send_miss(2).read_one();
        assert!(reply.starts_with("HTTP/1.1 429"), "{reply}");
        assert!(reply.contains("Retry-After: 1\r\n"), "{reply}");
        assert_eq!(server.state().metrics.rejected_count(), 1);
        server.shutdown();
    }

    #[test]
    fn cache_hits_are_served_inline_and_stale_after_ttl() {
        let server = Server::start(ServeConfig {
            cache_ttl: Some(Duration::from_millis(50)),
            ..test_config()
        })
        .expect("start");
        let mut c = KeepAlive::connect(server.local_addr());
        let body = r#"{"config": "C7", "workload": "EDGE"}"#;
        let post = format!(
            "POST /v1/model HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        );
        c.send(&post);
        let miss = c.read_one();
        assert!(miss.contains("X-Cache: miss\r\n"), "{miss}");
        c.send(&post);
        let hit = c.read_one();
        assert!(hit.contains("X-Cache: hit\r\n"), "{hit}");
        std::thread::sleep(Duration::from_millis(80));
        c.send(&post);
        let stale = c.read_one();
        assert!(stale.contains("X-Cache: stale\r\n"), "{stale}");
        // Same body bytes in all three answers.
        let tail = |r: &str| r.split("\r\n\r\n").nth(1).unwrap().to_string();
        assert_eq!(tail(&miss), tail(&hit));
        assert_eq!(tail(&hit), tail(&stale));
        assert!(server.state().metrics.stale_served_count() >= 1);
        server.shutdown();
    }

    #[test]
    fn drain_completes_keepalive_connections() {
        // Workers hold every miss for 300ms, so the in-flight request's
        // completion lands well after the event loop has seen the stop
        // flag — the drain path is what delivers it.
        let server = Server::start(ServeConfig {
            faults: FaultPlan::parse("serve:delay:ms=300").expect("fault spec"),
            ..test_config()
        })
        .expect("start");
        let addr = server.local_addr();
        let mut c = KeepAlive::connect(addr);
        c.send("GET /healthz HTTP/1.1\r\n\r\n");
        let first = c.read_one();
        assert!(first.starts_with("HTTP/1.1 200"), "{first}");
        // Drain announcement: readiness drops, service continues.
        server.begin_drain();
        c.send("GET /readyz HTTP/1.1\r\n\r\n");
        let ready = c.read_one();
        assert!(ready.starts_with("HTTP/1.1 503"), "{ready}");
        assert!(ready.contains("draining"), "{ready}");
        // A miss in flight when shutdown lands must still complete.
        let body = r#"{"config": "C6", "workload": "Radix"}"#;
        c.send(&format!(
            "POST /v1/model HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        ));
        let handle = std::thread::spawn(move || server.shutdown());
        let last = c.read_one();
        assert!(last.starts_with("HTTP/1.1 200"), "{last}");
        assert!(last.contains("e_instr_cycles"), "{last}");
        assert!(last.contains("connection: close\r\n"), "{last}");
        assert!(c.read_rest().is_empty());
        handle.join().unwrap();
        assert!(TcpStream::connect(addr).is_err(), "listener closed");
    }
}
