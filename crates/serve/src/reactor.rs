//! The readiness-driven serving reactor.
//!
//! One event-loop thread multiplexes every connection over a
//! [`cdim_util::poll::Poller`] (level-triggered `epoll`, Linux only):
//! nonblocking sockets, incremental frame decode
//! ([`crate::protocol::FrameDecoder`] — partial reads resume, a slow peer
//! loses nothing), pipelined requests, and per-connection write
//! backpressure (bounded outbound queue; a consumer that stops reading is
//! disconnected at [`ServerConfig::max_outbound_bytes`], never buffered
//! unboundedly).
//!
//! ## Request batching
//!
//! Query-shaped requests (`TopKSeeds`/`Spread`/`MarginalGain`) decoded in
//! the same event-loop tick are dispatched as **one batch** to a small
//! worker pool, which answers them through
//! [`InfluenceService::query_batch`]: one snapshot acquisition for the
//! whole batch, so a concurrent publish can never interleave between the
//! batch's queries, and cache probes amortize to one lock hold.
//! `Info`/`Stats`/`Metrics`/`TraceDump` are answered inline on the
//! reactor thread.
//!
//! ## Tracing
//!
//! Every decoded query request opens a `serve.request` root span in the
//! process-global flight recorder ([`cdim_obs::Tracer`]), closed when the
//! response's last byte reaches the socket. Children record decode,
//! batch wait, worker evaluation (under which the service's own spans
//! nest), and write-out; wire op 7 dumps the recorder.
//!
//! ## Response ordering
//!
//! Each decoded request takes the connection's next sequence number and a
//! slot in a pending queue; completions (inline or from workers) fill
//! their slot, and only the filled *head* of the queue is flushed. A
//! client that pipelines N requests always receives the N answers in
//! request order, whatever order the workers finish in.
//!
//! ## Timeouts
//!
//! Idleness is measured from the last *received byte*. A connection that
//! times out with an empty decode buffer is closed silently (it was
//! idle); one that times out mid-frame gets a `Response::Error` first —
//! the old thread-per-connection server conflated the two and silently
//! dropped half-delivered requests.

use crate::protocol::{
    decode_request, encode_response, FrameDecoder, ProtocolError, Request, Response, ServiceInfo,
    StatsReply,
};
use crate::service::{Answer, InfluenceService, Query, QueryError};
use cdim_obs::{ActiveSpan, Counter, Gauge, Histogram, Stage, TraceCtx, Tracer};
use cdim_util::monotonic_ns;
use cdim_util::poll::{Interest, Poller, WakePipe};
use cdim_util::FxHashMap;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for [`spawn_with`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Connections beyond this are accepted and immediately closed (the
    /// kernel backlog drains, the peer sees a clean reset instead of a
    /// hang). Also the bound on reactor bookkeeping memory.
    pub max_connections: usize,
    /// Close a connection that has not delivered a byte for this long.
    pub idle_timeout: Duration,
    /// Disconnect a connection whose un-flushed responses exceed this
    /// many bytes — the write-side backpressure cap.
    pub max_outbound_bytes: usize,
    /// Stop reading from a connection with this many unanswered pipelined
    /// requests until responses drain (read-side backpressure).
    pub max_pipeline: usize,
    /// Worker threads answering query batches. `0` = automatic
    /// (`min(4, available cores)`).
    pub workers: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 10_240,
            idle_timeout: Duration::from_secs(60),
            max_outbound_bytes: 8 << 20,
            max_pipeline: 1024,
            workers: 0,
        }
    }
}

impl ServerConfig {
    fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
    }
}

/// A running reactor server. Shutdown is deterministic: the handle wakes
/// the reactor through its self-pipe and joins the event-loop thread
/// (which in turn joins the worker pool) — no detached threads, no leaked
/// fds, whatever state the loop was in.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    wake: Arc<WakePipe>,
    thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with an ephemeral port request).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the server and joins every thread it spawned.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.wake.wake();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.thread.is_some() {
            self.stop_and_join();
        }
    }
}

/// Binds `addr` (port 0 gives an ephemeral port, reported via
/// [`ServerHandle::addr`]) and serves `service` on the reactor with the
/// default [`ServerConfig`].
pub fn spawn(
    service: Arc<InfluenceService>,
    addr: impl ToSocketAddrs,
) -> std::io::Result<ServerHandle> {
    spawn_with(service, addr, ServerConfig::default())
}

/// Binds `addr` and serves `service` on a background reactor thread with
/// explicit configuration.
pub fn spawn_with(
    service: Arc<InfluenceService>,
    addr: impl ToSocketAddrs,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;

    let mut poller = Poller::new()?;
    let wake = Arc::new(WakePipe::new()?);
    poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READABLE)?;
    poller.register(wake.read_fd(), TOKEN_WAKE, Interest::READABLE)?;

    let stop = Arc::new(AtomicBool::new(false));
    let trace = ReactorTrace::register(Tracer::global());
    let shared = Arc::new(WorkerShared {
        queue: Mutex::new(VecDeque::new()),
        available: Condvar::new(),
        stop_workers: AtomicBool::new(false),
        completions: Mutex::new(Vec::new()),
        wake: Arc::clone(&wake),
        service: Arc::clone(&service),
        trace: trace.clone(),
    });
    let workers: Vec<JoinHandle<()>> = (0..config.resolved_workers())
        .map(|i| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("cdim-serve-worker-{i}"))
                .spawn(move || worker_main(&shared))
        })
        .collect::<std::io::Result<_>>()?;

    let metrics = ReactorMetrics::register(&service.metrics_registry());
    let stop_flag = Arc::clone(&stop);
    let thread =
        std::thread::Builder::new().name("cdim-serve-reactor".into()).spawn(move || {
            let mut reactor = Reactor {
                listener,
                poller,
                conns: FxHashMap::default(),
                next_token: FIRST_CONN_TOKEN,
                config,
                service,
                shared,
                workers,
                stop: stop_flag,
                accept_paused_until: None,
                consecutive_accept_errors: 0,
                metrics,
                trace,
            };
            reactor.run();
        })?;
    Ok(ServerHandle { addr, stop, wake, thread: Some(thread) })
}

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKE: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;
const READ_CHUNK: usize = 16 * 1024;

/// One query request in flight from the reactor to the worker pool,
/// addressed by connection token (monotonic, never reused — a completion
/// for a dead connection is dropped harmlessly) and per-connection
/// sequence number.
struct BatchItem {
    token: u64,
    seq: u64,
    /// The request's root-span context (unsampled when tracing skipped
    /// this request), under which the worker opens `serve.eval`.
    ctx: TraceCtx,
    /// When decode finished — the start of the `serve.batch` wait span.
    decoded_ns: u64,
    query: Query,
}

/// Query requests decoded in one event-loop tick, dispatched together.
type Batch = Vec<BatchItem>;

/// Pre-resolved stage handles for the reactor's spans (mirrors
/// [`ReactorMetrics`]: resolve once, record forever).
#[derive(Clone)]
struct ReactorTrace {
    tracer: Arc<Tracer>,
    accept: Stage,
    request: Stage,
    decode: Stage,
    batch: Stage,
    eval: Stage,
    write: Stage,
}

impl ReactorTrace {
    fn register(tracer: Arc<Tracer>) -> Self {
        ReactorTrace {
            accept: tracer.stage("serve.accept"),
            request: tracer.stage("serve.request"),
            decode: tracer.stage("serve.decode"),
            batch: tracer.stage("serve.batch"),
            eval: tracer.stage("serve.eval"),
            write: tracer.stage("serve.write"),
            tracer,
        }
    }
}

/// Records `serve.write` and closes the request roots for frames whose
/// last byte just reached the socket. A free function over the trace
/// handles (not a `Reactor` method) so callers holding a mutable borrow
/// of the connection table can still invoke it.
fn record_finished_writes(trace: &ReactorTrace, finished: &mut Vec<(ActiveSpan, u64)>) {
    if finished.is_empty() {
        return;
    }
    let now = trace.tracer.now_ns();
    for (root, entered_ns) in finished.drain(..) {
        trace.tracer.record(root.ctx(), trace.write, entered_ns, now);
        trace.tracer.close_at(root, now);
    }
}

struct WorkerShared {
    queue: Mutex<VecDeque<Batch>>,
    available: Condvar,
    stop_workers: AtomicBool,
    /// (conn token, seq, framed response bytes), drained by the reactor
    /// after each wake.
    completions: Mutex<Vec<(u64, u64, Vec<u8>)>>,
    wake: Arc<WakePipe>,
    service: Arc<InfluenceService>,
    trace: ReactorTrace,
}

fn worker_main(shared: &WorkerShared) {
    let trace = &shared.trace;
    loop {
        let batch = {
            let mut queue = shared.queue.lock().expect("worker queue poisoned");
            loop {
                if let Some(batch) = queue.pop_front() {
                    break batch;
                }
                if shared.stop_workers.load(Ordering::SeqCst) {
                    return;
                }
                queue = shared.available.wait(queue).expect("worker queue poisoned");
            }
        };
        let queries: Vec<Query> = batch.iter().map(|item| item.query.clone()).collect();
        // One `serve.eval` span per request covering the whole batch
        // evaluation; the service's own spans (snapshot, probe, compute)
        // nest under it via the eval contexts.
        let evals: Vec<ActiveSpan> =
            batch.iter().map(|item| trace.tracer.open(item.ctx, trace.eval)).collect();
        let ctxs: Vec<TraceCtx> = evals.iter().map(ActiveSpan::ctx).collect();
        let answers = shared.service.query_batch_traced(&queries, &ctxs);
        let end = if evals.iter().any(ActiveSpan::is_sampled) { trace.tracer.now_ns() } else { 0 };
        let mut done = Vec::with_capacity(batch.len());
        for ((item, result), eval) in batch.into_iter().zip(answers).zip(evals) {
            trace.tracer.close_at(eval, end);
            done.push((
                item.token,
                item.seq,
                frame_bytes(&encode_response(&answer_response(result))),
            ));
        }
        shared.completions.lock().expect("completions poisoned").extend(done);
        shared.wake.wake();
    }
}

/// Length-prefixes a payload into one wire frame.
fn frame_bytes(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Maps a query outcome onto the wire.
fn answer_response(result: Result<Answer, QueryError>) -> Response {
    match result {
        Ok(Answer::TopKSeeds { seeds, gains }) => Response::TopKSeeds { seeds, gains },
        Ok(Answer::Spread(sigma)) => Response::Spread(sigma),
        Ok(Answer::MarginalGain(gain)) => Response::MarginalGain(gain),
        Err(e) => Response::Error(e.to_string()),
    }
}

/// The query shape of a request, or `None` for the inline ops.
fn request_query(request: &Request) -> Option<Query> {
    match request {
        Request::TopKSeeds { budget } => Some(Query::TopKSeeds { budget: *budget }),
        Request::Spread { seeds } => Some(Query::Spread { seeds: seeds.clone() }),
        Request::MarginalGain { seeds, candidate } => {
            Some(Query::MarginalGain { seeds: seeds.clone(), candidate: *candidate })
        }
        Request::Info | Request::Stats | Request::Metrics | Request::TraceDump => None,
    }
}

/// Answers the metadata ops that never touch the model (cheap enough for
/// the reactor thread itself).
fn inline_response(request: &Request, service: &InfluenceService) -> Response {
    match request {
        Request::Info => {
            let snapshot = service.snapshot();
            let stats = service.stats();
            Response::Info(ServiceInfo {
                num_users: snapshot.num_users() as u64,
                num_actions: snapshot.num_actions() as u64,
                committed_seeds: snapshot.committed_seeds() as u64,
                cache_hits: stats.cache_hits,
                cache_misses: stats.cache_misses,
            })
        }
        Request::Stats => {
            let stats = service.stats();
            Response::Stats(StatsReply {
                queries: stats.queries,
                cache_hits: stats.cache_hits,
                cache_misses: stats.cache_misses,
                publishes: stats.snapshots_published,
                model_version: stats.model_version,
            })
        }
        Request::Metrics => Response::Metrics(service.metrics_registry().dump()),
        Request::TraceDump => Response::TraceDump(Tracer::global().dump()),
        _ => unreachable!("inline_response is only called for metadata ops"),
    }
}

// ------------------------------------------------------------ accept errors

/// Whether an `accept(2)` error concerns only the one failed handshake
/// (aborted/reset mid-accept) rather than the listener itself. Transient
/// errors just move on to the next pending connection; anything else —
/// EMFILE/ENFILE/ENOMEM and friends — is a resource condition that will
/// recur immediately, so the accept loop must back off instead of
/// spinning a core (the PR-2 server's `continue`-on-`Err` bug).
fn accept_error_is_transient(kind: std::io::ErrorKind) -> bool {
    matches!(
        kind,
        std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::Interrupted
    )
}

/// Exponential accept backoff: 10ms doubling to a 1.28s ceiling.
fn accept_backoff(consecutive_errors: u32) -> Duration {
    Duration::from_millis(10u64 << consecutive_errors.min(7))
}

// ----------------------------------------------------------------- reactor

struct ReactorMetrics {
    connections: Arc<Gauge>,
    accepted: Arc<Counter>,
    accept_errors: Arc<Counter>,
    rejected: Arc<Counter>,
    backpressure_disconnects: Arc<Counter>,
    batch_size: Arc<Histogram>,
}

impl ReactorMetrics {
    fn register(registry: &cdim_obs::MetricsRegistry) -> Self {
        ReactorMetrics {
            connections: registry.gauge("cdim_serve_connections"),
            accepted: registry.counter("cdim_serve_accepted_total"),
            accept_errors: registry.counter("cdim_serve_accept_errors_total"),
            rejected: registry.counter("cdim_serve_conns_rejected_total"),
            backpressure_disconnects: registry.counter("cdim_serve_backpressure_disconnects_total"),
            batch_size: registry.histogram("cdim_serve_batch_size"),
        }
    }
}

/// A framed response waiting on the socket, carrying the request's root
/// span (if traced) so `serve.write` can be recorded — and the root
/// closed — when the last byte actually leaves.
struct OutFrame {
    bytes: Vec<u8>,
    root: Option<ActiveSpan>,
    /// When the frame entered the outbound queue (start of `serve.write`).
    entered_ns: u64,
}

struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Framed responses awaiting the socket, plus the write cursor into
    /// the front frame.
    outbound: VecDeque<OutFrame>,
    front_pos: usize,
    queued_bytes: usize,
    /// In-order response slots: index 0 is sequence `base_seq`. A decoded
    /// request pushes an unfilled slot (plus its root span, if traced);
    /// its completion fills the slot; only the filled head is moved to
    /// `outbound`.
    pending: VecDeque<(Option<Vec<u8>>, Option<ActiveSpan>)>,
    base_seq: u64,
    next_seq: u64,
    last_activity: Instant,
    /// Current registered interest (tracked to skip no-op `modify`s).
    interest: Interest,
    /// Stop reading: the pipeline is full.
    paused_read: bool,
    /// Peer half-closed (EOF seen); finish pending work, then drop.
    read_closed: bool,
    /// Fatal condition answered; drop once `outbound` drains.
    closing: bool,
}

impl Conn {
    fn new(stream: TcpStream, now: Instant) -> Conn {
        Conn {
            stream,
            decoder: FrameDecoder::new(),
            outbound: VecDeque::new(),
            front_pos: 0,
            queued_bytes: 0,
            pending: VecDeque::new(),
            base_seq: 0,
            next_seq: 0,
            last_activity: now,
            interest: Interest::READABLE,
            paused_read: false,
            read_closed: false,
            closing: false,
        }
    }

    /// Allocates the next request's sequence number and pending slot,
    /// parking the request's root span (if traced) until its response is
    /// ready to leave. A root parked on a connection that dies before its
    /// response flushes is abandoned (never recorded) — the flight
    /// recorder only holds complete spans.
    fn push_request(&mut self, root: Option<ActiveSpan>) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.push_back((None, root));
        seq
    }

    /// Answers a request on the reactor thread: takes the next slot, with
    /// no trace root, and fills it with `response` at once.
    fn answer_inline(&mut self, response: &Response) {
        let seq = self.push_request(None);
        self.complete(seq, frame_bytes(&encode_response(response)));
    }

    /// Fills `seq`'s slot (no-op if the slot was dropped by a close) and
    /// moves the filled head of the pending queue into the outbound
    /// queue, preserving request order.
    fn complete(&mut self, seq: u64, frame: Vec<u8>) {
        let Some(index) = seq.checked_sub(self.base_seq) else { return };
        let Some(slot) = self.pending.get_mut(index as usize) else { return };
        slot.0 = Some(frame);
        while matches!(self.pending.front(), Some((Some(_), _))) {
            let (frame, root) = self.pending.pop_front().expect("front was just matched");
            let bytes = frame.expect("head slot is filled");
            self.base_seq += 1;
            self.queued_bytes += bytes.len();
            let entered_ns =
                if root.as_ref().is_some_and(ActiveSpan::is_sampled) { monotonic_ns() } else { 0 };
            self.outbound.push_back(OutFrame { bytes, root, entered_ns });
        }
    }

    /// Writes as much of the outbound queue as the socket accepts,
    /// pushing `(root span, entered_ns)` onto `finished` for every traced
    /// frame whose last byte was written. `Err(())` means the connection
    /// is dead.
    fn flush(&mut self, finished: &mut Vec<(ActiveSpan, u64)>) -> Result<(), ()> {
        while let Some(front) = self.outbound.front() {
            match self.stream.write(&front.bytes[self.front_pos..]) {
                Ok(0) => return Err(()),
                Ok(n) => {
                    self.front_pos += n;
                    self.queued_bytes -= n;
                    if self.front_pos == front.bytes.len() {
                        let done = self.outbound.pop_front().expect("front exists");
                        self.front_pos = 0;
                        if let Some(root) = done.root.filter(ActiveSpan::is_sampled) {
                            finished.push((root, done.entered_ns));
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return Err(()),
            }
        }
        Ok(())
    }

    fn desired_interest(&self, max_pipeline: usize) -> (Interest, bool) {
        let want_read = !self.read_closed && !self.closing && self.pending.len() < max_pipeline;
        let want_write = !self.outbound.is_empty();
        let interest = match (want_read, want_write) {
            (true, true) => Interest::BOTH,
            (true, false) => Interest::READABLE,
            (false, true) => Interest::WRITABLE,
            (false, false) => Interest::NONE,
        };
        (interest, want_read)
    }
}

struct Reactor {
    listener: TcpListener,
    poller: Poller,
    conns: FxHashMap<u64, Conn>,
    next_token: u64,
    config: ServerConfig,
    service: Arc<InfluenceService>,
    shared: Arc<WorkerShared>,
    workers: Vec<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    /// While set, the listener is deregistered (resource-error backoff —
    /// level-triggered polling would otherwise spin on the pending
    /// handshake we cannot accept).
    accept_paused_until: Option<Instant>,
    consecutive_accept_errors: u32,
    metrics: ReactorMetrics,
    trace: ReactorTrace,
}

impl Reactor {
    fn run(&mut self) {
        let mut events = Vec::new();
        let mut touched: Vec<u64> = Vec::new();
        let mut tick_batch: Batch = Vec::new();
        while !self.stop.load(Ordering::SeqCst) {
            let timeout = self.tick_timeout();
            if self.poller.wait(&mut events, Some(timeout)).is_err() {
                break;
            }
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            let now = Instant::now();
            touched.clear();
            tick_batch.clear();
            let mut accept_ready = false;
            for ev in &events {
                match ev.token {
                    TOKEN_LISTENER => accept_ready = true,
                    TOKEN_WAKE => {
                        self.shared.wake.drain();
                    }
                    token => {
                        if ev.readable && self.conn_readable(token, now, &mut tick_batch) {
                            touched.push(token);
                        }
                        if ev.writable {
                            touched.push(token);
                        }
                    }
                }
            }
            // Worker completions (checked every tick: the wake may have
            // raced the previous drain). Filling slots may reopen pipeline
            // headroom, so frames still buffered in the decoder are
            // processed here too — a client that sent its whole burst up
            // front never deadlocks on the pipeline cap.
            let completions =
                std::mem::take(&mut *self.shared.completions.lock().expect("completions poisoned"));
            for (token, seq, frame) in completions {
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.complete(seq, frame);
                    self.process_decoder(token, &mut tick_batch);
                    touched.push(token);
                }
            }
            if self.accept_ready_after_backoff(now) || accept_ready {
                self.accept_pending(now);
            }
            if !tick_batch.is_empty() {
                self.metrics.batch_size.observe(tick_batch.len() as f64);
                // `serve.batch`: each request's wait from decode to
                // dispatch (the cost of riding this tick's batch). The
                // clock is read once per tick and only when some request
                // in the batch is sampled.
                if tick_batch.iter().any(|item| item.ctx.is_sampled()) {
                    let dispatched_ns = self.trace.tracer.now_ns();
                    for item in &tick_batch {
                        self.trace.tracer.record(
                            item.ctx,
                            self.trace.batch,
                            item.decoded_ns,
                            dispatched_ns,
                        );
                    }
                }
                self.shared
                    .queue
                    .lock()
                    .expect("worker queue poisoned")
                    .push_back(std::mem::take(&mut tick_batch));
                self.shared.available.notify_one();
            }
            touched.sort_unstable();
            touched.dedup();
            for &token in &touched {
                self.flush_conn(token);
            }
            self.sweep_idle(now);
        }
        self.teardown();
    }

    /// The poll timeout: a quarter of the idle timeout (so sweeps are
    /// timely even with no traffic), shortened further while the accept
    /// loop is backing off.
    fn tick_timeout(&self) -> Duration {
        let base = (self.config.idle_timeout / 4)
            .clamp(Duration::from_millis(5), Duration::from_millis(500));
        match self.accept_paused_until {
            Some(until) => base
                .min(until.saturating_duration_since(Instant::now()))
                .max(Duration::from_millis(1)),
            None => base,
        }
    }

    /// Re-registers the listener once a resource-error backoff elapses.
    fn accept_ready_after_backoff(&mut self, now: Instant) -> bool {
        match self.accept_paused_until {
            Some(until) if now >= until => {
                self.accept_paused_until = None;
                if self
                    .poller
                    .register(self.listener.as_raw_fd(), TOKEN_LISTENER, Interest::READABLE)
                    .is_err()
                {
                    // Registration failing here is unrecoverable-ish; retry
                    // on the next tick.
                    self.accept_paused_until = Some(now + accept_backoff(0));
                    return false;
                }
                true
            }
            _ => false,
        }
    }

    fn accept_pending(&mut self, now: Instant) {
        loop {
            let accept_ns = self.trace.tracer.now_ns();
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    self.consecutive_accept_errors = 0;
                    if self.conns.len() >= self.config.max_connections {
                        // Accept-then-drop: the backlog drains and the peer
                        // sees an immediate close instead of a hang.
                        self.metrics.rejected.inc();
                        drop(stream);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    if self.poller.register(stream.as_raw_fd(), token, Interest::READABLE).is_err()
                    {
                        continue;
                    }
                    self.conns.insert(token, Conn::new(stream, now));
                    self.metrics.accepted.inc();
                    self.metrics.connections.add(1.0);
                    // Each accepted connection gets a tiny single-span
                    // trace covering the handshake + registration.
                    let ctx = self.trace.tracer.begin_trace();
                    if ctx.is_sampled() {
                        self.trace.tracer.record(
                            ctx,
                            self.trace.accept,
                            accept_ns,
                            self.trace.tracer.now_ns(),
                        );
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if accept_error_is_transient(e.kind()) => {
                    self.metrics.accept_errors.inc();
                    continue;
                }
                Err(_) => {
                    // Resource exhaustion (EMFILE & friends): deregister the
                    // listener and back off exponentially — retrying now
                    // would fail again and spin a core.
                    self.metrics.accept_errors.inc();
                    let backoff = accept_backoff(self.consecutive_accept_errors);
                    self.consecutive_accept_errors =
                        self.consecutive_accept_errors.saturating_add(1);
                    let _ = self.poller.deregister(self.listener.as_raw_fd());
                    self.accept_paused_until = Some(now + backoff);
                    break;
                }
            }
        }
    }

    /// Reads and decodes everything the socket has. Returns true when the
    /// connection still exists (and needs a flush/interest update).
    fn conn_readable(&mut self, token: u64, now: Instant, tick_batch: &mut Batch) -> bool {
        let Some(conn) = self.conns.get_mut(&token) else { return false };
        if conn.paused_read || conn.closing {
            return true;
        }
        let mut buf = [0u8; READ_CHUNK];
        loop {
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    conn.read_closed = true;
                    break;
                }
                Ok(n) => {
                    conn.last_activity = now;
                    conn.decoder.extend(&buf[..n]);
                    if n < buf.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.drop_conn(token);
                    return false;
                }
            }
        }
        self.process_decoder(token, tick_batch);
        true
    }

    /// Decodes every complete frame buffered for `token`, respecting the
    /// pipeline cap (excess frames stay in the decoder for a later pass).
    fn process_decoder(&mut self, token: u64, tick_batch: &mut Batch) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        while conn.pending.len() < self.config.max_pipeline && !conn.closing {
            match conn.decoder.next_frame() {
                Ok(Some(payload)) => {
                    // The sampling decision is taken per frame, before
                    // decoding: an unsampled request must never read the
                    // clock (monotonic reads are the dominant tracing
                    // cost, ~50 ns each on virtualized hosts).
                    let ctx = self.trace.tracer.begin_trace();
                    let frame_ns = if ctx.is_sampled() { self.trace.tracer.now_ns() } else { 0 };
                    match decode_request(&payload) {
                        Ok(request) => match request_query(&request) {
                            Some(query) => {
                                // A query request gets a trace root
                                // (`serve.request`) opened at frame
                                // availability and closed when its
                                // response's last byte hits the wire.
                                let root =
                                    self.trace.tracer.open_at(ctx, self.trace.request, frame_ns);
                                let decoded_ns =
                                    if ctx.is_sampled() { self.trace.tracer.now_ns() } else { 0 };
                                self.trace.tracer.record(
                                    root.ctx(),
                                    self.trace.decode,
                                    frame_ns,
                                    decoded_ns,
                                );
                                let seq = conn.push_request(Some(root));
                                tick_batch.push(BatchItem {
                                    token,
                                    seq,
                                    ctx: root.ctx(),
                                    decoded_ns,
                                    query,
                                });
                            }
                            None => conn.answer_inline(&inline_response(&request, &self.service)),
                        },
                        Err(e) => {
                            conn.answer_inline(&Response::Error(format!("bad request: {e}")));
                            // An unknown opcode or a malformed body leaves
                            // the framing intact: answer and go on.
                            if !matches!(
                                e,
                                ProtocolError::UnknownOpcode(_) | ProtocolError::Malformed(_)
                            ) {
                                conn.closing = true;
                            }
                        }
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    // Frame-level failure (oversized length prefix): the
                    // byte stream's framing is lost — answer and close.
                    conn.answer_inline(&Response::Error(format!("protocol error: {e}")));
                    conn.closing = true;
                }
            }
        }
        conn.paused_read = conn.pending.len() >= self.config.max_pipeline;
    }

    /// Flushes a connection, applies the backpressure cap, updates
    /// readiness interest, and reaps it when done for.
    fn flush_conn(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        let mut finished: Vec<(ActiveSpan, u64)> = Vec::new();
        let flushed = conn.flush(&mut finished);
        record_finished_writes(&self.trace, &mut finished);
        if flushed.is_err() {
            self.drop_conn(token);
            return;
        }
        // The cap is checked *after* the write attempt: a fast consumer
        // with a momentarily large burst is fine; only a peer that stops
        // reading accumulates past it.
        if conn.queued_bytes > self.config.max_outbound_bytes {
            self.metrics.backpressure_disconnects.inc();
            self.drop_conn(token);
            return;
        }
        let done_writing = conn.outbound.is_empty();
        if done_writing && conn.closing {
            self.drop_conn(token);
            return;
        }
        if done_writing && conn.read_closed && conn.pending.is_empty() {
            self.drop_conn(token);
            return;
        }
        let (interest, want_read) = conn.desired_interest(self.config.max_pipeline);
        conn.paused_read = !want_read && !conn.read_closed && !conn.closing;
        if interest != conn.interest {
            conn.interest = interest;
            let fd = conn.stream.as_raw_fd();
            if self.poller.modify(fd, token, interest).is_err() {
                self.drop_conn(token);
            }
        }
    }

    /// Closes connections that have been silent past the idle timeout. A
    /// half-delivered frame gets an explanatory error response first; a
    /// genuinely idle connection closes silently.
    fn sweep_idle(&mut self, now: Instant) {
        let idle_timeout = self.config.idle_timeout;
        let mut expired: Vec<(u64, bool)> = Vec::new();
        for (&token, conn) in &self.conns {
            if conn.closing {
                continue;
            }
            if now.duration_since(conn.last_activity) >= idle_timeout {
                expired.push((token, conn.decoder.has_partial()));
            }
        }
        for (token, mid_frame) in expired {
            if mid_frame {
                let Some(conn) = self.conns.get_mut(&token) else { continue };
                conn.answer_inline(&Response::Error(format!(
                    "request timed out mid-frame after {idle_timeout:?} without a byte"
                )));
                conn.closing = true;
                self.flush_conn(token);
            } else {
                self.drop_conn(token);
            }
        }
    }

    fn drop_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
            self.metrics.connections.add(-1.0);
        }
    }

    /// Deterministic teardown: every connection closed and deregistered,
    /// every worker joined, before the reactor thread exits.
    fn teardown(&mut self) {
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.drop_conn(token);
        }
        self.shared.stop_workers.store(true, Ordering::SeqCst);
        self.shared.available.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transient_accept_errors_are_classified() {
        assert!(accept_error_is_transient(std::io::ErrorKind::ConnectionAborted));
        assert!(accept_error_is_transient(std::io::ErrorKind::ConnectionReset));
        assert!(accept_error_is_transient(std::io::ErrorKind::Interrupted));
        // EMFILE surfaces as an uncategorized kind — resource, not transient.
        let emfile = std::io::Error::from_raw_os_error(24);
        assert!(!accept_error_is_transient(emfile.kind()));
        assert!(!accept_error_is_transient(std::io::ErrorKind::OutOfMemory));
    }

    #[test]
    fn accept_backoff_is_exponential_and_capped() {
        assert_eq!(accept_backoff(0), Duration::from_millis(10));
        assert_eq!(accept_backoff(1), Duration::from_millis(20));
        assert_eq!(accept_backoff(4), Duration::from_millis(160));
        assert_eq!(accept_backoff(7), Duration::from_millis(1280));
        // …and never overflows however long the outage lasts.
        assert_eq!(accept_backoff(u32::MAX), Duration::from_millis(1280));
    }

    #[test]
    fn pending_slots_release_responses_in_request_order() {
        // A connection whose completions arrive out of order must still
        // emit frames in sequence order. Use a socket pair for a real
        // TcpStream; only the slot bookkeeping is under test.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let _keep_alive = client;

        let mut conn = Conn::new(stream, Instant::now());
        let s0 = conn.push_request(None);
        let s1 = conn.push_request(None);
        let s2 = conn.push_request(None);

        conn.complete(s2, vec![2]);
        assert!(conn.outbound.is_empty(), "seq 2 must wait for 0 and 1");
        conn.complete(s0, vec![0]);
        assert_eq!(conn.outbound.len(), 1, "head release stops at the unfilled slot");
        conn.complete(s1, vec![1]);
        let order: Vec<u8> = conn.outbound.iter().map(|f| f.bytes[0]).collect();
        assert_eq!(order, vec![0, 1, 2]);
        assert_eq!(conn.queued_bytes, 3);
        assert!(conn.pending.is_empty());

        // A stale completion (connection already advanced past it) is a
        // no-op rather than a panic.
        conn.complete(s0, vec![9]);
        assert_eq!(conn.outbound.len(), 3);
    }

    #[test]
    fn default_config_is_sane() {
        let config = ServerConfig::default();
        assert!(config.max_connections >= 10_000, "the ROADMAP target is 10k+ clients");
        assert!(config.resolved_workers() >= 1);
        assert!(config.max_outbound_bytes > 0);
        assert!(config.max_pipeline > 0);
    }
}
