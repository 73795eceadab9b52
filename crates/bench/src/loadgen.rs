//! Multi-connection pipelined load generator for the serve frontend.
//!
//! One thread drives every client connection through a
//! [`cdim_util::poll::Poller`] — the same readiness machinery the server's
//! reactor uses — so ten thousand concurrent connections cost ten thousand
//! sockets, not ten thousand threads. Each connection keeps up to
//! [`LoadConfig::pipeline`] requests in flight and per-request latency is
//! measured from enqueue to response decode, which charges client-side
//! queueing to the tail like a real caller would experience it.
//!
//! For sweeps past half the fd budget the server must live in another
//! process: [`ChildServer`] re-execs the current binary with
//! [`CHILD_ENV`] set, and [`maybe_run_server_child`] (called first thing
//! in `main`) turns that child into a serve-only process that exits when
//! its stdin closes — so a dying parent can never leak a listener.

use cdim_core::{scan, CreditPolicy};
use cdim_serve::protocol::{encode_request, write_frame, Request};
use cdim_serve::{server, FrameDecoder, InfluenceService, ModelSnapshot, ServerConfig};
use cdim_util::poll::{raise_nofile_limit, Interest, Poller};
use std::collections::VecDeque;
use std::io::{self, BufRead as _, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Environment marker that turns a re-exec of the current binary into a
/// serve-only child (any value).
pub const CHILD_ENV: &str = "CDIM_SERVE_CHILD";
/// Dataset divisor for the child's model (`scaled_down` factor).
const CHILD_DIVISOR_ENV: &str = "CDIM_SERVE_CHILD_DIVISOR";

/// Shape of one load run.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Concurrent client connections.
    pub connections: usize,
    /// Requests issued per connection.
    pub requests_per_connection: usize,
    /// Max requests in flight per connection before the client waits for
    /// responses (1 = strict request/response ping-pong).
    pub pipeline: usize,
    /// Seed sets cycled across requests (connection-offset so neighbours
    /// don't march in lockstep). Must be non-empty.
    pub seed_pool: Vec<Vec<u32>>,
    /// Abort the run if it has not finished within this budget.
    pub deadline: Duration,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            connections: 64,
            requests_per_connection: 16,
            pipeline: 4,
            seed_pool: vec![vec![0], vec![1], vec![2], vec![0, 1], vec![1, 2]],
            deadline: Duration::from_secs(120),
        }
    }
}

/// Latency/throughput summary of one run.
#[derive(Clone, Copy, Debug)]
pub struct LoadReport {
    /// Connections driven.
    pub connections: usize,
    /// Total requests answered.
    pub requests: usize,
    /// Wall time from first byte written to last response decoded.
    pub elapsed: Duration,
    /// Median request latency (enqueue → response).
    pub p50: Duration,
    /// 90th-percentile request latency.
    pub p90: Duration,
    /// 99th-percentile request latency.
    pub p99: Duration,
    /// Worst request latency.
    pub max: Duration,
}

impl LoadReport {
    /// Aggregate throughput in queries per second.
    pub fn qps(&self) -> f64 {
        self.requests as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Per-connection client state machine.
struct ConnState {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Encoded-but-unwritten wire bytes (`out_pos` already sent).
    outbox: Vec<u8>,
    out_pos: usize,
    sent: usize,
    recvd: usize,
    /// Enqueue instants of in-flight requests, FIFO with responses.
    inflight: VecDeque<Instant>,
    interest: Interest,
}

/// Drives `config.connections` clients against `addr` and reports the
/// latency distribution. Fails if the server closes a connection early or
/// the run exceeds `config.deadline`.
pub fn run(addr: SocketAddr, config: &LoadConfig) -> io::Result<LoadReport> {
    assert!(!config.seed_pool.is_empty(), "seed_pool must be non-empty");
    assert!(config.pipeline >= 1, "pipeline must be at least 1");
    assert!(config.requests_per_connection >= 1, "need at least one request per connection");
    // Best-effort: the sweep sizes themselves are the caller's problem.
    let _ = raise_nofile_limit((config.connections as u64) * 2 + 64);

    let frames: Vec<Vec<u8>> = config
        .seed_pool
        .iter()
        .map(|seeds| {
            let mut wire = Vec::new();
            write_frame(&mut wire, &encode_request(&Request::Spread { seeds: seeds.clone() }))
                .expect("Vec write");
            wire
        })
        .collect();

    let mut poller = Poller::new()?;
    let mut conns: Vec<ConnState> = Vec::with_capacity(config.connections);
    for token in 0..config.connections {
        let stream = connect_with_retry(addr)?;
        stream.set_nodelay(true).ok();
        stream.set_nonblocking(true)?;
        poller.register(stream.as_raw_fd(), token as u64, Interest::BOTH)?;
        conns.push(ConnState {
            stream,
            decoder: FrameDecoder::new(),
            outbox: Vec::new(),
            out_pos: 0,
            sent: 0,
            recvd: 0,
            inflight: VecDeque::new(),
            interest: Interest::BOTH,
        });
    }

    let total = config.requests_per_connection;
    let mut latencies: Vec<Duration> = Vec::with_capacity(config.connections * total);
    let mut remaining = config.connections;
    let started = Instant::now();
    let mut events = Vec::new();
    let mut buf = vec![0u8; 16 * 1024];
    while remaining > 0 {
        if started.elapsed() > config.deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!(
                    "load run missed its {:?} deadline ({} of {} connections finished)",
                    config.deadline,
                    config.connections - remaining,
                    config.connections
                ),
            ));
        }
        poller.wait(&mut events, Some(Duration::from_millis(200)))?;
        for ev in &events {
            let token = ev.token as usize;
            let was_done = conns[token].recvd >= total;
            if was_done {
                continue;
            }
            if ev.readable || ev.closed {
                drain_responses(&mut conns[token], &mut buf, &mut latencies, total)?;
            }
            pump(&mut conns[token], config, &frames, token)?;
            if conns[token].recvd >= total {
                remaining -= 1;
                poller.deregister(conns[token].stream.as_raw_fd())?;
                continue;
            }
            update_interest(&mut poller, &mut conns[token], token, total)?;
        }
    }

    let elapsed = started.elapsed();
    latencies.sort_unstable();
    let pct = |p: f64| latencies[((latencies.len() as f64 - 1.0) * p).round() as usize];
    Ok(LoadReport {
        connections: config.connections,
        requests: latencies.len(),
        elapsed,
        p50: pct(0.50),
        p90: pct(0.90),
        p99: pct(0.99),
        max: *latencies.last().expect("at least one request"),
    })
}

/// Loopback connects can transiently fail while the accept queue churns
/// under thousands of simultaneous SYNs; retry briefly before giving up.
fn connect_with_retry(addr: SocketAddr) -> io::Result<TcpStream> {
    let mut last = None;
    for _ in 0..200 {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) => {
                last = Some(e);
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
    Err(last.expect("at least one attempt"))
}

/// Reads everything available and resolves completed responses against
/// the in-flight FIFO. EOF with requests outstanding is an error — the
/// load generator never half-closes first.
fn drain_responses(
    conn: &mut ConnState,
    buf: &mut [u8],
    latencies: &mut Vec<Duration>,
    total: usize,
) -> io::Result<()> {
    loop {
        match conn.stream.read(buf) {
            Ok(0) => {
                if conn.recvd < total {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        format!(
                            "server closed with {} of {total} responses outstanding",
                            total - conn.recvd
                        ),
                    ));
                }
                return Ok(());
            }
            Ok(n) => {
                conn.decoder.extend(&buf[..n]);
                while let Some(_payload) = conn
                    .decoder
                    .next_frame()
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?
                {
                    let sent_at = conn.inflight.pop_front().ok_or_else(|| {
                        io::Error::new(io::ErrorKind::InvalidData, "response with no request")
                    })?;
                    latencies.push(sent_at.elapsed());
                    conn.recvd += 1;
                }
                if n < buf.len() {
                    return Ok(()); // short read: kernel buffer drained
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

/// Tops the pipeline up with fresh requests and writes as much of the
/// outbox as the socket accepts.
fn pump(
    conn: &mut ConnState,
    config: &LoadConfig,
    frames: &[Vec<u8>],
    token: usize,
) -> io::Result<()> {
    while conn.inflight.len() < config.pipeline && conn.sent < config.requests_per_connection {
        conn.outbox.extend_from_slice(&frames[(token + conn.sent) % frames.len()]);
        conn.inflight.push_back(Instant::now());
        conn.sent += 1;
    }
    while conn.out_pos < conn.outbox.len() {
        match conn.stream.write(&conn.outbox[conn.out_pos..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => conn.out_pos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    if conn.out_pos >= conn.outbox.len() {
        conn.outbox.clear();
        conn.out_pos = 0;
    }
    Ok(())
}

/// Narrows interest to what the connection still needs (writable only
/// while the outbox has unsent bytes) to keep spurious wakeups down.
fn update_interest(
    poller: &mut Poller,
    conn: &mut ConnState,
    token: usize,
    total: usize,
) -> io::Result<()> {
    let desired = match (conn.recvd < total, conn.out_pos < conn.outbox.len()) {
        (true, true) => Interest::BOTH,
        (true, false) => Interest::READABLE,
        (false, true) => Interest::WRITABLE,
        (false, false) => Interest::NONE,
    };
    if (desired.is_readable(), desired.is_writable())
        != (conn.interest.is_readable(), conn.interest.is_writable())
    {
        poller.modify(conn.stream.as_raw_fd(), token as u64, desired)?;
        conn.interest = desired;
    }
    Ok(())
}

/// If this process was re-exec'd as a serve-only child, run the server
/// and return `true` once it has shut down (the caller should exit).
/// Otherwise return `false` immediately.
///
/// The child announces `listening on ADDR` on stdout and serves until its
/// stdin reaches EOF — tying its lifetime to the parent's pipe, so an
/// aborted parent cannot strand it.
pub fn maybe_run_server_child() -> bool {
    if std::env::var_os(CHILD_ENV).is_none() {
        return false;
    }
    let divisor: usize = std::env::var(CHILD_DIVISOR_ENV)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&d| d > 0)
        .unwrap_or(8);
    let service = Arc::new(child_service(divisor));
    let config = ServerConfig { max_connections: 16_384, ..ServerConfig::default() };
    let handle = server::spawn_with(service, "127.0.0.1:0", config).expect("bind");
    announce(handle.addr());
    wait_for_stdin_eof();
    handle.shutdown();
    true
}

/// The child's model: a trained store on a scaled-down preset.
fn child_service(divisor: usize) -> InfluenceService {
    let ds = cdim_datagen::presets::flixster_small().scaled_down(divisor).generate();
    let policy = CreditPolicy::time_aware(&ds.graph, &ds.log);
    let store = scan(&ds.graph, &ds.log, &policy, 0.001).expect("scan");
    InfluenceService::new(ModelSnapshot::from_store(store), 4096)
}

fn announce(addr: SocketAddr) {
    println!("listening on {addr}");
    io::stdout().flush().ok();
}

fn wait_for_stdin_eof() {
    let mut sink = [0u8; 256];
    let mut stdin = io::stdin().lock();
    while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
}

/// A serve-only child process (see [`maybe_run_server_child`]); dropping
/// it closes the child's stdin, which makes the child exit.
pub struct ChildServer {
    child: std::process::Child,
    addr: SocketAddr,
}

impl ChildServer {
    /// Re-execs the current binary as a server child over a
    /// `scaled_down(divisor)` model and waits for its `listening on`
    /// announcement.
    pub fn spawn(divisor: usize) -> io::Result<ChildServer> {
        let exe = std::env::current_exe()?;
        let mut child = std::process::Command::new(exe)
            .env(CHILD_ENV, "1")
            .env(CHILD_DIVISOR_ENV, divisor.to_string())
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::inherit())
            .spawn()?;
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = io::BufReader::new(stdout).lines();
        let addr = loop {
            match lines.next() {
                Some(Ok(line)) => {
                    if let Some(rest) = line.strip_prefix("listening on ") {
                        break rest.trim().parse().map_err(|e| {
                            io::Error::new(
                                io::ErrorKind::InvalidData,
                                format!("bad child address {rest:?}: {e}"),
                            )
                        })?;
                    }
                }
                Some(Err(e)) => return Err(e),
                None => {
                    let status = child.wait()?;
                    return Err(io::Error::other(format!(
                        "server child exited ({status}) before announcing its address"
                    )));
                }
            }
        };
        Ok(ChildServer { child, addr })
    }

    /// The child's listening address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for ChildServer {
    fn drop(&mut self) {
        // Closing our write end of the child's stdin is the shutdown
        // signal; then reap so no zombie outlives the bench.
        drop(self.child.stdin.take());
        let _ = self.child.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_service() -> Arc<InfluenceService> {
        let ds = cdim_datagen::presets::tiny().generate();
        let policy = CreditPolicy::time_aware(&ds.graph, &ds.log);
        let store = scan(&ds.graph, &ds.log, &policy, 0.001).unwrap();
        Arc::new(InfluenceService::new(ModelSnapshot::from_store(store), 1024))
    }

    #[test]
    fn loadgen_answers_every_pipelined_request() {
        let handle = server::spawn(tiny_service(), "127.0.0.1:0").unwrap();
        let config = LoadConfig {
            connections: 8,
            requests_per_connection: 16,
            pipeline: 4,
            ..LoadConfig::default()
        };
        let report = run(handle.addr(), &config).unwrap();
        assert_eq!(report.requests, 8 * 16);
        assert_eq!(report.connections, 8);
        assert!(report.p50 <= report.p99 && report.p99 <= report.max);
        assert!(report.qps() > 0.0);
        handle.shutdown();
    }

    #[test]
    fn strict_ping_pong_still_completes() {
        let handle = server::spawn(tiny_service(), "127.0.0.1:0").unwrap();
        let config = LoadConfig {
            connections: 2,
            requests_per_connection: 5,
            pipeline: 1,
            ..LoadConfig::default()
        };
        let report = run(handle.addr(), &config).unwrap();
        assert_eq!(report.requests, 10);
        handle.shutdown();
    }
}
