//! The length-prefixed request/response wire protocol.
//!
//! Every message is one frame: a `u32` little-endian payload length
//! followed by the payload. The first payload byte is an opcode; the rest
//! is the fixed encoding of that message (u32/f64 little-endian, vectors
//! as `u32` count + elements — the same primitives as the snapshot
//! format).
//!
//! ## Requests
//!
//! | opcode | request       | payload after opcode |
//! |--------|---------------|----------------------|
//! | 1      | TopKSeeds     | `budget u32` |
//! | 2      | Spread        | `n u32 · n × u32 seed` |
//! | 3      | MarginalGain  | `n u32 · n × u32 seed · candidate u32` |
//! | 4      | Info          | — |
//! | 5      | Stats         | — |
//! | 6      | Metrics       | — |
//! | 7      | TraceDump     | — |
//!
//! ## Responses
//!
//! | opcode | response      | payload after opcode |
//! |--------|---------------|----------------------|
//! | 1      | TopKSeeds     | `n u32 · n × (seed u32 · gain f64)` |
//! | 2      | Spread        | `sigma f64` |
//! | 3      | MarginalGain  | `gain f64` |
//! | 4      | Info          | `num_users u64 · num_actions u64 · seeds u64 · hits u64 · misses u64` |
//! | 5      | Stats         | `queries u64 · hits u64 · misses u64 · publishes u64 · version u64` |
//! | 6      | Metrics       | `nc u32 · nc × (str · u64) · ng u32 · ng × (str · f64) · nh u32 · nh × (str · count u64 · sum f64 · max f64 · p50 f64 · p90 f64 · p99 f64) · ni u32 · ni × (str · str · str)` |
//! | 7      | TraceDump     | `ns u32 · ns × span · nt u32 · nt × (duration u64 · ns u32 · ns × span)` |
//! | 255    | Error         | `len u32 · len × utf-8 byte` |
//!
//! where `str` is `len u32 · len × utf-8 byte`. The Metrics payload is a
//! full [`cdim_obs::RegistryDump`]: counters, gauges, histogram summaries,
//! then info metrics (name · label key · label value), each block sorted
//! by metric name. The TraceDump payload is a [`cdim_obs::TraceDump`]:
//! the flight recorder's recent spans then the slow-query log, where
//! `span` is `trace_id u64 · span_id u32 · parent u32 · stage str ·
//! start_ns u64 · end_ns u64 · nkv u32 · nkv × (str · u64)`.
//!
//! Frames above [`MAX_FRAME_LEN`] are rejected before allocation, so a
//! garbage length prefix cannot make the server reserve gigabytes.

use crate::codec::{push_f64, push_u32, push_u64};
use cdim_obs::{HistogramSummary, RegistryDump, SlowTraceDump, SpanDump, TraceDump};
use std::io::{Read, Write};

/// Upper bound on a single frame's payload (16 MiB — a 4-million-seed
/// query, far beyond anything meaningful).
pub const MAX_FRAME_LEN: u32 = 16 << 20;

const OP_TOPK: u8 = 1;
const OP_SPREAD: u8 = 2;
const OP_GAIN: u8 = 3;
const OP_INFO: u8 = 4;
const OP_STATS: u8 = 5;
const OP_METRICS: u8 = 6;
const OP_TRACE: u8 = 7;
const OP_ERROR: u8 = 255;

/// A wire request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Select the `budget` best seeds.
    TopKSeeds {
        /// Number of seeds to select.
        budget: u32,
    },
    /// Predict σ_cd of a seed set.
    Spread {
        /// The seed set.
        seeds: Vec<u32>,
    },
    /// Marginal gain of `candidate` on top of `seeds`.
    MarginalGain {
        /// The existing seed set.
        seeds: Vec<u32>,
        /// The candidate user.
        candidate: u32,
    },
    /// Snapshot dimensions and cache counters.
    Info,
    /// Service observability counters (queries served, cache hits,
    /// publishes applied, current model version).
    Stats,
    /// Full metrics-registry dump: every counter, gauge, latency-histogram
    /// summary, and info metric the process has registered.
    Metrics,
    /// Flight-recorder dump: the recent spans in the process-wide trace
    /// ring plus the slow-query log.
    TraceDump,
}

/// Snapshot and cache facts returned by [`Request::Info`].
///
/// The dimension fields are `u64` on the wire: a billion-user action log
/// overflows `u32` action counts, and the old `as u32` casts silently
/// truncated (fixed in PR 9 by widening the op-4 payload).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceInfo {
    /// Users in the served snapshot.
    pub num_users: u64,
    /// Actions in the served snapshot.
    pub num_actions: u64,
    /// Seeds already committed in the served snapshot.
    pub committed_seeds: u64,
    /// Answer-cache hits since the service started.
    pub cache_hits: u64,
    /// Answer-cache misses since the service started.
    pub cache_misses: u64,
}

/// Service counters returned by [`Request::Stats`] — the wire form of
/// [`crate::service::ServiceStats`], kept separate so the protocol stays
/// a closed, versioned surface.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsReply {
    /// Queries received by the service (including rejected ones).
    pub queries: u64,
    /// Queries answered from the LRU cache.
    pub cache_hits: u64,
    /// Queries that had to be computed.
    pub cache_misses: u64,
    /// Snapshots published since the service started.
    pub publishes: u64,
    /// Version of the currently served model (0 = the startup snapshot).
    pub model_version: u64,
}

/// A wire response.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Seeds in selection order with their marginal gains.
    TopKSeeds {
        /// Chosen seeds, best first.
        seeds: Vec<u32>,
        /// Marginal gain of each seed at its selection step.
        gains: Vec<f64>,
    },
    /// σ_cd of the queried set.
    Spread(f64),
    /// The queried marginal gain.
    MarginalGain(f64),
    /// Answer to [`Request::Info`].
    Info(ServiceInfo),
    /// Answer to [`Request::Stats`].
    Stats(StatsReply),
    /// Answer to [`Request::Metrics`].
    Metrics(RegistryDump),
    /// Answer to [`Request::TraceDump`].
    TraceDump(TraceDump),
    /// The request was rejected; the payload explains why.
    Error(String),
}

/// Decoding/transport failures.
#[derive(Debug)]
pub enum ProtocolError {
    /// The underlying stream failed.
    Io(std::io::Error),
    /// A frame length exceeded [`MAX_FRAME_LEN`].
    FrameTooLarge(u32),
    /// The payload ended before a field could be read.
    Truncated,
    /// The first payload byte is not a known opcode.
    UnknownOpcode(u8),
    /// A structurally invalid payload (bad count, trailing bytes, bad
    /// UTF-8 in an error message, …).
    Malformed(&'static str),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "transport error: {e}"),
            ProtocolError::FrameTooLarge(n) => {
                write!(f, "frame of {n} bytes exceeds the {MAX_FRAME_LEN}-byte limit")
            }
            ProtocolError::Truncated => write!(f, "frame payload truncated"),
            ProtocolError::UnknownOpcode(op) => write!(f, "unknown opcode {op}"),
            ProtocolError::Malformed(why) => write!(f, "malformed frame: {why}"),
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ProtocolError {
    fn from(e: std::io::Error) -> Self {
        ProtocolError::Io(e)
    }
}

// ------------------------------------------------------------------ frames

/// Writes one `length · payload` frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame. Returns `Ok(None)` on a clean end-of-stream at a frame
/// boundary (the peer hung up between requests).
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, ProtocolError> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => return Err(ProtocolError::Truncated),
            n => filled += n,
        }
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME_LEN {
        return Err(ProtocolError::FrameTooLarge(len));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            ProtocolError::Truncated
        } else {
            ProtocolError::Io(e)
        }
    })?;
    Ok(Some(payload))
}

/// Incremental frame decoder for nonblocking streams.
///
/// The reactor reads whatever bytes the socket has and feeds them in via
/// [`FrameDecoder::extend`]; [`FrameDecoder::next_frame`] yields complete
/// payloads as they become available and keeps partial frames buffered
/// across reads — a slow peer that delivers a request one byte at a time
/// loses nothing. Oversized length prefixes are rejected before any
/// payload allocation, exactly like [`read_frame`].
#[derive(Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Bytes before this offset belong to already-yielded frames; the
    /// buffer is compacted lazily so pipelined bursts don't memmove per
    /// frame.
    consumed: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Appends freshly read bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete payload, `Ok(None)` when more bytes are
    /// needed, or [`ProtocolError::FrameTooLarge`] on an absurd length
    /// prefix (the connection is unrecoverable after that — framing is
    /// lost).
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, ProtocolError> {
        let pending = &self.buf[self.consumed..];
        if pending.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(pending[..4].try_into().unwrap());
        if len > MAX_FRAME_LEN {
            return Err(ProtocolError::FrameTooLarge(len));
        }
        let total = 4 + len as usize;
        if pending.len() < total {
            return Ok(None);
        }
        let payload = pending[4..total].to_vec();
        self.consumed += total;
        Ok(Some(payload))
    }

    /// True when a partially delivered frame (or unparsed bytes) sit in
    /// the buffer — the signal that a read timeout is a mid-frame stall
    /// rather than idleness.
    pub fn has_partial(&self) -> bool {
        self.consumed < self.buf.len()
    }

    /// Bytes currently buffered (partial frames and not-yet-popped
    /// complete frames).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.consumed
    }

    /// Drops yielded-frame bytes once they dominate the buffer, keeping
    /// amortized O(1) per byte.
    fn compact(&mut self) {
        if self.consumed > 0 && (self.consumed >= self.buf.len() || self.consumed >= 4096) {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
    }
}

// ---------------------------------------------------------------- encoding

fn push_seeds(out: &mut Vec<u8>, seeds: &[u32]) {
    push_u32(out, seeds.len() as u32);
    for &s in seeds {
        push_u32(out, s);
    }
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    push_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn push_span(out: &mut Vec<u8>, span: &SpanDump) {
    push_u64(out, span.trace_id);
    push_u32(out, span.span_id);
    push_u32(out, span.parent_id);
    push_str(out, &span.stage);
    push_u64(out, span.start_ns);
    push_u64(out, span.end_ns);
    push_u32(out, span.kv.len() as u32);
    for (key, value) in &span.kv {
        push_str(out, key);
        push_u64(out, *value);
    }
}

fn push_trace_dump(out: &mut Vec<u8>, dump: &TraceDump) {
    push_u32(out, dump.spans.len() as u32);
    for span in &dump.spans {
        push_span(out, span);
    }
    push_u32(out, dump.slow.len() as u32);
    for trace in &dump.slow {
        push_u64(out, trace.duration_ns);
        push_u32(out, trace.spans.len() as u32);
        for span in &trace.spans {
            push_span(out, span);
        }
    }
}

fn push_dump(out: &mut Vec<u8>, dump: &RegistryDump) {
    push_u32(out, dump.counters.len() as u32);
    for (name, value) in &dump.counters {
        push_str(out, name);
        push_u64(out, *value);
    }
    push_u32(out, dump.gauges.len() as u32);
    for (name, value) in &dump.gauges {
        push_str(out, name);
        push_f64(out, *value);
    }
    push_u32(out, dump.histograms.len() as u32);
    for (name, s) in &dump.histograms {
        push_str(out, name);
        push_u64(out, s.count);
        push_f64(out, s.sum);
        push_f64(out, s.max);
        push_f64(out, s.p50);
        push_f64(out, s.p90);
        push_f64(out, s.p99);
    }
    push_u32(out, dump.infos.len() as u32);
    for (name, label, value) in &dump.infos {
        push_str(out, name);
        push_str(out, label);
        push_str(out, value);
    }
}

/// Serializes a request payload.
pub fn encode_request(request: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    match request {
        Request::TopKSeeds { budget } => {
            out.push(OP_TOPK);
            push_u32(&mut out, *budget);
        }
        Request::Spread { seeds } => {
            out.push(OP_SPREAD);
            push_seeds(&mut out, seeds);
        }
        Request::MarginalGain { seeds, candidate } => {
            out.push(OP_GAIN);
            push_seeds(&mut out, seeds);
            push_u32(&mut out, *candidate);
        }
        Request::Info => out.push(OP_INFO),
        Request::Stats => out.push(OP_STATS),
        Request::Metrics => out.push(OP_METRICS),
        Request::TraceDump => out.push(OP_TRACE),
    }
    out
}

/// Serializes a response payload.
pub fn encode_response(response: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    match response {
        Response::TopKSeeds { seeds, gains } => {
            debug_assert_eq!(seeds.len(), gains.len());
            out.push(OP_TOPK);
            push_u32(&mut out, seeds.len() as u32);
            for (&s, &g) in seeds.iter().zip(gains) {
                push_u32(&mut out, s);
                push_f64(&mut out, g);
            }
        }
        Response::Spread(sigma) => {
            out.push(OP_SPREAD);
            push_f64(&mut out, *sigma);
        }
        Response::MarginalGain(gain) => {
            out.push(OP_GAIN);
            push_f64(&mut out, *gain);
        }
        Response::Info(info) => {
            out.push(OP_INFO);
            push_u64(&mut out, info.num_users);
            push_u64(&mut out, info.num_actions);
            push_u64(&mut out, info.committed_seeds);
            push_u64(&mut out, info.cache_hits);
            push_u64(&mut out, info.cache_misses);
        }
        Response::Stats(stats) => {
            out.push(OP_STATS);
            push_u64(&mut out, stats.queries);
            push_u64(&mut out, stats.cache_hits);
            push_u64(&mut out, stats.cache_misses);
            push_u64(&mut out, stats.publishes);
            push_u64(&mut out, stats.model_version);
        }
        Response::Metrics(dump) => {
            out.push(OP_METRICS);
            push_dump(&mut out, dump);
        }
        Response::TraceDump(dump) => {
            out.push(OP_TRACE);
            push_trace_dump(&mut out, dump);
        }
        Response::Error(message) => {
            out.push(OP_ERROR);
            let bytes = message.as_bytes();
            push_u32(&mut out, bytes.len() as u32);
            out.extend_from_slice(bytes);
        }
    }
    out
}

// ---------------------------------------------------------------- decoding

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        if self.pos + n > self.buf.len() {
            return Err(ProtocolError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ProtocolError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ProtocolError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, ProtocolError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn string(&mut self) -> Result<String, ProtocolError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes)
            .map(str::to_string)
            .map_err(|_| ProtocolError::Malformed("string is not UTF-8"))
    }

    fn seeds(&mut self) -> Result<Vec<u32>, ProtocolError> {
        let n = self.u32()? as usize;
        if n * 4 > self.buf.len() - self.pos {
            return Err(ProtocolError::Truncated);
        }
        let mut seeds = Vec::with_capacity(n);
        for _ in 0..n {
            seeds.push(self.u32()?);
        }
        Ok(seeds)
    }

    fn done(&self) -> Result<(), ProtocolError> {
        if self.pos != self.buf.len() {
            return Err(ProtocolError::Malformed("trailing bytes"));
        }
        Ok(())
    }
}

/// Parses a request payload.
pub fn decode_request(payload: &[u8]) -> Result<Request, ProtocolError> {
    let mut r = Reader { buf: payload, pos: 0 };
    let request = match r.u8()? {
        OP_TOPK => Request::TopKSeeds { budget: r.u32()? },
        OP_SPREAD => Request::Spread { seeds: r.seeds()? },
        OP_GAIN => {
            let seeds = r.seeds()?;
            let candidate = r.u32()?;
            Request::MarginalGain { seeds, candidate }
        }
        OP_INFO => Request::Info,
        OP_STATS => Request::Stats,
        OP_METRICS => Request::Metrics,
        OP_TRACE => Request::TraceDump,
        op => return Err(ProtocolError::UnknownOpcode(op)),
    };
    r.done()?;
    Ok(request)
}

fn read_span(r: &mut Reader<'_>) -> Result<SpanDump, ProtocolError> {
    let trace_id = r.u64()?;
    let span_id = r.u32()?;
    let parent_id = r.u32()?;
    let stage = r.string()?;
    let start_ns = r.u64()?;
    let end_ns = r.u64()?;
    let nkv = r.u32()? as usize;
    let mut kv = Vec::new();
    for _ in 0..nkv {
        let key = r.string()?;
        kv.push((key, r.u64()?));
    }
    Ok(SpanDump { trace_id, span_id, parent_id, stage, start_ns, end_ns, kv })
}

/// Parses a response payload.
pub fn decode_response(payload: &[u8]) -> Result<Response, ProtocolError> {
    let mut r = Reader { buf: payload, pos: 0 };
    let response = match r.u8()? {
        OP_TOPK => {
            let n = r.u32()? as usize;
            if n * 12 > payload.len() {
                return Err(ProtocolError::Truncated);
            }
            let mut seeds = Vec::with_capacity(n);
            let mut gains = Vec::with_capacity(n);
            for _ in 0..n {
                seeds.push(r.u32()?);
                gains.push(r.f64()?);
            }
            Response::TopKSeeds { seeds, gains }
        }
        OP_SPREAD => Response::Spread(r.f64()?),
        OP_GAIN => Response::MarginalGain(r.f64()?),
        OP_INFO => Response::Info(ServiceInfo {
            num_users: r.u64()?,
            num_actions: r.u64()?,
            committed_seeds: r.u64()?,
            cache_hits: r.u64()?,
            cache_misses: r.u64()?,
        }),
        OP_STATS => Response::Stats(StatsReply {
            queries: r.u64()?,
            cache_hits: r.u64()?,
            cache_misses: r.u64()?,
            publishes: r.u64()?,
            model_version: r.u64()?,
        }),
        OP_METRICS => {
            // Counts are bounded by the payload itself: every entry is at
            // least 4 bytes, so an absurd count fails in `take` before any
            // large allocation (capacity is never pre-reserved from it).
            let nc = r.u32()? as usize;
            let mut counters = Vec::new();
            for _ in 0..nc {
                let name = r.string()?;
                counters.push((name, r.u64()?));
            }
            let ng = r.u32()? as usize;
            let mut gauges = Vec::new();
            for _ in 0..ng {
                let name = r.string()?;
                gauges.push((name, r.f64()?));
            }
            let nh = r.u32()? as usize;
            let mut histograms = Vec::new();
            for _ in 0..nh {
                let name = r.string()?;
                histograms.push((
                    name,
                    HistogramSummary {
                        count: r.u64()?,
                        sum: r.f64()?,
                        max: r.f64()?,
                        p50: r.f64()?,
                        p90: r.f64()?,
                        p99: r.f64()?,
                    },
                ));
            }
            let ni = r.u32()? as usize;
            let mut infos = Vec::new();
            for _ in 0..ni {
                let name = r.string()?;
                let label = r.string()?;
                infos.push((name, label, r.string()?));
            }
            Response::Metrics(RegistryDump { counters, gauges, histograms, infos })
        }
        OP_TRACE => {
            // Same bounded-count discipline as OP_METRICS: counts are never
            // pre-reserved, so absurd values fail in `take` immediately.
            let ns = r.u32()? as usize;
            let mut spans = Vec::new();
            for _ in 0..ns {
                spans.push(read_span(&mut r)?);
            }
            let nt = r.u32()? as usize;
            let mut slow = Vec::new();
            for _ in 0..nt {
                let duration_ns = r.u64()?;
                let ns = r.u32()? as usize;
                let mut trace_spans = Vec::new();
                for _ in 0..ns {
                    trace_spans.push(read_span(&mut r)?);
                }
                slow.push(SlowTraceDump { duration_ns, spans: trace_spans });
            }
            Response::TraceDump(TraceDump { spans, slow })
        }
        OP_ERROR => {
            let len = r.u32()? as usize;
            let bytes = r.take(len)?;
            let message = std::str::from_utf8(bytes)
                .map_err(|_| ProtocolError::Malformed("error message is not UTF-8"))?;
            Response::Error(message.to_string())
        }
        op => return Err(ProtocolError::UnknownOpcode(op)),
    };
    r.done()?;
    Ok(response)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let requests = [
            Request::TopKSeeds { budget: 7 },
            Request::Spread { seeds: vec![] },
            Request::Spread { seeds: vec![5, 1, 5, 9] },
            Request::MarginalGain { seeds: vec![2, 3], candidate: 4 },
            Request::Info,
            Request::Stats,
            Request::Metrics,
            Request::TraceDump,
        ];
        for request in requests {
            let payload = encode_request(&request);
            assert_eq!(decode_request(&payload).unwrap(), request);
        }
    }

    #[test]
    fn responses_round_trip() {
        let responses = [
            Response::TopKSeeds { seeds: vec![4, 2], gains: vec![3.5, 1.25] },
            Response::TopKSeeds { seeds: vec![], gains: vec![] },
            Response::Spread(12.75),
            Response::MarginalGain(-0.0),
            Response::Info(ServiceInfo {
                num_users: 100,
                num_actions: 7,
                committed_seeds: 2,
                cache_hits: 5,
                cache_misses: 9,
            }),
            Response::Stats(StatsReply {
                queries: u64::MAX,
                cache_hits: 12,
                cache_misses: 3,
                publishes: 4,
                model_version: 4,
            }),
            Response::Metrics(RegistryDump::default()),
            Response::Metrics(RegistryDump {
                counters: vec![("cdim_serve_queries_total".to_string(), 42)],
                gauges: vec![
                    ("cdim_ingest_lag_bytes".to_string(), 0.0),
                    ("cdim_ingest_records_per_sec".to_string(), 1234.5),
                ],
                histograms: vec![(
                    "cdim_serve_query_seconds".to_string(),
                    HistogramSummary {
                        count: 9,
                        sum: 0.5,
                        max: 0.25,
                        p50: 0.01,
                        p90: 0.2,
                        p99: 0.25,
                    },
                )],
                infos: vec![(
                    "cdim_ingest_last_quarantine_reason".to_string(),
                    "reason".to_string(),
                    "stale action (frontier 17)".to_string(),
                )],
            }),
            Response::TraceDump(TraceDump::default()),
            Response::TraceDump(TraceDump {
                spans: vec![
                    SpanDump {
                        trace_id: 3,
                        span_id: 1,
                        parent_id: 0,
                        stage: "serve.request".to_string(),
                        start_ns: 1_000,
                        end_ns: 9_000,
                        kv: vec![],
                    },
                    SpanDump {
                        trace_id: 3,
                        span_id: 2,
                        parent_id: 1,
                        stage: "serve.eval".to_string(),
                        start_ns: 2_000,
                        end_ns: 8_000,
                        kv: vec![("batch".to_string(), 4), ("seeds".to_string(), 2)],
                    },
                ],
                slow: vec![SlowTraceDump {
                    duration_ns: 25_000_000,
                    spans: vec![SpanDump {
                        trace_id: 9,
                        span_id: 7,
                        parent_id: 0,
                        stage: "ingest.step".to_string(),
                        start_ns: 0,
                        end_ns: 25_000_000,
                        kv: vec![("records".to_string(), 123)],
                    }],
                }],
            }),
            Response::Error("user 9 out of range".to_string()),
        ];
        for response in responses {
            let payload = encode_response(&response);
            assert_eq!(decode_response(&payload).unwrap(), response);
        }
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &encode_request(&Request::TopKSeeds { budget: 3 })).unwrap();
        write_frame(&mut wire, &encode_request(&Request::Info)).unwrap();
        let mut cursor = &wire[..];
        let a = read_frame(&mut cursor).unwrap().unwrap();
        let b = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(decode_request(&a).unwrap(), Request::TopKSeeds { budget: 3 });
        assert_eq!(decode_request(&b).unwrap(), Request::Info);
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn truncated_and_oversized_frames_are_rejected() {
        // Length prefix promises more than the stream holds.
        let mut wire = Vec::new();
        write_frame(&mut wire, &[1, 2, 3, 4]).unwrap();
        wire.truncate(wire.len() - 2);
        let mut cursor = &wire[..];
        assert!(matches!(read_frame(&mut cursor), Err(ProtocolError::Truncated)));

        // Absurd length prefix fails before allocating.
        let wire = (MAX_FRAME_LEN + 1).to_le_bytes();
        assert!(matches!(
            read_frame(&mut &wire[..]),
            Err(ProtocolError::FrameTooLarge(n)) if n == MAX_FRAME_LEN + 1
        ));

        // Mid-length-prefix EOF is truncation, not a clean close.
        let wire = [1u8, 0];
        assert!(matches!(read_frame(&mut &wire[..]), Err(ProtocolError::Truncated)));
    }

    #[test]
    fn info_dimensions_survive_beyond_u32() {
        // Regression for the PR-2 `as u32` truncation: a snapshot bigger
        // than 2^32 actions must round-trip exactly through op 4.
        let info = ServiceInfo {
            num_users: u64::from(u32::MAX) + 12,
            num_actions: 1 << 40,
            committed_seeds: u64::from(u32::MAX) + 1,
            cache_hits: 3,
            cache_misses: 4,
        };
        let payload = encode_response(&Response::Info(info));
        match decode_response(&payload).unwrap() {
            Response::Info(round) => assert_eq!(round, info),
            other => panic!("expected Info, got {other:?}"),
        }
    }

    #[test]
    fn frame_decoder_handles_byte_at_a_time_delivery() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &encode_request(&Request::TopKSeeds { budget: 3 })).unwrap();
        write_frame(&mut wire, &encode_request(&Request::Spread { seeds: vec![1, 2, 3] })).unwrap();

        let mut decoder = FrameDecoder::new();
        let mut frames = Vec::new();
        for &byte in &wire {
            decoder.extend(&[byte]);
            while let Some(frame) = decoder.next_frame().unwrap() {
                frames.push(frame);
            }
        }
        assert_eq!(frames.len(), 2);
        assert_eq!(decode_request(&frames[0]).unwrap(), Request::TopKSeeds { budget: 3 });
        assert_eq!(decode_request(&frames[1]).unwrap(), Request::Spread { seeds: vec![1, 2, 3] });
        assert!(!decoder.has_partial());
        assert_eq!(decoder.buffered(), 0);
    }

    #[test]
    fn frame_decoder_pops_a_pipelined_burst_from_one_read() {
        let mut wire = Vec::new();
        for budget in 0..50u32 {
            write_frame(&mut wire, &encode_request(&Request::TopKSeeds { budget })).unwrap();
        }
        // One extra partial frame at the tail.
        wire.extend_from_slice(&8u32.to_le_bytes());
        wire.extend_from_slice(&[0, 1, 2]);

        let mut decoder = FrameDecoder::new();
        decoder.extend(&wire);
        let mut budgets = Vec::new();
        while let Some(frame) = decoder.next_frame().unwrap() {
            match decode_request(&frame).unwrap() {
                Request::TopKSeeds { budget } => budgets.push(budget),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(budgets, (0..50).collect::<Vec<_>>());
        assert!(decoder.has_partial(), "tail bytes must stay buffered");
        assert_eq!(decoder.buffered(), 7);

        // Delivering the rest completes the final frame.
        decoder.extend(&[3, 4, 5, 6, 7]);
        assert_eq!(decoder.next_frame().unwrap().unwrap(), vec![0, 1, 2, 3, 4, 5, 6, 7]);
        assert!(!decoder.has_partial());
    }

    #[test]
    fn frame_decoder_rejects_oversized_prefix_before_payload_arrives() {
        let mut decoder = FrameDecoder::new();
        decoder.extend(&(MAX_FRAME_LEN + 1).to_le_bytes());
        assert!(matches!(
            decoder.next_frame(),
            Err(ProtocolError::FrameTooLarge(n)) if n == MAX_FRAME_LEN + 1
        ));
    }

    #[test]
    fn frame_decoder_compaction_preserves_the_stream() {
        // Interleave extends and pops so `consumed` crosses the compaction
        // threshold repeatedly; every frame must still come out intact.
        let mut decoder = FrameDecoder::new();
        let payload = vec![7u8; 1500];
        for round in 0..20 {
            let mut wire = Vec::new();
            write_frame(&mut wire, &payload).unwrap();
            let (a, b) = wire.split_at(wire.len() / 2);
            decoder.extend(a);
            assert!(decoder.next_frame().unwrap().is_none(), "round {round}");
            decoder.extend(b);
            assert_eq!(decoder.next_frame().unwrap().unwrap(), payload, "round {round}");
        }
    }

    #[test]
    fn malformed_payloads_are_rejected() {
        assert!(matches!(decode_request(&[]), Err(ProtocolError::Truncated)));
        assert!(matches!(decode_request(&[42]), Err(ProtocolError::UnknownOpcode(42))));
        // Seed count promising more seeds than the payload holds.
        let mut bad = vec![2u8]; // OP_SPREAD
        bad.extend_from_slice(&1000u32.to_le_bytes());
        assert!(matches!(decode_request(&bad), Err(ProtocolError::Truncated)));
        // Trailing garbage.
        let mut bad = encode_request(&Request::Info);
        bad.push(0);
        assert!(matches!(decode_request(&bad), Err(ProtocolError::Malformed(_))));
        // Non-UTF-8 error message.
        let mut bad = vec![255u8];
        bad.extend_from_slice(&2u32.to_le_bytes());
        bad.extend_from_slice(&[0xFF, 0xFE]);
        assert!(matches!(decode_response(&bad), Err(ProtocolError::Malformed(_))));
    }
}
