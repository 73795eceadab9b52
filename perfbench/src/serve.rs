//! The serve pipeline: `ModelSnapshot::load` of the v2 file into
//! `InfluenceService::new(snapshot, 1024)` behind `server::spawn_with`,
//! then the seeded query mix as a closed loop over one connection with one
//! request in flight (callers wait for each answer).

use crate::measure::{Ctx, Mode, Rep};
use crate::offline::{file_mb, model_probe};
use crate::plan::{Files, CACHE_CAPACITY, SERVER_WORKERS, SETUP_CYCLES};
use crate::requests::{self, same_bits, Query};
use crate::stats::median;
use cdim::serve::{InfluenceService, ModelSnapshot, QueryClient, Request, Response, ServerConfig};
use cdim::util::Rng;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Distinct TCP answers compared against the in-process model.
const CHECK_SAMPLE: usize = 128;
/// Cached keys re-sent to time the reactor's round trip alone.
const HIT_PROBES: usize = 200;

/// What a repetition leaves behind for the checks.
struct Served {
    model: Arc<ModelSnapshot>,
    answers: Vec<Option<Response>>,
    tcp_seconds: f64,
}

/// The running server the repetitions share.
struct Server {
    service: Arc<InfluenceService>,
    client: QueryClient,
}

/// Runs the serve pipeline; as the primary pipeline, checks a seeded
/// sample of distinct TCP answers against the in-process model.
///
/// One server serves every repetition, so each runs on the same reactor
/// and worker threads (a fresh server per repetition handed its worker a
/// different allocator arena each time, which moved peak RSS by the size
/// of a query's credit-array copy). Each repetition starts cold by
/// publishing a freshly loaded snapshot, which clears the answer cache.
pub fn run(ctx: &mut Ctx, mode: Mode) -> Result<Vec<Rep>, String> {
    let queries = requests::load(&ctx.files.requests())?;
    let short = &queries[..ctx.plan.short_requests.min(queries.len())];
    let seq = match mode {
        Mode::Primary => &queries[..ctx.plan.requests.min(queries.len())],
        Mode::Probe => short,
    };
    let model = load(&ctx.files)?;
    let service = Arc::new(InfluenceService::new(model, CACHE_CAPACITY));
    let config = ServerConfig { workers: SERVER_WORKERS, ..ServerConfig::default() };
    let handle = cdim::serve::spawn_with(Arc::clone(&service), "127.0.0.1:0", config)
        .map_err(|e| format!("spawning the server: {e}"))?;
    let client = QueryClient::connect(handle.addr()).map_err(|e| format!("connecting: {e}"))?;
    let mut server = Server { service, client };

    let min_queries = ctx.plan.min_queries;
    let mut last: Option<Served> = None;
    let reps = match mode {
        Mode::Primary => ctx.repeat(
            |c, warm_up| {
                last = None;
                let (r, s) = rep(c, &mut server, if warm_up { short } else { seq })?;
                last = Some(s);
                Ok(r)
            },
            |reps| reps.iter().map(|r| r.latencies_s.len()).sum::<usize>() >= min_queries,
        )?,
        Mode::Probe => {
            let (r, s) = rep(ctx, &mut server, seq)?;
            last = Some(s);
            vec![r]
        }
    };
    let served = last.expect("at least one repetition ran");
    if mode == Mode::Primary {
        ctx.mark_rss_peak();
        ctx.value("serve.resident_mb", served.model.resident_bytes() as f64 / (1024.0 * 1024.0));
    }
    if ctx.rec.enabled() {
        time_cached_round_trips(ctx, &mut server, seq);
    }
    drop(server);
    handle.shutdown();
    if ctx.rec.enabled() {
        replay(ctx, &served, seq);
        if mode == Mode::Primary {
            model_probe(ctx, &served.model)?;
        }
    }
    if mode == Mode::Primary {
        check_answers(ctx, &served, seq);
    }
    Ok(reps)
}

fn load(files: &Files) -> Result<ModelSnapshot, String> {
    ModelSnapshot::load(&files.model())
        .map_err(|e| format!("loading {}: {e}", files.model().display()))
}

/// One repetition from a cold cache: load and publish the snapshot and
/// get a first answer, [`SETUP_CYCLES`] times (`setup_s` is their
/// median), then send the fixed sequence as a closed loop, one request in
/// flight (`work_s`).
fn rep(ctx: &mut Ctx, server: &mut Server, seq: &[Query]) -> Result<(Rep, Served), String> {
    let files = ctx.files.clone();
    let wire: Vec<Request> = seq.iter().map(Query::request).collect();
    let mut setups = Vec::with_capacity(SETUP_CYCLES);
    for _ in 0..SETUP_CYCLES {
        let (ready, secs) = ctx.rec.span("setup", |r| -> Result<(), String> {
            let (model, _) = r.span("serve.load", |_| load(&files));
            server.service.publish(model?);
            server.client.info().map_err(|e| format!("first request: {e}"))?;
            Ok(())
        });
        ready?;
        setups.push(secs);
    }
    let setup_s = median(&setups).expect("SETUP_CYCLES > 0");
    ctx.value("serve.snapshot_mb", file_mb(&files.model()));

    let before = server.service.stats();
    let (timings, work_s) = ctx.rec.span("serve.sequence", |r| {
        let mut timings = Vec::with_capacity(wire.len());
        for request in &wire {
            let start = Instant::now();
            let response = server.client.request(request).map_err(|e| e.to_string());
            let end = Instant::now();
            r.record("load.request", start, end);
            timings.push((end.duration_since(start).as_secs_f64(), response));
        }
        timings
    });
    let after = server.service.stats();
    ctx.value(
        "serve.service.hit_share",
        (after.cache_hits - before.cache_hits) as f64
            / (after.queries - before.queries).max(1) as f64,
    );

    let mut answers: Vec<Option<Response>> = Vec::with_capacity(seq.len());
    let mut latencies = Vec::with_capacity(seq.len());
    for (query, (latency, response)) in seq.iter().zip(timings) {
        latencies.push(latency);
        let ok = matches!(
            (query, &response),
            (Query::Spread(_), Ok(Response::Spread(_)))
                | (Query::Gain { .. }, Ok(Response::MarginalGain(_)))
                | (Query::TopK(_), Ok(Response::TopKSeeds { .. }))
        );
        count(ctx, ok);
        answers.push(response.ok());
    }
    let dump = server.client.metrics().map_err(|e| format!("metrics request: {e}"))?;
    if let Some((_, batch)) = dump.histograms.iter().find(|(n, _)| n == "cdim_serve_batch_size") {
        ctx.value("serve.reactor.batch_mean", batch.sum / batch.count.max(1) as f64);
    }

    let tcp_seconds = latencies.iter().sum();
    let rep =
        Rep { setup_s, work_s, items: seq.len() as f64, latencies_s: latencies, ..Rep::default() };
    Ok((rep, Served { model: server.service.snapshot(), answers, tcp_seconds }))
}

/// Counts one request in the load accounting.
pub fn count(ctx: &mut Ctx, ok: bool) {
    ctx.attempted += 1;
    ctx.load.sent += 1;
    if ok {
        ctx.load.ok += 1;
    } else {
        ctx.load.failed += 1;
        ctx.failed += 1;
    }
}

/// Re-sends the most recent distinct keys (all still cached) one at a
/// time, timing the TCP round trip of answers served from cache.
fn time_cached_round_trips(ctx: &mut Ctx, server: &mut Server, seq: &[Query]) {
    let mut recent: Vec<&Query> = Vec::new();
    for q in seq.iter().rev() {
        if recent.len() == HIT_PROBES {
            break;
        }
        if !recent.contains(&q) {
            recent.push(q);
        }
    }
    let hits_before = server.service.stats().cache_hits;
    for q in &recent {
        let request = q.request();
        let start = Instant::now();
        let response = server.client.request(&request);
        ctx.rec.record("serve.reactor.hit_rtt", start, Instant::now());
        count(ctx, response.is_ok());
    }
    let hits = server.service.stats().cache_hits - hits_before;
    if hits != recent.len() as u64 {
        println!("note: {hits} of {} cached-key probes hit the cache", recent.len());
    }
}

/// Replays `seq` in-process into a fresh service, one query per
/// `query_batch` call, and derives the reactor's share of TCP latency.
fn replay(ctx: &mut Ctx, served: &Served, seq: &[Query]) {
    let service = InfluenceService::new((*served.model).clone(), CACHE_CAPACITY);
    let mut in_process = 0.0;
    for q in seq {
        let query = q.service_query();
        let (answer, secs) = ctx
            .rec
            .span("serve.service.query", |_| service.query_batch(std::slice::from_ref(&query)));
        std::hint::black_box(answer);
        in_process += secs;
    }
    ctx.value("serve.reactor.overhead_share", 1.0 - in_process / served.tcp_seconds);
}

/// Compares a seeded sample of distinct TCP answers with the answer
/// computed directly on the model for the same canonical key.
fn check_answers(ctx: &mut Ctx, served: &Served, seq: &[Query]) {
    let mut distinct: BTreeMap<&Query, &Response> = BTreeMap::new();
    for (q, a) in seq.iter().zip(&served.answers) {
        if let Some(a) = a {
            distinct.entry(q).or_insert(a);
        }
    }
    let mut keys: Vec<(&Query, &Response)> = distinct.into_iter().collect();
    Rng::seed_from_u64(ctx.plan.request_seed ^ 2).shuffle(&mut keys);
    keys.truncate(CHECK_SAMPLE);
    let wrong = keys.iter().filter(|(q, a)| !same_bits(a, &q.reference(&served.model))).count();
    ctx.check(
        format!(
            "serve: {} distinct TCP answers equal the in-process model bit for bit ({wrong} differ)",
            keys.len()
        ),
        wrong == 0 && !keys.is_empty(),
    );
}
