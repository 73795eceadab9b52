//! The live pipeline: an `IngestDriver` resumed from a checkpoint of the
//! log minus its tail (the `cdim follow` defaults: one action per batch,
//! a checkpoint every publish, λ 0.001, a time-aware policy frozen from
//! the checkpointed log) serving its model on the reactor, while the
//! benchmark appends the tail one action at a time and one connection
//! queries.
//!
//! The stream is a closed loop: each append is followed at once by
//! `IngestDriver::step`, and the next append waits until the step has
//! published, so the follower's poll interval never enters a timing.

use crate::measure::{Ctx, Mode, Rep};
use crate::offline::{file_mb, model_probe};
use crate::plan::{Files, CACHE_CAPACITY, LAMBDA, SERVER_WORKERS};
use crate::prepare::tail_actions;
use crate::requests::{self, Query};
use crate::serve::count;
use cdim::actionlog::storage;
use cdim::core::{scan_with, CreditPolicy};
use cdim::graph::DirectedGraph;
use cdim::ingest::{FollowConfig, IngestDriver};
use cdim::serve::{ModelSnapshot, QueryClient, Request, Response, ServerConfig};
use cdim::util::Parallelism;
use std::io::Write;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

const MB: f64 = 1024.0 * 1024.0;

/// The workload's fixed inputs, read once (untimed).
struct Inputs {
    graph: DirectedGraph,
    policy: CreditPolicy,
    tail: Vec<String>,
    wire: Vec<Request>,
}

/// Runs the live pipeline; as the primary pipeline, checks that the
/// served model equals an offline scan of the streamed log byte for byte.
pub fn run(ctx: &mut Ctx, mode: Mode) -> Result<Vec<Rep>, String> {
    let inputs = read_inputs(&ctx.files)?;
    let (short, full) = (ctx.plan.short_actions, ctx.plan.stream_actions);
    let (min_fresh, min_queries) = (ctx.plan.min_fresh, ctx.plan.min_queries);
    let mut last: Option<IngestDriver> = None;
    let reps = match mode {
        Mode::Primary => ctx.repeat(
            |c, warm_up| {
                last = None;
                let (r, d) = rep(c, &inputs, if warm_up { short } else { full })?;
                last = Some(d);
                Ok(r)
            },
            |reps| {
                reps.iter().map(|r| r.latencies_s.len()).sum::<usize>() >= min_fresh
                    && reps.iter().map(|r| r.query_latencies_s.len()).sum::<usize>() >= min_queries
            },
        )?,
        Mode::Probe => {
            let (r, d) = rep(ctx, &inputs, short)?;
            last = Some(d);
            vec![r]
        }
    };
    let mut driver = last.expect("at least one repetition ran");
    if mode == Mode::Primary {
        ctx.mark_rss_peak();
        if ctx.trace {
            model_probe(ctx, &driver.snapshot())?;
        }
    }
    // A probe is checked too: the traced train and serve runs report the
    // ingest layers from it, so they fail when ingest builds a wrong model.
    check_offline_equivalence(ctx, &inputs, &mut driver)?;
    Ok(reps)
}

fn read_inputs(files: &Files) -> Result<Inputs, String> {
    let graph = storage::load_graph(&files.graph()).map_err(|e| e.to_string())?;
    let base = storage::load_action_log(&files.base_log(), graph.num_nodes())
        .map_err(|e| e.to_string())?;
    let policy = CreditPolicy::time_aware(&graph, &base);
    let wire = requests::load(&files.live_requests())?.iter().map(Query::request).collect();
    Ok(Inputs { graph, policy, tail: tail_actions(files)?, wire })
}

/// One repetition from the pristine checkpoint: open + spawn (`setup_s`),
/// then publish `actions` streamed actions (`work_s`); each action's
/// append → published interval is a freshness sample.
fn rep(ctx: &mut Ctx, inputs: &Inputs, actions: usize) -> Result<(Rep, IngestDriver), String> {
    let files = ctx.files.clone();
    let io = |e: std::io::Error| e.to_string();
    std::fs::copy(files.base_log(), files.follow_log()).map_err(io)?;
    std::fs::copy(files.checkpoint(), files.follow_checkpoint()).map_err(io)?;
    let traced = ctx.rec.enabled();
    let config = FollowConfig {
        // The traced run checkpoints explicitly after each publish (same
        // work) so the checkpoint gets a span of its own.
        checkpoint_every: if traced { 0 } else { 1 },
        parallelism: Parallelism::fixed(ctx.threads),
        cache_capacity: CACHE_CAPACITY,
        ..FollowConfig::default()
    };
    let server_config = ServerConfig { workers: SERVER_WORKERS, ..ServerConfig::default() };
    let (graph, policy) = (inputs.graph.clone(), inputs.policy.clone());
    let (ready, setup_s) = ctx.rec.span("setup", |_| -> Result<_, String> {
        let driver = IngestDriver::open(
            graph,
            policy,
            &files.follow_log(),
            &files.follow_checkpoint(),
            config,
        )
        .map_err(|e| format!("opening the follower: {e}"))?;
        let server =
            cdim::serve::spawn_with(driver.service().clone(), "127.0.0.1:0", server_config)
                .map_err(|e| format!("spawning the server: {e}"))?;
        Ok((driver, server))
    });
    let (mut driver, server) = ready?;
    let resident_before = driver.snapshot().resident_bytes() as f64 / MB;
    let mut log = std::fs::OpenOptions::new().append(true).open(files.follow_log()).map_err(io)?;

    let stop = AtomicBool::new(false);
    let addr = server.addr();
    let (streamed, queries) = std::thread::scope(|s| {
        let reader = s.spawn(|| query_loop(addr, &inputs.wire, &stop));
        let streamed = ctx.rec.span("live.stream", |r| {
            stream(r, &mut driver, &mut log, &inputs.tail[..=actions], traced)
        });
        stop.store(true, Ordering::SeqCst);
        (streamed, reader.join().expect("reader thread panicked"))
    });
    server.shutdown();
    let ((stream, steps), work_s) = streamed;
    let steps = steps?;
    let queries = queries?;

    let mut ok_steps = 0;
    for step in &steps {
        ok_steps += usize::from(step.ok);
        ctx.attempted += 1;
        ctx.failed += u64::from(!step.ok);
        if traced && step.published {
            ctx.value("ingest.publish_ms", step.publish_s * 1e3);
            ctx.value("ingest.poll_ms", (step.step_s - step.publish_s) * 1e3);
        }
    }
    let quarantined = steps.last().map_or(0, |s| s.quarantined);
    ctx.value("ingest.quarantined", quarantined as f64);
    ctx.value("ingest.checkpoint_mb", file_mb(&files.follow_checkpoint()));
    if quarantined > 0 || ok_steps != steps.len() {
        println!(
            "note: {} of {} stream steps misbehaved, {quarantined} records quarantined",
            steps.len() - ok_steps,
            steps.len()
        );
    }
    let mut query_latencies = Vec::with_capacity(queries.len());
    for (start, end, ok) in queries {
        ctx.rec.record("load.request", start, end);
        query_latencies.push(end.duration_since(start).as_secs_f64());
        count(ctx, ok);
    }
    ctx.value("serve.service.hit_share", {
        let stats = driver.service().stats();
        stats.cache_hits as f64 / stats.queries.max(1) as f64
    });
    ctx.value("serve.resident_mb", driver.snapshot().resident_bytes() as f64 / MB);
    println!(
        "  live rep: {actions} actions, resident {resident_before:.1} → {:.1} MB",
        driver.snapshot().resident_bytes() as f64 / MB
    );
    let rep = Rep {
        setup_s,
        work_s,
        items: stream.tuples as f64,
        latencies_s: stream.fresh_s,
        query_latencies_s: query_latencies,
        ..Rep::default()
    };
    Ok((rep, driver))
}

/// What one append + step did.
struct Step {
    published: bool,
    ok: bool,
    step_s: f64,
    publish_s: f64,
    quarantined: u64,
    tuples: usize,
}

/// What a stream of appends measured.
#[derive(Default)]
struct Stream {
    /// Append → published wall time of each published action.
    fresh_s: Vec<f64>,
    /// Tuples published.
    tuples: usize,
}

/// Appends each action and steps the driver right after. The first
/// append only opens its action; every later one seals (and so
/// publishes) the action before it.
fn stream(
    rec: &mut crate::spans::Recorder,
    driver: &mut IngestDriver,
    log: &mut std::fs::File,
    actions: &[String],
    traced: bool,
) -> (Stream, Result<Vec<Step>, String>) {
    let mut out = Stream::default();
    let mut steps = Vec::new();
    for (i, lines) in actions.iter().enumerate() {
        let name = if i == 0 { "live.open_action" } else { "ingest.fresh" };
        let (step, secs) = rec.span(name, |r| -> Result<Step, String> {
            log.write_all(lines.as_bytes()).map_err(|e| format!("appending: {e}"))?;
            // Only steps that publish count as `ingest.step`.
            let step_name = if i == 0 { "live.open_step" } else { "ingest.step" };
            let (report, step_s) = r.span(step_name, |_| driver.step());
            let report = report.map_err(|e| format!("step: {e}"))?;
            let published = !report.batches.is_empty();
            if traced && published {
                let (saved, _) = r.span("ingest.checkpoint", |_| driver.checkpoint());
                saved.map_err(|e| format!("checkpoint: {e}"))?;
            }
            Ok(Step {
                published,
                ok: published == (i > 0) && report.batches.len() <= 1,
                step_s,
                publish_s: report.batches.first().map_or(0.0, |b| b.apply_secs),
                quarantined: report.quarantined_total,
                tuples: report.batches.iter().map(|b| b.tuples).sum(),
            })
        });
        match step {
            Ok(step) => {
                if i > 0 {
                    out.fresh_s.push(secs);
                }
                out.tuples += step.tuples;
                steps.push(step);
            }
            Err(e) => return (out, Err(e)),
        }
    }
    (out, Ok(steps))
}

/// Closed loop of queries on one connection until `stop` is set.
fn query_loop(
    addr: SocketAddr,
    wire: &[Request],
    stop: &AtomicBool,
) -> Result<Vec<(Instant, Instant, bool)>, String> {
    let mut client = QueryClient::connect(addr).map_err(|e| format!("connecting: {e}"))?;
    let mut out = Vec::new();
    for request in wire.iter().cycle() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let start = Instant::now();
        let response = client.request(request);
        let ok = matches!(response, Ok(Response::Spread(_) | Response::MarginalGain(_)));
        out.push((start, Instant::now(), ok));
    }
    Ok(out)
}

/// Drains the follower and compares the served model with an offline
/// scan of the whole followed log (the offline == live contract).
fn check_offline_equivalence(
    ctx: &mut Ctx,
    inputs: &Inputs,
    driver: &mut IngestDriver,
) -> Result<(), String> {
    let report = driver.finish().map_err(|e| format!("finish: {e}"))?;
    let served = driver.snapshot().to_bytes();
    let log = storage::load_action_log(&ctx.files.follow_log(), inputs.graph.num_nodes())
        .map_err(|e| e.to_string())?;
    let store =
        scan_with(&inputs.graph, &log, &inputs.policy, LAMBDA, Parallelism::fixed(ctx.threads))
            .map_err(|e| e.to_string())?;
    let offline = ModelSnapshot::from_store(store).to_bytes();
    ctx.check(
        format!(
            "live: served model equals an offline scan of the {}-action log byte for byte",
            log.num_actions()
        ),
        served == offline,
    );
    ctx.check(
        format!("live: quarantined_total is {}", report.quarantined_total),
        report.quarantined_total == 0,
    );
    Ok(())
}
