//! The program part of a run: drives the workload's pipeline through the
//! public APIs, times it, checks its answers, and prints the report whose
//! last line is the JSON result.

use crate::catalogue::{END_TO_END, PER_LAYER};
use crate::plan::{Files, Plan, Workload, SERVER_WORKERS};
use crate::spans::Recorder;
use crate::stats::{median, percentile};
use crate::{live, offline, prepare, serve};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// One timed repetition of a pipeline's fixed unit of work.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    /// Whether the benchmark's spans were recorded during the repetition.
    pub traced: bool,
    /// Files on disk → ready to answer.
    pub setup_s: f64,
    /// Wall time of the unit of work.
    pub work_s: f64,
    /// Items of work done (requests or streamed tuples).
    pub items: f64,
    /// Per-answer latencies: top-k (train), requests (serve), freshness
    /// (live).
    pub latencies_s: Vec<f64>,
    /// Latencies of the live reader's concurrent queries.
    pub query_latencies_s: Vec<f64>,
}

/// Whether a pipeline runs as the workload's measured pipeline or as a
/// short probe that only feeds the traced run's per-layer numbers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Warm-up, then timed repetitions for `--seconds`.
    Primary,
    /// One short traced repetition.
    Probe,
}

/// Request accounting across every TCP phase of the run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Load {
    /// Requests sent.
    pub sent: u64,
    /// Requests answered with the expected response kind.
    pub ok: u64,
    /// Requests that failed, were refused or got an error response.
    pub failed: u64,
}

/// Shared state of the measuring process.
pub struct Ctx {
    /// The workload's sizes.
    pub plan: Plan,
    /// Its prepared inputs.
    pub files: Files,
    /// Scan/ingest threads, resolved once.
    pub threads: usize,
    /// Measuring budget for the primary pipeline.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// The benchmark's spans.
    pub rec: Recorder,
    /// Per-layer values measured directly (not from spans), in the
    /// catalogue's units, keyed by (metric, recorded by a probe).
    pub values: BTreeMap<(&'static str, bool), Vec<f64>>,
    /// Request accounting.
    pub load: Load,
    /// Operations attempted (requests, streamed actions, repetitions,
    /// checks).
    pub attempted: u64,
    /// Operations that failed, including wrong answers.
    pub failed: u64,
    /// Correctness checks run: (description, passed).
    pub checks: Vec<(String, bool)>,
    /// Peak resident set of this process at the end of the timed part.
    pub rss_peak_mb: f64,
}

impl Ctx {
    /// Records a per-layer value while spans are recorded (a probe's
    /// counts only when the workload's own pipeline recorded none).
    pub fn value(&mut self, name: &'static str, v: f64) {
        if self.rec.enabled() {
            self.values.entry((name, self.rec.probe)).or_default().push(v);
        }
    }

    /// Median of a per-layer value.
    fn value_median(&self, name: &'static str) -> Option<f64> {
        [false, true]
            .iter()
            .find_map(|&probe| self.values.get(&(name, probe)))
            .and_then(|v| median(v))
    }

    /// Records a correctness check; a failed one counts as a failed
    /// operation.
    pub fn check(&mut self, what: impl Into<String>, passed: bool) {
        self.attempted += 1;
        if !passed {
            self.failed += 1;
        }
        self.checks.push((what.into(), passed));
    }

    /// Reads the process's peak RSS now (call at the end of the timed
    /// part, before correctness checks allocate reference models).
    pub fn mark_rss_peak(&mut self) {
        self.rss_peak_mb = vm_hwm_mb();
    }

    /// Runs `rep` as the primary pipeline does: one untimed warm-up
    /// (`rep(ctx, true)`, the short unit of work) with spans off, then
    /// timed repetitions until `--seconds` have elapsed,
    /// `enough` holds and at least two repetitions (one traced, one not,
    /// in the traced run) are done. The traced run alternates spans on
    /// and off, so tracing overhead is measured in-process.
    pub fn repeat(
        &mut self,
        mut rep: impl FnMut(&mut Ctx, bool) -> Result<Rep, String>,
        enough: impl Fn(&[Rep]) -> bool,
    ) -> Result<Vec<Rep>, String> {
        self.rec.set_enabled(false);
        rep(self, true)?;
        let start = Instant::now();
        let mut reps: Vec<Rep> = Vec::new();
        loop {
            let traced = self.trace && reps.len().is_multiple_of(2);
            self.rec.set_enabled(traced);
            let mut r = rep(self, false)?;
            r.traced = traced;
            reps.push(r);
            let done =
                reps.len() >= 2 && start.elapsed().as_secs_f64() >= self.seconds && enough(&reps);
            if done || reps.len() >= self.plan.max_reps {
                break;
            }
        }
        self.rec.set_enabled(self.trace);
        Ok(reps)
    }
}

/// The bounded end-to-end numbers of a set of repetitions: medians of the
/// set-up time, of the unit of work's wall time, and of the answer latency.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    setup_s: f64,
    work_s: f64,
    latency_ms: f64,
}

impl EndToEnd {
    /// The latency is the pooled median answer latency, except in serve:
    /// there it is the median over repetitions of each repetition's median
    /// request latency (a single-seed cache miss), which is steadier than
    /// the pooled median when the host's speed drifts between repetitions.
    fn of(reps: &[&Rep], workload: Workload) -> Option<EndToEnd> {
        let latency_s = if workload == Workload::Serve {
            let p50s: Vec<f64> = reps.iter().filter_map(|r| median(&r.latencies_s)).collect();
            median(&p50s)?
        } else {
            median(&reps.iter().flat_map(|r| r.latencies_s.iter().copied()).collect::<Vec<_>>())?
        };
        Some(EndToEnd {
            setup_s: median(&reps.iter().map(|r| r.setup_s).collect::<Vec<_>>())?,
            work_s: median(&reps.iter().map(|r| r.work_s).collect::<Vec<_>>())?,
            latency_ms: latency_s * 1e3,
        })
    }

    fn pairs(&self) -> [(&'static str, f64); 3] {
        [("setup_s", self.setup_s), ("work_s", self.work_s), ("latency_ms", self.latency_ms)]
    }
}

/// Prints one metric line: name, value, unit and sample count.
fn show(name: &str, value: Option<f64>, unit: &str, samples: usize) {
    match value {
        Some(v) => println!("  {name:<30} {v:>14.6} {unit:<8} n={samples}"),
        None => println!("  {name:<30} {:>14} {unit:<8} n={samples} (too few samples)", "-"),
    }
}

/// Runs the measuring process for `workload` and prints its report.
/// Returns whether every correctness check passed.
pub fn run(
    plan: Plan,
    files: Files,
    seconds: f64,
    trace: bool,
    spans_out: &Path,
) -> Result<bool, String> {
    let mut ctx = Ctx {
        threads: cdim::util::Parallelism::auto().effective(),
        plan,
        files,
        seconds,
        trace,
        rec: Recorder::new(trace),
        values: BTreeMap::new(),
        load: Load::default(),
        attempted: 0,
        failed: 0,
        checks: Vec::new(),
        rss_peak_mb: 0.0,
    };
    let workload = ctx.plan.workload;
    let reps = match workload {
        Workload::Train => offline::run(&mut ctx, Mode::Primary)?,
        Workload::Serve => serve::run(&mut ctx, Mode::Primary)?,
        Workload::Live => live::run(&mut ctx, Mode::Primary)?,
    };
    if trace {
        // Probe every other pipeline on this workload's data, so the
        // traced run reports every layer.
        ctx.rec.probe = true;
        ctx.rec.set_enabled(true);
        for other in Workload::ALL.into_iter().filter(|&w| w != workload) {
            match other {
                Workload::Train => offline::run(&mut ctx, Mode::Probe)?,
                Workload::Serve => serve::run(&mut ctx, Mode::Probe)?,
                Workload::Live => live::run(&mut ctx, Mode::Probe)?,
            };
        }
    }
    let speedup = offline::scan_speedup(&ctx)?;
    ctx.value("core.scan_speedup", speedup);

    print_header(&ctx, speedup, &reps)?;
    let all: Vec<&Rep> = reps.iter().collect();
    let e2e = EndToEnd::of(&all, workload).ok_or("no repetitions")?;
    print_end_to_end(&ctx, &reps, e2e);
    let layers = per_layer(&ctx);
    if trace {
        print_layers(&layers);
        print_accounting(&ctx, &layers);
        print_overhead(&reps, workload);
    }
    if trace {
        ctx.rec.write_jsonl(spans_out).map_err(|e| format!("writing spans: {e}"))?;
    }

    let correct = ctx.checks.iter().all(|(_, ok)| *ok) && !ctx.checks.is_empty();
    for (what, ok) in &ctx.checks {
        println!("check {}: {what}", if *ok { "ok  " } else { "FAIL" });
    }
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if trace {
        for (name, unit) in PER_LAYER {
            let (v, _) =
                layers.get(name).copied().ok_or(format!("per-layer metric {name} not measured"))?;
            metrics.push((name, v, unit));
        }
    } else {
        let mut values: BTreeMap<&str, f64> = e2e.pairs().into_iter().collect();
        values.insert("rss_peak_mb", ctx.rss_peak_mb);
        for (name, unit) in END_TO_END {
            metrics.push((name, values[name], unit));
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", json_number(*v)))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ctx.attempted.max(1),
        ctx.failed,
        body.join(", ")
    );
    Ok(correct)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn print_header(ctx: &Ctx, speedup: f64, reps: &[Rep]) -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let shape = prepare::read_shape(&ctx.files)?;
    let shape: Vec<String> = shape.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!(
        "# workload {} ({})",
        ctx.plan.workload.name(),
        if ctx.trace { "traced" } else { "untraced" }
    );
    println!(
        "# nproc {nproc}  core.scan_speedup {speedup:.3}  scan threads {}  server workers {}  \
         client connections 1",
        ctx.threads, SERVER_WORKERS
    );
    println!(
        "# tracer sampling 1/{}  commit {}",
        cdim::obs::Tracer::global().sampling(),
        git_commit()
    );
    println!("# dataset {}  ({})", shape.join(" "), ctx.plan.spec.name);
    println!("# repetitions {} ({} traced)", reps.len(), reps.iter().filter(|r| r.traced).count());
    Ok(())
}

/// Prints the workload's own end-to-end metrics (`train_s`, `qps`,
/// `fresh_p50_ms`, …) and the bounded ones.
fn print_end_to_end(ctx: &Ctx, reps: &[Rep], e2e: EndToEnd) {
    let n = reps.len();
    let lat: Vec<f64> = reps.iter().flat_map(|r| r.latencies_s.iter().copied()).collect();
    let queries: Vec<f64> = reps.iter().flat_map(|r| r.query_latencies_s.iter().copied()).collect();
    let rate: Vec<f64> = reps.iter().map(|r| r.items / r.work_s).collect();
    let work = median(&reps.iter().map(|r| r.work_s).collect::<Vec<_>>());
    let ms = |v: Option<f64>| v.map(|x| x * 1e3);
    println!("end-to-end:");
    show("setup_s", Some(e2e.setup_s), "s", n);
    match ctx.plan.workload {
        Workload::Train => {
            show("train_s", work, "s", n);
            show("topk_s", median(&lat), "s", lat.len());
        }
        Workload::Serve => {
            show("qps", median(&rate), "1/s", n);
            show("query_p50_ms", ms(median(&lat)), "ms", lat.len());
            show("query_p99_ms", ms(percentile(&lat, 0.99)), "ms", lat.len());
        }
        Workload::Live => {
            show("fresh_p50_ms", ms(median(&lat)), "ms", lat.len());
            show("fresh_p90_ms", ms(percentile(&lat, 0.90)), "ms", lat.len());
            show("ingest_tps", median(&rate), "tuples/s", n);
            show("query_p50_ms", ms(median(&queries)), "ms", queries.len());
            show("query_p99_ms", ms(percentile(&queries, 0.99)), "ms", queries.len());
        }
    }
    show("rss_peak_mb", Some(ctx.rss_peak_mb), "MB", 1);
    let attempted = ctx.attempted.max(1);
    show("failed_share", Some(ctx.failed as f64 / attempted as f64), "ratio", attempted as usize);
    println!("bounded:");
    show("work_s", Some(e2e.work_s), "s", n);
    show("latency_ms", Some(e2e.latency_ms), "ms", lat.len());
    let list = |f: fn(&Rep) -> f64| {
        reps.iter().map(|r| format!("{:.4}", f(r))).collect::<Vec<_>>().join(" ")
    };
    println!(
        "  per repetition: work_s [{}]  setup_s [{}]",
        list(|r| r.work_s),
        list(|r| r.setup_s)
    );
}

/// Per-layer values with their sample counts: span medians converted to
/// the catalogue's units, plus the directly measured values.
fn per_layer(ctx: &Ctx) -> BTreeMap<&'static str, (f64, usize)> {
    let span = |name: &str, scale: f64| {
        let d = ctx.rec.durations(name);
        (median(&d).map(|s| s * scale), d.len())
    };
    let value = |k: &'static str| {
        let n = [false, true].iter().find_map(|&p| ctx.values.get(&(k, p))).map_or(0, Vec::len);
        (ctx.value_median(k), n)
    };
    let ratio = |(a, n): (Option<f64>, usize), b: Option<f64>, scale: f64| {
        (a.zip(b).map(|(a, b)| a * scale / b), n)
    };
    let count = |c: u64| (Some(c as f64), 1);
    let entries = [
        ("actionlog.decode_ms", span("actionlog.decode", 1e3)),
        ("core.policy_ms", span("core.policy", 1e3)),
        ("core.scan_ms", span("core.scan", 1e3)),
        ("core.scan_ns_per_tuple", ratio(span("core.scan", 1.0), value("tuples").0, 1e9)),
        ("core.scan_entries", value("core.scan_entries")),
        ("core.scan_speedup", value("core.scan_speedup")),
        ("core.freeze_ms", span("core.freeze", 1e3)),
        ("core.mg_us", span("core.mg", 1e6)),
        ("core.spread3_ms", span("core.spread3", 1e3)),
        ("core.celf_evals", value("core.celf_evals")),
        ("core.celf_us_per_eval", ratio(span("core.celf", 1.0), value("core.celf_evals").0, 1e6)),
        ("serve.save_ms", span("serve.save", 1e3)),
        ("serve.load_ms", span("serve.load", 1e3)),
        ("serve.snapshot_mb", value("serve.snapshot_mb")),
        ("serve.resident_mb", value("serve.resident_mb")),
        ("serve.service.hit_share", value("serve.service.hit_share")),
        ("serve.service.query_us", span("serve.service.query", 1e6)),
        ("serve.reactor.hit_rtt_us", span("serve.reactor.hit_rtt", 1e6)),
        ("serve.reactor.overhead_share", value("serve.reactor.overhead_share")),
        ("serve.reactor.batch_mean", value("serve.reactor.batch_mean")),
        ("ingest.step_ms", span("ingest.step", 1e3)),
        ("ingest.publish_ms", value("ingest.publish_ms")),
        ("ingest.checkpoint_ms", span("ingest.checkpoint", 1e3)),
        ("ingest.poll_ms", value("ingest.poll_ms")),
        ("ingest.checkpoint_mb", value("ingest.checkpoint_mb")),
        ("ingest.quarantined", value("ingest.quarantined")),
        ("load.sent", count(ctx.load.sent)),
        ("load.ok", count(ctx.load.ok)),
        ("load.failed", count(ctx.load.failed)),
    ];
    entries.into_iter().filter_map(|(k, (v, n))| v.map(|v| (k, (v, n)))).collect()
}

fn print_layers(layers: &BTreeMap<&'static str, (f64, usize)>) {
    println!("per-layer (traced):");
    for (name, unit) in PER_LAYER {
        let (value, n) = layers.get(name).map_or((None, 0), |&(v, n)| (Some(v), n));
        show(name, value, unit, n);
    }
}

/// Shows that the layers account for the end-to-end interval they sit
/// in: the sum of the layers' medians beside the enclosing span's median.
fn print_accounting(ctx: &Ctx, layers: &BTreeMap<&'static str, (f64, usize)>) {
    let sum =
        |names: &[&str]| names.iter().map(|n| layers.get(n).map_or(f64::NAN, |l| l.0)).sum::<f64>();
    let ms = |v: Vec<f64>| median(&v).map_or(f64::NAN, |s| s * 1e3);
    println!("accounting (traced medians, ms; self = time no child span covers):");
    let train = [
        "actionlog.decode_ms",
        "core.policy_ms",
        "core.scan_ms",
        "core.freeze_ms",
        "serve.save_ms",
    ];
    println!(
        "  train:  Σ {} = {:.3}  vs  train_s {:.3} (self {:.3})",
        train.join(" + "),
        sum(&train),
        ms(ctx.rec.durations("train")),
        ms(ctx.rec.self_times("train"))
    );
    let live = ["ingest.poll_ms", "ingest.publish_ms", "ingest.checkpoint_ms"];
    println!(
        "  live:   Σ {} = {:.3}  vs  fresh_p50_ms {:.3} (self {:.3})",
        live.join(" + "),
        sum(&live),
        ms(ctx.rec.durations("ingest.fresh")),
        ms(ctx.rec.self_times("ingest.fresh"))
    );
}

/// Tracing overhead: traced vs untraced repetitions of the same run.
fn print_overhead(reps: &[Rep], workload: Workload) {
    let traced: Vec<&Rep> = reps.iter().filter(|r| r.traced).collect();
    let plain: Vec<&Rep> = reps.iter().filter(|r| !r.traced).collect();
    println!("tracing overhead (traced ÷ untraced repetitions − 1):");
    if let (Some(t), Some(p)) = (EndToEnd::of(&traced, workload), EndToEnd::of(&plain, workload)) {
        for ((name, tv), (_, pv)) in t.pairs().into_iter().zip(p.pairs()) {
            println!(
                "  {name:<30} {:>+13.2} %  ({} vs {} reps)",
                (tv / pv - 1.0) * 100.0,
                traced.len(),
                plain.len()
            );
        }
    }
}

/// Peak resident set size (`VmHWM`) of this process, in MB.
pub fn vm_hwm_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The commit of the checkout (`unknown` outside a git checkout or
/// without `git`).
fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}
