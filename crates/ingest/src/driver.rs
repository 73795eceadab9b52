//! The online-retraining driver: poll → batch → extend → hot-swap,
//! with optional sliding-window expiry (retract) at checkpoint time.
//!
//! An [`IngestDriver`] owns the trained state (behind the same
//! [`InfluenceService`] the TCP server shares, so queries and retraining
//! never race on a half-updated model) and folds every cut batch through
//! the incremental path — [`CompactSelector::extend`] scans the batch on
//! the shared worker pool and splices it onto the served arena, published
//! with [`InfluenceService::publish_delta`]'s atomic swap. Periodic
//! [`Checkpoint`]s bind the snapshot to the log position of the first
//! *unfolded* record, so a restarted driver resumes exactly where the
//! model stopped — buffered-but-unshipped records are simply re-read.
//! (Records quarantined after that position are re-quarantined on
//! restart: the dead-letter sink may see duplicates across restarts,
//! never losses.)
//!
//! With a [`WindowPolicy`] set, the driver also *expires*: before every
//! checkpoint it retracts the out-of-window action prefix through
//! [`cdim_serve::InfluenceService::retract_delta`], keeping the served
//! model byte-identical to a from-scratch scan of just the surviving
//! window. The per-action tuples needed to rebuild expired prefixes ride
//! inside the checkpoint (format v2), so windowed runs survive restarts.
//!
//! [`CompactSelector::extend`]: cdim_core::CompactSelector::extend

use crate::batcher::{BatchConfig, DeadLetter, MicroBatcher, QuarantineReason};
use crate::checkpoint::{Checkpoint, WindowEntry};
use crate::error::IngestError;
use crate::follower::{LogFollower, Record};
use crate::metrics::{IngestMetrics, RateWindow, RATE_WINDOW};
use cdim_actionlog::{ActionLogBuilder, ActionLogDelta, LogBuildError, StorageError};
use cdim_core::{scan_with, CreditPolicy};
use cdim_graph::DirectedGraph;
use cdim_obs::{MetricsRegistry, Stage, TraceCtx, Tracer};
use cdim_serve::{InfluenceService, ModelSnapshot};
use cdim_util::{Parallelism, Timer};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// When trained actions expire from the served model.
///
/// A windowed driver keeps a tuple buffer (one [`WindowEntry`] per
/// in-model action) and, at every checkpoint boundary, retracts the
/// expired prefix through [`cdim_serve::InfluenceService::retract_delta`]
/// before writing the checkpoint. Expiry is computed from the current
/// model state, so a crash between the retraction hot-swap and the
/// checkpoint write replays deterministically on restart — the window
/// invariant (served state == scan of just the window) holds across any
/// checkpoint/restart interleaving.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum WindowPolicy {
    /// Keep every trained action (the append-only behaviour).
    #[default]
    Unbounded,
    /// Keep at most this many most-recent actions.
    Actions(usize),
    /// Keep actions whose external id is at most this far behind the
    /// applied watermark (inclusive: `Age(0)` keeps only the watermark
    /// action).
    WatermarkAge(u32),
}

impl WindowPolicy {
    fn is_windowed(&self) -> bool {
        !matches!(self, WindowPolicy::Unbounded)
    }

    /// How many of `window`'s oldest actions fall outside the policy.
    fn expired_prefix(&self, window: &[WindowEntry], watermark: Option<u32>) -> usize {
        match (*self, watermark) {
            (WindowPolicy::Unbounded, _) | (WindowPolicy::WatermarkAge(_), None) => 0,
            (WindowPolicy::Actions(n), _) => window.len().saturating_sub(n),
            (WindowPolicy::WatermarkAge(age), Some(mark)) => {
                let oldest_kept = mark.saturating_sub(age);
                window.partition_point(|e| e.external < oldest_kept)
            }
        }
    }
}

/// Knobs for a follow session.
#[derive(Clone, Copy, Debug)]
pub struct FollowConfig {
    /// Micro-batch cut thresholds.
    pub batch: BatchConfig,
    /// Sleep between polls that found nothing.
    pub poll_interval: Duration,
    /// Checkpoint after this many publishes (0 = only on
    /// [`IngestDriver::finish`]).
    pub checkpoint_every: u64,
    /// Worker-pool budget for delta scans (and the initial empty scan).
    pub parallelism: Parallelism,
    /// Truncation threshold λ when starting fresh. `None` = 0.001 fresh,
    /// or whatever the resumed checkpoint was trained with; `Some` must
    /// match a resumed checkpoint or [`IngestDriver::open`] refuses.
    pub lambda: Option<f64>,
    /// Answer-cache capacity of the owned [`InfluenceService`].
    pub cache_capacity: usize,
    /// `run` exits cleanly (final flush + checkpoint) after this much
    /// idleness; `None` follows forever.
    pub idle_exit: Option<Duration>,
    /// Sliding-window expiry policy, enforced at checkpoint boundaries.
    pub window: WindowPolicy,
}

impl Default for FollowConfig {
    fn default() -> Self {
        FollowConfig {
            batch: BatchConfig::default(),
            poll_interval: Duration::from_millis(200),
            checkpoint_every: 1,
            parallelism: Parallelism::auto(),
            lambda: None,
            cache_capacity: 1024,
            idle_exit: None,
            window: WindowPolicy::Unbounded,
        }
    }
}

/// One applied batch, as observed by the driver.
#[derive(Clone, Copy, Debug)]
pub struct BatchReport {
    /// Whole actions in the batch.
    pub actions: usize,
    /// Tuples in the batch.
    pub tuples: usize,
    /// Wall seconds from batch cut to published model (extend + swap).
    pub apply_secs: f64,
    /// Actions in the model after the publish.
    pub model_actions: usize,
    /// Served model version after the publish.
    pub model_version: u64,
}

/// What one [`IngestDriver::step`] did.
#[derive(Clone, Debug, Default)]
pub struct StepReport {
    /// Complete records read this step.
    pub records: usize,
    /// Batches cut and published this step.
    pub batches: Vec<BatchReport>,
    /// Records quarantined this step (drained dead letters).
    pub dead_letters: Vec<DeadLetter>,
    /// Records quarantined over the driver incarnation's lifetime (not
    /// just this step).
    pub quarantined_total: u64,
    /// Reason of the most recent quarantine ever, surviving drains.
    pub last_quarantine_reason: Option<QuarantineReason>,
}

impl std::fmt::Display for StepReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} records", self.records)?;
        for b in &self.batches {
            write!(
                f,
                "; published {} actions ({} tuples) in {:.3}s -> v{} ({} actions)",
                b.actions, b.tuples, b.apply_secs, b.model_version, b.model_actions
            )?;
        }
        if !self.dead_letters.is_empty() {
            write!(
                f,
                "; {} quarantined ({} total)",
                self.dead_letters.len(),
                self.quarantined_total
            )?;
            if let Some(reason) = &self.last_quarantine_reason {
                write!(f, ", last: {reason}")?;
            }
        }
        Ok(())
    }
}

/// Pre-resolved stage handles for the driver's spans in the
/// process-global flight recorder (resolve once at open, record
/// forever — the same discipline as [`IngestMetrics`]).
struct IngestTrace {
    tracer: Arc<Tracer>,
    step: Stage,
    poll: Stage,
    publish: Stage,
    checkpoint: Stage,
    retract: Stage,
}

impl IngestTrace {
    fn register(tracer: Arc<Tracer>) -> Self {
        IngestTrace {
            step: tracer.stage("ingest.step"),
            poll: tracer.stage("ingest.poll"),
            publish: tracer.stage("ingest.publish_delta"),
            checkpoint: tracer.stage("ingest.checkpoint"),
            retract: tracer.stage("ingest.retract"),
            tracer,
        }
    }
}

/// The live-ingestion driver (see module docs).
pub struct IngestDriver {
    graph: DirectedGraph,
    policy: CreditPolicy,
    follower: LogFollower,
    batcher: MicroBatcher,
    service: Arc<InfluenceService>,
    checkpoint_path: PathBuf,
    config: FollowConfig,
    /// Highest external action id folded into the served model.
    applied_watermark: Option<u32>,
    publishes_since_checkpoint: u64,
    metrics: IngestMetrics,
    /// Trailing-window read throughput feeding the records/sec gauge.
    rate: RateWindow,
    /// When the applied watermark last advanced (a publish landed) —
    /// what the watermark-age gauge measures against. `None` until the
    /// first publish of this incarnation.
    watermark_advanced_at: Option<Instant>,
    /// Tuple buffer for windowed runs: one entry per in-model action,
    /// oldest first. Empty (and unmaintained) under
    /// [`WindowPolicy::Unbounded`].
    window: Vec<WindowEntry>,
    /// Flight-recorder stage handles for the ingest spans.
    trace: IngestTrace,
}

impl IngestDriver {
    /// Opens a driver over `log_path`, resuming from `checkpoint_path` if
    /// that file exists, otherwise starting from an empty model over
    /// `graph`'s user universe.
    ///
    /// `policy` must be the policy every previous incarnation used (the
    /// same contract as `cdim train --append`: checkpoints persist
    /// credits, not policy parameters).
    pub fn open(
        graph: DirectedGraph,
        policy: CreditPolicy,
        log_path: &Path,
        checkpoint_path: &Path,
        config: FollowConfig,
    ) -> Result<Self, IngestError> {
        Self::open_with_registry(
            graph,
            policy,
            log_path,
            checkpoint_path,
            config,
            Arc::new(MetricsRegistry::new()),
        )
    }

    /// [`open`](Self::open), reporting into `registry` — pass
    /// [`MetricsRegistry::global`] to land the ingest series on the same
    /// scrape endpoint and wire dump as every other layer. The owned
    /// [`InfluenceService`] shares the registry, so op 6 on a server
    /// spawned from [`service`](Self::service) dumps both.
    pub fn open_with_registry(
        graph: DirectedGraph,
        policy: CreditPolicy,
        log_path: &Path,
        checkpoint_path: &Path,
        config: FollowConfig,
        registry: Arc<MetricsRegistry>,
    ) -> Result<Self, IngestError> {
        let (snapshot, follower, batcher, watermark, window) = if checkpoint_path.exists() {
            let ckpt = Checkpoint::load(checkpoint_path)?;
            if ckpt.snapshot.num_users() != graph.num_nodes() {
                return Err(IngestError::Config(format!(
                    "checkpoint has {} users but the graph has {} nodes",
                    ckpt.snapshot.num_users(),
                    graph.num_nodes()
                )));
            }
            let trained_lambda = ckpt.snapshot.lambda();
            if let Some(lambda) = config.lambda {
                if lambda != trained_lambda {
                    return Err(IngestError::Config(format!(
                        "--lambda {lambda} conflicts with the checkpoint's lambda \
                         {trained_lambda} (the truncation threshold is fixed at training time)"
                    )));
                }
            }
            let window = if config.window.is_windowed() {
                // Expiry needs the trained tuples of every in-model
                // action; a checkpoint written without a window policy
                // does not carry them.
                if ckpt.window.len() != ckpt.snapshot.num_actions() {
                    return Err(IngestError::Config(format!(
                        "a window policy needs per-action tuples for all {} trained actions \
                         but the checkpoint holds {} (it was written without a window policy); \
                         retrain from the log to start a windowed run",
                        ckpt.snapshot.num_actions(),
                        ckpt.window.len()
                    )));
                }
                ckpt.window
            } else {
                // Unbounded runs never expire, so the buffer would only
                // go stale as the model grows past it: drop it.
                Vec::new()
            };
            let follower = LogFollower::resume(log_path, ckpt.offset, ckpt.lines);
            let batcher = MicroBatcher::resume(ckpt.watermark);
            (ckpt.snapshot, follower, batcher, ckpt.watermark, window)
        } else {
            let lambda = config.lambda.unwrap_or(0.001);
            let empty = ActionLogBuilder::new(graph.num_nodes()).build();
            let store = scan_with(&graph, &empty, &policy, lambda, config.parallelism)?;
            (
                ModelSnapshot::from_store(store),
                LogFollower::open(log_path),
                MicroBatcher::new(),
                None,
                Vec::new(),
            )
        };
        let metrics = IngestMetrics::register(&registry);
        let service =
            Arc::new(InfluenceService::with_registry(snapshot, config.cache_capacity, registry));
        Ok(IngestDriver {
            graph,
            policy,
            follower,
            batcher,
            service,
            checkpoint_path: checkpoint_path.to_path_buf(),
            config,
            applied_watermark: watermark,
            publishes_since_checkpoint: 0,
            metrics,
            rate: RateWindow::new(RATE_WINDOW),
            watermark_advanced_at: None,
            window,
            trace: IngestTrace::register(Tracer::global()),
        })
    }

    /// The query service the driver publishes into — share it with
    /// [`cdim_serve::spawn`] to serve queries while following.
    pub fn service(&self) -> &Arc<InfluenceService> {
        &self.service
    }

    /// The currently served model.
    pub fn snapshot(&self) -> Arc<ModelSnapshot> {
        self.service.snapshot()
    }

    /// The follower's (byte offset, lines consumed) position.
    pub fn position(&self) -> (u64, u64) {
        (self.follower.offset(), self.follower.lines_consumed())
    }

    /// One poll → batch → publish cycle. Never blocks beyond file I/O.
    ///
    /// Productive steps (new records, or a batch coming due) are traced
    /// as an `ingest.step` root with poll/publish/checkpoint children;
    /// idle polls record nothing, so a quiet follow loop at 5 Hz never
    /// pollutes the flight recorder.
    pub fn step(&mut self) -> Result<StepReport, IngestError> {
        let t0 = self.trace.tracer.now_ns();
        let records = self.follower.poll()?;
        let polled_ns = self.trace.tracer.now_ns();
        for r in &records {
            validate_record(r, self.graph.num_nodes())?;
        }
        for r in &records {
            self.batcher.push(*r);
        }
        let due = self.batcher.due(&self.config.batch);
        let ctx = if records.is_empty() && !due {
            TraceCtx::unsampled()
        } else {
            self.trace.tracer.begin_trace()
        };
        let root = self.trace.tracer.open_at(ctx, self.trace.step, t0);
        self.trace.tracer.record(root.ctx(), self.trace.poll, t0, polled_ns);
        let mut batches = Vec::new();
        if due {
            if let Some(report) = self.apply_pending(root.ctx())? {
                batches.push(report);
            }
        }
        let dead_letters = self.batcher.drain_dead_letters();
        self.observe_step(records.len(), &dead_letters);
        self.trace.tracer.close(root);
        Ok(StepReport {
            records: records.len(),
            batches,
            dead_letters,
            quarantined_total: self.batcher.quarantined_total(),
            last_quarantine_reason: self.batcher.last_quarantine_reason(),
        })
    }

    /// Feed one step's observations into the metrics registry. Pure
    /// telemetry: nothing here touches the model path.
    fn observe_step(&mut self, records: usize, dead_letters: &[DeadLetter]) {
        self.metrics.records.add(records as u64);
        self.rate.record(records);
        self.metrics.records_per_sec.set(self.rate.rate());
        self.metrics.lag_bytes.set(self.follower.lag_bytes() as f64);
        if let Some(at) = self.watermark_advanced_at {
            self.metrics.watermark_age.set(at.elapsed().as_secs_f64());
        }
        if let Some(last) = dead_letters.last() {
            self.metrics.quarantined.add(dead_letters.len() as u64);
            self.metrics.last_quarantine.set(&last.reason.to_string());
        }
    }

    /// End of stream: drains the remaining backlog (a capped poll reads
    /// at most [`crate::follower::MAX_POLL_BYTES`] at a time), seals the
    /// open action, publishes everything pending, and checkpoints. After
    /// this the model covers every complete record in the file.
    pub fn finish(&mut self) -> Result<StepReport, IngestError> {
        let mut report = StepReport::default();
        loop {
            let step = self.step()?;
            let drained = step.records == 0;
            report.records += step.records;
            report.batches.extend(step.batches);
            report.dead_letters.extend(step.dead_letters);
            if drained {
                break;
            }
        }
        self.batcher.seal_open();
        // The final flush is its own traced step (there was no poll).
        let flush_root = self.trace.tracer.open(self.trace.tracer.begin_trace(), self.trace.step);
        if let Some(batch) = self.apply_pending(flush_root.ctx())? {
            report.batches.push(batch);
        }
        self.trace.tracer.close(flush_root);
        let dead_letters = self.batcher.drain_dead_letters();
        self.observe_step(0, &dead_letters);
        report.dead_letters.extend(dead_letters);
        report.quarantined_total = self.batcher.quarantined_total();
        report.last_quarantine_reason = self.batcher.last_quarantine_reason();
        self.checkpoint()?;
        Ok(report)
    }

    /// Cuts and applies whatever is sealed, regardless of thresholds.
    /// Publish and checkpoint work is recorded under `ctx` (spans opened
    /// across an error `?` are abandoned, never recorded — an unclosed
    /// `ActiveSpan` is plain data).
    fn apply_pending(&mut self, ctx: TraceCtx) -> Result<Option<BatchReport>, IngestError> {
        let base = self.service.snapshot().num_actions();
        let Some((delta, meta)) = self.batcher.take_batch(base, self.graph.num_nodes()) else {
            return Ok(None);
        };
        let timer = Timer::start();
        let publish_span = self.trace.tracer.open(ctx, self.trace.publish);
        self.service.publish_delta(&self.graph, &delta, &self.policy, self.config.parallelism)?;
        self.trace.tracer.close(publish_span);
        let apply_secs = timer.secs();
        if self.config.window.is_windowed() {
            let additions = delta.additions();
            for a in 0..additions.num_actions() as u32 {
                self.window.push(WindowEntry {
                    external: additions.external_id(a),
                    users: additions.users_of(a).to_vec(),
                    times: additions.times_of(a).to_vec(),
                });
            }
        }
        self.applied_watermark = Some(meta.last_action);
        self.watermark_advanced_at = Some(Instant::now());
        self.metrics.watermark_age.set(0.0);
        self.metrics.batch_actions.observe(meta.actions as f64);
        self.publishes_since_checkpoint += 1;
        let report = BatchReport {
            actions: meta.actions,
            tuples: meta.tuples,
            apply_secs,
            model_actions: self.service.snapshot().num_actions(),
            model_version: self.service.model_version(),
        };
        if self.config.checkpoint_every > 0
            && self.publishes_since_checkpoint >= self.config.checkpoint_every
        {
            self.checkpoint_traced(ctx)?;
        }
        Ok(Some(report))
    }

    /// Retracts whatever the window policy has expired from the served
    /// model, rebuilding the expired prefix as an [`ActionLogDelta`] from
    /// the tuple buffer. Idempotent: expiry is computed from the current
    /// buffer and watermark, so replaying it after a crash that lost the
    /// subsequent checkpoint reaches the same state. Retraction moves
    /// neither the log position nor the watermark.
    fn enforce_window(&mut self, ctx: TraceCtx) -> Result<(), IngestError> {
        let expired = self.config.window.expired_prefix(&self.window, self.applied_watermark);
        if expired == 0 {
            return Ok(());
        }
        let retract_span = self.trace.tracer.open(ctx, self.trace.retract);
        let mut builder = ActionLogBuilder::new(self.graph.num_nodes());
        for entry in &self.window[..expired] {
            for (&u, &t) in entry.users.iter().zip(&entry.times) {
                builder.push(u, entry.external, t);
            }
        }
        // External ids ascend across the buffer, so the built log's dense
        // order is the buffer (= store prefix) order, and the builder's
        // (action, time, user) sort reproduces the applied slices exactly
        // — `retract_delta`'s bitwise prefix check holds by construction.
        let delta = ActionLogDelta::new(0, builder.build());
        self.service.retract_delta(&self.graph, &delta, &self.policy, self.config.parallelism)?;
        self.trace.tracer.close(retract_span);
        self.window.drain(..expired);
        Ok(())
    }

    /// Atomically writes the restart point: the served snapshot plus the
    /// position of the first record it does not cover (buffered open or
    /// sealed-but-unshipped records are deliberately *behind* the saved
    /// offset, so a restart re-reads them). Windowed runs expire the
    /// out-of-window prefix first, so every checkpoint is window-clean.
    pub fn checkpoint(&mut self) -> Result<(), IngestError> {
        let ctx = self.trace.tracer.begin_trace();
        self.checkpoint_traced(ctx)
    }

    /// [`checkpoint`](Self::checkpoint) recorded under `ctx` (the
    /// enclosing step's root when driven from [`apply_pending`], a fresh
    /// root trace when called directly).
    fn checkpoint_traced(&mut self, ctx: TraceCtx) -> Result<(), IngestError> {
        let timer = Timer::start();
        let span = self.trace.tracer.open(ctx, self.trace.checkpoint);
        self.enforce_window(span.ctx())?;
        let (offset, lines) = self
            .batcher
            .durable_mark()
            .unwrap_or((self.follower.offset(), self.follower.lines_consumed()));
        let ckpt = Checkpoint {
            snapshot: (*self.service.snapshot()).clone(),
            offset,
            lines,
            watermark: self.applied_watermark,
            window: self.window.clone(),
        };
        ckpt.save(&self.checkpoint_path)?;
        self.publishes_since_checkpoint = 0;
        self.metrics.checkpoint_seconds.observe(timer.secs());
        self.trace.tracer.close(span);
        Ok(())
    }

    /// The blocking follow loop: steps forever (sleeping
    /// `poll_interval` between empty polls), reporting each productive
    /// step through `on_report`. With `idle_exit` set, a quiet log ends
    /// the loop cleanly via [`finish`](Self::finish).
    pub fn run(&mut self, mut on_report: impl FnMut(&StepReport)) -> Result<(), IngestError> {
        let mut idle_since = Instant::now();
        loop {
            let report = self.step()?;
            let progressed = report.records > 0 || !report.batches.is_empty();
            if progressed {
                idle_since = Instant::now();
            }
            if progressed || !report.dead_letters.is_empty() {
                on_report(&report);
            }
            if let Some(limit) = self.config.idle_exit {
                if idle_since.elapsed() >= limit {
                    let last = self.finish()?;
                    if !last.batches.is_empty() || !last.dead_letters.is_empty() {
                        on_report(&last);
                    }
                    return Ok(());
                }
            }
            if !progressed {
                std::thread::sleep(self.config.poll_interval);
            }
        }
    }
}

/// The same validation offline loading performs, with the same
/// line-numbered diagnostic: non-finite times and users outside the
/// graph's universe are data corruption, not stream reordering, so they
/// are fatal rather than quarantined.
fn validate_record(r: &Record, num_users: usize) -> Result<(), IngestError> {
    let problem = if !r.time.is_finite() {
        Some(LogBuildError::NonFiniteTime { user: r.user, action: r.action, time: r.time })
    } else if (r.user as usize) >= num_users {
        Some(LogBuildError::UserOutOfRange { user: r.user, num_users })
    } else {
        None
    };
    match problem {
        Some(e) => Err(IngestError::Parse(StorageError::Parse {
            line: r.line as usize,
            message: e.to_string(),
        })),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdim_graph::GraphBuilder;
    use std::io::Write as _;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cdim_driver_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn append(path: &Path, data: &str) {
        let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path).unwrap();
        f.write_all(data.as_bytes()).unwrap();
    }

    fn graph() -> DirectedGraph {
        GraphBuilder::new(5).edges([(0, 1), (1, 2), (0, 3), (3, 4), (2, 4)]).build()
    }

    fn offline(graph: &DirectedGraph, log_text: &str, lambda: f64) -> Vec<u8> {
        let log = cdim_actionlog::storage::read_action_log(log_text.as_bytes(), graph.num_nodes())
            .unwrap();
        let store =
            scan_with(graph, &log, &CreditPolicy::Uniform, lambda, Parallelism::single()).unwrap();
        ModelSnapshot::from_store(store).to_bytes()
    }

    #[test]
    fn follow_equals_offline_train() {
        let dir = tempdir("equiv");
        let log_path = dir.join("actions.tsv");
        let ckpt_path = dir.join("model.ckpt");
        let full = "0\t1\t0.0\n1\t1\t1.0\n2\t1\t2.0\n3\t2\t0.5\n4\t2\t1.5\n0\t3\t0.0\n";

        let mut driver = IngestDriver::open(
            graph(),
            CreditPolicy::Uniform,
            &log_path,
            &ckpt_path,
            FollowConfig { lambda: Some(0.0), ..Default::default() },
        )
        .unwrap();

        // Feed the file in awkward pieces, stepping in between.
        for chunk in ["0\t1\t0.0\n1\t1\t1.", "0\n2\t1\t2.0\n3\t2\t0.5\n", "4\t2\t1.5\n0\t3\t0.0\n"]
        {
            append(&log_path, chunk);
            driver.step().unwrap();
        }
        let report = driver.finish().unwrap();
        assert!(report.dead_letters.is_empty());
        assert_eq!(driver.snapshot().num_actions(), 3);
        assert_eq!(driver.snapshot().to_bytes(), offline(&graph(), full, 0.0));
        // The checkpoint's position covers the whole file.
        let ckpt = Checkpoint::load(&ckpt_path).unwrap();
        assert_eq!(ckpt.offset, full.len() as u64);
        assert_eq!(ckpt.watermark, Some(3));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restart_resumes_from_checkpoint_without_rescan() {
        let dir = tempdir("restart");
        let log_path = dir.join("actions.tsv");
        let ckpt_path = dir.join("model.ckpt");
        let full = "0\t1\t0.0\n1\t1\t1.0\n3\t2\t0.5\n4\t2\t1.5\n0\t3\t0.0\n2\t3\t9.0\n";

        // First incarnation sees the first two actions (the second still
        // open), checkpoints implicitly per publish, and is dropped
        // without finish() — simulating a crash.
        {
            let mut driver = IngestDriver::open(
                graph(),
                CreditPolicy::Uniform,
                &log_path,
                &ckpt_path,
                FollowConfig { lambda: Some(0.001), ..Default::default() },
            )
            .unwrap();
            append(&log_path, "0\t1\t0.0\n1\t1\t1.0\n3\t2\t0.5\n");
            let report = driver.step().unwrap();
            // Action 1 sealed (by action 2's record) and published.
            assert_eq!(report.batches.len(), 1);
            assert_eq!(driver.snapshot().num_actions(), 1);
        }

        // The checkpoint points at action 2's first record, not the EOF.
        let ckpt = Checkpoint::load(&ckpt_path).unwrap();
        assert_eq!(ckpt.offset, 16);
        assert_eq!(ckpt.lines, 2);
        assert_eq!(ckpt.watermark, Some(1));

        // Second incarnation resumes mid-file and reads the rest.
        let mut driver = IngestDriver::open(
            graph(),
            CreditPolicy::Uniform,
            &log_path,
            &ckpt_path,
            FollowConfig::default(),
        )
        .unwrap();
        append(&log_path, "4\t2\t1.5\n0\t3\t0.0\n2\t3\t9.0\n");
        driver.step().unwrap();
        driver.finish().unwrap();
        assert_eq!(driver.snapshot().to_bytes(), offline(&graph(), full, 0.001));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn conflicting_lambda_on_resume_is_refused() {
        let dir = tempdir("lambda");
        let log_path = dir.join("actions.tsv");
        let ckpt_path = dir.join("model.ckpt");
        {
            let mut driver = IngestDriver::open(
                graph(),
                CreditPolicy::Uniform,
                &log_path,
                &ckpt_path,
                FollowConfig { lambda: Some(0.001), ..Default::default() },
            )
            .unwrap();
            driver.checkpoint().unwrap();
        }
        match IngestDriver::open(
            graph(),
            CreditPolicy::Uniform,
            &log_path,
            &ckpt_path,
            FollowConfig { lambda: Some(0.5), ..Default::default() },
        ) {
            Err(IngestError::Config(why)) => assert!(why.contains("lambda"), "{why}"),
            Err(other) => panic!("expected a config error, got {other}"),
            Ok(_) => panic!("conflicting lambda accepted"),
        }
        // No explicit lambda adopts the checkpoint's.
        let driver = IngestDriver::open(
            graph(),
            CreditPolicy::Uniform,
            &log_path,
            &ckpt_path,
            FollowConfig::default(),
        )
        .unwrap();
        assert_eq!(driver.snapshot().lambda(), 0.001);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn out_of_universe_user_is_the_offline_diagnostic() {
        let dir = tempdir("baduser");
        let log_path = dir.join("actions.tsv");
        append(&log_path, "99\t1\t0.0\n");
        let mut driver = IngestDriver::open(
            graph(),
            CreditPolicy::Uniform,
            &log_path,
            &dir.join("model.ckpt"),
            FollowConfig::default(),
        )
        .unwrap();
        match driver.step() {
            Err(IngestError::Parse(StorageError::Parse { line, message })) => {
                assert_eq!(line, 1);
                assert!(message.contains("out of range"), "{message}");
            }
            other => panic!("expected a parse error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn window_by_actions_expires_at_checkpoints() {
        let dir = tempdir("win_actions");
        let log_path = dir.join("actions.tsv");
        let ckpt_path = dir.join("model.ckpt");
        let full = "0\t1\t0.0\n1\t1\t1.0\n3\t2\t0.5\n4\t2\t1.5\n0\t3\t0.0\n2\t3\t9.0\n1\t4\t2.0\n";
        let window = "0\t3\t0.0\n2\t3\t9.0\n1\t4\t2.0\n";

        let mut driver = IngestDriver::open(
            graph(),
            CreditPolicy::Uniform,
            &log_path,
            &ckpt_path,
            FollowConfig {
                lambda: Some(0.0),
                window: WindowPolicy::Actions(2),
                ..Default::default()
            },
        )
        .unwrap();
        for chunk in
            ["0\t1\t0.0\n1\t1\t1.0\n3\t2\t0.5\n", "4\t2\t1.5\n0\t3\t0.0\n2\t3\t9.0\n1\t4\t2.0\n"]
        {
            append(&log_path, chunk);
            driver.step().unwrap();
        }
        let report = driver.finish().unwrap();
        assert!(report.dead_letters.is_empty());
        // Four actions went in; only the last two are still served.
        assert_eq!(driver.snapshot().num_actions(), 2);
        assert_eq!(driver.snapshot().to_bytes(), offline(&graph(), window, 0.0));
        // The checkpoint is window-clean and carries the surviving tuples.
        let ckpt = Checkpoint::load(&ckpt_path).unwrap();
        assert_eq!(ckpt.offset, full.len() as u64);
        assert_eq!(ckpt.watermark, Some(4));
        assert_eq!(ckpt.snapshot.num_actions(), 2);
        let externals: Vec<u32> = ckpt.window.iter().map(|e| e.external).collect();
        assert_eq!(externals, [3, 4]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn window_by_watermark_age_expires_by_external_id() {
        let dir = tempdir("win_age");
        let log_path = dir.join("actions.tsv");
        let ckpt_path = dir.join("model.ckpt");
        // External ids with a gap: 1, 2, 5, 6. Age 4 below watermark 6
        // keeps ids >= 2 — three actions, which a count-based window of
        // the same nominal size would cut differently.
        let full = "0\t1\t0.0\n1\t1\t1.0\n3\t2\t0.5\n0\t5\t0.0\n2\t5\t9.0\n1\t6\t2.0\n";
        let window = "3\t2\t0.5\n0\t5\t0.0\n2\t5\t9.0\n1\t6\t2.0\n";

        let mut driver = IngestDriver::open(
            graph(),
            CreditPolicy::Uniform,
            &log_path,
            &ckpt_path,
            FollowConfig {
                lambda: Some(0.0),
                window: WindowPolicy::WatermarkAge(4),
                ..Default::default()
            },
        )
        .unwrap();
        append(&log_path, full);
        driver.step().unwrap();
        driver.finish().unwrap();
        assert_eq!(driver.snapshot().num_actions(), 3);
        assert_eq!(driver.snapshot().to_bytes(), offline(&graph(), window, 0.0));
        let ckpt = Checkpoint::load(&ckpt_path).unwrap();
        let externals: Vec<u32> = ckpt.window.iter().map(|e| e.external).collect();
        assert_eq!(externals, [2, 5, 6]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restart_across_an_expiry_boundary_stays_window_identical() {
        let dir = tempdir("win_restart");
        let log_path = dir.join("actions.tsv");
        let ckpt_path = dir.join("model.ckpt");
        let config = FollowConfig {
            lambda: Some(0.001),
            window: WindowPolicy::Actions(2),
            ..Default::default()
        };

        // First incarnation publishes actions 1–3 (action 4 still open),
        // checkpoints — which expires action 1 — and crashes.
        {
            let mut driver =
                IngestDriver::open(graph(), CreditPolicy::Uniform, &log_path, &ckpt_path, config)
                    .unwrap();
            append(&log_path, "0\t1\t0.0\n1\t1\t1.0\n3\t2\t0.5\n0\t3\t0.0\n2\t3\t9.0\n1\t4\t2.0\n");
            driver.step().unwrap();
            assert_eq!(driver.snapshot().num_actions(), 2, "expiry ran at the checkpoint");
        }
        let ckpt = Checkpoint::load(&ckpt_path).unwrap();
        assert_eq!(ckpt.snapshot.num_actions(), 2);
        assert_eq!(ckpt.window.iter().map(|e| e.external).collect::<Vec<_>>(), [2, 3]);

        // Second incarnation resumes mid-window, finishes actions 4–5;
        // the final model must equal a scan of just the last two actions.
        let mut driver =
            IngestDriver::open(graph(), CreditPolicy::Uniform, &log_path, &ckpt_path, config)
                .unwrap();
        append(&log_path, "4\t4\t3.0\n2\t5\t0.1\n");
        driver.step().unwrap();
        driver.finish().unwrap();
        assert_eq!(
            driver.snapshot().to_bytes(),
            offline(&graph(), "1\t4\t2.0\n4\t4\t3.0\n2\t5\t0.1\n", 0.001)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_with_a_window_needs_window_tuples() {
        let dir = tempdir("win_missing");
        let log_path = dir.join("actions.tsv");
        let ckpt_path = dir.join("model.ckpt");
        // An unbounded incarnation trains one action and checkpoints —
        // without the tuple buffer.
        {
            let mut driver = IngestDriver::open(
                graph(),
                CreditPolicy::Uniform,
                &log_path,
                &ckpt_path,
                FollowConfig { lambda: Some(0.0), ..Default::default() },
            )
            .unwrap();
            append(&log_path, "0\t1\t0.0\n1\t2\t1.0\n");
            driver.step().unwrap();
            driver.finish().unwrap();
            assert_eq!(driver.snapshot().num_actions(), 2);
        }
        match IngestDriver::open(
            graph(),
            CreditPolicy::Uniform,
            &log_path,
            &ckpt_path,
            FollowConfig { window: WindowPolicy::Actions(1), ..Default::default() },
        ) {
            Err(IngestError::Config(why)) => assert!(why.contains("window"), "{why}"),
            Err(other) => panic!("expected a config error, got {other}"),
            Ok(_) => panic!("windowed resume accepted a checkpoint without tuples"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn metrics_flow_into_the_shared_registry() {
        let dir = tempdir("metrics");
        let log_path = dir.join("actions.tsv");
        let registry = Arc::new(MetricsRegistry::new());
        let mut driver = IngestDriver::open_with_registry(
            graph(),
            CreditPolicy::Uniform,
            &log_path,
            &dir.join("model.ckpt"),
            FollowConfig { lambda: Some(0.0), ..Default::default() },
            Arc::clone(&registry),
        )
        .unwrap();
        // Two clean actions, then a stale record for the first one.
        append(&log_path, "0\t1\t0.0\n1\t2\t1.0\n2\t1\t5.0\n");
        let step = driver.step().unwrap();
        assert_eq!(step.records, 3);
        assert_eq!(step.dead_letters.len(), 1);
        assert_eq!(step.quarantined_total, 1);
        assert!(matches!(step.last_quarantine_reason, Some(QuarantineReason::StaleAction { .. })));
        driver.finish().unwrap();

        let dump = registry.dump();
        let counter = |name: &str| {
            dump.counters
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("missing counter {name}"))
                .1
        };
        assert_eq!(counter("cdim_ingest_records_total"), 3);
        assert_eq!(counter("cdim_ingest_quarantined_total"), 1);
        let (_, batch_hist) = dump
            .histograms
            .iter()
            .find(|(n, _)| n == "cdim_ingest_batch_actions")
            .expect("missing batch histogram");
        assert!(batch_hist.count >= 1);
        let (_, ckpt_hist) = dump
            .histograms
            .iter()
            .find(|(n, _)| n == "cdim_ingest_checkpoint_seconds")
            .expect("missing checkpoint histogram");
        assert!(ckpt_hist.count >= 1);
        let (_, key, value) = dump
            .infos
            .iter()
            .find(|(n, _, _)| n == "cdim_ingest_last_quarantine_reason")
            .expect("missing quarantine info");
        assert_eq!(key, "reason");
        assert!(value.contains("frontier"), "{value}");
        // The service shares the registry: serve series sit beside
        // ingest ones, so wire op 6 exposes both in one dump.
        assert!(Arc::ptr_eq(&driver.service().metrics_registry(), &registry));
        assert!(dump.counters.iter().any(|(n, _)| n == "cdim_serve_queries_total"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_with_idle_exit_finishes_cleanly() {
        let dir = tempdir("idle");
        let log_path = dir.join("actions.tsv");
        let ckpt_path = dir.join("model.ckpt");
        let text = "0\t1\t0.0\n1\t2\t1.0\n";
        append(&log_path, text);
        let mut driver = IngestDriver::open(
            graph(),
            CreditPolicy::Uniform,
            &log_path,
            &ckpt_path,
            FollowConfig {
                lambda: Some(0.0),
                poll_interval: Duration::from_millis(1),
                idle_exit: Some(Duration::from_millis(20)),
                ..Default::default()
            },
        )
        .unwrap();
        let mut reports = 0;
        driver.run(|_| reports += 1).unwrap();
        assert!(reports >= 1);
        assert_eq!(driver.snapshot().to_bytes(), offline(&graph(), text, 0.0));
        assert!(ckpt_path.exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
