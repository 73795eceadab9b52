//! Scan instrumentation: per-shard wall time and pool utilization.
//!
//! The scan reports into the process-wide
//! [`cdim_obs::MetricsRegistry::global`] registry so its series show up on
//! the same scrape endpoint and wire dump as the serve and ingest layers:
//!
//! * `cdim_scan_seconds` — histogram, wall time of the whole parallel
//!   section of each [`crate::scan_with`] call;
//! * `cdim_scan_shard_seconds` — histogram, wall time of each worker's
//!   shard (the p99/max spread diagnoses shard imbalance);
//! * `cdim_scan_pool_workers` — gauge, workers used by the latest scan;
//! * `cdim_scan_pool_utilization` — gauge, `Σ shard time / (wall ×
//!   workers)` of the latest scan: 1.0 means every worker was busy the
//!   whole section, low values mean stragglers dominated.
//!
//! Recording happens strictly *outside* the per-action kernel — the
//! instrumented quantities are shard-level wall times, so the hot path of
//! the scan kernel (`scan::scan_action`) is untouched and the model bytes
//! cannot depend on whether anyone is scraping.
//!
//! The same shard times also feed the process-global span flight
//! recorder ([`cdim_obs::Tracer::global`]): each scan becomes a derived
//! `core.scan` root with one `core.scan_shard` child per worker,
//! reconstructed *post-hoc* from the wall measurements — tracing shares
//! the kernel-untouched guarantee with the metrics.

use cdim_obs::{Gauge, Histogram, MetricsRegistry, Stage, Tracer};
use std::sync::{Arc, OnceLock};

/// Handles into a registry and flight recorder, resolved once.
pub(crate) struct ScanTelemetry {
    /// Whole-parallel-section wall time per scan call.
    pub scan_seconds: Arc<Histogram>,
    /// Per-worker shard wall time.
    pub shard_seconds: Arc<Histogram>,
    /// Workers used by the most recent scan.
    pub pool_workers: Arc<Gauge>,
    /// Busy fraction of the most recent scan.
    pub pool_utilization: Arc<Gauge>,
    /// The flight recorder the derived scan trace lands in.
    tracer: Arc<Tracer>,
    /// `core.scan` — the whole parallel section.
    scan_stage: Stage,
    /// `core.scan_shard` — one worker's shard of it.
    shard_stage: Stage,
}

impl ScanTelemetry {
    /// Scan telemetry reporting into `registry` and `tracer`.
    pub(crate) fn new(registry: &MetricsRegistry, tracer: Arc<Tracer>) -> ScanTelemetry {
        ScanTelemetry {
            scan_seconds: registry.histogram("cdim_scan_seconds"),
            shard_seconds: registry.histogram("cdim_scan_shard_seconds"),
            pool_workers: registry.gauge("cdim_scan_pool_workers"),
            pool_utilization: registry.gauge("cdim_scan_pool_utilization"),
            scan_stage: tracer.stage("core.scan"),
            shard_stage: tracer.stage("core.scan_shard"),
            tracer,
        }
    }

    /// The process-wide scan telemetry handles, over the global registry
    /// and flight recorder.
    pub(crate) fn get() -> &'static ScanTelemetry {
        static TELEMETRY: OnceLock<ScanTelemetry> = OnceLock::new();
        TELEMETRY.get_or_init(|| ScanTelemetry::new(&MetricsRegistry::global(), Tracer::global()))
    }

    /// Record one scan's parallel section: total wall seconds, per-shard
    /// wall seconds, and the derived pool facts.
    pub(crate) fn record_scan(&self, wall_secs: f64, shard_secs: &[f64]) {
        self.scan_seconds.observe(wall_secs);
        let mut busy = 0.0;
        for &s in shard_secs {
            self.shard_seconds.observe(s);
            busy += s;
        }
        let workers = shard_secs.len();
        self.pool_workers.set(workers as f64);
        if workers > 0 && wall_secs > 0.0 {
            self.pool_utilization.set((busy / (wall_secs * workers as f64)).min(1.0));
        }
        // Derived trace: the section's interval is reconstructed as
        // [now − wall, now]; each shard child starts with the section
        // (workers launch together) and runs its own measured time,
        // clamped into the root so the nesting invariant holds under
        // floating-point jitter.
        let now = self.tracer.now_ns();
        let wall_ns = (wall_secs * 1e9) as u64;
        let start = now.saturating_sub(wall_ns);
        let ctx = self.tracer.begin_trace();
        let root = self.tracer.open_at(ctx, self.scan_stage, start);
        for &s in shard_secs {
            let shard_ns = ((s * 1e9) as u64).min(wall_ns);
            self.tracer.record(root.ctx(), self.shard_stage, start, start + shard_ns);
        }
        self.tracer.close_at(root, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Telemetry over a private registry and recorder, so concurrent
    /// scans in other tests cannot move the series under assertion.
    fn private() -> (MetricsRegistry, Arc<Tracer>, ScanTelemetry) {
        let registry = MetricsRegistry::new();
        let tracer = Arc::new(Tracer::new());
        let telemetry = ScanTelemetry::new(&registry, Arc::clone(&tracer));
        (registry, tracer, telemetry)
    }

    #[test]
    fn record_scan_populates_the_registry() {
        let (registry, _tracer, t) = private();
        t.record_scan(2.0, &[1.0, 2.0]);
        assert_eq!(t.scan_seconds.count(), 1);
        // 3 busy seconds over 2 workers × 2 wall seconds = 0.75.
        assert!((t.pool_utilization.get() - 0.75).abs() < 1e-12);
        assert_eq!(t.pool_workers.get(), 2.0);
        // The series live in the registry under their public names.
        let dump = registry.dump();
        assert!(dump.histograms.iter().any(|(n, _)| n == "cdim_scan_seconds"));
        assert!(dump.gauges.iter().any(|(n, _)| n == "cdim_scan_pool_utilization"));
    }

    #[test]
    fn get_reports_into_the_global_registry() {
        ScanTelemetry::get();
        let dump = MetricsRegistry::global().dump();
        assert!(dump.histograms.iter().any(|(n, _)| n == "cdim_scan_seconds"));
        assert!(dump.gauges.iter().any(|(n, _)| n == "cdim_scan_pool_utilization"));
    }

    #[test]
    fn degenerate_scans_do_not_divide_by_zero() {
        let (_registry, _tracer, t) = private();
        t.record_scan(0.0, &[]);
        assert!(t.pool_utilization.get().is_finite());
    }

    #[test]
    fn record_scan_derives_a_nested_trace() {
        // A private recorder traces every scan and holds only this one.
        let (_registry, tracer, t) = private();
        t.record_scan(0.004, &[0.001, 0.002, 0.003]);
        let spans = tracer.recent();
        let root = spans
            .iter()
            .filter(|s| s.stage == "core.scan" && s.parent_id == 0)
            .find(|root| {
                spans
                    .iter()
                    .filter(|s| s.trace_id == root.trace_id && s.stage == "core.scan_shard")
                    .count()
                    == 3
            })
            .expect("a 3-shard core.scan trace is in the recorder");
        for shard in
            spans.iter().filter(|s| s.trace_id == root.trace_id && s.span_id != root.span_id)
        {
            assert_eq!(shard.parent_id, root.span_id);
            assert!(root.start_ns <= shard.start_ns && shard.end_ns <= root.end_ns);
        }
    }
}
