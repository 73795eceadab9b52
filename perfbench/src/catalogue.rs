//! Names and units of the metrics the JSON result line carries; they match
//! `BENCHMARK.json` (a test keeps the two in step).

/// End-to-end metrics (untraced run), present in every workload; their
/// meaning per workload is tabulated in `perfbench/README.md` (e.g.
/// `work_s` is `train_s` in train, the request sequence in serve and the
/// action stream in live).
pub const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("work_s", "s"), ("latency_ms", "ms"), ("rss_peak_mb", "MB")];

/// Per-layer metrics (traced run). The result line must carry every one
/// in every workload, so each workload's own pipeline is followed by a
/// short probe of the other two on its data.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("actionlog.decode_ms", "ms"),
    ("core.policy_ms", "ms"),
    ("core.scan_ms", "ms"),
    ("core.scan_ns_per_tuple", "ns"),
    ("core.scan_entries", "count"),
    ("core.scan_speedup", "ratio"),
    ("core.freeze_ms", "ms"),
    ("core.mg_us", "us"),
    ("core.spread3_ms", "ms"),
    ("core.celf_evals", "count"),
    ("core.celf_us_per_eval", "us"),
    ("serve.save_ms", "ms"),
    ("serve.load_ms", "ms"),
    ("serve.snapshot_mb", "MB"),
    ("serve.resident_mb", "MB"),
    ("serve.service.hit_share", "ratio"),
    ("serve.service.query_us", "us"),
    ("serve.reactor.hit_rtt_us", "us"),
    ("serve.reactor.overhead_share", "ratio"),
    ("serve.reactor.batch_mean", "count"),
    ("ingest.step_ms", "ms"),
    ("ingest.publish_ms", "ms"),
    ("ingest.checkpoint_ms", "ms"),
    ("ingest.poll_ms", "ms"),
    ("ingest.checkpoint_mb", "MB"),
    ("ingest.quarantined", "count"),
    ("load.sent", "count"),
    ("load.ok", "count"),
    ("load.failed", "count"),
];
