//! bench-serve — concurrent-connection latency sweep of the reactor.
//!
//! Not a paper artifact: this measures the serving frontend. For a sweep
//! of concurrent-connection counts we drive the pipelined
//! [`crate::loadgen`] against the readiness-driven reactor and report
//! p50/p90/p99 request latency plus aggregate throughput. Sweep sizes
//! past [`IN_PROCESS_MAX`] put the server in a re-exec'd child process so
//! client and server each get their own fd budget (a host that caps
//! `RLIMIT_NOFILE` at 20 000 will not raise it).
//!
//! The sweep lands machine-readably in `BENCH_serve.json` so CI can
//! track serving tails across commits.

use crate::config::ExperimentScale;
use crate::loadgen::{self, ChildServer, LoadConfig, LoadReport};
use cdim_core::{scan, CreditPolicy};
use cdim_datagen::presets;
use cdim_metrics::Table;
use cdim_serve::{server, InfluenceService, ModelSnapshot, ServerConfig};
use std::io::Write as _;
use std::sync::Arc;
use std::time::Duration;

/// Above this many concurrent connections the server runs in a child
/// process: client sockets + server sockets would otherwise share one
/// 20k-fd budget.
pub const IN_PROCESS_MAX: usize = 4096;

/// One measured connection-count cell.
pub struct Row {
    /// Concurrent connections driven.
    pub connections: usize,
    /// The loadgen's latency/throughput summary.
    pub report: LoadReport,
}

/// Where the JSON record lands by default: `$CDIM_BENCH_JSON_SERVE` if
/// set (CI points this at the workspace), otherwise the temp directory.
fn json_path() -> std::path::PathBuf {
    match std::env::var_os("CDIM_BENCH_JSON_SERVE") {
        Some(path) => path.into(),
        None => std::env::temp_dir().join("BENCH_serve.json"),
    }
}

/// Runs the sweep; the JSON lands at `$CDIM_BENCH_JSON_SERVE` or, when
/// unset, `BENCH_serve.json` in the temp directory.
pub fn run(scale: ExperimentScale) {
    run_with_output(scale, &json_path());
}

/// Runs the sweep and writes the JSON record to `path` (the explicit-path
/// variant tests use — no process-global environment involved).
pub fn run_with_output(scale: ExperimentScale, path: &std::path::Path) {
    super::banner(
        "bench-serve — concurrent-connection tails of the reactor",
        "engineering artifact (not in the paper): the serving frontend",
        scale,
    );
    // Quick keeps everything in-process so `cargo test` (whose harness
    // main cannot host a server child) can exercise the sweep end to end.
    let sizes: &[usize] = if scale.dataset_divisor >= ExperimentScale::quick().dataset_divisor {
        &[32, 128]
    } else {
        &[64, 1024, 10_000]
    };
    let requests_per_conn = 8;
    let divisor = scale.dataset_divisor.max(8);

    let rows = sweep(sizes, requests_per_conn, divisor);

    let mut table = Table::new(["conns", "requests", "qps", "p50", "p90", "p99", "max"]);
    for row in &rows {
        table.row([
            row.connections.to_string(),
            row.report.requests.to_string(),
            format!("{:.0}", row.report.qps()),
            format!("{:.2?}", row.report.p50),
            format!("{:.2?}", row.report.p90),
            format!("{:.2?}", row.report.p99),
            format!("{:.2?}", row.report.max),
        ]);
    }
    println!("{table}");
    println!("(sizes past {IN_PROCESS_MAX} serve from a child process for fd headroom)");

    match write_json(path, requests_per_conn, divisor, &rows) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// Measures the reactor at every size. One trained model is shared by
/// all in-process servers.
pub fn sweep(sizes: &[usize], requests_per_conn: usize, divisor: usize) -> Vec<Row> {
    let service = shared_service(divisor);
    let mut rows = Vec::new();
    for &conns in sizes {
        match run_one(conns, requests_per_conn, divisor, &service) {
            Ok(report) => rows.push(Row { connections: conns, report }),
            Err(e) => eprintln!("reactor @ {conns} conns failed: {e}"),
        }
    }
    rows
}

/// One cell: spawn the server (in-process up to [`IN_PROCESS_MAX`]
/// connections, child process beyond), drive it, tear it down.
fn run_one(
    conns: usize,
    requests_per_conn: usize,
    divisor: usize,
    service: &Arc<InfluenceService>,
) -> std::io::Result<LoadReport> {
    let config = LoadConfig {
        connections: conns,
        requests_per_connection: requests_per_conn,
        pipeline: 4,
        deadline: Duration::from_secs(300),
        ..LoadConfig::default()
    };
    if conns > IN_PROCESS_MAX {
        let child = ChildServer::spawn(divisor)?;
        return loadgen::run(child.addr(), &config);
    }
    let server_config = ServerConfig { max_connections: conns + 64, ..ServerConfig::default() };
    let handle = server::spawn_with(Arc::clone(service), "127.0.0.1:0", server_config)?;
    let report = loadgen::run(handle.addr(), &config);
    handle.shutdown();
    report
}

/// The in-process servers' model: a trained store on a scaled-down
/// preset (the child builds its own identical one from the same knob).
fn shared_service(divisor: usize) -> Arc<InfluenceService> {
    let ds = presets::flixster_small().scaled_down(divisor).generate();
    let policy = CreditPolicy::time_aware(&ds.graph, &ds.log);
    let store = scan(&ds.graph, &ds.log, &policy, 0.001).expect("scan");
    Arc::new(InfluenceService::new(ModelSnapshot::from_store(store), 4096))
}

/// Hand-rolled JSON (the workspace has no serialization dependency).
fn write_json(
    path: &std::path::Path,
    requests_per_conn: usize,
    divisor: usize,
    rows: &[Row],
) -> std::io::Result<()> {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"experiment\": \"bench-serve\",\n");
    out.push_str("  \"dataset\": \"flixster_small\",\n");
    out.push_str(&format!("  \"dataset_divisor\": {divisor},\n"));
    out.push_str(&format!("  \"requests_per_connection\": {requests_per_conn},\n"));
    out.push_str("  \"runs\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let r = &row.report;
        out.push_str(&format!(
            "    {{\"connections\": {}, \"requests\": {}, \
             \"elapsed_secs\": {:.6}, \"qps\": {:.1}, \
             \"p50_us\": {:.1}, \"p90_us\": {:.1}, \"p99_us\": {:.1}, \"max_us\": {:.1}}}{comma}\n",
            row.connections,
            r.requests,
            r.elapsed.as_secs_f64(),
            r.qps(),
            r.p50.as_secs_f64() * 1e6,
            r.p90.as_secs_f64() * 1e6,
            r.p99.as_secs_f64() * 1e6,
            r.max.as_secs_f64() * 1e6,
        ));
    }
    out.push_str("  ]\n}\n");
    let mut file = std::fs::File::create(path)?;
    file.write_all(out.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_record_is_parseable_shape() {
        let dir = std::env::temp_dir().join(format!("cdim_benchserve_json_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_serve.json");
        let report = LoadReport {
            connections: 64,
            requests: 512,
            elapsed: Duration::from_millis(250),
            p50: Duration::from_micros(90),
            p90: Duration::from_micros(200),
            p99: Duration::from_micros(900),
            max: Duration::from_millis(3),
        };
        let rows = vec![Row { connections: 64, report }, Row { connections: 128, report }];
        write_json(&path, 8, 8, &rows).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"experiment\": \"bench-serve\""));
        assert!(text.contains("\"connections\": 128"));
        assert!(text.contains("\"p99_us\""));
        assert_eq!(text.matches('{').count(), text.matches('}').count());
        assert_eq!(text.matches('[').count(), text.matches(']').count());
        assert!(!text.contains(",\n  ]"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quick_sweep_measures_every_size() {
        let dir = std::env::temp_dir().join(format!("cdim_benchserve_run_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_serve.json");
        run_with_output(ExperimentScale::quick(), &path);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(!text.contains("\"backend\""));
        assert!(text.contains("\"connections\": 32"));
        assert!(text.contains("\"connections\": 128"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
