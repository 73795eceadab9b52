//! `cdim` — command-line interface to the credit-distribution model.
//!
//! ```text
//! cdim generate --preset flixster_small --out DIR     synthesize a dataset
//! cdim stats    --graph G.tsv --log L.tsv             Table-1-style statistics
//! cdim select   --graph G.tsv --log L.tsv --k 50      influence maximization
//! cdim predict  --graph G.tsv --log L.tsv --seeds 1,2 spread prediction
//! cdim train    --graph G.tsv --log L.tsv --out M.snap   full training
//! cdim train    … --window N …                           train on the last N actions only
//! cdim train    … --append D.tsv --base M.snap --policy P …   delta retrain
//! cdim serve    --snapshot M.snap --addr 127.0.0.1:7171  query service
//! cdim follow   --graph G.tsv --log L.tsv --snapshot M.ckpt --serve ADDR   online retraining
//! cdim query    --addr 127.0.0.1:7171 --op topk --k 10   remote queries
//! cdim stats    --addr 127.0.0.1:7171                    server counters
//! ```
//!
//! Graphs and logs are the TSV formats of `cdim::actionlog::storage`;
//! snapshots are the binary format of `cdim::serve::snapshot`; follow
//! checkpoints are the container of `cdim::ingest::checkpoint`.

use cdim::actionlog::{stats::log_stats, storage, ActionLogDelta};
use cdim::graph::stats::graph_stats;
use cdim::ingest::{BatchConfig, FollowConfig, IngestDriver, WindowPolicy};
use cdim::metrics::Table;
use cdim::obs::{MetricsRegistry, MetricsServer, SpanDump, Tracer};
use cdim::prelude::*;
use cdim::serve::{ClientError, InfluenceService, ModelSnapshot, QueryClient, ServerConfig};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        usage();
        return ExitCode::from(2);
    };
    // `cdim trace` has boolean switches; expand them to the `--key value`
    // shape the parser demands before it sees them.
    let tail = if command == "trace" {
        expand_switches(&args[1..], &["slow"])
    } else {
        args[1..].to_vec()
    };
    let flags = match Flags::parse(&tail).and_then(|f| f.check_allowed(command).map(|()| f)) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
            return ExitCode::from(2);
        }
    };
    let result = match command.as_str() {
        "generate" => cmd_generate(&flags),
        "stats" => cmd_stats(&flags),
        "select" => cmd_select(&flags),
        "predict" => cmd_predict(&flags),
        "train" => cmd_train(&flags),
        "serve" => cmd_serve(&flags),
        "follow" => cmd_follow(&flags),
        "query" => match cmd_query(&flags) {
            Err(CliError::Usage(e)) => {
                eprintln!("error: {e}");
                usage();
                return ExitCode::from(2);
            }
            Err(CliError::Failed(e)) => Err(e),
            Ok(()) => Ok(()),
        },
        "trace" => cmd_trace(&flags),
        "--help" | "help" => {
            usage();
            Ok(())
        }
        _ => unreachable!("check_allowed admits only known commands"),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The flags each command accepts, mirroring [`usage`]: a flag outside
/// its command's list (a typo such as `--windw`) is a usage error, never
/// silently ignored.
const COMMAND_FLAGS: &[(&str, &str)] = &[
    ("generate", "preset out scale"),
    ("stats", "graph log addr"),
    ("select", "graph log k lambda policy threads"),
    ("predict", "graph log seeds policy mc sims threads"),
    ("train", "graph log out policy lambda threads window append base"),
    ("serve", "snapshot addr cache max-connections metrics-addr trace-sample trace-slow-ms"),
    (
        "follow",
        "graph log snapshot serve batch-actions batch-ms checkpoint-every poll-ms idle-exit-ms \
         export-snapshot policy policy-log lambda threads cache window-actions window-age \
         metrics-addr trace-sample trace-slow-ms",
    ),
    ("query", "addr op k seeds candidate"),
    ("trace", "addr slow chrome"),
];

fn usage() {
    eprintln!(
        "usage:\n  \
         cdim generate --preset <name>|tiny --out <dir> [--scale N]\n  \
         cdim stats    --graph <g.tsv> --log <l.tsv>\n  \
         cdim select   --graph <g.tsv> --log <l.tsv> [--k N] [--lambda F] [--policy uniform|time-aware] [--threads N]\n  \
         cdim predict  --graph <g.tsv> --log <l.tsv> --seeds a,b,c [--policy ...] [--mc ic|lt] [--sims N] [--threads N]\n  \
         cdim train    --graph <g.tsv> --log <l.tsv> --out <m.snap> [--policy ...] [--lambda F] [--threads N] [--window N]\n  \
         cdim train    --graph <g.tsv> --append <d.tsv> --base <m.snap> --out <m2.snap> --policy uniform|time-aware [--log <l.tsv>] [--threads N]\n  \
         cdim serve    --snapshot <m.snap> [--addr host:port] [--cache N] [--max-connections N] [--metrics-addr host:port]\n  \
                       [--trace-sample N] [--trace-slow-ms T]\n  \
         cdim follow   --graph <g.tsv> --log <live.tsv> --snapshot <m.ckpt> [--serve host:port]\n  \
                       [--batch-actions N] [--batch-ms T] [--checkpoint-every K] [--poll-ms T]\n  \
                       [--idle-exit-ms T] [--export-snapshot <m.snap>] [--policy uniform|time-aware]\n  \
                       [--policy-log <l.tsv>] [--lambda F] [--threads N] [--cache N]\n  \
                       [--window-actions N | --window-age A] [--metrics-addr host:port]\n  \
                       [--trace-sample N] [--trace-slow-ms T]\n  \
         cdim query    --addr <host:port> --op topk|spread|gain|info [--k N] [--seeds a,b] [--candidate x]\n  \
         cdim stats    --addr <host:port>\n  \
         cdim trace    --addr <host:port> [--slow] [--chrome <out.json>]"
    );
}

/// Minimal `--key value` flag parser.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut flags = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let key = args[i]
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got {:?}", args[i]))?;
            let value = args.get(i + 1).ok_or_else(|| format!("--{key} requires a value"))?;
            if flags.iter().any(|(k, _)| k == key) {
                return Err(format!("--{key} given more than once"));
            }
            flags.push((key.to_string(), value.clone()));
            i += 2;
        }
        Ok(Flags(flags))
    }

    /// Rejects an unknown command, any flag outside `command`'s
    /// [`COMMAND_FLAGS`] entry (`help` takes no flags and is not checked),
    /// and `train --base` without the `--append` delta it would extend.
    fn check_allowed(&self, command: &str) -> Result<(), String> {
        let Some((_, allowed)) = COMMAND_FLAGS.iter().find(|(name, _)| *name == command) else {
            return match command {
                "help" | "--help" => Ok(()),
                _ => Err(format!("unknown command {command:?}")),
            };
        };
        let unknown = self.0.iter().find(|(k, _)| !allowed.split_whitespace().any(|a| a == k));
        if let Some((key, _)) = unknown {
            return Err(format!("unknown flag --{key} for `cdim {command}`"));
        }
        // Flag combinations that are usage errors whatever their values.
        let has = |key| self.get(key).is_some();
        let conflict = match command {
            "train" if has("base") && !has("append") => {
                "--base needs --append: it names the snapshot the delta extends"
            }
            "train" if has("append") && has("window") => {
                "--window cannot be combined with --append: retract from a windowed follow \
                 checkpoint instead, or retrain on the window"
            }
            "train" if has("append") && !has("policy") => {
                "--append requires an explicit --policy: snapshots do not record the policy \
                 they were trained with, and extending uniform credits with time-aware ones \
                 (or vice versa) silently corrupts the model"
            }
            "follow" if has("window-actions") && has("window-age") => {
                "--window-actions and --window-age are mutually exclusive (one policy per \
                 follow session)"
            }
            "follow" if self.get("policy") == Some("time-aware") && !has("policy-log") => {
                "--policy time-aware requires --policy-log <l.tsv>: the time-aware parameters \
                 (tau, infl) must be derived from a frozen log, not the moving stream"
            }
            _ => return Ok(()),
        };
        Err(conflict.to_string())
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing required flag --{key}"))
    }

    fn get_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| format!("invalid --{key}: {raw:?}")),
        }
    }
}

fn load(flags: &Flags) -> Result<(DirectedGraph, ActionLog), String> {
    let graph_path = flags.require("graph")?;
    let log_path = flags.require("log")?;
    let graph = storage::load_graph(Path::new(graph_path))
        .map_err(|e| format!("reading {graph_path}: {e}"))?;
    let log = storage::load_action_log(Path::new(log_path), graph.num_nodes())
        .map_err(|e| format!("reading {log_path}: {e}"))?;
    Ok((graph, log))
}

fn policy_config(flags: &Flags) -> Result<CdModelConfig, String> {
    let policy = match flags.get("policy").unwrap_or("time-aware") {
        "uniform" => PolicyKind::Uniform,
        "time-aware" => PolicyKind::TimeAware,
        other => return Err(format!("unknown policy {other:?} (uniform|time-aware)")),
    };
    let lambda = flags.get_parsed("lambda", 0.001)?;
    if !(0.0..=1.0).contains(&lambda) {
        return Err(format!("--lambda must be in [0, 1], got {lambda}"));
    }
    // One thread budget for every parallel stage of the invocation
    // (the credit scan, or in `predict` the MC cross-check): 0 = auto.
    let parallelism = Parallelism::fixed(flags.get_parsed("threads", 0usize)?);
    Ok(CdModelConfig { policy, lambda, parallelism })
}

fn cmd_generate(flags: &Flags) -> Result<(), String> {
    let preset = flags.require("preset")?;
    let out: PathBuf = flags.require("out")?.into();
    let scale = flags.get_parsed("scale", 1usize)?;
    let spec = match preset {
        "tiny" => cdim::datagen::presets::tiny(),
        "flixster_small" => cdim::datagen::presets::flixster_small(),
        "flickr_small" => cdim::datagen::presets::flickr_small(),
        "flixster_large" => cdim::datagen::presets::flixster_large(),
        "flickr_large" => cdim::datagen::presets::flickr_large(),
        other => return Err(format!("unknown preset {other:?}")),
    };
    let ds = spec.scaled_down(scale.max(1)).generate();
    std::fs::create_dir_all(&out).map_err(|e| format!("creating {out:?}: {e}"))?;
    let graph_path = out.join("graph.tsv");
    let log_path = out.join("log.tsv");
    storage::save_graph(&ds.graph, &graph_path).map_err(|e| e.to_string())?;
    storage::save_action_log(&ds.log, &log_path).map_err(|e| e.to_string())?;
    println!(
        "wrote {} ({} nodes, {} edges) and {} ({} traces, {} tuples)",
        graph_path.display(),
        ds.graph.num_nodes(),
        ds.graph.num_edges(),
        log_path.display(),
        ds.log.num_actions(),
        ds.log.num_tuples()
    );
    Ok(())
}

fn cmd_stats(flags: &Flags) -> Result<(), String> {
    // With --addr, report a running server's observability counters;
    // otherwise the classic Table-1-style dataset statistics.
    if let Some(addr) = flags.get("addr") {
        let mut client =
            QueryClient::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
        let stats = client.stats().map_err(|e| e.to_string())?;
        let mut table = Table::new(["counter", "value"]);
        table.row(["queries served".to_string(), stats.queries.to_string()]);
        table.row(["cache hits".to_string(), stats.cache_hits.to_string()]);
        table.row(["cache misses".to_string(), stats.cache_misses.to_string()]);
        table.row(["publishes applied".to_string(), stats.publishes.to_string()]);
        table.row(["model version".to_string(), stats.model_version.to_string()]);
        print!("{table}");
        // Op 6: the full registry dump — latency quantiles, ingest
        // throughput/lag, quarantine reasons. An older server that lacks
        // the opcode just loses this section, not the counters above.
        match client.metrics() {
            Ok(dump) => print_metrics_dump(&dump),
            Err(e) => eprintln!("(metrics op unavailable: {e})"),
        }
        // Op 7 probe: when the server carries the span flight recorder,
        // point at the per-request view. A pre-op-7 server answers with
        // an error on a still-usable connection — stay silent then.
        if let Ok(dump) = client.trace_dump() {
            println!(
                "tracing: {} spans in the flight recorder, {} slow traces \
                 (`cdim trace --addr {addr}` for per-request waterfalls)",
                dump.spans.len(),
                dump.slow.len()
            );
        }
        return Ok(());
    }
    let (graph, log) = load(flags)?;
    let gs = graph_stats(&graph);
    let ls = log_stats(&log);
    let mut table = Table::new(["statistic", "value"]);
    table.row(["nodes".to_string(), gs.nodes.to_string()]);
    table.row(["directed edges".to_string(), gs.edges.to_string()]);
    table.row(["avg degree".to_string(), format!("{:.2}", gs.avg_degree)]);
    table.row(["reciprocity".to_string(), format!("{:.2}", gs.reciprocity)]);
    table.row(["propagations".to_string(), ls.propagations.to_string()]);
    table.row(["tuples".to_string(), ls.tuples.to_string()]);
    table.row(["avg trace size".to_string(), format!("{:.1}", ls.avg_size)]);
    table.row(["max trace size".to_string(), ls.max_size.to_string()]);
    table.row(["active users".to_string(), ls.active_users.to_string()]);
    print!("{table}");
    Ok(())
}

/// Renders a wire-op-6 registry dump: one table of scalar series
/// (counters, gauges, infos), one of histogram quantiles.
fn print_metrics_dump(dump: &cdim::obs::RegistryDump) {
    if dump.is_empty() {
        return;
    }
    let mut scalars = Table::new(["metric", "value"]);
    for (name, v) in &dump.counters {
        scalars.row([name.clone(), v.to_string()]);
    }
    for (name, v) in &dump.gauges {
        scalars.row([name.clone(), format!("{v:.3}")]);
    }
    for (name, key, value) in &dump.infos {
        if !value.is_empty() {
            scalars.row([format!("{name}{{{key}}}"), value.clone()]);
        }
    }
    print!("{scalars}");
    let recorded: Vec<_> = dump.histograms.iter().filter(|(_, s)| s.count > 0).collect();
    if !recorded.is_empty() {
        let mut hist = Table::new(["histogram", "count", "p50", "p90", "p99", "max"]);
        for (name, s) in recorded {
            // `*_seconds` histograms are latencies; the rest (e.g. batch
            // sizes) are plain numbers.
            let fmt: fn(f64) -> String =
                if name.ends_with("_seconds") { fmt_secs } else { |v| format!("{v:.1}") };
            hist.row([
                name.clone(),
                s.count.to_string(),
                fmt(s.p50),
                fmt(s.p90),
                fmt(s.p99),
                fmt(s.max),
            ]);
        }
        print!("{hist}");
    }
}

/// Human-scaled seconds for latency tables.
fn fmt_secs(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3}s")
    } else if secs >= 1e-3 {
        format!("{:.3}ms", secs * 1e3)
    } else {
        format!("{:.1}us", secs * 1e6)
    }
}

fn cmd_select(flags: &Flags) -> Result<(), String> {
    let (graph, log) = load(flags)?;
    let k = flags.get_parsed("k", 50usize)?;
    let config = policy_config(flags)?;
    let timer = cdim::util::Timer::start();
    // The engine `cdim serve` answers with, so both print the same table.
    let model = ModelSnapshot::build(&graph, &log, config).map_err(|e| e.to_string())?;
    let selection = model.top_k(k);
    eprintln!(
        "trained + selected {} seeds in {:.2}s ({} credit entries, ~{})",
        selection.seeds.len(),
        timer.secs(),
        model.total_entries(),
        cdim::util::mem::fmt_bytes(model.resident_bytes()),
    );
    let mut table = Table::new(["rank", "user", "marginal gain"]);
    for (i, (seed, gain)) in selection.seeds.iter().zip(&selection.marginal_gains).enumerate() {
        table.row([(i + 1).to_string(), seed.to_string(), format!("{gain:.3}")]);
    }
    print!("{table}");
    Ok(())
}

fn parse_seeds(raw: &str) -> Result<Vec<u32>, String> {
    raw.split(',')
        .map(|s| s.trim().parse::<u32>().map_err(|_| format!("invalid seed id {s:?}")))
        .collect()
}

fn cmd_predict(flags: &Flags) -> Result<(), String> {
    let (graph, log) = load(flags)?;
    let config = policy_config(flags)?;
    let seeds = parse_seeds(flags.require("seeds")?)?;
    for &s in &seeds {
        if (s as usize) >= graph.num_nodes() {
            return Err(format!("seed {s} out of range ({} nodes)", graph.num_nodes()));
        }
    }
    // σ_cd is exact (no λ truncation), so only the evaluator is built,
    // over the one arena the policy is learned from.
    let dags = PropagationArena::build(&log, &graph, log.actions());
    let evaluator = CdSpreadEvaluator::build(&dags, &config.build_policy(&dags));
    println!("sigma_cd({seeds:?}) = {:.2}", evaluator.spread(&seeds));

    // Optional Monte-Carlo cross-check under weighted-cascade
    // probabilities, sharded over --threads workers.
    if let Some(mc) = flags.get("mc") {
        let sims = flags.get_parsed("sims", 1000usize)?;
        let threads = flags.get_parsed("threads", 0usize)?;
        let mc_config = McConfig { simulations: sims, threads, base_seed: 0xC0FFEE };
        let probs = cdim::learning::assign::weighted_cascade(&graph);
        let estimate = match mc {
            "ic" => {
                MonteCarloEstimator::new(IcModel::new(&graph, &probs), mc_config).spread(&seeds)
            }
            "lt" => {
                MonteCarloEstimator::new(LtModel::new(&graph, &probs), mc_config).spread(&seeds)
            }
            other => return Err(format!("unknown MC model {other:?} (ic|lt)")),
        };
        println!(
            "sigma_{mc}/wc({seeds:?}) = {estimate:.2}  ({sims} simulations, {} threads)",
            if threads == 0 { "auto".to_string() } else { threads.to_string() }
        );
    }
    Ok(())
}

/// `cdim train`: full training into a snapshot, or — with `--append` —
/// incremental retraining that folds a TSV of new actions into an
/// existing snapshot without rescanning the old log.
///
/// `--window N` trains on only the last N actions of the log. The
/// time-aware policy parameters are still learned from the *full* log
/// (the fixed-policy contract `cdim follow` honors across expiries), so
/// the result is byte-identical to what a windowed follow session serves
/// once its window policy has expired everything older.
///
/// Snapshots persist credits, not the policy they were trained under, so
/// append mode demands an explicit `--policy` matching the base's — a
/// silently defaulted mismatch would corrupt the model without any
/// diagnostic. `--log` is the *original* training log: it is read only
/// to rebuild the time-aware policy parameters (`--policy uniform` skips
/// loading it entirely), never rescanned. The result is byte-identical
/// to full training on the combined log under the same policy.
fn cmd_train(flags: &Flags) -> Result<(), String> {
    let config = policy_config(flags)?;
    let out: PathBuf = flags.require("out")?.into();
    let timer = cdim::util::Timer::start();

    let Some(delta_path) = flags.get("append") else {
        let (graph, log) = load(flags)?;
        let snapshot = match flags.get("window") {
            None => ModelSnapshot::build(&graph, &log, config).map_err(|e| e.to_string())?,
            Some(_) => {
                let keep = flags.get_parsed("window", 0usize)?;
                if keep == 0 {
                    return Err("--window must be at least 1 action".to_string());
                }
                // Policy from the full log, scan over the window only.
                let policy =
                    config.build_policy(&PropagationArena::build(&log, &graph, log.actions()));
                let window = log.split_off_prefix(log.num_actions().saturating_sub(keep)).1;
                let (lambda, threads) = (config.lambda, config.parallelism);
                let store = scan_with(&graph, &window, &policy, lambda, threads);
                ModelSnapshot::from_store(store.map_err(|e| e.to_string())?)
            }
        };
        snapshot.save(&out).map_err(|e| e.to_string())?;
        println!(
            "trained {} ({} actions, {} credit entries) in {:.2}s",
            out.display(),
            snapshot.num_actions(),
            snapshot.total_entries(),
            timer.secs()
        );
        return Ok(());
    };

    let graph_path = flags.require("graph")?;
    let graph = storage::load_graph(Path::new(graph_path))
        .map_err(|e| format!("reading {graph_path}: {e}"))?;
    let base_path: PathBuf = flags.require("base")?.into();
    let base = ModelSnapshot::load(&base_path)
        .map_err(|e| format!("loading base snapshot {}: {e}", base_path.display()))?;
    if base.num_users() != graph.num_nodes() {
        return Err(format!(
            "base snapshot has {} users but the graph has {} nodes",
            base.num_users(),
            graph.num_nodes()
        ));
    }
    let base_lambda = base.lambda();
    if flags.get("lambda").is_some() && config.lambda != base_lambda {
        return Err(format!(
            "--lambda {} conflicts with the base snapshot's lambda {base_lambda} \
             (the truncation threshold is fixed at training time)",
            config.lambda
        ));
    }
    let delta_log = storage::load_action_log(Path::new(delta_path), graph.num_nodes())
        .map_err(|e| format!("reading {delta_path}: {e}"))?;
    let delta = ActionLogDelta::new(base.num_actions(), delta_log);
    // The uniform policy is log-free; only time-aware needs the original
    // training log — a 2% refresh must not pay a 100% log parse.
    let policy = match config.policy {
        PolicyKind::Uniform => CreditPolicy::Uniform,
        PolicyKind::TimeAware => {
            let log_path = flags.require("log")?;
            let log = storage::load_action_log(Path::new(log_path), graph.num_nodes())
                .map_err(|e| format!("reading {log_path}: {e}"))?;
            CreditPolicy::time_aware(&graph, &log)
        }
    };
    let apply = cdim::util::Timer::start();
    let snapshot =
        base.extend(&graph, &delta, &policy, config.parallelism).map_err(|e| e.to_string())?;
    let apply_secs = apply.secs();
    snapshot.save(&out).map_err(|e| e.to_string())?;
    println!(
        "appended {} actions ({} tuples) in {:.3}s -> {} ({} actions, {} credit entries, \
         {:.2}s total)",
        delta.num_new_actions(),
        delta.num_new_tuples(),
        apply_secs,
        out.display(),
        snapshot.num_actions(),
        snapshot.total_entries(),
        timer.secs()
    );
    Ok(())
}

fn cmd_serve(flags: &Flags) -> Result<(), String> {
    let path: PathBuf = flags.require("snapshot")?.into();
    let addr = flags.get("addr").unwrap_or("127.0.0.1:7171");
    let cache = flags.get_parsed("cache", 1024usize)?;
    let load_timer = cdim::util::Timer::start();
    let snapshot = ModelSnapshot::load(&path).map_err(|e| e.to_string())?;
    let load_secs = load_timer.secs();
    let registry = MetricsRegistry::global();
    registry.gauge("cdim_serve_snapshot_load_seconds").set(load_secs);
    registry.gauge("cdim_serve_model_resident_bytes").set(snapshot.resident_bytes() as f64);
    eprintln!(
        "loaded {} ({} users, {} actions, {} committed seeds, {} resident) in {:.3}s",
        path.display(),
        snapshot.num_users(),
        snapshot.num_actions(),
        snapshot.committed_seeds(),
        cdim::util::mem::fmt_bytes(snapshot.resident_bytes()),
        load_secs
    );
    configure_tracer(flags)?;
    // The global registry, so a scrape sees serve + scan series together.
    let service =
        Arc::new(InfluenceService::with_registry(snapshot, cache, MetricsRegistry::global()));
    // Named binding: the scrape endpoint lives as long as the server.
    let _metrics_handle = spawn_metrics(flags)?;
    let mut config = ServerConfig::default();
    config.max_connections = flags.get_parsed("max-connections", config.max_connections)?;
    let handle = cdim::serve::spawn_with(service, addr, config)
        .map_err(|e| format!("binding {addr}: {e}"))?;
    // The exact address on its own stdout line, so scripts (and the CLI
    // test) can discover an ephemeral port.
    println!("listening on {}", handle.addr());
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    loop {
        std::thread::park();
    }
}

/// Applies `--trace-sample` / `--trace-slow-ms` to the process-global
/// span flight recorder (serve and follow share the same knobs): sample
/// every Nth request trace (`1` traces everything, `0` disables; the
/// recorder's own default is 1 in 8), and capture whole traces slower
/// than T ms into the slow-query log (default 10 ms). Absent flags leave
/// the recorder's defaults untouched.
fn configure_tracer(flags: &Flags) -> Result<(), String> {
    let tracer = Tracer::global();
    if flags.get("trace-sample").is_some() {
        tracer.set_sampling(flags.get_parsed("trace-sample", 1u32)?);
    }
    if flags.get("trace-slow-ms").is_some() {
        tracer.set_slow_threshold(Duration::from_millis(flags.get_parsed("trace-slow-ms", 10u64)?));
    }
    Ok(())
}

/// Binds the Prometheus-text scrape endpoint when `--metrics-addr` is
/// given, announcing the bound address on stdout (script-friendly, same
/// convention as `listening on`).
fn spawn_metrics(flags: &Flags) -> Result<Option<MetricsServer>, String> {
    let Some(addr) = flags.get("metrics-addr") else { return Ok(None) };
    let handle = MetricsServer::spawn(MetricsRegistry::global(), addr)
        .map_err(|e| format!("binding metrics endpoint {addr}: {e}"))?;
    println!("metrics on {}", handle.addr());
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    Ok(Some(handle))
}

/// `cdim follow`: tail a live action log, fold new actions into the
/// model as micro-batched deltas, and (optionally) serve queries from
/// the continuously refreshed snapshot — the full online pipeline.
///
/// The `--snapshot` file is a *checkpoint* (model + log position +
/// watermark): if it exists the follower resumes from it without
/// rescanning anything; `--export-snapshot` additionally writes a plain
/// `cdim serve`-loadable snapshot on clean exit. Like `cdim train
/// --append`, the policy must match across restarts — and time-aware
/// parameters must come from a *frozen* log (`--policy-log`), never the
/// moving stream.
///
/// `--window-actions N` (keep the newest N actions) or `--window-age A`
/// (keep external ids within A of the watermark) turn the session into a
/// sliding-window model: expired actions are retracted at every
/// checkpoint, and the served state stays byte-identical to `cdim train`
/// on just the surviving window.
fn cmd_follow(flags: &Flags) -> Result<(), String> {
    let graph_path = flags.require("graph")?;
    let graph = storage::load_graph(Path::new(graph_path))
        .map_err(|e| format!("reading {graph_path}: {e}"))?;
    let log_path: PathBuf = flags.require("log")?.into();
    let ckpt_path: PathBuf = flags.require("snapshot")?.into();

    let policy = match flags.get("policy").unwrap_or("uniform") {
        "uniform" => CreditPolicy::Uniform,
        "time-aware" => {
            let policy_log = flags.require("policy-log")?;
            let frozen = storage::load_action_log(Path::new(policy_log), graph.num_nodes())
                .map_err(|e| format!("reading {policy_log}: {e}"))?;
            CreditPolicy::time_aware(&graph, &frozen)
        }
        other => return Err(format!("unknown policy {other:?} (uniform|time-aware)")),
    };
    let lambda = match flags.get("lambda") {
        None => None,
        Some(_) => {
            let lambda = flags.get_parsed("lambda", 0.001)?;
            if !(0.0..=1.0).contains(&lambda) {
                return Err(format!("--lambda must be in [0, 1], got {lambda}"));
            }
            Some(lambda)
        }
    };
    let window = match (flags.get("window-actions"), flags.get("window-age")) {
        (Some(_), _) => match flags.get_parsed("window-actions", 0usize)? {
            0 => return Err("--window-actions must be at least 1 action".to_string()),
            n => WindowPolicy::Actions(n),
        },
        (None, Some(_)) => WindowPolicy::WatermarkAge(flags.get_parsed("window-age", 0u32)?),
        (None, None) => WindowPolicy::Unbounded,
    };
    let config = FollowConfig {
        batch: BatchConfig {
            max_actions: flags.get_parsed("batch-actions", 1usize)?.max(1),
            max_age: Duration::from_millis(flags.get_parsed("batch-ms", 500u64)?),
        },
        window,
        poll_interval: Duration::from_millis(flags.get_parsed("poll-ms", 200u64)?.max(1)),
        checkpoint_every: flags.get_parsed("checkpoint-every", 1u64)?,
        parallelism: Parallelism::fixed(flags.get_parsed("threads", 0usize)?),
        lambda,
        cache_capacity: flags.get_parsed("cache", 1024usize)?,
        idle_exit: match flags.get_parsed("idle-exit-ms", 0u64)? {
            0 => None,
            ms => Some(Duration::from_millis(ms)),
        },
    };

    configure_tracer(flags)?;
    let resuming = ckpt_path.exists();
    // The global registry, so a scrape sees ingest + serve + scan series
    // in one dump.
    let mut driver = IngestDriver::open_with_registry(
        graph,
        policy,
        &log_path,
        &ckpt_path,
        config,
        MetricsRegistry::global(),
    )
    .map_err(|e| e.to_string())?;
    let _metrics_handle = spawn_metrics(flags)?;
    eprintln!(
        "{} {} from byte {} ({} actions in model)",
        if resuming { "resuming" } else { "following" },
        log_path.display(),
        driver.position().0,
        driver.snapshot().num_actions()
    );

    // Serving is optional: the driver publishes into the shared service
    // either way, so attaching the TCP frontend is a one-liner.
    let server_handle = match flags.get("serve") {
        Some(addr) => {
            let handle = cdim::serve::spawn(Arc::clone(driver.service()), addr)
                .map_err(|e| format!("binding {addr}: {e}"))?;
            // The exact address on its own stdout line (script-friendly,
            // same convention as `cdim serve`).
            println!("listening on {}", handle.addr());
            use std::io::Write as _;
            std::io::stdout().flush().ok();
            Some(handle)
        }
        None => None,
    };

    driver
        .run(|report| {
            eprintln!("{report}");
            for dead in &report.dead_letters {
                eprintln!("warning: {dead}");
            }
        })
        .map_err(|e| e.to_string())?;

    // Clean (idle-exit) shutdown: optionally export a plain snapshot.
    if let Some(out) = flags.get("export-snapshot") {
        let snapshot = driver.snapshot();
        snapshot.save(Path::new(out)).map_err(|e| e.to_string())?;
        println!(
            "exported {out} ({} actions, {} credit entries)",
            snapshot.num_actions(),
            snapshot.total_entries()
        );
    }
    drop(server_handle);
    Ok(())
}

/// Why `cdim query` failed: bad usage (exit 2, with the usage text) or a
/// failure at run time (exit 1).
enum CliError {
    Usage(String),
    Failed(String),
}

impl From<String> for CliError {
    fn from(e: String) -> Self {
        CliError::Failed(e)
    }
}

fn cmd_query(flags: &Flags) -> Result<(), CliError> {
    let addr = flags.require("addr")?;
    let op = flags.require("op")?;
    // The wire budget is a u32; a larger --k is refused, never wrapped.
    let k: u32 = flags.get_parsed("k", 10u32).map_err(CliError::Usage)?;
    let mut client =
        QueryClient::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    match op {
        "topk" => {
            let (seeds, gains) = client.top_k(k).map_err(|e| e.to_string())?;
            let mut table = Table::new(["rank", "user", "marginal gain"]);
            for (i, (seed, gain)) in seeds.iter().zip(&gains).enumerate() {
                table.row([(i + 1).to_string(), seed.to_string(), format!("{gain:.3}")]);
            }
            print!("{table}");
        }
        "spread" => {
            let seeds = parse_seeds(flags.require("seeds")?)?;
            let sigma = client.spread(&seeds).map_err(|e| e.to_string())?;
            println!("sigma_cd({seeds:?}) = {sigma:.4}");
        }
        "gain" => {
            let seeds = parse_seeds(flags.require("seeds")?)?;
            let candidate: u32 = flags
                .require("candidate")?
                .parse()
                .map_err(|_| "invalid --candidate: expected a user id".to_string())?;
            let gain = client.marginal_gain(&seeds, candidate).map_err(|e| e.to_string())?;
            println!("mg({candidate} | {seeds:?}) = {gain:.4}");
        }
        "info" => {
            let info = client.info().map_err(|e| e.to_string())?;
            let mut table = Table::new(["field", "value"]);
            table.row(["users".to_string(), info.num_users.to_string()]);
            table.row(["actions".to_string(), info.num_actions.to_string()]);
            table.row(["committed seeds".to_string(), info.committed_seeds.to_string()]);
            table.row(["cache hits".to_string(), info.cache_hits.to_string()]);
            table.row(["cache misses".to_string(), info.cache_misses.to_string()]);
            print!("{table}");
        }
        other => return Err(format!("unknown query op {other:?} (topk|spread|gain|info)").into()),
    }
    Ok(())
}

/// `cdim trace`: pull the server's span flight recorder (wire op 7) and
/// render per-request waterfalls — one block per trace, children indented
/// under their parent, each line showing the span's offset from the trace
/// root and its duration.
///
/// `--slow` switches to the slow-query log (worst complete traces over
/// the server's `--trace-slow-ms` threshold, worst first). `--chrome
/// out.json` additionally writes the same spans as Chrome trace-event
/// JSON for `chrome://tracing` / Perfetto.
///
/// A server predating op 7 answers with a protocol error on a healthy
/// connection; that degrades to a notice on stderr, not a failure.
fn cmd_trace(flags: &Flags) -> Result<(), String> {
    let addr = flags.require("addr")?;
    let slow = flags.get("slow").is_some_and(|v| v == "true" || v == "1");
    let mut client =
        QueryClient::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    let dump = match client.trace_dump() {
        Ok(dump) => dump,
        Err(ClientError::Server(message)) => {
            eprintln!("(trace op unavailable: {message})");
            return Ok(());
        }
        Err(e) => return Err(e.to_string()),
    };
    // --slow selects which span set both the waterfall and the Chrome
    // export see: the flight recorder, or the slow-log traces flattened.
    let spans: Vec<SpanDump> = if slow {
        dump.slow.iter().flat_map(|t| t.spans.iter().cloned()).collect()
    } else {
        dump.spans.clone()
    };
    if let Some(out) = flags.get("chrome") {
        std::fs::write(out, chrome_trace_json(&spans))
            .map_err(|e| format!("writing {out}: {e}"))?;
        println!("wrote {out} ({} spans)", spans.len());
    }
    if slow {
        if dump.slow.is_empty() {
            println!("slow-query log is empty (threshold not exceeded yet)");
            return Ok(());
        }
        for (i, trace) in dump.slow.iter().enumerate() {
            println!("slow #{} ({})", i + 1, fmt_secs(trace.duration_ns as f64 / 1e9));
            print_waterfall(&trace.spans);
        }
        return Ok(());
    }
    if spans.is_empty() {
        println!("flight recorder is empty (no sampled requests yet)");
        return Ok(());
    }
    print_waterfall(&spans);
    Ok(())
}

/// Renders one waterfall block per trace: root spans at the margin,
/// children indented, offsets relative to the earliest span of the trace.
fn print_waterfall(spans: &[SpanDump]) {
    // Group by trace, preserving the dump's start-time order.
    let mut traces: Vec<(u64, Vec<&SpanDump>)> = Vec::new();
    for span in spans {
        match traces.iter_mut().find(|(id, _)| *id == span.trace_id) {
            Some((_, list)) => list.push(span),
            None => traces.push((span.trace_id, vec![span])),
        }
    }
    for (trace_id, list) in &traces {
        println!("trace {trace_id:012x}");
        let base = list.iter().map(|s| s.start_ns).min().unwrap_or(0);
        // A span whose parent was overwritten in the ring renders as a
        // top-level line rather than vanishing.
        let present: Vec<u32> = list.iter().map(|s| s.span_id).collect();
        let mut top: Vec<&&SpanDump> =
            list.iter().filter(|s| s.parent_id == 0 || !present.contains(&s.parent_id)).collect();
        top.sort_by_key(|s| s.start_ns);
        for span in top {
            print_span_tree(list, span, 0, base);
        }
    }
}

/// One waterfall line (`stage  +offset  duration  kv…`) and, recursively,
/// the span's children sorted by start time.
fn print_span_tree(list: &[&SpanDump], span: &SpanDump, depth: usize, base: u64) {
    let offset = span.start_ns.saturating_sub(base) as f64 / 1e9;
    let mut line = format!(
        "  {:indent$}{:<width$} +{:>9}  {:>9}",
        "",
        span.stage,
        fmt_secs(offset),
        fmt_secs(span.duration_ns() as f64 / 1e9),
        indent = depth * 2,
        width = 24usize.saturating_sub(depth * 2),
    );
    for (key, value) in &span.kv {
        line.push_str(&format!("  {key}={value}"));
    }
    println!("{line}");
    let mut children: Vec<&&SpanDump> =
        list.iter().filter(|s| s.parent_id == span.span_id && s.span_id != span.span_id).collect();
    children.sort_by_key(|s| s.start_ns);
    for child in children {
        print_span_tree(list, child, depth + 1, base);
    }
}

/// Spans as Chrome trace-event JSON (the `chrome://tracing` / Perfetto
/// format): complete (`"ph":"X"`) events, microsecond timestamps, one
/// synthetic tid per trace so concurrent requests land on separate rows.
fn chrome_trace_json(spans: &[SpanDump]) -> String {
    let mut tids: Vec<u64> = Vec::new();
    let mut out = String::from("{\"traceEvents\":[");
    for (i, span) in spans.iter().enumerate() {
        let tid = match tids.iter().position(|&t| t == span.trace_id) {
            Some(at) => at + 1,
            None => {
                tids.push(span.trace_id);
                tids.len()
            }
        };
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":{},\"cat\":\"cdim\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":{tid},\"args\":{{\"trace_id\":{},\"span_id\":{},\"parent_id\":{}",
            json_string(&span.stage),
            span.start_ns as f64 / 1e3,
            span.duration_ns() as f64 / 1e3,
            span.trace_id,
            span.span_id,
            span.parent_id,
        ));
        for (key, value) in &span.kv {
            out.push_str(&format!(",{}:{value}", json_string(key)));
        }
        out.push_str("}}");
    }
    out.push_str("]}\n");
    out
}

/// Minimal JSON string encoder for stage and kv-key names.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Expands bare boolean switches (`--slow`) into the `--key value` shape
/// [`Flags::parse`] demands, so `cdim trace --addr A --slow` works without
/// loosening the strict pair parser every other command relies on.
fn expand_switches(args: &[String], switches: &[&str]) -> Vec<String> {
    let mut out = Vec::with_capacity(args.len() + 1);
    let mut i = 0;
    while i < args.len() {
        out.push(args[i].clone());
        if let Some(key) = args[i].strip_prefix("--") {
            if switches.contains(&key) && args.get(i + 1).is_none_or(|v| v.starts_with("--")) {
                out.push("true".to_string());
            }
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::{
        chrome_trace_json, expand_switches, json_string, parse_seeds, Flags, SpanDump,
        COMMAND_FLAGS,
    };

    #[test]
    fn parses_key_value_pairs() {
        let args: Vec<String> =
            ["--k", "5", "--policy", "uniform"].iter().map(|s| s.to_string()).collect();
        let flags = Flags::parse(&args).unwrap();
        assert_eq!(flags.get("k"), Some("5"));
        assert_eq!(flags.get_parsed("k", 0usize).unwrap(), 5);
        assert_eq!(flags.get("policy"), Some("uniform"));
        assert_eq!(flags.get("missing"), None);
        assert!(flags.require("missing").is_err());
    }

    #[test]
    fn rejects_bare_values_and_dangling_flags() {
        let bare: Vec<String> = vec!["oops".into()];
        assert!(Flags::parse(&bare).is_err());
        let dangling: Vec<String> = vec!["--k".into()];
        assert!(Flags::parse(&dangling).is_err());
    }

    #[test]
    fn check_allowed_rejects_flags_outside_the_command_table() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let ok = Flags::parse(&args(&["--window", "5", "--out", "m.snap"])).unwrap();
        assert!(ok.check_allowed("train").is_ok());
        let typo = Flags::parse(&args(&["--windw", "5", "--out", "m.snap"])).unwrap();
        let err = typo.check_allowed("train").unwrap_err();
        assert!(err.contains("--windw"), "{err}");
        // A flag valid for one command is unknown to another.
        assert!(ok.check_allowed("follow").is_err());
        // So is a command outside the table, flags or not.
        assert!(Flags::parse(&[]).unwrap().check_allowed("snapshot").is_err());
        assert!(Flags::parse(&[]).unwrap().check_allowed("help").is_ok());
        // Every dispatched command has exactly one table entry.
        let dispatched = [
            "generate", "stats", "select", "predict", "train", "serve", "follow", "query", "trace",
        ];
        for name in dispatched {
            assert_eq!(COMMAND_FLAGS.iter().filter(|(c, _)| *c == name).count(), 1, "{name}");
        }
    }

    #[test]
    fn get_parsed_falls_back_and_validates() {
        let flags = Flags::parse(&[]).unwrap();
        assert_eq!(flags.get_parsed("k", 7usize).unwrap(), 7);
        let bad: Vec<String> = vec!["--k".into(), "banana".into()];
        let flags = Flags::parse(&bad).unwrap();
        assert!(flags.get_parsed::<usize>("k", 0).is_err());
    }

    #[test]
    fn parse_seeds_accepts_lists_and_rejects_garbage() {
        assert_eq!(parse_seeds("1, 2,3").unwrap(), vec![1, 2, 3]);
        assert!(parse_seeds("1,banana").is_err());
    }

    #[test]
    fn expand_switches_inserts_true_for_bare_flags() {
        let argv: Vec<String> = ["--addr", "x:1", "--slow"].iter().map(|s| s.to_string()).collect();
        let expanded = expand_switches(&argv, &["slow"]);
        let flags = Flags::parse(&expanded).unwrap();
        assert_eq!(flags.get("slow"), Some("true"));
        assert_eq!(flags.get("addr"), Some("x:1"));
        // An explicit value and a trailing flag are both left alone.
        let argv: Vec<String> =
            ["--slow", "false", "--addr", "x:1"].iter().map(|s| s.to_string()).collect();
        let flags = Flags::parse(&expand_switches(&argv, &["slow"])).unwrap();
        assert_eq!(flags.get("slow"), Some("false"));
        assert!(flags.check_allowed("trace").is_ok());
    }

    #[test]
    fn a_repeated_flag_is_rejected() {
        let argv = |args: &[&str]| args.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let err = Flags::parse(&argv(&["--lambda", "0.001", "--k", "3", "--lambda", "7"]));
        assert_eq!(err.err().as_deref(), Some("--lambda given more than once"));
        // A bare switch counts once; given twice it is repeated too.
        let once = expand_switches(&argv(&["--slow", "--addr", "x:1"]), &["slow"]);
        assert!(Flags::parse(&once).unwrap().check_allowed("trace").is_ok());
        let twice = expand_switches(&argv(&["--slow", "--addr", "x:1", "--slow"]), &["slow"]);
        assert!(Flags::parse(&twice).is_err());
    }

    #[test]
    fn json_string_escapes_quotes_backslashes_and_control_bytes() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("tab\there"), "\"tab\\u0009here\"");
    }

    #[test]
    fn chrome_trace_json_emits_complete_events_with_per_trace_tids() {
        let spans = vec![
            SpanDump {
                trace_id: 7,
                span_id: 1,
                parent_id: 0,
                stage: "serve.request".to_string(),
                start_ns: 1_000,
                end_ns: 5_000,
                kv: vec![("batch".to_string(), 3)],
            },
            SpanDump {
                trace_id: 9,
                span_id: 2,
                parent_id: 0,
                stage: "serve.accept".to_string(),
                start_ns: 2_000,
                end_ns: 2_500,
                kv: vec![],
            },
        ];
        let json = chrome_trace_json(&spans);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"serve.request\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"tid\":1"));
        assert!(json.contains("\"tid\":2"));
        assert!(json.contains("\"batch\":3"));
        assert!(json.trim_end().ends_with("]}"));
    }
}
