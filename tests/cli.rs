//! The `cdim` CLI binary works end-to-end on TSV datasets.

use std::process::Command;

fn cdim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cdim"))
}

fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cdim_cli_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn generate_stats_select_predict_pipeline() {
    let dir = tempdir("pipeline");

    let out = cdim()
        .args(["generate", "--preset", "tiny", "--out", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let (graph, log) = (dir.join("graph.tsv"), dir.join("log.tsv"));
    assert!(graph.exists() && log.exists());
    let (g, l) = (graph.to_str().unwrap(), log.to_str().unwrap());

    let out = cdim().args(["stats", "--graph", g, "--log", l]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("nodes"), "{text}");
    assert!(text.contains("propagations"), "{text}");

    let select = ["select", "--graph", g, "--log", l, "--k", "3", "--threads", "2"];
    let out = cdim().args(select).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(text.lines().count(), 5, "header + rule + 3 seeds: {text}");

    let out = cdim().args(["predict", "--graph", g, "--log", l, "--seeds", "0,1,2"]).output();
    let out = out.unwrap();
    assert!(out.status.success());
    // The printed prediction is the exact evaluator's σ_cd under the
    // default (time-aware) policy, learned from the same TSV files.
    let g = cdim::actionlog::storage::load_graph(&graph).unwrap();
    let l = cdim::actionlog::storage::load_action_log(&log, g.num_nodes()).unwrap();
    let dags = cdim::actionlog::PropagationArena::build(&l, &g, l.actions());
    let policy = cdim::core::CdModelConfig::default().build_policy(&dags);
    let sigma = cdim::core::CdSpreadEvaluator::build(&dags, &policy).spread(&[0, 1, 2]);
    assert_eq!(
        String::from_utf8_lossy(&out.stdout).lines().next(),
        Some(format!("sigma_cd([0, 1, 2]) = {sigma:.2}").as_str())
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn snapshot_serve_query_pipeline() {
    use std::io::BufRead;

    let dir = tempdir("serving");
    let gen = cdim()
        .args(["generate", "--preset", "tiny", "--out", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(gen.status.success());
    let graph = dir.join("graph.tsv");
    let log = dir.join("log.tsv");
    let snap = dir.join("model.snap");

    // Train + persist (on an explicit thread budget).
    let out = cdim()
        .args([
            "train",
            "--graph",
            graph.to_str().unwrap(),
            "--log",
            log.to_str().unwrap(),
            "--out",
            snap.to_str().unwrap(),
            "--threads",
            "2",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(snap.exists());

    // The snapshot reloads bit-identically, and the scan's thread-count
    // invariance makes the file itself reproducible: retraining the same
    // data single-threaded yields the exact same bytes.
    let bytes = std::fs::read(&snap).unwrap();
    let restored = cdim::serve::ModelSnapshot::from_bytes(&bytes).unwrap();
    assert_eq!(restored.to_bytes(), bytes);
    let snap1 = dir.join("model_t1.snap");
    let out = cdim()
        .args([
            "train",
            "--graph",
            graph.to_str().unwrap(),
            "--log",
            log.to_str().unwrap(),
            "--out",
            snap1.to_str().unwrap(),
            "--threads",
            "1",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(std::fs::read(&snap1).unwrap(), bytes, "snapshot bytes depend on --threads");

    // Serve on an ephemeral port; the CLI prints the bound address.
    let mut server = cdim()
        .args(["serve", "--snapshot", snap.to_str().unwrap(), "--addr", "127.0.0.1:0"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();
    let mut line = String::new();
    std::io::BufReader::new(server.stdout.take().unwrap()).read_line(&mut line).unwrap();
    let addr = line.trim().strip_prefix("listening on ").expect("address line").to_string();

    // Remote top-k equals the in-process answer on the same snapshot.
    let out = cdim().args(["query", "--addr", &addr, "--op", "topk", "--k", "3"]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    let offline = restored.top_k(3);
    for seed in &offline.seeds {
        assert!(text.contains(&seed.to_string()), "missing seed {seed} in:\n{text}");
    }

    // `cdim select` trains the same log in-process and answers through
    // the engine the server runs: the two tables are identical.
    let served = cdim().args(["query", "--addr", &addr, "--op", "topk", "--k", "5"]).output();
    let served = served.unwrap();
    assert!(served.status.success(), "{}", String::from_utf8_lossy(&served.stderr));
    let selected = cdim()
        .args(["select", "--graph", graph.to_str().unwrap(), "--log", log.to_str().unwrap()])
        .args(["--k", "5"])
        .output()
        .unwrap();
    assert!(selected.status.success(), "{}", String::from_utf8_lossy(&selected.stderr));
    assert_eq!(
        String::from_utf8_lossy(&selected.stdout),
        String::from_utf8_lossy(&served.stdout),
        "cdim select and the served top-k disagree"
    );

    let out = cdim()
        .args(["query", "--addr", &addr, "--op", "spread", "--seeds", "0,1,2"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("sigma_cd"));

    let out = cdim().args(["query", "--addr", &addr, "--op", "info"]).output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("users"));

    server.kill().ok();
    server.wait().ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn train_append_equals_full_training_byte_for_byte() {
    let dir = tempdir("append");
    let gen = cdim()
        .args(["generate", "--preset", "tiny", "--out", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(gen.status.success());
    let graph = dir.join("graph.tsv");
    let log = dir.join("log.tsv");

    // Split the generated log into a prefix TSV and a delta TSV of the
    // last ~10% of actions, via the library.
    let g = cdim::actionlog::storage::load_graph(&graph).unwrap();
    let full_log = cdim::actionlog::storage::load_action_log(&log, g.num_nodes()).unwrap();
    let split = full_log.num_actions() * 9 / 10;
    let (prefix, delta) = full_log.split_at_action(split);
    assert!(delta.num_new_actions() > 0);
    let prefix_path = dir.join("prefix.tsv");
    let delta_path = dir.join("delta.tsv");
    cdim::actionlog::storage::save_action_log(&prefix, &prefix_path).unwrap();
    cdim::actionlog::storage::save_action_log(delta.additions(), &delta_path).unwrap();

    // Full training on the combined log (uniform policy: log-independent,
    // so prefix- and full-trained models share it exactly).
    let full_snap = dir.join("full.snap");
    let out = cdim()
        .args([
            "train",
            "--graph",
            graph.to_str().unwrap(),
            "--log",
            log.to_str().unwrap(),
            "--out",
            full_snap.to_str().unwrap(),
            "--policy",
            "uniform",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // Base training on the prefix, then the append-only refresh.
    let base_snap = dir.join("base.snap");
    let out = cdim()
        .args([
            "train",
            "--graph",
            graph.to_str().unwrap(),
            "--log",
            prefix_path.to_str().unwrap(),
            "--out",
            base_snap.to_str().unwrap(),
            "--policy",
            "uniform",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let extended_snap = dir.join("extended.snap");
    let out = cdim()
        .args([
            "train",
            "--graph",
            graph.to_str().unwrap(),
            "--log",
            prefix_path.to_str().unwrap(),
            "--append",
            delta_path.to_str().unwrap(),
            "--base",
            base_snap.to_str().unwrap(),
            "--out",
            extended_snap.to_str().unwrap(),
            "--policy",
            "uniform",
            "--threads",
            "2",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("appended"), "{text}");

    // The incremental snapshot is byte-identical to full retraining.
    assert_eq!(
        std::fs::read(&extended_snap).unwrap(),
        std::fs::read(&full_snap).unwrap(),
        "append-mode snapshot must equal the full-training snapshot"
    );

    // Append mode without an explicit --policy is refused: snapshots do
    // not record the training policy, so a silently defaulted mismatch
    // would corrupt the model.
    let out = cdim()
        .args([
            "train",
            "--graph",
            graph.to_str().unwrap(),
            "--append",
            delta_path.to_str().unwrap(),
            "--base",
            base_snap.to_str().unwrap(),
            "--out",
            dir.join("nopolicy.snap").to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--policy"));

    // A conflicting --lambda is refused (λ is fixed at training time).
    let out = cdim()
        .args([
            "train",
            "--graph",
            graph.to_str().unwrap(),
            "--policy",
            "uniform",
            "--append",
            delta_path.to_str().unwrap(),
            "--base",
            base_snap.to_str().unwrap(),
            "--out",
            extended_snap.to_str().unwrap(),
            "--lambda",
            "0.5",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("lambda"));

    // Appending with a graph from a different universe is refused (the
    // delta TSV's base is derived from the snapshot, so the universe
    // check is the guard that catches mixed-up datasets).
    let dir2 = tempdir("append_mismatch");
    let gen = cdim()
        .args([
            "generate",
            "--preset",
            "flixster_small",
            "--scale",
            "8",
            "--out",
            dir2.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(gen.status.success());
    let out = cdim()
        .args([
            "train",
            "--graph",
            dir2.join("graph.tsv").to_str().unwrap(),
            "--policy",
            "uniform",
            "--append",
            delta_path.to_str().unwrap(),
            "--base",
            base_snap.to_str().unwrap(),
            "--out",
            dir.join("oops.snap").to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("users"));

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&dir2).ok();
}

#[test]
fn predict_with_mc_crosscheck_and_threads() {
    let dir = tempdir("mcpredict");
    let gen = cdim()
        .args(["generate", "--preset", "tiny", "--out", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(gen.status.success());
    let out = cdim()
        .args([
            "predict",
            "--graph",
            dir.join("graph.tsv").to_str().unwrap(),
            "--log",
            dir.join("log.tsv").to_str().unwrap(),
            "--seeds",
            "0,1",
            "--mc",
            "ic",
            "--sims",
            "200",
            "--threads",
            "2",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("sigma_cd"), "{text}");
    assert!(text.contains("sigma_ic/wc") && text.contains("2 threads"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rejects_bad_usage() {
    // No command.
    let out = cdim().output().unwrap();
    assert!(!out.status.success());

    // Unknown command, including the removed `snapshot` alias of `train`:
    // a usage error (exit 2), and nothing is written.
    let out = cdim().arg("frobnicate").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let dir = tempdir("badusage");
    let snap = dir.join("model.snap");
    let out = cdim().args(["snapshot", "--out", snap.to_str().unwrap()]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command \"snapshot\""));

    // A top-k budget past the wire's u32 is refused, not wrapped (it
    // used to ask for 4294967301 mod 2^32 = 5 seeds). No server is needed:
    // the flag is checked before connecting.
    let out = cdim()
        .args(["query", "--addr", "127.0.0.1:9", "--op", "topk", "--k", "4294967301"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("invalid --k"));

    // Missing required flag.
    let out = cdim().args(["select", "--k", "3"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--graph"));

    // Malformed seeds list.
    let gen = cdim()
        .args(["generate", "--preset", "tiny", "--out", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(gen.status.success());
    let (g, l) = (dir.join("graph.tsv"), dir.join("log.tsv"));
    let (g, l) = (g.to_str().unwrap(), l.to_str().unwrap());
    let out = cdim().args(["predict", "--graph", g, "--log", l, "--seeds", "0,banana"]).output();
    assert!(!out.unwrap().status.success());

    // A mistyped flag is a usage error (exit 2), not a silently ignored
    // option: no unbounded model gets trained or followed in its place.
    // So is a flag combination that is wrong whatever its values. Each is
    // refused before any file is read, and nothing is written.
    let (snap, ckpt) = (dir.join("typo.snap"), dir.join("typo.ckpt"));
    let usage_error = |args: &[&str], says: &str| {
        let out = cdim().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains(says), "{args:?}");
        assert!(!snap.exists() && !ckpt.exists(), "{args:?} wrote its output");
    };
    let out = snap.to_str().unwrap();
    let train = |extra: &[&str], says: &str| {
        let mut args = vec!["train", "--graph", g, "--log", l, "--out", out];
        args.extend_from_slice(extra);
        usage_error(&args, says);
    };
    train(&["--windw", "5"], "--windw");
    // There is one snapshot format, so no `--format` to choose it.
    train(&["--format", "v2"], "--format");
    // `--base` names the snapshot an `--append` delta extends; without
    // `--append` it used to be ignored after a full training run.
    train(&["--base", "/nonexistent.snap"], "--base needs --append");
    // A repeated flag is refused, not resolved to its first value (which
    // left the out-of-range second `--lambda` unchecked).
    train(&["--lambda", "0.001", "--lambda", "7"], "--lambda given more than once");
    let append = ["--append", "/nonexistent.tsv", "--base", "/nonexistent.snap"];
    train(&[&append[..], &["--policy", "uniform", "--window", "3"]].concat(), "--window cannot");
    train(&append, "--append requires an explicit --policy");
    let follow = |extra: &[&str], says: &str| {
        let ckpt = ckpt.to_str().unwrap();
        let mut args = vec!["follow", "--graph", g, "--log", l, "--snapshot", ckpt];
        args.extend_from_slice(&["--poll-ms", "5", "--idle-exit-ms", "100"]);
        args.extend_from_slice(&["--export-snapshot", out]);
        args.extend_from_slice(extra);
        usage_error(&args, says);
    };
    follow(&["--window-action", "5"], "--window-action");
    follow(&["--window-actions", "5", "--window-age", "9"], "mutually exclusive");
    follow(&["--policy", "time-aware"], "requires --policy-log");
    // σ_cd is exact, so `predict` takes no truncation threshold.
    usage_error(
        &["predict", "--graph", g, "--log", l, "--seeds", "0,1", "--lambda", "0.01"],
        "--lambda",
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_refuses_a_version_1_snapshot_naming_both_versions() {
    // The retired per-entry format: magic, version word 1, then sections
    // the loader never reaches — the version word alone refuses it.
    let dir = tempdir("v1");
    let snap = dir.join("old.snap");
    let mut bytes = b"CDIMSNAP".to_vec();
    bytes.extend_from_slice(&1u32.to_le_bytes());
    bytes.extend_from_slice(&[0u8; 32]);
    std::fs::write(&snap, &bytes).unwrap();
    let out = cdim()
        .args(["serve", "--snapshot", snap.to_str().unwrap(), "--addr", "127.0.0.1:0"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("snapshot version 1"), "{stderr}");
    assert!(stderr.contains("version 2"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rejects_out_of_range_seed() {
    let dir = tempdir("range");
    let gen = cdim()
        .args(["generate", "--preset", "tiny", "--out", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(gen.status.success());
    let out = cdim()
        .args([
            "predict",
            "--graph",
            dir.join("graph.tsv").to_str().unwrap(),
            "--log",
            dir.join("log.tsv").to_str().unwrap(),
            "--seeds",
            "999999",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("out of range"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn follow_matches_offline_training_byte_for_byte() {
    let dir = tempdir("follow");
    let gen = cdim()
        .args(["generate", "--preset", "tiny", "--out", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(gen.status.success());
    let graph = dir.join("graph.tsv");
    let log = dir.join("log.tsv");

    // Offline one-shot training over the completed log.
    let offline = dir.join("offline.snap");
    let out = cdim()
        .args([
            "train",
            "--graph",
            graph.to_str().unwrap(),
            "--log",
            log.to_str().unwrap(),
            "--policy",
            "uniform",
            "--out",
            offline.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // Online: follow the same file until idle, then export the snapshot.
    let online = dir.join("online.snap");
    let out = cdim()
        .args([
            "follow",
            "--graph",
            graph.to_str().unwrap(),
            "--log",
            log.to_str().unwrap(),
            "--snapshot",
            dir.join("model.ckpt").to_str().unwrap(),
            "--policy",
            "uniform",
            "--batch-actions",
            "3",
            "--poll-ms",
            "5",
            "--idle-exit-ms",
            "50",
            "--export-snapshot",
            online.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(
        std::fs::read(&online).unwrap(),
        std::fs::read(&offline).unwrap(),
        "streamed training must be byte-identical to offline training"
    );
    // The checkpoint is also in place for a future resume.
    assert!(dir.join("model.ckpt").exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn windowed_follow_equals_train_on_window_byte_for_byte() {
    let dir = tempdir("window");
    let gen = cdim()
        .args(["generate", "--preset", "tiny", "--out", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(gen.status.success());
    let graph = dir.join("graph.tsv");
    let log = dir.join("log.tsv");

    // Offline: train on just the last 5 actions of the log.
    let offline = dir.join("window.snap");
    let out = cdim()
        .args([
            "train",
            "--graph",
            graph.to_str().unwrap(),
            "--log",
            log.to_str().unwrap(),
            "--policy",
            "uniform",
            "--window",
            "5",
            "--out",
            offline.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // Online: follow the whole log with a 5-action sliding window; every
    // older action is retracted along the way.
    let online = dir.join("window_online.snap");
    let out = cdim()
        .args([
            "follow",
            "--graph",
            graph.to_str().unwrap(),
            "--log",
            log.to_str().unwrap(),
            "--snapshot",
            dir.join("window.ckpt").to_str().unwrap(),
            "--policy",
            "uniform",
            "--window-actions",
            "5",
            "--batch-actions",
            "3",
            "--poll-ms",
            "5",
            "--idle-exit-ms",
            "50",
            "--export-snapshot",
            online.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(
        std::fs::read(&online).unwrap(),
        std::fs::read(&offline).unwrap(),
        "windowed follow must equal training on just the window"
    );

    // Guard rails: a zero window (to train or to follow), --window with
    // --append, and both follow window flags at once are all refused.
    let out = cdim()
        .args([
            "train",
            "--graph",
            graph.to_str().unwrap(),
            "--log",
            log.to_str().unwrap(),
            "--window",
            "0",
            "--out",
            dir.join("zero.snap").to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--window"));

    let zero_ckpt = dir.join("zero.ckpt");
    let out = cdim()
        .args([
            "follow",
            "--graph",
            graph.to_str().unwrap(),
            "--log",
            log.to_str().unwrap(),
            "--snapshot",
            zero_ckpt.to_str().unwrap(),
            "--window-actions",
            "0",
            "--idle-exit-ms",
            "50",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--window-actions must be at least 1 action"), "{stderr}");
    assert!(!zero_ckpt.exists(), "a refused follow writes no checkpoint");

    let out = cdim()
        .args([
            "train",
            "--graph",
            graph.to_str().unwrap(),
            "--policy",
            "uniform",
            "--append",
            log.to_str().unwrap(),
            "--base",
            offline.to_str().unwrap(),
            "--window",
            "5",
            "--out",
            dir.join("oops.snap").to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--append"));

    let out = cdim()
        .args([
            "follow",
            "--graph",
            graph.to_str().unwrap(),
            "--log",
            log.to_str().unwrap(),
            "--snapshot",
            dir.join("other.ckpt").to_str().unwrap(),
            "--window-actions",
            "5",
            "--window-age",
            "5",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("mutually exclusive"));

    std::fs::remove_dir_all(&dir).ok();
}

/// One HTTP/1.1 GET against the scrape endpoint, returning the raw
/// response (headers + body).
fn scrape(addr: &str, path: &str) -> String {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: cdim\r\nConnection: close\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response
}

#[test]
fn serve_metrics_endpoint_scrapes_and_stats_report_quantiles() {
    use std::io::BufRead;

    let dir = tempdir("metrics");
    let gen = cdim()
        .args(["generate", "--preset", "tiny", "--out", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(gen.status.success());
    let snap = dir.join("model.snap");
    let out = cdim()
        .args([
            "train",
            "--graph",
            dir.join("graph.tsv").to_str().unwrap(),
            "--log",
            dir.join("log.tsv").to_str().unwrap(),
            "--out",
            snap.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let mut server = cdim()
        .args([
            "serve",
            "--snapshot",
            snap.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--metrics-addr",
            "127.0.0.1:0",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();
    // Stdout announces both endpoints, one per line.
    let mut reader = std::io::BufReader::new(server.stdout.take().unwrap());
    let mut metrics_addr = String::new();
    let mut query_addr = String::new();
    for _ in 0..2 {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        if let Some(a) = line.trim().strip_prefix("metrics on ") {
            metrics_addr = a.to_string();
        } else if let Some(a) = line.trim().strip_prefix("listening on ") {
            query_addr = a.to_string();
        }
    }
    assert!(!metrics_addr.is_empty() && !query_addr.is_empty());

    // Two identical spreads: one miss, one hit, two query latencies.
    for _ in 0..2 {
        let out = cdim()
            .args(["query", "--addr", &query_addr, "--op", "spread", "--seeds", "0,1"])
            .output()
            .unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    }

    // `cdim stats` renders the op-6 dump: counters and latency quantiles.
    let out = cdim().args(["stats", "--addr", &query_addr]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("cdim_serve_queries_total"), "{text}");
    assert!(text.contains("cdim_serve_query_seconds"), "{text}");
    assert!(text.contains("p50") && text.contains("p99"), "{text}");

    // The scrape endpoint speaks Prometheus text exposition.
    let response = scrape(&metrics_addr, "/metrics");
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    assert!(response.contains("text/plain; version=0.0.4"), "{response}");
    let body = response.split("\r\n\r\n").nth(1).unwrap();
    assert!(body.contains("# TYPE cdim_serve_queries_total counter"), "{body}");
    assert!(body.contains("cdim_serve_queries_total 2"), "{body}");
    assert!(body.contains("cdim_serve_query_seconds{quantile=\"0.99\"}"), "{body}");
    assert!(body.contains("cdim_serve_cache_hits_total 1"), "{body}");
    // Unknown paths are 404, not a hang or a crash.
    assert!(scrape(&metrics_addr, "/nope").starts_with("HTTP/1.1 404"));

    server.kill().ok();
    server.wait().ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn follow_serves_queries_and_stats_while_tailing() {
    use std::io::BufRead;

    let dir = tempdir("follow_serve");
    let gen = cdim()
        .args(["generate", "--preset", "tiny", "--out", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(gen.status.success());
    let graph = dir.join("graph.tsv");
    let log = dir.join("log.tsv");

    let mut follower = cdim()
        .args([
            "follow",
            "--graph",
            graph.to_str().unwrap(),
            "--log",
            log.to_str().unwrap(),
            "--snapshot",
            dir.join("model.ckpt").to_str().unwrap(),
            "--policy",
            "uniform",
            "--poll-ms",
            "5",
            "--serve",
            "127.0.0.1:0",
            "--metrics-addr",
            "127.0.0.1:0",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();
    let mut reader = std::io::BufReader::new(follower.stdout.take().unwrap());
    let mut addr = String::new();
    let mut metrics_addr = String::new();
    for _ in 0..2 {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        if let Some(a) = line.trim().strip_prefix("metrics on ") {
            metrics_addr = a.to_string();
        } else if let Some(a) = line.trim().strip_prefix("listening on ") {
            addr = a.to_string();
        }
    }
    assert!(!addr.is_empty() && !metrics_addr.is_empty());

    // Queries are answered while the follower ingests; retry briefly so
    // the assertion waits for at least one published batch.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let mut version = 0u64;
    while std::time::Instant::now() < deadline {
        let out = cdim().args(["stats", "--addr", &addr]).output().unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let text = String::from_utf8_lossy(&out.stdout).to_string();
        assert!(text.contains("queries served"), "{text}");
        let field = |name: &str| -> u64 {
            text.lines()
                .find(|l| l.contains(name))
                .and_then(|l| l.split_whitespace().last())
                .and_then(|v| v.parse().ok())
                .unwrap_or(0)
        };
        version = field("model version");
        if version > 0 {
            // The epoch bumps before the publish counter (the swap is
            // what queries observe first), so mid-publish the counter may
            // trail the version by the one in-flight publish — never more,
            // the driver publishes serially.
            let publishes = field("publishes applied");
            assert!(
                publishes == version || publishes + 1 == version,
                "publishes {publishes} vs version {version}"
            );
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    assert!(version > 0, "the follower never published a model refresh");

    let out = cdim().args(["query", "--addr", &addr, "--op", "topk", "--k", "2"]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // The scrape endpoint exposes ingest, serve, and scan series from the
    // one shared registry while the follower runs.
    let response = scrape(&metrics_addr, "/metrics");
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    let body = response.split("\r\n\r\n").nth(1).unwrap().to_string();
    assert!(body.contains("cdim_ingest_records_total"), "{body}");
    assert!(body.contains("cdim_ingest_lag_bytes"), "{body}");
    assert!(body.contains("cdim_ingest_records_per_sec"), "{body}");
    assert!(body.contains("cdim_serve_publish_seconds"), "{body}");
    assert!(body.contains("cdim_scan_seconds"), "{body}");

    // `cdim stats` surfaces live ingest throughput/lag beside the serve
    // counters — satellite 1's operator view.
    let out = cdim().args(["stats", "--addr", &addr]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("cdim_ingest_records_per_sec"), "{text}");
    assert!(text.contains("cdim_ingest_lag_bytes"), "{text}");
    assert!(text.contains("cdim_ingest_watermark_age_seconds"), "{text}");

    follower.kill().ok();
    follower.wait().ok();
    std::fs::remove_dir_all(&dir).ok();
}
