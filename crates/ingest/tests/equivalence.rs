//! The ingest subsystem's load-bearing contract, end to end: tailing a
//! log written in arbitrary increments — mid-record writes, any batch
//! thresholds, any number of checkpoint/restart cycles — yields a trained
//! snapshot **byte-identical** to one-shot offline training on the
//! completed file, at every thread count.

use cdim_actionlog::storage::{read_action_log, write_action_log, TupleDecoder};
use cdim_actionlog::{ActionLog, ActionLogBuilder};
use cdim_core::reference::dump_of;
use cdim_core::{scan_with, CreditPolicy};
use cdim_graph::{DirectedGraph, GraphBuilder};
use cdim_ingest::{BatchConfig, FollowConfig, IngestDriver, IngestError, WindowPolicy};
use cdim_serve::ModelSnapshot;
use cdim_util::Parallelism;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn tempdir(tag: &str) -> PathBuf {
    static UNIQUE: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "cdim_ingest_equiv_{tag}_{}_{}",
        std::process::id(),
        UNIQUE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn append_bytes(path: &Path, data: &[u8]) {
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path).unwrap();
    f.write_all(data).unwrap();
}

/// Offline reference: parse the *serialized* bytes back (so both sides
/// see the identical float spellings) and scan them one-shot.
fn offline_snapshot(
    graph: &DirectedGraph,
    serialized: &[u8],
    policy: &CreditPolicy,
    lambda: f64,
) -> Vec<u8> {
    let log = read_action_log(serialized, graph.num_nodes()).unwrap();
    let store = scan_with(graph, &log, policy, lambda, Parallelism::single()).unwrap();
    ModelSnapshot::from_store(store).to_bytes()
}

/// Streams `serialized` into a followed file according to the given
/// chunking/restart schedule and returns the final served snapshot.
#[allow(clippy::too_many_arguments)]
fn follow_to_completion(
    tag: &str,
    graph: &DirectedGraph,
    policy: &CreditPolicy,
    serialized: &[u8],
    cuts: &[usize],
    restarts: &[bool],
    batch: BatchConfig,
    lambda: f64,
    threads: usize,
    window: WindowPolicy,
) -> Arc<ModelSnapshot> {
    let dir = tempdir(tag);
    let log_path = dir.join("actions.tsv");
    let ckpt_path = dir.join("model.ckpt");
    let config = FollowConfig {
        batch,
        lambda: Some(lambda),
        parallelism: Parallelism::fixed(threads),
        checkpoint_every: 1,
        window,
        ..Default::default()
    };
    let open = |lambda_cfg: Option<f64>| {
        IngestDriver::open(
            graph.clone(),
            policy.clone(),
            &log_path,
            &ckpt_path,
            FollowConfig { lambda: lambda_cfg, ..config },
        )
        .unwrap()
    };

    let mut driver = open(Some(lambda));
    // Chunk boundaries may fall anywhere, including mid-record.
    let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % (serialized.len() + 1)).collect();
    bounds.push(serialized.len());
    bounds.sort_unstable();
    let mut written = 0usize;
    for (i, &end) in bounds.iter().enumerate() {
        append_bytes(&log_path, &serialized[written..end]);
        written = end;
        driver.step().unwrap();
        // A scheduled restart drops the driver cold — buffered records
        // and all, NO parting checkpoint — and reopens from whatever the
        // last publish-time auto-checkpoint recorded (or from scratch if
        // nothing was ever published). This is the crash path: the
        // durable mark must re-cover everything unfolded.
        if restarts.get(i).copied().unwrap_or(false) {
            drop(driver);
            // The explicit λ matters when the crash predates the first
            // publish (no checkpoint on disk → a fresh, empty start).
            driver = open(Some(lambda));
        }
    }
    let report = driver.finish().unwrap();
    assert!(
        report.dead_letters.is_empty(),
        "a well-formed producer must quarantine nothing: {:?}",
        report.dead_letters
    );
    let snapshot = driver.snapshot();
    std::fs::remove_dir_all(&dir).ok();
    snapshot
}

/// Top-k budget of the answer checks.
const K: usize = 5;

/// The seeds and gain bits of a top-k answer.
fn answer(snapshot: &ModelSnapshot) -> (Vec<u32>, Vec<u64>) {
    let top = snapshot.top_k(K);
    (top.seeds, top.marginal_gains.iter().map(|g| g.to_bits()).collect())
}

proptest! {
    /// The acceptance-criterion property: random dataset, random byte
    /// chunking, random batch size, random restart schedule, threads
    /// 1 and 8, both policies, λ ∈ {0, 0.001}.
    #[test]
    fn streamed_training_is_byte_identical_to_offline(
        edges in proptest::collection::vec((0u32..9, 0u32..9), 0..40),
        events in proptest::collection::vec((0u32..9, 0u32..6, 0u64..20), 1..60),
        cuts in proptest::collection::vec(0usize..4096, 0..8),
        restarts in proptest::collection::vec(proptest::bool::ANY, 0..9),
        batch_actions in 1usize..5,
        time_aware in proptest::bool::ANY,
        lambda_on in proptest::bool::ANY,
    ) {
        let graph = GraphBuilder::new(9).edges(edges).build();
        let mut b = ActionLogBuilder::new(9);
        for &(u, a, t) in &events {
            b.push(u, a, t as f64);
        }
        let log = b.build();
        let policy = if time_aware {
            CreditPolicy::time_aware(&graph, &log)
        } else {
            CreditPolicy::Uniform
        };
        let lambda = if lambda_on { 0.001 } else { 0.0 };
        let mut serialized = Vec::new();
        write_action_log(&log, &mut serialized).unwrap();

        let expected = offline_snapshot(&graph, &serialized, &policy, lambda);
        let expected_answer = answer(&ModelSnapshot::from_bytes(&expected).unwrap());
        let batch = BatchConfig { max_actions: batch_actions, ..Default::default() };
        for threads in [1usize, 8] {
            let served = follow_to_completion(
                "prop", &graph, &policy, &serialized, &cuts, &restarts, batch, lambda, threads,
                WindowPolicy::Unbounded,
            );
            // The followed model answers exactly like the trained file.
            prop_assert_eq!(answer(&served), expected_answer.clone(), "top-{} answer", K);
            let got = served.to_bytes();
            prop_assert_eq!(
                &got,
                &expected,
                "diverged at {} threads, batch {}, {} cuts, restarts {:?}",
                threads,
                batch_actions,
                cuts.len(),
                restarts
            );
        }
    }
}

proptest! {
    /// The sliding-window acceptance property: same adversarial schedule
    /// as above — random chunking, batching, crash/restart points that
    /// may straddle expiry boundaries — but with a window policy active.
    /// The final trained state must be byte-identical to a one-shot scan
    /// of **just the surviving window**, at 1 and 8 threads, for both
    /// policies, count- and age-based windows, λ ∈ {0, 0.001}.
    #[test]
    fn windowed_streaming_is_byte_identical_to_window_scan(
        edges in proptest::collection::vec((0u32..9, 0u32..9), 0..40),
        events in proptest::collection::vec((0u32..9, 0u32..6, 0u64..20), 1..60),
        cuts in proptest::collection::vec(0usize..4096, 0..8),
        restarts in proptest::collection::vec(proptest::bool::ANY, 0..9),
        batch_actions in 1usize..5,
        window_by_age in proptest::bool::ANY,
        window_size in 0u32..5,
        time_aware in proptest::bool::ANY,
        lambda_on in proptest::bool::ANY,
    ) {
        let graph = GraphBuilder::new(9).edges(edges).build();
        let mut b = ActionLogBuilder::new(9);
        for &(u, a, t) in &events {
            b.push(u, a, t as f64);
        }
        let log = b.build();
        // The fixed-policy contract: a time-aware policy is learned from
        // the full log once and stays fixed on both sides of the window.
        let policy = if time_aware {
            CreditPolicy::time_aware(&graph, &log)
        } else {
            CreditPolicy::Uniform
        };
        let lambda = if lambda_on { 0.001 } else { 0.0 };
        let window = if window_by_age {
            WindowPolicy::WatermarkAge(window_size)
        } else {
            WindowPolicy::Actions(window_size as usize)
        };
        let mut serialized = Vec::new();
        write_action_log(&log, &mut serialized).unwrap();

        // Reference: re-parse the serialized bytes, drop what the policy
        // will have expired by the final watermark, scan single-threaded.
        let parsed = read_action_log(&serialized[..], graph.num_nodes()).unwrap();
        let expire = match window {
            WindowPolicy::Actions(n) => parsed.num_actions().saturating_sub(n),
            WindowPolicy::WatermarkAge(age) => {
                let mark = parsed.external_id(parsed.num_actions() as u32 - 1);
                let oldest_kept = mark.saturating_sub(age);
                (0..parsed.num_actions() as u32)
                    .filter(|&a| parsed.external_id(a) < oldest_kept)
                    .count()
            }
            WindowPolicy::Unbounded => 0,
        };
        let surviving = parsed.split_off_prefix(expire).1;
        let store =
            scan_with(&graph, &surviving, &policy, lambda, Parallelism::single()).unwrap();
        let expected = ModelSnapshot::from_store(store).to_bytes();
        let expected_answer = answer(&ModelSnapshot::from_bytes(&expected).unwrap());

        let batch = BatchConfig { max_actions: batch_actions, ..Default::default() };
        for threads in [1usize, 8] {
            let served = follow_to_completion(
                "window", &graph, &policy, &serialized, &cuts, &restarts, batch, lambda,
                threads, window,
            );
            prop_assert_eq!(answer(&served), expected_answer.clone(), "top-{} answer", K);
            let got = served.to_bytes();
            prop_assert_eq!(
                &got,
                &expected,
                "diverged at {} threads under {:?}, batch {}, {} cuts, restarts {:?}",
                threads,
                window,
                batch_actions,
                cuts.len(),
                restarts
            );
        }
    }
}

/// Deterministic rotation scenario: the log shrinks, the follower
/// surfaces the typed error, and — once the file is made whole again — a
/// fresh driver resumes from the checkpoint and still converges to the
/// offline answer.
#[test]
fn rotation_surfaces_then_checkpoint_recovers() {
    let dir = tempdir("rotation");
    let log_path = dir.join("actions.tsv");
    let ckpt_path = dir.join("model.ckpt");
    let graph = GraphBuilder::new(5).edges([(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]).build();
    let full = "0\t1\t0.0\n1\t1\t1.0\n2\t2\t0.0\n3\t2\t1.0\n4\t3\t0.0\n";
    let config = FollowConfig { lambda: Some(0.001), ..Default::default() };

    // Phase 1: the first two actions arrive and the first is published.
    append_bytes(&log_path, &full.as_bytes()[..32]);
    let mut driver =
        IngestDriver::open(graph.clone(), CreditPolicy::Uniform, &log_path, &ckpt_path, config)
            .unwrap();
    driver.step().unwrap();
    assert!(driver.snapshot().num_actions() >= 1);

    // Phase 2: rotation — the file is replaced by something shorter.
    std::fs::write(&log_path, "0\t9\t0.0\n").unwrap();
    match driver.step() {
        Err(IngestError::LogTruncated { .. }) => {}
        other => panic!("expected LogTruncated, got {other:?}"),
    }
    drop(driver);

    // Phase 3: the operator restores the full file; a fresh driver
    // resumes from the checkpoint, skipping everything already folded.
    std::fs::write(&log_path, full).unwrap();
    let mut driver = IngestDriver::open(
        graph.clone(),
        CreditPolicy::Uniform,
        &log_path,
        &ckpt_path,
        FollowConfig::default(),
    )
    .unwrap();
    driver.finish().unwrap();

    let offline = {
        let log = read_action_log(full.as_bytes(), graph.num_nodes()).unwrap();
        let store =
            scan_with(&graph, &log, &CreditPolicy::Uniform, 0.001, Parallelism::fixed(2)).unwrap();
        ModelSnapshot::from_store(store).to_bytes()
    };
    assert_eq!(driver.snapshot().to_bytes(), offline);
    std::fs::remove_dir_all(&dir).ok();
}

/// Streaming a dataset-preset log (the same data the CLI pipeline uses)
/// through small batches equals offline training — a heavier, fixed
/// smoke on top of the random property.
#[test]
fn preset_log_streams_to_offline_bytes() {
    let ds = cdim_datagen::presets::tiny().generate();
    let mut serialized = Vec::new();
    write_action_log(&ds.log, &mut serialized).unwrap();
    let policy = CreditPolicy::time_aware(&ds.graph, &ds.log);
    let expected = offline_snapshot(&ds.graph, &serialized, &policy, 0.001);
    // Thirds of the byte stream, batches of 4 actions, one restart.
    let cuts = [serialized.len() / 3, 2 * serialized.len() / 3];
    let restarts = [false, true, false];
    let batch = BatchConfig { max_actions: 4, ..Default::default() };
    for threads in [1usize, 8] {
        let got = follow_to_completion(
            "preset",
            &ds.graph,
            &policy,
            &serialized,
            &cuts,
            &restarts,
            batch,
            0.001,
            threads,
            WindowPolicy::Unbounded,
        );
        assert_eq!(got.to_bytes(), expected, "preset stream diverged at {threads} threads");
    }
}

/// An `ActionLog` built through the growing-universe path the batcher
/// takes (decoded lines into `ActionLogBuilder::growing`) and widened to
/// the graph's node count trains identically to the fixed-universe path.
#[test]
fn growing_universe_log_trains_identically() {
    let ds = cdim_datagen::presets::tiny().generate();
    let mut serialized = Vec::new();
    write_action_log(&ds.log, &mut serialized).unwrap();
    let fixed = read_action_log(&serialized[..], ds.graph.num_nodes()).unwrap();
    let mut builder = ActionLogBuilder::growing();
    let mut decoder = TupleDecoder::new();
    for line in std::str::from_utf8(&serialized).unwrap().lines() {
        if let Some(t) = decoder.decode_line(line).unwrap() {
            builder.try_push(t.user, t.action, t.time).unwrap();
        }
    }
    let grown = builder.build().widen_users(ds.graph.num_nodes());
    assert_eq!(grown, fixed);
    let scan = |log: &ActionLog| {
        let par = Parallelism::single();
        dump_of(&scan_with(&ds.graph, log, &CreditPolicy::Uniform, 0.0, par).unwrap())
    };
    assert!(scan(&grown) == scan(&fixed));
}
