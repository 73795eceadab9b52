//! Golden-file regression suite for the credit scan's numerics.
//!
//! Every file under `tests/golden/` pins the canonical fingerprint of one
//! trained credit store: the CRC-32C of its snapshot encoding (a canonical
//! byte serialization — sorted entries, fixed layout), its entry counts,
//! and the first few credit entries verbatim. The cases cover two fixed
//! `datagen` presets × both credit policies × λ ∈ {0, 0.001}, each both
//! in full and as a half-log sliding window (`__whalf` files: the newest
//! half of the actions, scanned under the full-log policy — the state a
//! windowed follow session serves after expiry).
//!
//! If the scan's floating-point behavior ever drifts — a reordered
//! accumulation, a "harmless" refactor of the kernel, a policy tweak —
//! this suite fails with a readable diff of the first divergent entries
//! instead of a bare checksum mismatch.
//!
//! Regenerate after an *intentional* numeric change with:
//!
//! ```text
//! CDIM_BLESS=1 cargo test --test golden
//! ```

use cdim::core::{scan, CompactSelector, CreditPolicy};
use cdim::datagen::presets;
use cdim::serve::ModelSnapshot;
use cdim::util::checksum::crc32c;
use cdim::util::Parallelism;
use std::fmt::Write as _;
use std::path::PathBuf;

/// How many leading credit entries each golden file records verbatim.
const SAMPLE_ENTRIES: usize = 40;

/// One pinned configuration.
struct Case {
    /// Preset label (also the file-name stem).
    preset: &'static str,
    /// `uniform` or `time-aware`.
    policy: &'static str,
    /// Truncation threshold.
    lambda: f64,
    /// Scan only the newest half of the log's actions (the policy is
    /// still learned from the full log — the fixed-policy contract).
    window_half: bool,
}

/// A flattened credit entry: `(action, v, u, Γ bits)`.
type Entry = (u32, u32, u32, u64);

fn cases() -> Vec<Case> {
    let mut out = Vec::new();
    for preset in ["tiny", "flixster_small_div8"] {
        for policy in ["uniform", "time-aware"] {
            for lambda in [0.0, 0.001] {
                for window_half in [false, true] {
                    out.push(Case { preset, policy, lambda, window_half });
                }
            }
        }
    }
    out
}

/// Actions expired by a half-log window over `num_actions` actions.
fn half_window_cut(num_actions: usize) -> usize {
    num_actions - num_actions.div_ceil(2)
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("golden")
}

fn file_name(case: &Case) -> String {
    let lambda = if case.lambda == 0.0 { "l0" } else { "l0_001" };
    let window = if case.window_half { "__whalf" } else { "" };
    format!("{}__{}__{}{}.golden", case.preset, case.policy, lambda, window)
}

/// Trains the case's credit store (thread count deliberately left at
/// `auto`: the scan is bit-identical for every parallelism, so the
/// fingerprint must not depend on the host's core count or
/// `$CDIM_THREADS`).
fn train(case: &Case) -> CompactSelector {
    let spec = match case.preset {
        "tiny" => presets::tiny(),
        "flixster_small_div8" => presets::flixster_small().scaled_down(8),
        other => panic!("unknown golden preset {other}"),
    };
    let ds = spec.generate();
    let policy = match case.policy {
        "uniform" => CreditPolicy::Uniform,
        "time-aware" => CreditPolicy::time_aware(&ds.graph, &ds.log),
        other => panic!("unknown golden policy {other}"),
    };
    let log = if case.window_half {
        ds.log.split_off_prefix(half_window_cut(ds.log.num_actions())).1
    } else {
        ds.log
    };
    scan(&ds.graph, &log, &policy, case.lambda).expect("golden training inputs are valid")
}

/// The model's canonical fingerprint: snapshot-encoding CRC, totals, and
/// the first [`SAMPLE_ENTRIES`] entries in canonical order.
fn fingerprint(store: &CompactSelector) -> (u32, usize, usize, Vec<Entry>) {
    let samples: Vec<Entry> = (0..store.num_actions() as u32)
        .flat_map(|a| store.action(a).entries().map(move |(v, u, c)| (a, v, u, c.to_bits())))
        .take(SAMPLE_ENTRIES)
        .collect();
    let crc = body_crc(&ModelSnapshot::from_store(store.clone()));
    (crc, store.total_entries(), store.num_actions(), samples)
}

/// CRC-32C of the snapshot's *body*: the encoding ends in its own CRC-32C
/// trailer, so checksumming the whole file would collapse every case to
/// the fixed crc(data ‖ crc(data)) residue. The body CRC equals the
/// trailer a `cdim train` file would carry.
fn body_crc(snapshot: &ModelSnapshot) -> u32 {
    let bytes = snapshot.to_bytes();
    crc32c(&bytes[..bytes.len() - 4])
}

fn render(
    case: &Case,
    crc: u32,
    total_entries: usize,
    actions: usize,
    samples: &[Entry],
) -> String {
    let mut out = String::new();
    out.push_str("# cdim golden credit-store fingerprint (crc32c: CRC-32C of the snapshot body)\n");
    out.push_str("# regenerate after an intentional numeric change:\n");
    out.push_str("#   CDIM_BLESS=1 cargo test --test golden\n");
    let _ = writeln!(out, "preset={}", case.preset);
    let _ = writeln!(out, "policy={}", case.policy);
    let _ = writeln!(out, "lambda={}", case.lambda);
    let _ = writeln!(out, "window={}", if case.window_half { "half" } else { "full" });
    let _ = writeln!(out, "crc32c={crc:#010x}");
    let _ = writeln!(out, "total_entries={total_entries}");
    let _ = writeln!(out, "actions={actions}");
    let _ = writeln!(out, "samples={}", samples.len());
    for &(a, v, u, bits) in samples {
        let _ = writeln!(out, "sample={a} {v} {u} {bits:016x}");
    }
    out
}

/// Parses a golden file back into `(crc, total_entries, actions, samples)`.
fn parse(text: &str, path: &std::path::Path) -> (u32, usize, usize, Vec<Entry>) {
    let mut crc = None;
    let mut total_entries = None;
    let mut actions = None;
    let mut samples = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .unwrap_or_else(|| panic!("{}: malformed line {line:?}", path.display()));
        match key {
            "crc32c" => {
                let raw = value.trim_start_matches("0x");
                crc = Some(u32::from_str_radix(raw, 16).expect("crc32c hex"));
            }
            "total_entries" => total_entries = Some(value.parse().expect("total_entries")),
            "actions" => actions = Some(value.parse().expect("actions")),
            "sample" => {
                let mut parts = value.split_whitespace();
                let a = parts.next().expect("sample action").parse().expect("action");
                let v = parts.next().expect("sample v").parse().expect("v");
                let u = parts.next().expect("sample u").parse().expect("u");
                let bits = u64::from_str_radix(parts.next().expect("sample bits"), 16)
                    .expect("credit bits");
                samples.push((a, v, u, bits));
            }
            _ => {} // preset/policy/lambda/samples are informational
        }
    }
    (
        crc.expect("golden file must pin crc32c"),
        total_entries.expect("golden file must pin total_entries"),
        actions.expect("golden file must pin actions"),
        samples,
    )
}

/// Builds the human-readable report of the first divergent entries.
fn diff_report(case: &Case, stored: &[Entry], computed: &[Entry]) -> String {
    let mut report = format!(
        "golden mismatch for preset={} policy={} lambda={} window={}\n",
        case.preset,
        case.policy,
        case.lambda,
        if case.window_half { "half" } else { "full" }
    );
    let mut shown = 0;
    for (i, (s, c)) in stored.iter().zip(computed.iter()).enumerate() {
        if s != c && shown < 5 {
            let _ = writeln!(
                report,
                "  entry {i}: stored  (action {}, {} -> {}, credit {:.17})\n\
                 \x20          computed (action {}, {} -> {}, credit {:.17})",
                s.0,
                s.1,
                s.2,
                f64::from_bits(s.3),
                c.0,
                c.1,
                c.2,
                f64::from_bits(c.3),
            );
            shown += 1;
        }
    }
    if stored.len() != computed.len() {
        let _ = writeln!(
            report,
            "  sample count differs: stored {}, computed {}",
            stored.len(),
            computed.len()
        );
    }
    if shown == 0 && stored.len() == computed.len() {
        report.push_str(
            "  the first sampled entries agree — the divergence is past the sample window \
             (entry counts or later credits changed)\n",
        );
    }
    report.push_str("  if this change is intentional: CDIM_BLESS=1 cargo test --test golden\n");
    report
}

#[test]
fn credit_scan_matches_golden_fingerprints() {
    let bless = std::env::var_os("CDIM_BLESS").is_some();
    let dir = golden_dir();
    if bless {
        std::fs::create_dir_all(&dir).expect("create tests/golden");
    }
    let mut failures = Vec::new();
    for case in cases() {
        let store = train(&case);
        let (crc, total_entries, actions, samples) = fingerprint(&store);
        let path = dir.join(file_name(&case));
        if bless {
            std::fs::write(&path, render(&case, crc, total_entries, actions, &samples))
                .expect("write golden file");
            println!("blessed {}", path.display());
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{}: {e}\n(run `CDIM_BLESS=1 cargo test --test golden` to create golden files)",
                path.display()
            )
        });
        let (want_crc, want_entries, want_actions, want_samples) = parse(&text, &path);
        if crc == want_crc {
            // The CRC covers every byte of the canonical encoding; the
            // cheap structural fields must agree if it does.
            assert_eq!(total_entries, want_entries, "{}", path.display());
            assert_eq!(actions, want_actions, "{}", path.display());
            assert_eq!(samples, want_samples, "{}", path.display());
            continue;
        }
        let mut report = diff_report(&case, &want_samples, &samples);
        let _ = writeln!(
            report,
            "  crc32c: stored {want_crc:#010x}, computed {crc:#010x}\n\
             \x20 total_entries: stored {want_entries}, computed {total_entries}\n\
             \x20 actions: stored {want_actions}, computed {actions}"
        );
        failures.push(report);
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

/// The served incremental path must land on the same golden
/// fingerprints: extend the snapshot of a prefix-trained store over the
/// remaining actions and compare its body CRC against the committed
/// full-scan value.
#[test]
fn incremental_extend_matches_golden_fingerprints() {
    if std::env::var_os("CDIM_BLESS").is_some() {
        return; // fingerprints are being rewritten; nothing to compare yet
    }
    for case in cases().into_iter().filter(|c| c.preset == "tiny" && !c.window_half) {
        let spec = presets::tiny();
        let ds = spec.generate();
        let policy = match case.policy {
            "uniform" => CreditPolicy::Uniform,
            _ => CreditPolicy::time_aware(&ds.graph, &ds.log),
        };
        let split = ds.log.num_actions() * 9 / 10;
        let (prefix, delta) = ds.log.split_at_action(split);
        let store = scan(&ds.graph, &prefix, &policy, case.lambda).unwrap();
        let extended = ModelSnapshot::from_store(store)
            .extend(&ds.graph, &delta, &policy, Parallelism::auto())
            .unwrap();
        let crc = body_crc(&extended);

        let path = golden_dir().join(file_name(&case));
        let text = std::fs::read_to_string(&path).expect("golden file exists");
        let (want_crc, ..) = parse(&text, &path);
        assert_eq!(
            crc,
            want_crc,
            "incremental extend diverged from the golden full scan for {}",
            file_name(&case)
        );
    }
}

/// The served retraction path must land on the window fingerprints: scan
/// the full log, retract the expired half from its snapshot, and compare
/// the body CRC against the committed `__whalf` golden — the
/// sliding-window invariant pinned to bytes on disk.
#[test]
fn incremental_retract_matches_golden_window_fingerprints() {
    if std::env::var_os("CDIM_BLESS").is_some() {
        return; // fingerprints are being rewritten; nothing to compare yet
    }
    for case in cases().into_iter().filter(|c| c.window_half) {
        let spec = match case.preset {
            "tiny" => presets::tiny(),
            _ => presets::flixster_small().scaled_down(8),
        };
        let ds = spec.generate();
        let policy = match case.policy {
            "uniform" => CreditPolicy::Uniform,
            _ => CreditPolicy::time_aware(&ds.graph, &ds.log),
        };
        let expired = ds.log.split_off_prefix(half_window_cut(ds.log.num_actions())).0;
        let store = scan(&ds.graph, &ds.log, &policy, case.lambda).unwrap();
        let retracted = ModelSnapshot::from_store(store)
            .retract(&ds.graph, &expired, &policy, Parallelism::auto())
            .unwrap();
        let crc = body_crc(&retracted);

        let path = golden_dir().join(file_name(&case));
        let text = std::fs::read_to_string(&path).expect("golden file exists");
        let (want_crc, ..) = parse(&text, &path);
        assert_eq!(
            crc,
            want_crc,
            "retract diverged from the golden window scan for {}",
            file_name(&case)
        );
    }
}
