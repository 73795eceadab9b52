//! `perfbench`: the cdim end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload train|serve|live|all --seed N --seconds S --trace 0|1 [--tiny]
//! ```
//!
//! Each workload runs in two child processes of this one: `prepare`
//! generates the inputs from the seed and writes them under
//! `.bench_work/` in the working directory (untimed), then `measure`
//! drives the program through its public APIs on those files only and
//! prints the report. The last line of standard output is the JSON
//! result; the exit code is non-zero when a correctness check fails.
//! `--workload all` runs the three workloads in turn.

use perfbench::plan::{Files, Plan, Workload};
use perfbench::{measure, prepare};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Root of the per-run input directories and span files.
const WORK_ROOT: &str = ".bench_work";

struct Args {
    command: String,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut raw = std::env::args().skip(1).peekable();
    let command = match raw.peek().map(String::as_str) {
        Some("prepare" | "measure") => raw.next().expect("peeked"),
        _ => "run".to_string(),
    };
    let mut args = Args {
        command,
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        dir: None,
    };
    while let Some(flag) = raw.next() {
        if flag == "--tiny" {
            args.tiny = true;
            continue;
        }
        let value = raw.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad)?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad),
                }
            }
            "--dir" => args.dir = Some(PathBuf::from(&value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && Workload::parse(&args.workload).is_none() {
        return Err(format!(
            "--workload must be train, serve, live or all (got {:?})",
            args.workload
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.command.as_str() {
        "prepare" => child_prepare(&args),
        "measure" => child_measure(&args),
        _ => orchestrate(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

fn child_prepare(args: &Args) -> Result<bool, String> {
    let workload = Workload::parse(&args.workload).ok_or("prepare needs one workload")?;
    let dir = args.dir.as_deref().ok_or("prepare needs --dir")?;
    let threads = cdim::util::Parallelism::fixed(cdim::util::Parallelism::auto().effective());
    prepare::prepare(&Plan::new(workload, args.seed, args.tiny), &Files::new(dir), threads)?;
    Ok(true)
}

fn child_measure(args: &Args) -> Result<bool, String> {
    let workload = Workload::parse(&args.workload).ok_or("measure needs one workload")?;
    let dir = args.dir.as_deref().ok_or("measure needs --dir")?;
    let spans = Path::new(WORK_ROOT).join(format!("spans-{}-{}.jsonl", workload.name(), args.seed));
    measure::run(
        Plan::new(workload, args.seed, args.tiny),
        Files::new(dir),
        args.seconds,
        args.trace,
        &spans,
    )
}

/// Runs each requested workload as prepare + measure child processes.
fn orchestrate(args: &Args) -> Result<bool, String> {
    let workloads: Vec<Workload> = match Workload::parse(&args.workload) {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let mut all_correct = true;
    for workload in workloads {
        let dir = Path::new(WORK_ROOT).join(format!(
            "{}-{}-{}",
            workload.name(),
            args.seed,
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let mut common = vec![
            "--workload".to_string(),
            workload.name().to_string(),
            "--seed".to_string(),
            args.seed.to_string(),
            "--dir".to_string(),
            dir.display().to_string(),
        ];
        if args.tiny {
            common.push("--tiny".to_string());
        }
        // Preparation prints nothing on standard output: the measuring
        // child's last line must stay the result.
        let prepared = Command::new(&exe)
            .arg("prepare")
            .args(&common)
            .stdout(std::process::Stdio::null())
            .status()
            .map_err(|e| format!("running prepare: {e}"))?;
        let measured = if prepared.success() {
            Command::new(&exe)
                .arg("measure")
                .args(&common)
                .args([
                    "--seconds",
                    &args.seconds.to_string(),
                    "--trace",
                    if args.trace { "1" } else { "0" },
                ])
                .status()
                .map_err(|e| format!("running measure: {e}"))?
        } else {
            prepared
        };
        std::fs::remove_dir_all(&dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;
        match measured.code() {
            Some(0) => {}
            Some(1) if prepared.success() => all_correct = false,
            _ => return Err(format!("{} workload failed ({measured})", workload.name())),
        }
    }
    Ok(all_correct)
}
