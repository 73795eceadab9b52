//! Workloads, their sizes, and the files a prepared workload directory
//! holds. Everything here is a pure function of the workload, the seed and
//! the scale, so the same seed always yields the same inputs.

use cdim::datagen::{presets, DatasetSpec};
use std::path::{Path, PathBuf};

/// λ every model is trained with (the `cdim train`/`follow` default).
pub const LAMBDA: f64 = 0.001;
/// Answer-cache capacity of every service (the `cdim serve` default).
pub const CACHE_CAPACITY: usize = 1024;
/// Budget of the CELF top-k the train pipeline runs.
pub const TOP_K: usize = 50;
/// Reactor worker threads. Each workload keeps one request in flight, so
/// a second worker would only make which thread serves it vary.
pub const SERVER_WORKERS: usize = 1;
/// Set-ups timed in each train and serve repetition; the repetition's
/// `setup_s` is their median (one set-up is only ~10 ms).
pub const SETUP_CYCLES: usize = 5;

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Offline pipeline on a dense log: TSV → scan → freeze → v2 → top-k.
    Train,
    /// Skewed query mix over TCP against a loaded v2 snapshot.
    Serve,
    /// Appends streamed into a live follower while one connection queries.
    Live,
}

impl Workload {
    /// All workloads, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [Workload::Train, Workload::Serve, Workload::Live];

    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Train => "train",
            Workload::Serve => "serve",
            Workload::Live => "live",
        }
    }
}

/// Sizes of one workload at one scale.
#[derive(Clone, Debug)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// Dataset recipe, with every generator seed derived from the run seed.
    pub spec: DatasetSpec,
    /// Actions generated before trimming, as a multiple of the preset's.
    pub overgenerate: f64,
    /// Credit entries the trimmed log is cut to (`None`: no trimming), so
    /// every seed gives the program the same amount of work.
    pub target_entries: Option<usize>,
    /// Seed of the request streams.
    pub request_seed: u64,
    /// Requests in one timed serve repetition.
    pub requests: usize,
    /// Requests in the untimed serve warm-up and in a serve probe.
    pub short_requests: usize,
    /// Actions published in one timed live repetition.
    pub stream_actions: usize,
    /// Actions published in the untimed live warm-up and in a live probe.
    pub short_actions: usize,
    /// Live repetitions continue until this many freshness samples exist.
    pub min_fresh: usize,
    /// Serve and live repetitions continue until this many query samples
    /// exist.
    pub min_queries: usize,
    /// Upper bound on timed repetitions of any pipeline.
    pub max_reps: usize,
}

impl Plan {
    /// The plan for `workload` under run seed `seed`; `tiny` swaps in the
    /// miniature preset (for tests).
    pub fn new(workload: Workload, seed: u64, tiny: bool) -> Plan {
        let mut spec = match (tiny, workload) {
            (true, _) => presets::tiny(),
            (false, Workload::Train) => presets::flickr_small().scaled_down(2),
            (false, _) => presets::flixster_small(),
        };
        spec.graph.seed = derive_seed(seed, 1);
        spec.truth.seed = derive_seed(seed, 2);
        spec.cascades.seed = derive_seed(seed, 3);
        let target_entries = match (tiny, workload) {
            (true, _) => None,
            (false, Workload::Train) => Some(1_400_000),
            (false, Workload::Serve) => Some(1_500_000),
            (false, Workload::Live) => Some(750_000),
        };
        let base = Plan {
            workload,
            spec,
            overgenerate: 1.0,
            target_entries,
            request_seed: derive_seed(seed, 4),
            requests: 200,
            short_requests: 100,
            stream_actions: 20,
            short_actions: 4,
            min_fresh: 100,
            min_queries: 1000,
            max_reps: 40,
        };
        if tiny {
            Plan {
                requests: 60,
                short_requests: 20,
                stream_actions: 12,
                short_actions: 3,
                min_fresh: 0,
                min_queries: 0,
                ..base
            }
        } else {
            Plan { overgenerate: 1.4, ..base }
        }
    }

    /// Actions held out of the live checkpoint for streaming: every
    /// published action needs the next one appended to seal it.
    pub fn tail_actions(&self) -> usize {
        self.stream_actions.max(self.short_actions) + 1
    }
}

/// SplitMix64 finalizer over `seed + salt`: independent generator seeds
/// from one run seed.
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed.wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The files of a prepared workload directory.
#[derive(Clone, Debug)]
pub struct Files {
    dir: PathBuf,
}

impl Files {
    /// Files under `dir`.
    pub fn new(dir: &Path) -> Files {
        Files { dir: dir.to_path_buf() }
    }

    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// Social graph TSV.
    pub fn graph(&self) -> PathBuf {
        self.path("graph.tsv")
    }
    /// Whole action log TSV (the train input).
    pub fn log(&self) -> PathBuf {
        self.path("log.tsv")
    }
    /// Log without its held-out tail (the live policy log and log prefix).
    pub fn base_log(&self) -> PathBuf {
        self.path("base.tsv")
    }
    /// The held-out actions the live stream appends, as TSV lines.
    pub fn tail_log(&self) -> PathBuf {
        self.path("tail.tsv")
    }
    /// Ingest checkpoint of the base log.
    pub fn checkpoint(&self) -> PathBuf {
        self.path("base.ckpt")
    }
    /// Frozen v2 snapshot of the whole log (the serve input).
    pub fn model(&self) -> PathBuf {
        self.path("model.v2")
    }
    /// Serve request stream.
    pub fn requests(&self) -> PathBuf {
        self.path("requests.txt")
    }
    /// Request stream of the live reader connection (no top-k).
    pub fn live_requests(&self) -> PathBuf {
        self.path("live_requests.txt")
    }
    /// Dataset shape, one `key value` pair per line.
    pub fn shape(&self) -> PathBuf {
        self.path("shape.txt")
    }
    /// The file the train pipeline writes its snapshot to.
    pub fn trained_model(&self) -> PathBuf {
        self.path("trained.v2")
    }
    /// The log file a live follower tails.
    pub fn follow_log(&self) -> PathBuf {
        self.path("follow.tsv")
    }
    /// The checkpoint a live follower resumes from and rewrites.
    pub fn follow_checkpoint(&self) -> PathBuf {
        self.path("follow.ckpt")
    }
}
