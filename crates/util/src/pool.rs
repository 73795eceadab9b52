//! Scoped worker pool with deterministic work splitting.
//!
//! Every parallel stage in the workspace — the credit scan's per-action
//! fan-out, the Algorithm-5 commit's action shards, the Monte-Carlo
//! estimator's simulation shards — runs on the primitives in this module
//! instead of hand-rolled `thread::scope` blocks, so "how cdim uses
//! cores" has exactly one answer.
//!
//! ## Design
//!
//! * **Std-only.** Workers are `std::thread::scope` threads; there is no
//!   global pool, no channels, no work stealing. A parallel call splits
//!   the work into at most [`Parallelism::effective`] contiguous,
//!   pre-computed shards, runs shard 0 on the calling thread, spawns one
//!   thread for each of the others (at most `effective − 1`), and joins
//!   them before returning. Running one shard on the caller saves a spawn
//!   and keeps that shard's heap in the caller's malloc arena, where the
//!   caller's later allocations can reuse it once the shard's output is
//!   freed; memory a worker frees stays in that worker's arena.
//! * **Joined, not only counted.** A scoped thread leaves its scope when
//!   its closure returns, before it has exited; until it exits it holds
//!   its malloc arena, and a thread spawned meanwhile opens another one.
//!   So every call joins each worker it spawned: when it returns, its
//!   threads are gone and their arenas free for the next call's.
//! * **Deterministic splitting.** [`split_ranges`] divides `n` items over
//!   `w` workers into contiguous ranges whose sizes differ by at most one,
//!   a pure function of `(n, w)`. Shard `s` always receives the same range
//!   for the same inputs, which is what lets callers derive per-shard RNG
//!   streams ([`cdim_diffusion`]'s estimator) or guarantee bit-identical
//!   merged output for every thread count (the credit scan).
//! * **Slot writing, ordered merge.** Each shard writes its result into
//!   its own pre-allocated slot; the merge is a plain in-order
//!   concatenation. No locks, no atomics, no nondeterministic reduction
//!   order.
//!
//! [`cdim_diffusion`]: ../../cdim_diffusion/index.html
//!
//! ## Example
//!
//! ```
//! use cdim_util::pool::{parallel_map_shards, Parallelism};
//!
//! let shards = parallel_map_shards(Parallelism::fixed(4), 6, |_, range| {
//!     range.map(|i| i * i).collect::<Vec<_>>()
//! });
//! assert_eq!(shards.concat(), vec![0, 1, 4, 9, 16, 25]);
//! ```

use std::ops::Range;

/// How many worker threads a parallel stage may use.
///
/// `0` means "resolve at run time": the `CDIM_THREADS` environment
/// variable if it holds a positive integer (the CI test matrix pins the
/// whole workspace to one thread this way), otherwise
/// [`std::thread::available_parallelism`]. Any other value is taken
/// literally, even when it exceeds the core count (useful for tests and
/// for reproducing a specific sharding). Since every parallel stage is
/// bit-deterministic, none of this ever changes a result — only how fast
/// it arrives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Parallelism {
    /// Requested thread count; `0` = auto.
    threads: usize,
}

/// Parses a `CDIM_THREADS`-style override: a positive integer, or `None`
/// for anything else (absent, empty, zero, garbage — all fall through to
/// the OS core count).
fn parse_thread_override(raw: Option<&str>) -> Option<usize> {
    raw.and_then(|s| s.trim().parse::<usize>().ok()).filter(|&n| n > 0)
}

impl Parallelism {
    /// Use every core the OS reports (or `$CDIM_THREADS`, when set).
    pub const fn auto() -> Self {
        Parallelism { threads: 0 }
    }

    /// Run sequentially on the calling thread.
    pub const fn single() -> Self {
        Parallelism { threads: 1 }
    }

    /// Use exactly `threads` workers (`0` means [`Self::auto`]).
    pub const fn fixed(threads: usize) -> Self {
        Parallelism { threads }
    }

    /// Whether the thread count is resolved at run time.
    pub const fn is_auto(self) -> bool {
        self.threads == 0
    }

    /// The resolved thread count (auto → `$CDIM_THREADS` if set to a
    /// positive integer, else available parallelism, min 1).
    pub fn effective(self) -> usize {
        if self.threads > 0 {
            return self.threads;
        }
        if let Some(n) = parse_thread_override(std::env::var("CDIM_THREADS").ok().as_deref()) {
            return n;
        }
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    }

    /// Worker count for a job of `items` units: never more workers than
    /// items, never fewer than one.
    pub fn workers_for(self, items: usize) -> usize {
        self.effective().min(items).max(1)
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::auto()
    }
}

impl From<usize> for Parallelism {
    /// The workspace-wide CLI convention: `--threads 0` = auto.
    fn from(threads: usize) -> Self {
        Parallelism::fixed(threads)
    }
}

impl std::fmt::Display for Parallelism {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_auto() {
            f.write_str("auto")
        } else {
            write!(f, "{}", self.threads)
        }
    }
}

/// Splits `0..len` into `shards` contiguous ranges whose sizes differ by
/// at most one (the first `len % shards` ranges get the extra item).
///
/// Pure in `(len, shards)` — the deterministic-splitting contract every
/// pool caller relies on. Returns no ranges for `len == 0` and panics if
/// `shards == 0` with work to split.
pub fn split_ranges(len: usize, shards: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    assert!(shards > 0, "cannot split {len} items over zero shards");
    let shards = shards.min(len);
    let per = len / shards;
    let extra = len % shards;
    let mut ranges = Vec::with_capacity(shards);
    let mut start = 0;
    for s in 0..shards {
        let size = per + usize::from(s < extra);
        ranges.push(start..start + size);
        start += size;
    }
    debug_assert_eq!(start, len);
    ranges
}

/// Runs `f(shard_index, range)` once per shard of `0..len` and returns the
/// results in shard order.
///
/// The shard layout comes from [`split_ranges`] with
/// [`Parallelism::workers_for`] shards, so it is a pure function of
/// `(len, parallelism)`. Shard 0 runs on the calling thread and every
/// other shard on a thread of its own, so with one shard (or one worker)
/// nothing is spawned — which is why callers need no sequential special
/// case.
///
/// This is the right primitive when each worker wants per-shard state (a
/// scratch buffer, an RNG stream): allocate it once inside `f` and loop
/// over the range.
pub fn parallel_map_shards<T, F>(parallelism: Parallelism, len: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, Range<usize>) -> T + Sync,
{
    let ranges = split_ranges(len, parallelism.workers_for(len));
    let mut jobs: Vec<_> = ranges.into_iter().enumerate().map(|(s, r)| (s, r, None)).collect();
    parallel_for_each_mut(&mut jobs, |(shard, range, slot)| *slot = Some(f(*shard, range.clone())));
    jobs.into_iter().map(|(_, _, slot)| slot.expect("joined worker filled its slot")).collect()
}

/// Runs `f` once on each element of `jobs`, each call with its own `&mut`
/// job: `jobs[0]` on the calling thread, every other job on a thread of
/// its own. The caller decides the sharding, so it keeps `jobs` to at
/// most [`Parallelism::effective`] elements; a job can hold disjoint
/// `&mut` slices of one buffer and scratch the caller sized, which is how
/// a shard writes in place and allocates nothing.
///
/// Every worker is joined before the call returns, not only counted out
/// of the scope: a scoped thread can leave the scope while it is still
/// exiting, holding its malloc arena, and the next call's threads would
/// then open fresh arenas.
pub fn parallel_for_each_mut<J, F>(jobs: &mut [J], f: F)
where
    J: Send,
    F: Fn(&mut J) + Sync,
{
    let Some((first, rest)) = jobs.split_first_mut() else {
        return;
    };
    if rest.is_empty() {
        return f(first);
    }
    std::thread::scope(|scope| {
        let f = &f;
        let workers: Vec<_> = rest.iter_mut().map(|job| scope.spawn(move || f(job))).collect();
        f(first);
        for worker in workers {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_covers_all_items_contiguously() {
        for len in [0usize, 1, 2, 7, 100] {
            for shards in [1usize, 2, 3, 8] {
                let ranges = split_ranges(len, shards);
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next, "len {len} shards {shards}");
                    assert!(!r.is_empty());
                    next = r.end;
                }
                assert_eq!(next, len);
                // Balanced: sizes differ by at most one.
                if let (Some(max), Some(min)) =
                    (ranges.iter().map(|r| r.len()).max(), ranges.iter().map(|r| r.len()).min())
                {
                    assert!(max - min <= 1);
                }
            }
        }
    }

    #[test]
    fn split_is_deterministic() {
        assert_eq!(split_ranges(10, 4), split_ranges(10, 4));
        assert_eq!(split_ranges(10, 4), vec![0..3, 3..6, 6..8, 8..10]);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        assert!(split_ranges(0, 4).is_empty());
        for parallelism in [Parallelism::auto(), Parallelism::fixed(4)] {
            let shards: Vec<u32> = parallel_map_shards(parallelism, 0, |_, _| unreachable!());
            assert!(shards.is_empty());
        }
    }

    #[test]
    fn single_item_runs_inline() {
        let caller = std::thread::current().id();
        let shards = parallel_map_shards(Parallelism::fixed(8), 1, |s, r| {
            (s, r, std::thread::current().id() == caller)
        });
        assert_eq!(shards, vec![(0, 0..1, true)]);
    }

    #[test]
    fn more_threads_than_items_caps_at_items() {
        assert_eq!(Parallelism::fixed(16).workers_for(3), 3);
        let shards = parallel_map_shards(Parallelism::fixed(16), 3, |s, r| (s, r));
        assert_eq!(shards, vec![(0, 0..1), (1, 1..2), (2, 2..3)]);
    }

    #[test]
    fn output_order_matches_sequential_for_every_thread_count() {
        let expected: Vec<usize> = (0..97).map(|i| i * 3 + 1).collect();
        for threads in [1usize, 2, 3, 8, 128] {
            let shards = parallel_map_shards(Parallelism::fixed(threads), 97, |_, range| {
                range.map(|i| i * 3 + 1).collect::<Vec<_>>()
            });
            assert_eq!(shards.concat(), expected, "threads = {threads}");
        }
    }

    #[test]
    fn shard_indices_are_stable_and_ordered() {
        let shards = parallel_map_shards(Parallelism::fixed(3), 10, |s, r| (s, r));
        assert_eq!(shards, vec![(0, 0..4), (1, 4..7), (2, 7..10)]);
    }

    #[test]
    fn shard_zero_runs_on_the_caller() {
        let caller = std::thread::current().id();
        for threads in 1usize..=8 {
            let shards = parallel_map_shards(Parallelism::fixed(threads), 20, |s, r| {
                (s, r, std::thread::current().id())
            });
            assert_eq!(shards.len(), threads);
            let ranges: Vec<_> = shards.iter().map(|(s, r, _)| (*s, r.clone())).collect();
            assert_eq!(
                ranges,
                split_ranges(20, threads).into_iter().enumerate().collect::<Vec<_>>()
            );
            for (s, _, id) in &shards {
                assert_eq!(*id == caller, *s == 0, "threads {threads}, shard {s}");
            }
        }
    }

    #[test]
    fn each_job_is_handed_out_once_and_the_first_on_the_caller() {
        let caller = std::thread::current().id();
        parallel_for_each_mut(&mut [] as &mut [u8], |_| unreachable!());
        for n in 1usize..=8 {
            let mut jobs: Vec<_> = (0..n).map(|i| (i, 0, None)).collect();
            parallel_for_each_mut(&mut jobs, |(i, runs, on)| {
                *runs += 1;
                *on = Some(std::thread::current().id() == caller);
                *i *= 10;
            });
            for (k, &(i, runs, on)) in jobs.iter().enumerate() {
                assert_eq!((i, runs, on), (k * 10, 1, Some(k == 0)), "{n} jobs");
            }
        }
    }

    /// Counts workers whose thread-locals have been torn down, which
    /// happens as a thread exits, after its closure has returned.
    static EXITED: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

    struct OnExit;

    impl Drop for OnExit {
        fn drop(&mut self) {
            // Widens the window in which a worker that was not joined is
            // still exiting; a joined worker is counted whatever its timing.
            std::thread::sleep(std::time::Duration::from_millis(5));
            EXITED.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        }
    }

    thread_local! {
        static EXIT_GUARD: OnExit = const { OnExit };
    }

    #[test]
    fn every_worker_has_exited_when_a_call_returns() {
        use std::sync::atomic::Ordering::SeqCst;
        let caller = std::thread::current().id();
        let touch = || {
            if std::thread::current().id() != caller {
                EXIT_GUARD.with(|_| ());
            }
        };
        for threads in [2usize, 3, 8] {
            let before = EXITED.load(SeqCst);
            parallel_map_shards(Parallelism::fixed(threads), 16, |_, _| touch());
            assert_eq!(EXITED.load(SeqCst) - before, threads - 1, "map, {threads} threads");
            let before = EXITED.load(SeqCst);
            parallel_for_each_mut(&mut vec![(); threads], |_| touch());
            assert_eq!(EXITED.load(SeqCst) - before, threads - 1, "jobs, {threads} threads");
        }
    }

    #[test]
    fn thread_override_parses_positive_integers_only() {
        assert_eq!(parse_thread_override(Some("4")), Some(4));
        assert_eq!(parse_thread_override(Some(" 16 ")), Some(16));
        assert_eq!(parse_thread_override(Some("0")), None);
        assert_eq!(parse_thread_override(Some("")), None);
        assert_eq!(parse_thread_override(Some("auto")), None);
        assert_eq!(parse_thread_override(Some("-2")), None);
        assert_eq!(parse_thread_override(None), None);
        // A fixed count always wins over the environment.
        assert_eq!(Parallelism::fixed(5).effective(), 5);
    }

    #[test]
    fn parallelism_resolution() {
        assert!(Parallelism::auto().is_auto());
        assert!(Parallelism::fixed(0).is_auto());
        assert!(!Parallelism::single().is_auto());
        assert_eq!(Parallelism::fixed(5).effective(), 5);
        assert!(Parallelism::auto().effective() >= 1);
        assert_eq!(Parallelism::from(3), Parallelism::fixed(3));
        assert_eq!(Parallelism::auto().to_string(), "auto");
        assert_eq!(Parallelism::fixed(4).to_string(), "4");
        // A zero-length job still resolves to one (idle) worker.
        assert_eq!(Parallelism::fixed(4).workers_for(0), 1);
    }
}
