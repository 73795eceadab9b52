//! The scan's heap peak against the model it returns.
//!
//! A scan shard keeps its rows until the merge has copied them into the
//! arena, so for a moment the process holds both. This suite bounds that
//! moment: the heap high water during `scan_with`, above what was live
//! before it, must stay within 2.1× the returned model's
//! `memory_bytes()` at one and two threads. The bound is the arena plus
//! the shards' rows, which the merge needs at the same time, with a
//! little room for the shards' block slack and the user→action index.
//!
//! The binary's global allocator counts live bytes and their high water
//! across all threads, so this file holds one test: nothing else may
//! allocate while it measures.

use cdim_core::{scan_with, CreditPolicy};
use cdim_util::Parallelism;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static HIGH: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    HIGH.fetch_max(live, Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            if new_size < layout.size() {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            } else {
                // A growing block may move: the old one is live until
                // the new one holds its bytes.
                grew(new_size);
                LIVE.fetch_sub(layout.size(), Relaxed);
            }
        }
        new
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the heap high water it reached
/// above the bytes live when it started.
fn peak_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.load(Relaxed);
    HIGH.store(before, Relaxed);
    let out = f();
    (out, HIGH.load(Relaxed) - before)
}

#[test]
fn scan_heap_peak_is_at_most_2_1_times_the_model() {
    let dataset = cdim_datagen::presets::flixster_small().generate();
    let (graph, log) = (&dataset.graph, &dataset.log);
    let policy = CreditPolicy::time_aware(graph, log);
    for threads in [1usize, 2] {
        let par = Parallelism::fixed(threads);
        let (model, peak) = peak_of(|| scan_with(graph, log, &policy, 0.001, par).unwrap());
        let ratio = peak as f64 / model.memory_bytes() as f64;
        println!("threads {threads}: peak {peak} B, model {} B, {ratio:.2}×", model.memory_bytes());
        assert!(ratio <= 2.1, "threads {threads}: scan heap peak {ratio:.2}× the model");
    }
}
