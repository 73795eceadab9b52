//! Scalar metric primitives: monotone counters, float gauges, and
//! free-text info metrics.
//!
//! All hot-path operations are single relaxed atomic instructions; handles
//! are `Arc`s handed out by the [`crate::MetricsRegistry`] so call sites
//! never pay a lookup after registration.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A monotonically increasing event counter.
///
/// Increments are relaxed atomic adds; reads are relaxed loads. The value
/// only ever grows (there is deliberately no `set` or `sub`).
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Create a counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// An instantaneous float value that can go up and down.
///
/// The value is stored as the IEEE-754 bit pattern of an `f64` inside an
/// `AtomicU64`: `set` is a plain store, `add` is a compare-and-swap loop.
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Create a gauge at `0.0`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replace the value.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Add `delta` (may be negative).
    pub fn add(&self, delta: f64) {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self.bits.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A free-text annotation metric (e.g. "last quarantine reason").
///
/// Rendered in Prometheus exposition as `name{<label>="<value>"} 1`,
/// mirroring the `_info` convention. Not a hot-path primitive: updates
/// take a mutex.
#[derive(Debug)]
pub struct Info {
    label: &'static str,
    value: Mutex<String>,
}

impl Info {
    /// Create an info metric whose single label is named `label`.
    pub fn new(label: &'static str) -> Self {
        Self { label, value: Mutex::new(String::new()) }
    }

    /// Name of the single label this metric carries.
    pub fn label(&self) -> &'static str {
        self.label
    }

    /// Replace the label value.
    pub fn set(&self, value: &str) {
        *self.value.lock().expect("info metric poisoned") = value.to_string();
    }

    /// Current label value (empty string until first `set`).
    pub fn get(&self) -> String {
        self.value.lock().expect("info metric poisoned").clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn counter_accumulates() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn counter_concurrent_increments_lose_nothing() {
        let c = Arc::new(Counter::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = Arc::clone(&c);
            handles.push(thread::spawn(move || {
                for _ in 0..10_000 {
                    c.inc();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 80_000);
    }

    #[test]
    fn gauge_set_add_roundtrip() {
        let g = Gauge::new();
        g.set(2.5);
        g.add(-1.0);
        assert_eq!(g.get(), 1.5);
    }

    #[test]
    fn info_stores_latest_value() {
        let i = Info::new("reason");
        assert_eq!(i.get(), "");
        i.set("stale action (frontier 17)");
        assert_eq!(i.get(), "stale action (frontier 17)");
        assert_eq!(i.label(), "reason");
    }
}
