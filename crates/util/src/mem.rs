//! Coarse heap-size accounting, and a cache prefetch hint.
//!
//! Fig 8 (right) and Table 4 of the paper report the memory footprint of the
//! credit structures as a function of action-log size and truncation
//! threshold. We account for it analytically via [`HeapSize`]: each
//! container reports the bytes it owns on the heap. This is deterministic
//! and allocator-independent, which is exactly what the experiments need
//! (the paper's GB figures are likewise rough process-level numbers).

use std::collections::HashMap;
use std::hash::BuildHasher;

/// Types that can report the number of heap bytes they own.
///
/// The estimate covers payload capacity, not allocator bookkeeping; nested
/// containers recurse.
pub trait HeapSize {
    /// Bytes owned on the heap (excluding `size_of::<Self>()` itself).
    fn heap_bytes(&self) -> usize;
}

macro_rules! impl_heapsize_pod {
    ($($t:ty),*) => {
        $(impl HeapSize for $t {
            #[inline]
            fn heap_bytes(&self) -> usize { 0 }
        })*
    };
}

impl_heapsize_pod!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64, bool, char);

impl<A: HeapSize, B: HeapSize> HeapSize for (A, B) {
    fn heap_bytes(&self) -> usize {
        self.0.heap_bytes() + self.1.heap_bytes()
    }
}

impl<T: HeapSize> HeapSize for Vec<T> {
    fn heap_bytes(&self) -> usize {
        let inline = self.capacity() * std::mem::size_of::<T>();
        inline + self.iter().map(HeapSize::heap_bytes).sum::<usize>()
    }
}

impl<T: HeapSize> HeapSize for Box<[T]> {
    fn heap_bytes(&self) -> usize {
        let inline = self.len() * std::mem::size_of::<T>();
        inline + self.iter().map(HeapSize::heap_bytes).sum::<usize>()
    }
}

impl HeapSize for String {
    fn heap_bytes(&self) -> usize {
        self.capacity()
    }
}

impl<K: HeapSize, V: HeapSize, S: BuildHasher> HeapSize for HashMap<K, V, S> {
    fn heap_bytes(&self) -> usize {
        // hashbrown stores (K, V) pairs plus one control byte per slot, at
        // ~8/7 the length when grown; capacity() already reflects that.
        let slot = std::mem::size_of::<(K, V)>() + 1;
        let table = self.capacity() * slot;
        table + self.iter().map(|(k, v)| k.heap_bytes() + v.heap_bytes()).sum::<usize>()
    }
}

/// Formats a byte count as a human-readable string (`12.3 MB`).
pub fn fmt_bytes(bytes: usize) -> String {
    const UNITS: [&str; 5] = ["B", "KB", "MB", "GB", "TB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit < UNITS.len() - 1 {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{value:.2} {}", UNITS[unit])
    }
}

/// Asks the CPU to start loading the cache line that holds `slice[at]`
/// ahead of a read, so a walk over scattered rows can overlap one row's
/// memory latency with work on another. A hint only: it reads and writes
/// nothing, an `at` past the end is ignored, and off x86_64 it compiles to
/// nothing.
#[inline(always)]
pub fn prefetch<T>(slice: &[T], at: usize) {
    #[cfg(target_arch = "x86_64")]
    if let Some(item) = slice.get(at) {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: a prefetch never faults and has no architectural
        // effect; the pointer comes from a live reference anyway.
        unsafe { _mm_prefetch::<_MM_HINT_T0>((item as *const T).cast()) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (slice, at);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pod_has_no_heap() {
        assert_eq!(42u64.heap_bytes(), 0);
        assert_eq!(1.5f64.heap_bytes(), 0);
    }

    #[test]
    fn vec_counts_capacity() {
        let v: Vec<u64> = Vec::with_capacity(16);
        assert_eq!(v.heap_bytes(), 16 * 8);
        let v2: Vec<u32> = vec![1, 2, 3];
        assert!(v2.heap_bytes() >= 12);
    }

    #[test]
    fn nested_vec_recurses() {
        let v: Vec<Vec<u8>> = vec![vec![0; 10], vec![0; 20]];
        assert!(v.heap_bytes() >= 30 + 2 * std::mem::size_of::<Vec<u8>>());
    }

    #[test]
    fn map_is_nonzero_when_populated() {
        let mut m: HashMap<u32, f64> = HashMap::new();
        assert_eq!(m.heap_bytes(), 0);
        m.insert(1, 2.0);
        assert!(m.heap_bytes() > 0);
    }

    #[test]
    fn prefetch_is_a_hint_at_any_index() {
        let v = vec![1u64, 2, 3];
        for at in [0, 2, 3, usize::MAX] {
            prefetch(&v, at);
        }
        prefetch::<u8>(&[], 0);
        assert_eq!(v, [1, 2, 3]);
    }

    #[test]
    fn fmt_scales_units() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2048), "2.00 KB");
        assert_eq!(fmt_bytes(3 * 1024 * 1024), "3.00 MB");
    }
}
