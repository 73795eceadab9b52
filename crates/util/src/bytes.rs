//! 8-byte-aligned buffers and checked byte reinterpretation.
//!
//! The zero-copy snapshot path (format v2) stores CSR arrays verbatim and
//! *reinterprets* file bytes as `&[u32]`/`&[u64]`/`&[f64]` slices instead
//! of decoding per entry. Two ingredients make that sound:
//!
//! * [`AlignedBuf`] — a read-only byte buffer whose base address is
//!   guaranteed 8-byte-aligned, either owned (backed by a `Vec<u64>`
//!   allocation, so the guarantee comes from the allocator) or a private
//!   read-only file mapping (page-aligned, so 8-alignment is implied).
//!   N processes mapping the same snapshot share one physical copy.
//! * the `cast_slice_*` helpers — reinterpret a `&[u8]` as a typed slice
//!   *only after* checking pointer alignment and length divisibility,
//!   returning `None` instead of exhibiting undefined behavior on
//!   misaligned input.
//!
//! Reinterpretation is native-endian; the snapshot format is defined as
//! little-endian, so the v2 loader gates on `cfg(target_endian =
//! "little")` and falls back to a typed error elsewhere.

use crate::mem::HeapSize;
use std::io::Read;
use std::path::Path;

/// A read-only byte buffer with a guaranteed 8-byte-aligned base address.
///
/// Construction is either *owned* (copy/read the bytes into a `Vec<u64>`
/// allocation) or, on Unix, a private read-only `mmap` of a file. Both
/// variants deref to `&[u8]`; the mapped variant is never mutated and is
/// unmapped on drop.
pub struct AlignedBuf {
    inner: Inner,
}

enum Inner {
    /// `storage` owns ⌈len/8⌉ words; only the first `len` bytes are the
    /// buffer's contents.
    Owned { storage: Vec<u64>, len: usize },
    #[cfg(unix)]
    /// A private read-only mapping of `len` bytes at `ptr`.
    Mmap { ptr: *mut u8, len: usize },
}

// SAFETY: the mapped variant is an exclusively-owned, read-only, private
// mapping — no aliasing mutation can occur, so sharing references across
// threads (Sync) and moving ownership between threads (Send) are both
// sound. The owned variant is a plain Vec.
unsafe impl Send for AlignedBuf {}
unsafe impl Sync for AlignedBuf {}

impl AlignedBuf {
    /// An owned, zero-filled buffer of `len` bytes.
    pub fn zeroed(len: usize) -> AlignedBuf {
        AlignedBuf { inner: Inner::Owned { storage: vec![0u64; len.div_ceil(8)], len } }
    }

    /// Copies `bytes` into an owned aligned buffer.
    pub fn from_bytes(bytes: &[u8]) -> AlignedBuf {
        let mut buf = AlignedBuf::zeroed(bytes.len());
        buf.as_mut_slice().copy_from_slice(bytes);
        buf
    }

    /// Reads the whole file at `path` into an owned aligned buffer — the
    /// std-only fallback load path (one read, no per-entry work).
    fn read_file(path: &Path) -> std::io::Result<AlignedBuf> {
        let mut file = std::fs::File::open(path)?;
        let len = file.metadata()?.len();
        let len = usize::try_from(len).map_err(|_| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "file too large for this platform")
        })?;
        let mut buf = AlignedBuf::zeroed(len);
        file.read_exact(buf.as_mut_slice())?;
        Ok(buf)
    }

    /// Maps the file at `path` read-only (Unix), falling back to one read
    /// into an owned buffer for empty files or when mapping is unavailable
    /// on the platform.
    pub fn map_or_read_file(path: &Path) -> std::io::Result<AlignedBuf> {
        #[cfg(unix)]
        {
            Self::mmap_file(path).or_else(|_| Self::read_file(path))
        }
        #[cfg(not(unix))]
        Self::read_file(path)
    }

    /// Maps the file at `path` as a private read-only mapping.
    ///
    /// Zero-length files are returned as an (empty) owned buffer — a
    /// zero-length `mmap` is an error on POSIX.
    #[cfg(unix)]
    fn mmap_file(path: &Path) -> std::io::Result<AlignedBuf> {
        use std::os::unix::io::AsRawFd;
        let file = std::fs::File::open(path)?;
        let len = usize::try_from(file.metadata()?.len()).map_err(|_| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "file too large for this platform")
        })?;
        if len == 0 {
            return Ok(AlignedBuf::zeroed(0));
        }
        // SAFETY: requests a fresh private read-only mapping of `len`
        // bytes over an open fd; the kernel picks the address. The file
        // could in principle be truncated by another process while mapped
        // (making page faults fatal), but snapshots are written via
        // tmp+rename and never truncated in place — the same contract the
        // read() path relies on for a consistent byte stream.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr == sys::MAP_FAILED {
            return Err(std::io::Error::last_os_error());
        }
        Ok(AlignedBuf { inner: Inner::Mmap { ptr: ptr.cast(), len } })
    }

    /// The buffer contents.
    pub fn as_slice(&self) -> &[u8] {
        match &self.inner {
            Inner::Owned { storage, len } => {
                // SAFETY: `storage` owns ≥ `len` initialized bytes and u64
                // has alignment ≥ 1; reborrowing as bytes is always valid.
                unsafe { std::slice::from_raw_parts(storage.as_ptr().cast(), *len) }
            }
            #[cfg(unix)]
            Inner::Mmap { ptr, len } => {
                // SAFETY: the mapping covers exactly `len` readable bytes
                // and lives until drop; no mutable aliases exist.
                unsafe { std::slice::from_raw_parts(*ptr, *len) }
            }
        }
    }

    /// Mutable view of an *owned* buffer (used while building an arena).
    ///
    /// # Panics
    ///
    /// Panics if the buffer is a file mapping — mapped buffers are
    /// read-only by construction.
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        match &mut self.inner {
            Inner::Owned { storage, len } => {
                // SAFETY: as in `as_slice`, plus `&mut self` guarantees
                // exclusive access.
                unsafe { std::slice::from_raw_parts_mut(storage.as_mut_ptr().cast(), *len) }
            }
            #[cfg(unix)]
            Inner::Mmap { .. } => panic!("AlignedBuf: cannot mutably borrow a file mapping"),
        }
    }

    /// Buffer length in bytes.
    pub fn len(&self) -> usize {
        match &self.inner {
            Inner::Owned { len, .. } => *len,
            #[cfg(unix)]
            Inner::Mmap { len, .. } => *len,
        }
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the buffer is a shared file mapping (vs owned memory).
    pub fn is_mapped(&self) -> bool {
        match &self.inner {
            Inner::Owned { .. } => false,
            #[cfg(unix)]
            Inner::Mmap { .. } => true,
        }
    }
}

impl std::ops::Deref for AlignedBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::fmt::Debug for AlignedBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AlignedBuf")
            .field("len", &self.len())
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

impl Drop for AlignedBuf {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Inner::Mmap { ptr, len } = self.inner {
            // SAFETY: `ptr`/`len` describe a mapping created by mmap in
            // `mmap_file` and not yet unmapped (drop runs once).
            unsafe {
                sys::munmap(ptr.cast(), len);
            }
        }
    }
}

impl HeapSize for AlignedBuf {
    /// Resident bytes of the buffer. Mapped pages count too: they are the
    /// model's working set even when physically shared between processes.
    fn heap_bytes(&self) -> usize {
        match &self.inner {
            Inner::Owned { storage, .. } => storage.capacity() * 8,
            #[cfg(unix)]
            Inner::Mmap { len, .. } => *len,
        }
    }
}

/// Raw POSIX mmap bindings (the workspace links no external crates; these
/// constants are identical on every Tier-1 Unix target).
#[cfg(unix)]
mod sys {
    use std::ffi::c_void;

    /// Pages may be read.
    pub const PROT_READ: i32 = 1;
    /// Changes are private (never written back; the mapping is read-only
    /// anyway).
    pub const MAP_PRIVATE: i32 = 2;
    /// `(void *) -1`, the POSIX mmap failure sentinel.
    pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }
}

macro_rules! cast_fns {
    ($name:ident, $name_mut:ident, $t:ty) => {
        /// Reinterprets `bytes` as a typed slice, or `None` when the
        /// pointer is not aligned for the target type or the length is not
        /// a multiple of its size.
        ///
        /// The reinterpretation is native-endian; callers serializing
        /// cross-platform data must pin the byte order themselves.
        pub fn $name(bytes: &[u8]) -> Option<&[$t]> {
            let size = std::mem::size_of::<$t>();
            if bytes.as_ptr() as usize % std::mem::align_of::<$t>() != 0 || bytes.len() % size != 0
            {
                return None;
            }
            // SAFETY: alignment and length divisibility were just
            // checked; the target type has no invalid bit patterns; the
            // returned slice borrows `bytes`, so the memory outlives it.
            Some(unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast(), bytes.len() / size) })
        }

        /// Mutable variant of the same checked reinterpretation.
        pub fn $name_mut(bytes: &mut [u8]) -> Option<&mut [$t]> {
            let size = std::mem::size_of::<$t>();
            if bytes.as_ptr() as usize % std::mem::align_of::<$t>() != 0 || bytes.len() % size != 0
            {
                return None;
            }
            // SAFETY: as above, plus exclusivity is inherited from the
            // `&mut` borrow.
            Some(unsafe {
                std::slice::from_raw_parts_mut(bytes.as_mut_ptr().cast(), bytes.len() / size)
            })
        }
    };
}

cast_fns!(cast_slice_u32, cast_slice_u32_mut, u32);
cast_fns!(cast_slice_u64, cast_slice_u64_mut, u64);
cast_fns!(cast_slice_f64, cast_slice_f64_mut, f64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owned_buffer_is_aligned_and_zeroed() {
        for len in [0usize, 1, 7, 8, 9, 4096] {
            let buf = AlignedBuf::zeroed(len);
            assert_eq!(buf.len(), len);
            assert_eq!(buf.as_ptr() as usize % 8, 0, "len {len}");
            assert!(buf.iter().all(|&b| b == 0));
            assert!(!buf.is_mapped());
        }
    }

    #[test]
    fn from_bytes_round_trips() {
        let data: Vec<u8> = (0..100u8).collect();
        let buf = AlignedBuf::from_bytes(&data);
        assert_eq!(&buf[..], &data[..]);
    }

    #[test]
    fn casts_require_alignment_and_divisibility() {
        let mut buf = AlignedBuf::zeroed(24);
        cast_slice_u64_mut(buf.as_mut_slice()).unwrap()[1] = 0xDEAD_BEEF;
        let words = cast_slice_u64(&buf).unwrap();
        assert_eq!(words, &[0, 0xDEAD_BEEF, 0]);
        assert_eq!(cast_slice_u32(&buf).unwrap().len(), 6);
        assert_eq!(cast_slice_f64(&buf).unwrap().len(), 3);
        // Misaligned base → None (offset by one byte off an aligned base).
        assert!(cast_slice_u64(&buf[1..17]).is_none());
        // Non-multiple length → None.
        assert!(cast_slice_u64(&buf[..12]).is_none());
        // Empty slices always cast.
        assert_eq!(cast_slice_f64(&buf[..0]).unwrap().len(), 0);
    }

    #[test]
    fn file_read_and_map_agree() {
        let dir = std::env::temp_dir().join(format!("cdim_bytes_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("data.bin");
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        std::fs::write(&path, &data).unwrap();

        let read = AlignedBuf::read_file(&path).unwrap();
        assert_eq!(&read[..], &data[..]);
        let mapped = AlignedBuf::map_or_read_file(&path).unwrap();
        assert_eq!(&mapped[..], &data[..]);
        assert_eq!(mapped.as_ptr() as usize % 8, 0);
        #[cfg(unix)]
        {
            let mm = AlignedBuf::mmap_file(&path).unwrap();
            assert!(mm.is_mapped());
            assert_eq!(&mm[..], &data[..]);
            assert!(mm.heap_bytes() >= data.len());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_file_maps_to_empty_owned_buffer() {
        let dir = std::env::temp_dir().join(format!("cdim_bytes_empty_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("empty.bin");
        std::fs::write(&path, b"").unwrap();
        let buf = AlignedBuf::map_or_read_file(&path).unwrap();
        assert!(buf.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
