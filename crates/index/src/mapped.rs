//! Read-only file regions for the persistence layer: `mmap(2)` when the
//! target supports it, a buffered read otherwise.
//!
//! The warm-restart design (ROADMAP item 1, after "Learned Indexes for a
//! Google-scale Disk-based Database") is "mmap the sorted-key file and
//! load coefficients" — the key payload must become addressable without
//! copying 8 bytes per key back into the heap. [`MappedFile`] is that
//! primitive: an immutable byte region backed by a private read-only
//! mapping on 64-bit little-endian unix targets (feature `mmap`,
//! default-on), or by an owned buffer everywhere else. Callers never
//! branch on which one they got; `KeyStore::from_mapped` builds a
//! zero-copy `u64` view either way.
//!
//!
//! It also holds the memory side of a lookup. `HugeSlice`, the backing
//! `KeyStore::new` gives an array of 2 MiB or more, is an anonymous
//! mapping of its own, advised `MADV_HUGEPAGE` before its first write,
//! so a 128 MB key array needs 64 TLB entries instead of 32 768.
//! [`prefetch`] asks the CPU for the cache line holding one element, so
//! a caller can start a DRAM fetch and do other work while it lands.
//!
//! This module is the only place in the workspace that uses `unsafe`:
//! raw `mmap`/`munmap`/`madvise` declarations (no external crate can be
//! added in the offline build) for the file mapping and the anonymous
//! huge-page mapping, the pointer-to-slice reinterpretation the
//! mappings share, and the `_mm_prefetch` intrinsic behind
//! [`prefetch`]. Everything above it stays `deny(unsafe_code)`-clean,
//! and every `unsafe` block here carries a `// SAFETY:` line (the crate
//! denies `clippy::undocumented_unsafe_blocks`).

#![allow(unsafe_code)]

use std::fs::File;
use std::io::{self, Read};
use std::marker::PhantomData;
use std::path::Path;
use std::sync::Arc;

/// Raw `mmap(2)` bindings, gated to the one ABI this workspace can
/// vouch for offline: 64-bit little-endian unix, where `off_t` is
/// `i64`, `size_t` is `usize`, and the mapped bytes can be
/// reinterpreted as little-endian `u64`s directly.
#[cfg(all(
    feature = "mmap",
    unix,
    target_pointer_width = "64",
    target_endian = "little"
))]
mod sys {
    use std::ffi::{c_int, c_void};
    use std::fs::File;
    use std::io;
    use std::os::unix::io::AsRawFd;

    const PROT_READ: c_int = 1;
    const MAP_PRIVATE: c_int = 2;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            length: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, length: usize) -> c_int;
    }

    /// An owned private read-only mapping of `len > 0` bytes.
    pub(super) struct Mapping {
        ptr: *const u8,
        len: usize,
    }

    impl Mapping {
        pub(super) fn map(file: &File, len: usize) -> io::Result<Self> {
            debug_assert!(len > 0, "zero-length mappings are handled by the caller");
            // SAFETY: fd is a valid open file descriptor for the
            // lifetime of the call; a NULL addr + MAP_PRIVATE asks the
            // kernel to pick the placement; failure is reported as
            // MAP_FAILED (-1), checked below.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize == -1 || ptr.is_null() {
                return Err(io::Error::last_os_error());
            }
            Ok(Self {
                ptr: ptr as *const u8,
                len,
            })
        }

        pub(super) fn bytes(&self) -> &[u8] {
            // SAFETY: `ptr` is a successful PROT_READ mapping of
            // exactly `len` bytes, unmapped only in Drop.
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }
    }

    impl Drop for Mapping {
        fn drop(&mut self) {
            // SAFETY: `ptr`/`len` came from a successful mmap and are
            // unmapped exactly once. Failure is ignored: the region is
            // leaked, never reused.
            unsafe {
                munmap(self.ptr as *mut c_void, self.len);
            }
        }
    }

    // SAFETY: the mapping is read-only for its entire lifetime, so
    // shared references to its bytes are valid from any thread.
    unsafe impl Send for Mapping {}
    // SAFETY: as for `Send`: nothing ever writes the mapped bytes.
    unsafe impl Sync for Mapping {}
}

/// Bytes in one huge page: an array at least this large earns a
/// [`HugeSlice`] of its own. A property of the x86-64 page tables, not
/// a tuning knob.
pub(crate) const HUGE_PAGE: usize = 2 << 20;

/// Anonymous huge-page mappings, on x86-64 Linux only: there a page is
/// always 4 KiB and a huge page 2 MiB, and the flag values below are
/// the ones this module can vouch for offline.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod anon {
    use std::ffi::{c_int, c_void};

    use super::HUGE_PAGE;

    const PAGE: usize = 4096;
    const PROT_READ_WRITE: c_int = 0x1 | 0x2;
    const MAP_PRIVATE_ANONYMOUS: c_int = 0x02 | 0x20;
    const MADV_HUGEPAGE: c_int = 14;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            length: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, length: usize) -> c_int;
        fn madvise(addr: *mut c_void, length: usize, advice: c_int) -> c_int;
    }

    /// An owned private read-write anonymous mapping: zeroed, starting
    /// on a huge-page boundary, `len` bytes rounded up to whole pages.
    pub(super) struct Region {
        ptr: *mut u8,
        len: usize,
        advised: bool,
    }

    impl Region {
        /// Map `len > 0` zeroed bytes, or `None` if the kernel refuses.
        ///
        /// The kernel backs a huge page only where a whole aligned 2 MiB
        /// lies inside the mapping, so the start is aligned by hand: map
        /// one huge page more than needed, then unmap the slack on both
        /// sides. The end is not rounded up to a huge page: the partial
        /// last one stays on 4 KiB pages, so resident memory grows by
        /// what is written and no more.
        pub(super) fn new(len: usize) -> Option<Self> {
            let len = len.checked_next_multiple_of(PAGE)?;
            let reserve = len.checked_add(HUGE_PAGE)?;
            // SAFETY: a NULL addr with MAP_PRIVATE | MAP_ANONYMOUS and
            // fd -1 asks for fresh zeroed memory at a place the kernel
            // picks; failure is MAP_FAILED (-1), checked below.
            let base = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    reserve,
                    PROT_READ_WRITE,
                    MAP_PRIVATE_ANONYMOUS,
                    -1,
                    0,
                )
            };
            if base as isize == -1 || base.is_null() {
                return None;
            }
            let head = (base as usize).next_multiple_of(HUGE_PAGE) - base as usize;
            let tail = reserve - head - len;
            let ptr = base.cast::<u8>().wrapping_add(head);
            // SAFETY: `head` and `tail` are multiples of the page size
            // (the mapping, HUGE_PAGE and `len` all are), and the two
            // ranges lie inside the reservation outside `ptr..ptr + len`,
            // which nothing else refers to. A failed unmap only leaves
            // unused address space reserved.
            unsafe {
                if head > 0 {
                    munmap(base, head);
                }
                if tail > 0 {
                    munmap(ptr.wrapping_add(len).cast(), tail);
                }
            }
            // SAFETY: `ptr..ptr + len` is a live mapping this function
            // owns; the advice changes how it is backed, not its bytes.
            let advised = unsafe { madvise(ptr.cast(), len, MADV_HUGEPAGE) } == 0;
            Some(Self { ptr, len, advised })
        }

        pub(super) fn ptr(&self) -> *mut u8 {
            self.ptr
        }

        pub(super) fn advised(&self) -> bool {
            self.advised
        }
    }

    impl Drop for Region {
        fn drop(&mut self) {
            // SAFETY: `ptr`/`len` are the mapping `new` kept, unmapped
            // exactly once. Failure is ignored: the region is leaked,
            // never reused.
            unsafe {
                munmap(self.ptr.cast(), self.len);
            }
        }
    }
}

/// Off x86-64 Linux there is no anonymous mapping: no `Region` can
/// exist, and every [`HugeSlice`] constructor returns `None`.
#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod anon {
    pub(super) enum Region {}

    impl Region {
        pub(super) fn new(_len: usize) -> Option<Self> {
            None
        }

        pub(super) fn ptr(&self) -> *mut u8 {
            match *self {}
        }

        pub(super) fn advised(&self) -> bool {
            match *self {}
        }
    }
}

/// `len` elements of `T` in an anonymous mapping of their own, advised
/// `MADV_HUGEPAGE` before the first write and unmapped on drop: the
/// backing `KeyStore` gives every key array of at least [`HUGE_PAGE`]
/// bytes. Only for element types without drop glue (the mapping is
/// unmapped without dropping its elements) and at most page alignment.
pub(crate) struct HugeSlice<T> {
    region: anon::Region,
    len: usize,
    _elems: PhantomData<T>,
}

impl<T> HugeSlice<T> {
    /// A zeroed mapping for `len` elements, or `None` when `T` cannot
    /// live in one, the array is under [`HUGE_PAGE`] bytes, the target
    /// has no anonymous mapping, or the kernel refuses.
    fn region_for(len: usize) -> Option<anon::Region> {
        if std::mem::needs_drop::<T>() || std::mem::align_of::<T>() > HUGE_PAGE {
            return None;
        }
        let bytes = len.checked_mul(std::mem::size_of::<T>())?;
        if bytes < HUGE_PAGE {
            return None;
        }
        anon::Region::new(bytes)
    }

    /// Move `data`'s elements into a mapping of their own, or hand
    /// `data` back untouched when [`HugeSlice::region_for`] says no.
    pub(crate) fn from_vec(data: Vec<T>) -> Result<Self, Vec<T>> {
        let Some(region) = Self::region_for(data.len()) else {
            return Err(data);
        };
        let len = data.len();
        // SAFETY: the region holds at least `len * size_of::<T>()`
        // bytes, starts on a huge-page boundary (aligned for `T`, as
        // `region_for` checked), and cannot overlap the vector's heap
        // buffer.
        unsafe {
            std::ptr::copy_nonoverlapping(data.as_ptr(), region.ptr().cast::<T>(), len);
        }
        // The elements now live in the region. `T` has no drop glue, so
        // dropping the vector frees its buffer and runs nothing on them.
        drop(data);
        Ok(Self {
            region,
            len,
            _elems: PhantomData,
        })
    }

    #[inline]
    pub(crate) fn as_slice(&self) -> &[T] {
        // SAFETY: `region` holds `len` initialised, aligned `T`s, moved
        // in by `from_vec` or, for `zeroed` (`u64` only), zero bytes,
        // which are a valid `u64`; it lives as long as `&self`.
        unsafe { std::slice::from_raw_parts(self.region.ptr().cast::<T>(), self.len) }
    }

    /// Whether the kernel accepted the `MADV_HUGEPAGE` advice. Whether
    /// it then backs the region with huge pages depends on free memory.
    pub(crate) fn advised(&self) -> bool {
        self.region.advised()
    }
}

impl HugeSlice<u64> {
    /// `len` zeroed `u64`s, to be written through
    /// [`HugeSlice::as_mut_slice`]; `None` as for `from_vec`.
    pub(crate) fn zeroed(len: usize) -> Option<Self> {
        Some(Self {
            region: Self::region_for(len)?,
            len,
            _elems: PhantomData,
        })
    }

    pub(crate) fn as_mut_slice(&mut self) -> &mut [u64] {
        // SAFETY: as for `as_slice`; `&mut self` makes the borrow
        // unique, and every bit pattern (zero included) is a `u64`.
        unsafe { std::slice::from_raw_parts_mut(self.region.ptr().cast::<u64>(), self.len) }
    }
}

// SAFETY: a `HugeSlice<T>` owns its `T`s the way a `Vec<T>` does: the
// mapping is reached only through it, so it may move to another thread
// whenever `T` may.
unsafe impl<T: Send> Send for HugeSlice<T> {}
// SAFETY: shared access only hands out `&[T]`, which is thread-safe
// exactly when `T: Sync`.
unsafe impl<T: Sync> Sync for HugeSlice<T> {}

/// Start loading the cache line that holds `slice[index]` into every
/// cache level, and return at once: a hint, so the caller can overlap
/// the DRAM fetch with other work before it reads the element. A no-op
/// when `index >= slice.len()` and off x86-64.
#[inline]
pub fn prefetch<T>(slice: &[T], index: usize) {
    #[cfg(target_arch = "x86_64")]
    if let Some(item) = slice.get(index) {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: SSE, which the intrinsic needs, is part of every
        // x86-64 CPU, and a prefetch of a valid address neither faults
        // nor changes memory.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(std::ptr::from_ref(item).cast()) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (slice, index);
}

enum Inner {
    #[cfg(all(
        feature = "mmap",
        unix,
        target_pointer_width = "64",
        target_endian = "little"
    ))]
    Mapped(sys::Mapping),
    Owned(Box<[u8]>),
}

/// An immutable byte region loaded from a file — `mmap(2)`-backed where
/// the target supports it (feature `mmap`, 64-bit little-endian unix),
/// an owned buffered read everywhere else. Either way the bytes are
/// read-only and live until the last [`Arc<MappedFile>`] handle drops,
/// which is what lets `KeyStore` hand out zero-copy `u64` views into
/// the region.
///
/// # Caller contract
/// The file must not be truncated or rewritten while mapped: on unix a
/// truncation under a live mapping turns reads into `SIGBUS`. The
/// persistence layer guarantees this by publishing snapshot files
/// atomically (write to a temp name, then rename) and never mutating
/// them in place.
pub struct MappedFile {
    inner: Inner,
}

impl MappedFile {
    /// Load `path` as an immutable region. Empty files and targets (or
    /// mapping failures) without real `mmap` fall back to an owned
    /// read; the caller-visible behavior is identical.
    pub fn open(path: &Path) -> io::Result<Self> {
        let mut file = File::open(path)?;
        let meta_len = file.metadata()?.len();
        if meta_len == 0 {
            return Ok(Self {
                inner: Inner::Owned(Box::default()),
            });
        }
        let len = usize::try_from(meta_len).map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidData, "file exceeds address space")
        })?;

        #[cfg(all(
            feature = "mmap",
            unix,
            target_pointer_width = "64",
            target_endian = "little"
        ))]
        if let Ok(mapping) = sys::Mapping::map(&file, len) {
            return Ok(Self {
                inner: Inner::Mapped(mapping),
            });
        }

        let mut buf = Vec::with_capacity(len);
        file.read_to_end(&mut buf)?;
        Ok(Self {
            inner: Inner::Owned(buf.into_boxed_slice()),
        })
    }

    /// The region's bytes.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        match &self.inner {
            #[cfg(all(
                feature = "mmap",
                unix,
                target_pointer_width = "64",
                target_endian = "little"
            ))]
            Inner::Mapped(m) => m.bytes(),
            Inner::Owned(b) => b,
        }
    }

    /// Region length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.bytes().len()
    }

    /// Whether the region is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bytes().is_empty()
    }

    /// Whether the region is a real `mmap(2)` mapping (false for the
    /// owned-read fallback). Purely informational — e.g. for the
    /// persistence bench report.
    pub fn is_mmapped(&self) -> bool {
        match &self.inner {
            #[cfg(all(
                feature = "mmap",
                unix,
                target_pointer_width = "64",
                target_endian = "little"
            ))]
            Inner::Mapped(_) => true,
            Inner::Owned(_) => false,
        }
    }
}

impl std::fmt::Debug for MappedFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappedFile")
            .field("len", &self.len())
            .field("mmapped", &self.is_mmapped())
            .finish()
    }
}

/// A typed zero-copy view of `len` elements inside a shared
/// [`MappedFile`] region. Only ever constructed for `T = u64` (see
/// [`MappedSlice::try_new`]); the `Arc` keeps the region — and thus the
/// mapping — alive for as long as any view exists.
pub(crate) struct MappedSlice<T> {
    region: Arc<MappedFile>,
    ptr: *const T,
    len: usize,
}

impl MappedSlice<u64> {
    /// A zero-copy little-endian `u64` view of `len` elements starting
    /// at `byte_offset`. Returns `None` when reinterpreting the bytes
    /// in place would be unsound or wrong — out of bounds, misaligned
    /// start, or a big-endian host — in which case the caller decodes
    /// an owned copy instead.
    pub(crate) fn try_new(
        region: &Arc<MappedFile>,
        byte_offset: usize,
        len: usize,
    ) -> Option<Self> {
        let bytes = region.bytes();
        let nbytes = len.checked_mul(std::mem::size_of::<u64>())?;
        let end = byte_offset.checked_add(nbytes)?;
        if end > bytes.len() || cfg!(target_endian = "big") {
            return None;
        }
        let ptr = bytes[byte_offset..].as_ptr();
        if !(ptr as usize).is_multiple_of(std::mem::align_of::<u64>()) {
            return None;
        }
        Some(Self {
            region: Arc::clone(region),
            ptr: ptr.cast(),
            len,
        })
    }
}

impl<T> MappedSlice<T> {
    #[inline]
    pub(crate) fn as_slice(&self) -> &[T] {
        // SAFETY: only `try_new` constructs this type, and it verified
        // that [`ptr`, `ptr + len * size_of::<T>()`) lies inside the
        // region's byte buffer with `T`'s alignment; the Arc keeps the
        // region alive for `&self`'s lifetime; the only instantiated
        // `T` is `u64`, valid for every bit pattern.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    pub(crate) fn region(&self) -> &Arc<MappedFile> {
        &self.region
    }
}

impl<T> Clone for MappedSlice<T> {
    fn clone(&self) -> Self {
        Self {
            region: Arc::clone(&self.region),
            ptr: self.ptr,
            len: self.len,
        }
    }
}

// SAFETY: the view is read-only and the underlying region is immutable
// and thread-safe (`MappedFile` bytes never change after open), so the
// raw pointer may travel across threads and be read from any of them.
// `T: Sync` is required because shared `&[T]` slices are handed out.
unsafe impl<T: Sync> Send for MappedSlice<T> {}
// SAFETY: as for `Send`: shared `&[T]` views of an immutable region are
// thread-safe exactly when `T: Sync`.
unsafe impl<T: Sync> Sync for MappedSlice<T> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("li-index-mapped-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn open_reads_back_written_bytes() {
        let path = tmp_path("roundtrip");
        let payload: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        std::fs::write(&path, &payload).unwrap();
        let region = MappedFile::open(&path).unwrap();
        assert_eq!(region.bytes(), &payload[..]);
        assert_eq!(region.len(), payload.len());
        assert!(!region.is_empty());
        drop(region);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_file_maps_to_empty_region() {
        let path = tmp_path("empty");
        std::fs::write(&path, b"").unwrap();
        let region = MappedFile::open(&path).unwrap();
        assert!(region.is_empty());
        assert!(!region.is_mmapped(), "empty files use the owned path");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_an_error() {
        assert!(MappedFile::open(&tmp_path("does-not-exist")).is_err());
    }

    #[test]
    fn u64_view_decodes_little_endian_payload() {
        let path = tmp_path("u64s");
        let keys: Vec<u64> = vec![0, 1, 1 << 53, u64::MAX - 1, u64::MAX];
        let mut bytes = Vec::new();
        for k in &keys {
            bytes.extend_from_slice(&k.to_le_bytes());
        }
        std::fs::write(&path, &bytes).unwrap();
        let region = Arc::new(MappedFile::open(&path).unwrap());
        let view = MappedSlice::try_new(&region, 0, keys.len()).expect("aligned view");
        assert_eq!(view.as_slice(), &keys[..]);
        assert!(Arc::ptr_eq(view.region(), &region));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn out_of_bounds_view_is_rejected() {
        let path = tmp_path("oob");
        std::fs::write(&path, [0u8; 16]).unwrap();
        let region = Arc::new(MappedFile::open(&path).unwrap());
        assert!(MappedSlice::try_new(&region, 0, 3).is_none());
        assert!(MappedSlice::try_new(&region, 16, 1).is_none());
        assert!(MappedSlice::try_new(&region, usize::MAX, 1).is_none());
        assert!(MappedSlice::try_new(&region, 0, usize::MAX).is_none());
        std::fs::remove_file(&path).unwrap();
    }
}
