//! The shared, read-only key store every index is built over.
//!
//! The paper's §3 framing — indexes are interchangeable models over one
//! sorted array — implies the array itself should exist exactly once, no
//! matter how many candidate indexes are built on it (LIF grid search
//! builds dozens). SOSD-style benchmarking makes the same demand: fair
//! comparison requires every structure to read the *same* memory.
//! [`KeyStore`] delivers that: a shared backing (an `Arc<[T]>`, a
//! huge-page mapping for arrays of 2 MiB or more, or a mapped file
//! region for warm restarts) plus a sub-range, so clones and slices are
//! O(1) pointer bumps and `ptr_eq` can assert that two indexes really
//! do share one allocation.

use std::ops::{Deref, Range};
use std::sync::Arc;

use crate::mapped::{HugeSlice, MappedFile, MappedSlice};

/// The shared storage behind a [`KeyStore`] view: a heap allocation, a
/// huge-page mapping, or a zero-copy window into a loaded snapshot
/// file. All are immutable and refcounted; `KeyStore` never branches on
/// which one it holds outside this enum.
enum Backing<T> {
    /// The in-memory case: one `Arc<[T]>` shared by every clone/slice.
    Owned(Arc<[T]>),
    /// The in-memory case for arrays of at least [`HUGE_PAGE`] bytes:
    /// an anonymous mapping of their own, advised onto huge pages, so a
    /// lookup's access into a large array costs one TLB entry per
    /// 2 MiB instead of one per 4 KiB. Shared like `Owned`.
    ///
    /// [`HUGE_PAGE`]: crate::mapped::HUGE_PAGE
    Huge(Arc<HugeSlice<T>>),
    /// The warm-restart case: a typed view into an `Arc<MappedFile>`
    /// region (see `KeyStore::from_mapped`). Sharing is witnessed by
    /// the region handle instead of the slice allocation.
    Mapped(MappedSlice<T>),
}

impl<T> Backing<T> {
    #[inline]
    fn full_slice(&self) -> &[T] {
        match self {
            Backing::Owned(data) => data,
            Backing::Huge(data) => data.as_slice(),
            Backing::Mapped(view) => view.as_slice(),
        }
    }

    fn ptr_eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Backing::Owned(a), Backing::Owned(b)) => Arc::ptr_eq(a, b),
            (Backing::Huge(a), Backing::Huge(b)) => Arc::ptr_eq(a, b),
            (Backing::Mapped(a), Backing::Mapped(b)) => Arc::ptr_eq(a.region(), b.region()),
            _ => false,
        }
    }

    fn strong_count(&self) -> usize {
        match self {
            Backing::Owned(data) => Arc::strong_count(data),
            Backing::Huge(data) => Arc::strong_count(data),
            Backing::Mapped(view) => Arc::strong_count(view.region()),
        }
    }
}

impl<T> Clone for Backing<T> {
    fn clone(&self) -> Self {
        match self {
            Backing::Owned(data) => Backing::Owned(Arc::clone(data)),
            Backing::Huge(data) => Backing::Huge(Arc::clone(data)),
            Backing::Mapped(view) => Backing::Mapped(view.clone()),
        }
    }
}

/// A cheaply clonable, read-only view over a shared sorted key array.
///
/// Defaults to `u64` keys (the workspace's common case); string indexes
/// use `KeyStore<String>`. Cloning never copies key data; [`slice`]
/// produces a narrowed view over the *same* allocation (used by hybrid
/// B-Tree leaves, which index a sub-range of the full array). The
/// backing is an owned heap allocation, a huge-page mapping (an owned
/// array of 2 MiB or more, see [`KeyStore::new`]) or — after a warm
/// restart via [`KeyStore::from_mapped`] — a window into a mapped
/// snapshot file; every operation behaves identically over all three.
///
/// [`slice`]: KeyStore::slice
pub struct KeyStore<T = u64> {
    data: Backing<T>,
    start: usize,
    end: usize,
}

impl<T> Clone for KeyStore<T> {
    fn clone(&self) -> Self {
        Self {
            data: self.data.clone(),
            start: self.start,
            end: self.end,
        }
    }
}

impl<T> KeyStore<T> {
    /// Take over an owned key vector (the one unavoidable copy; every
    /// clone and slice afterwards is free).
    ///
    /// An array of at least one huge page (2 MiB: 262 144 `u64`s) moves
    /// into an anonymous mapping of its own, advised `MADV_HUGEPAGE`
    /// before the copy writes it, so a lookup into it needs one TLB
    /// entry per 2 MiB instead of one per 4 KiB: a 128 MB array needs
    /// 64 instead of 32 768. Smaller arrays, element types that need
    /// drop (`String`), targets other than x86-64 Linux and a refused
    /// mapping get an `Arc<[T]>`. The size is the only input: the
    /// page size is a property of the array, not of a workload.
    pub fn new(data: Vec<T>) -> Self {
        let end = data.len();
        let data = match HugeSlice::from_vec(data) {
            Ok(huge) => Backing::Huge(Arc::new(huge)),
            Err(data) => Backing::Owned(data.into()),
        };
        Self {
            data,
            start: 0,
            end,
        }
    }

    /// The keys this view addresses.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data.full_slice()[self.start..self.end]
    }

    /// Number of keys in this view.
    #[inline]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether this view is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A narrowed view over the same allocation — zero-copy. `range` is
    /// relative to this view.
    pub fn slice(&self, range: Range<usize>) -> Self {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "slice {range:?} out of bounds for KeyStore of len {}",
            self.len()
        );
        Self {
            data: self.data.clone(),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }

    /// Bytes of key data addressed by this view (shallow: for heap-owning
    /// key types such as `String` this counts the inline part only).
    pub fn size_bytes(&self) -> usize {
        self.len() * std::mem::size_of::<T>()
    }

    /// Whether two stores share the same underlying allocation (views
    /// over different ranges of one array still compare equal here —
    /// this is the zero-copy witness, not value equality). For mapped
    /// stores, "same allocation" means the same file region; an owned
    /// store never compares equal to a mapped one.
    pub fn ptr_eq(&self, other: &Self) -> bool {
        self.data.ptr_eq(&other.data)
    }

    /// Number of `KeyStore` handles sharing this allocation (for mapped
    /// stores: handles on the shared file region, including any the
    /// caller holds directly).
    pub fn strong_count(&self) -> usize {
        self.data.strong_count()
    }

    /// Whether this view is backed by a mapped snapshot file rather
    /// than memory the process owns (a huge-page mapping is owned).
    pub fn is_mapped(&self) -> bool {
        matches!(self.data, Backing::Mapped(_))
    }
}

impl KeyStore<u64> {
    /// `len` keys written by `fill` into a zeroed array that the store
    /// then owns, backed as [`KeyStore::new`] would back it. A huge-page
    /// mapping arrives zeroed from the kernel, so `fill` is the only
    /// pass that writes it; a small array is zero-filled first.
    ///
    /// # Examples
    /// ```
    /// use li_index::KeyStore;
    ///
    /// let store = KeyStore::filled(4, |out| {
    ///     for (i, k) in out.iter_mut().enumerate() {
    ///         *k = i as u64 * 10;
    ///     }
    /// });
    /// assert_eq!(store.as_slice(), &[0, 10, 20, 30]);
    /// ```
    pub fn filled(len: usize, fill: impl FnOnce(&mut [u64])) -> Self {
        let data = match HugeSlice::zeroed(len) {
            Some(mut huge) => {
                fill(huge.as_mut_slice());
                Backing::Huge(Arc::new(huge))
            }
            None => {
                let mut data: Arc<[u64]> = std::iter::repeat_n(0, len).collect();
                fill(Arc::get_mut(&mut data).expect("a fresh Arc has one owner"));
                Backing::Owned(data)
            }
        };
        Self {
            data,
            start: 0,
            end: len,
        }
    }

    /// A zero-copy view of `len` little-endian `u64` keys starting at
    /// `byte_offset` in a loaded snapshot region — the warm-restart
    /// constructor: no key is copied; the view reads the file's pages
    /// directly and keeps the region alive via its `Arc`.
    ///
    /// Falls back to decoding an owned copy only when in-place
    /// reinterpretation would be unsound or wrong (misaligned offset,
    /// big-endian host) — never silently misreads bytes.
    ///
    /// # Errors
    /// If `[byte_offset, byte_offset + len * 8)` does not lie within
    /// the region.
    pub fn from_mapped(
        region: &Arc<MappedFile>,
        byte_offset: usize,
        len: usize,
    ) -> std::io::Result<Self> {
        let nbytes = len
            .checked_mul(std::mem::size_of::<u64>())
            .and_then(|n| n.checked_add(byte_offset))
            .filter(|&end| end <= region.len())
            .ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!(
                        "key range [{byte_offset}, +{len}*8) out of bounds for region of {} bytes",
                        region.len()
                    ),
                )
            })?;
        if let Some(view) = MappedSlice::try_new(region, byte_offset, len) {
            return Ok(Self {
                data: Backing::Mapped(view),
                start: 0,
                end: len,
            });
        }
        // Misaligned or big-endian: decode a faithful owned copy.
        let bytes = &region.bytes()[byte_offset..nbytes];
        let keys: Vec<u64> = bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("chunks_exact(8)")))
            .collect();
        Ok(Self::new(keys))
    }
}

impl<T> Deref for KeyStore<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T> From<Vec<T>> for KeyStore<T> {
    fn from(data: Vec<T>) -> Self {
        Self::new(data)
    }
}

impl<T> From<Arc<[T]>> for KeyStore<T> {
    fn from(data: Arc<[T]>) -> Self {
        let end = data.len();
        Self {
            data: Backing::Owned(data),
            start: 0,
            end,
        }
    }
}

impl<T: Clone> From<&[T]> for KeyStore<T> {
    fn from(data: &[T]) -> Self {
        Self::new(data.to_vec())
    }
}

impl<T: Clone> From<&Vec<T>> for KeyStore<T> {
    fn from(data: &Vec<T>) -> Self {
        Self::new(data.clone())
    }
}

impl<T> FromIterator<T> for KeyStore<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Self::new(iter.into_iter().collect())
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for KeyStore<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyStore")
            .field("len", &self.len())
            .field("start", &self.start)
            .field("shared_handles", &self.strong_count())
            .field(
                "backing",
                match &self.data {
                    Backing::Owned(_) => &"owned",
                    Backing::Huge(huge) if huge.advised() => &"huge",
                    Backing::Huge(_) => &"huge (advice refused)",
                    Backing::Mapped(_) => &"mapped",
                },
            )
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_the_allocation() {
        let store = KeyStore::new(vec![1u64, 2, 3]);
        let a = store.clone();
        let b = store.clone();
        assert!(a.ptr_eq(&b));
        assert!(a.ptr_eq(&store));
        assert_eq!(store.strong_count(), 3);
        assert_eq!(a.as_slice(), &[1, 2, 3]);
    }

    #[test]
    fn slice_is_a_zero_copy_view() {
        let store = KeyStore::new((0..100u64).collect());
        let mid = store.slice(10..20);
        assert!(mid.ptr_eq(&store));
        assert_eq!(mid.as_slice(), &(10..20).collect::<Vec<u64>>()[..]);
        // Slicing a slice composes.
        let inner = mid.slice(2..5);
        assert_eq!(inner.as_slice(), &[12, 13, 14]);
        assert!(inner.ptr_eq(&store));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        KeyStore::new(vec![1u64]).slice(0..2);
    }

    #[test]
    fn size_bytes_counts_the_view_not_the_allocation() {
        let store: KeyStore = (0..64u64).collect();
        assert_eq!(store.size_bytes(), 64 * 8);
        assert_eq!(store.slice(0..8).size_bytes(), 8 * 8);
    }

    #[test]
    fn conversions_cover_common_sources() {
        let v = vec![5u64, 6];
        let from_ref: KeyStore = (&v).into();
        let from_slice: KeyStore = v.as_slice().into();
        let from_vec: KeyStore = v.into();
        for s in [&from_ref, &from_slice, &from_vec] {
            assert_eq!(s.as_slice(), &[5, 6]);
        }
        // Conversions from borrowed data copy once; they do not share.
        assert!(!from_ref.ptr_eq(&from_vec));
    }

    #[test]
    fn generic_string_store_works() {
        let store: KeyStore<String> = vec!["a".to_string(), "b".to_string()].into();
        assert_eq!(store.len(), 2);
        assert_eq!(&store[0], "a");
        assert!(store.clone().ptr_eq(&store));
    }

    #[test]
    fn deref_gives_slice_methods() {
        let store = KeyStore::new(vec![1u64, 3, 5]);
        assert_eq!(store.partition_point(|&k| k < 4), 2);
        assert!(!store.is_empty());
        assert_eq!(store.len(), 3);
    }

    /// Whether this machine's kernel takes `MADV_HUGEPAGE` advice on
    /// anonymous memory (transparent huge pages `always` or `madvise`).
    fn thp_takes_advice() -> bool {
        std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled")
            .is_ok_and(|mode| mode.contains("[always]") || mode.contains("[madvise]"))
    }

    #[test]
    fn large_arrays_get_a_huge_page_mapping_that_behaves_like_an_arc() {
        const PER_HUGE_PAGE: usize = crate::mapped::HUGE_PAGE / 8;
        let sizes = [
            PER_HUGE_PAGE - 1,
            PER_HUGE_PAGE,
            PER_HUGE_PAGE + 1,
            3 * PER_HUGE_PAGE + 5,
        ];
        for len in sizes {
            let keys: Vec<u64> = (0..len as u64).map(|k| k * 3 + 1).collect();
            let arc = KeyStore::from(Arc::<[u64]>::from(keys.as_slice()));
            let built = KeyStore::new(keys.clone());
            let folded = KeyStore::filled(len, |out| out.copy_from_slice(&keys));
            for store in [&built, &folded] {
                let huge = match &store.data {
                    Backing::Huge(huge) => Some(huge),
                    Backing::Owned(_) => None,
                    Backing::Mapped(_) => panic!("an owned array is never file-mapped"),
                };
                if cfg!(all(target_os = "linux", target_arch = "x86_64")) {
                    assert_eq!(huge.is_some(), len >= PER_HUGE_PAGE, "backing at len {len}");
                }
                if let Some(huge) = huge {
                    // Whether the kernel then grants huge pages depends
                    // on free memory; only the advice is asserted.
                    assert!(huge.advised() || !thp_takes_advice(), "advice refused");
                }
                assert!(!store.is_mapped());
                assert_eq!(store.as_slice(), arc.as_slice(), "contents at len {len}");
                assert_eq!(store.size_bytes(), arc.size_bytes());
                assert_eq!(store.strong_count(), 1);
                let mid = store.slice(len / 3..len - 1);
                let same = arc.slice(len / 3..len - 1);
                assert_eq!(mid.as_slice(), same.as_slice());
                assert_eq!(mid.size_bytes(), same.size_bytes());
                let clone = store.clone();
                assert!(mid.ptr_eq(store) && clone.ptr_eq(store));
                assert!(!store.ptr_eq(&arc), "no two allocations alias");
                assert_eq!(store.strong_count(), 3, "store, slice and clone");
                drop((mid, clone));
                assert_eq!(store.strong_count(), 1);
            }
            assert!(!built.ptr_eq(&folded));
        }

        // Element types with drop glue keep the `Arc`, whatever their size.
        let strings: KeyStore<String> = vec![String::new(); 3 * PER_HUGE_PAGE].into();
        assert!(matches!(strings.data, Backing::Owned(_)));
        assert!(strings.clone().ptr_eq(&strings));
    }

    fn write_keys(name: &str, keys: &[u64], lead_pad: usize) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("li-index-keystore-{}-{name}", std::process::id()));
        let mut bytes = vec![0u8; lead_pad];
        for k in keys {
            bytes.extend_from_slice(&k.to_le_bytes());
        }
        std::fs::write(&p, &bytes).unwrap();
        p
    }

    #[test]
    fn mapped_store_round_trips_and_shares_the_region() {
        let keys: Vec<u64> = (0..512u64).map(|i| i * 37).collect();
        let path = write_keys("share", &keys, 0);
        let region = Arc::new(MappedFile::open(&path).unwrap());
        let store = KeyStore::from_mapped(&region, 0, keys.len()).unwrap();
        assert_eq!(store.as_slice(), &keys[..]);
        assert!(store.is_mapped());

        // Clones and slices share the region, witnessed like Arc data.
        let clone = store.clone();
        let mid = store.slice(100..200);
        assert!(clone.ptr_eq(&store));
        assert!(mid.ptr_eq(&store));
        assert_eq!(mid.as_slice(), &keys[100..200]);
        // region handle + store + clone + mid.
        assert_eq!(store.strong_count(), 4);

        // An owned store never aliases a mapped one.
        let owned = KeyStore::new(keys.clone());
        assert!(!owned.ptr_eq(&store));
        assert!(!owned.is_mapped());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn misaligned_mapped_store_decodes_a_faithful_copy() {
        let keys: Vec<u64> = vec![3, 1 << 53, u64::MAX];
        let path = write_keys("misaligned", &keys, 3);
        let region = Arc::new(MappedFile::open(&path).unwrap());
        let store = KeyStore::from_mapped(&region, 3, keys.len()).unwrap();
        assert_eq!(store.as_slice(), &keys[..]);
        // Offset 3 cannot be reinterpreted in place.
        assert!(!store.is_mapped());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mapped_store_rejects_out_of_bounds_ranges() {
        let keys: Vec<u64> = vec![1, 2];
        let path = write_keys("oob", &keys, 0);
        let region = Arc::new(MappedFile::open(&path).unwrap());
        assert!(KeyStore::from_mapped(&region, 0, 3).is_err());
        assert!(KeyStore::from_mapped(&region, 8, 2).is_err());
        assert!(KeyStore::from_mapped(&region, usize::MAX, 1).is_err());
        assert!(KeyStore::from_mapped(&region, 0, usize::MAX).is_err());
        std::fs::remove_file(&path).unwrap();
    }
}
