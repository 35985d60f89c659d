//! Immutable sorted runs — the middle tier of the LSM-style write path.
//!
//! When a [`DeltaIndex`](crate::delta::DeltaIndex) buffer fills it is
//! *sealed* into a [`SortedRun`] instead of being merged into the base:
//! the keys are frozen as-is and every [`FENCE`]-th key is
//! copied into a small fence array in one O(run) pass. Sealing never
//! retrains the base RMI — that cost is deferred to compaction, which
//! merges full run stacks into one run and folds the run tier into the
//! base with a single retrain once it is big enough. This is exactly the
//! memtable-flush / SSTable split LSM-trees use, applied to the paper's
//! delta-buffer insert path (Appendix D.1).
//!
//! A probe binary-searches the fence array, then the one block of at
//! most [`FENCE`] keys the fences bracket. The window is bounded by
//! construction, whatever the keys look like. A learned model does not
//! pay here: a run is a sample of its shard's keys, so its CDF is the
//! base's, which one line fits badly — over a 31 k-key `BooksLike` run a
//! fitted line's maximum error is about 10 % of the run, a search window
//! of 6 k keys, and probes cost 1.5–3× the fenced search at 1 k to 64 k
//! keys (EXPERIMENTS.md, "Run merging"). The base keeps its RMI, which
//! routes to many leaf models instead of one. Sealing trains nothing
//! ([`crate::rmi::train_count`] stays flat), so the persistence layer
//! rebuilds fences on load while still proving the base was never
//! retrained.

use std::sync::Arc;

/// Keys per fenced block: a probe searches at most this many keys (two
/// cache lines) after the fence search, and the fences cost one key per
/// `FENCE` keys of the run.
pub const FENCE: usize = 16;

/// An immutable sorted unique key run with a fence index.
///
/// Runs are born from sealing a full delta buffer (or from merging a
/// full run stack) and are shared via `Arc` between the live index and
/// its snapshots, which is what makes multi-tier snapshots torn-free:
/// once sealed, a run never changes.
///
/// # Examples
/// ```
/// use li_core::run::SortedRun;
///
/// let run = SortedRun::seal(vec![10u64, 20, 30, 40]);
/// assert_eq!(run.len(), 4);
/// assert!(run.contains(30));
/// assert_eq!(run.lower_bound(25), 2);
/// assert_eq!(run.range(15, 35), &[20, 30]);
/// ```
#[derive(Debug, Clone)]
pub struct SortedRun {
    keys: Arc<[u64]>,
    /// `keys[0], keys[FENCE], keys[2 · FENCE], …`
    fences: Box<[u64]>,
}

impl SortedRun {
    /// Seal sorted unique `keys` into an immutable run, copying every
    /// [`FENCE`]-th key into the fence array. O(keys / FENCE) beyond
    /// taking the keys — never a base retrain, and not a training event
    /// for [`crate::rmi::train_count`].
    ///
    /// # Panics
    /// In debug builds, if `keys` is not strictly sorted.
    ///
    /// # Examples
    /// ```
    /// use li_core::run::SortedRun;
    ///
    /// let before = li_core::train_count();
    /// let run = SortedRun::seal(vec![1u64, 5, 9]);
    /// assert_eq!(li_core::train_count(), before, "sealing never trains");
    /// assert_eq!(run.as_slice(), &[1, 5, 9]);
    /// ```
    pub fn seal(keys: impl Into<Arc<[u64]>>) -> Self {
        let keys: Arc<[u64]> = keys.into();
        debug_assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "a run must be sorted unique"
        );
        let fences = keys.iter().step_by(FENCE).copied().collect();
        Self { keys, fences }
    }

    /// Number of keys in the run.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the run holds no keys.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The run's keys, sorted unique.
    pub fn as_slice(&self) -> &[u64] {
        &self.keys
    }

    /// Index of the first key `>= key` (the run-local lower-bound rank):
    /// the fences below `key` name the one block of at most [`FENCE`]
    /// keys that can hold the answer, and only that block is searched.
    ///
    /// # Examples
    /// ```
    /// use li_core::run::SortedRun;
    ///
    /// let run = SortedRun::seal(vec![10u64, 20, 30]);
    /// assert_eq!(run.lower_bound(0), 0);
    /// assert_eq!(run.lower_bound(20), 1);
    /// assert_eq!(run.lower_bound(21), 2);
    /// assert_eq!(run.lower_bound(u64::MAX), 3);
    /// ```
    pub fn lower_bound(&self, key: u64) -> usize {
        // `f` fences are below `key`: keys[(f - 1) · FENCE] < key, and
        // keys[f · FENCE] >= key when that fence exists.
        let f = self.fences.partition_point(|&k| k < key);
        let lo = f.saturating_sub(1) * FENCE;
        let hi = (f * FENCE).min(self.keys.len());
        lo + self.keys[lo..hi].partition_point(|&k| k < key)
    }

    /// Whether `key` is in the run (one fenced probe).
    pub fn contains(&self, key: u64) -> bool {
        let at = self.lower_bound(key);
        self.keys.get(at) == Some(&key)
    }

    /// All run keys in `[lo, hi)` as a sorted subslice (zero-copy). One
    /// fenced probe finds `lo`; the end is found by walking forward,
    /// which costs one compare per key returned — less than a second
    /// probe for the few keys a short scan takes from a run.
    pub fn range(&self, lo: u64, hi: u64) -> &[u64] {
        if lo >= hi {
            return &[];
        }
        let from = &self.keys[self.lower_bound(lo)..];
        &from[..from.iter().position(|&k| k >= hi).unwrap_or(from.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_probes_exactly() {
        let keys: Vec<u64> = (0..500u64).map(|i| i * i * 7 + 3).collect();
        let run = SortedRun::seal(keys.clone());
        assert_eq!(run.len(), 500);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(run.lower_bound(k), i, "key {k}");
            assert!(run.contains(k));
            assert!(!run.contains(k + 1) || keys.binary_search(&(k + 1)).is_ok());
        }
    }

    #[test]
    fn lower_bound_matches_partition_point_for_arbitrary_queries() {
        let keys: Vec<u64> = (0..300u64).map(|i| i * 1000 + (i % 7) * 13).collect();
        let run = SortedRun::seal(keys.clone());
        for q in (0..310_000u64).step_by(311) {
            assert_eq!(
                run.lower_bound(q),
                keys.partition_point(|&k| k < q),
                "q={q}"
            );
        }
        assert_eq!(run.lower_bound(u64::MAX), keys.len());
        assert_eq!(run.lower_bound(0), 0);
    }

    /// Every length around a block boundary, queried at every key and
    /// every gap: the last block may be partial, and the answer may sit
    /// on a fence, just past one, or past the end.
    #[test]
    fn lower_bound_is_exact_at_every_block_boundary() {
        for n in [
            1usize,
            2,
            FENCE - 1,
            FENCE,
            FENCE + 1,
            2 * FENCE,
            3 * FENCE + 5,
        ] {
            let keys: Vec<u64> = (0..n as u64).map(|i| i * 2 + 1).collect();
            let run = SortedRun::seal(keys.clone());
            for q in 0..=2 * n as u64 + 1 {
                assert_eq!(
                    run.lower_bound(q),
                    keys.partition_point(|&k| k < q),
                    "n={n} q={q}"
                );
            }
        }
    }

    #[test]
    fn empty_and_singleton_runs() {
        let empty = SortedRun::seal(Vec::<u64>::new());
        assert!(empty.is_empty());
        assert_eq!(empty.lower_bound(5), 0);
        assert!(!empty.contains(5));
        assert_eq!(empty.range(0, u64::MAX), &[] as &[u64]);

        let one = SortedRun::seal(vec![42u64]);
        assert_eq!(one.lower_bound(41), 0);
        assert_eq!(one.lower_bound(42), 0);
        assert_eq!(one.lower_bound(43), 1);
        assert!(one.contains(42) && !one.contains(43));
    }

    #[test]
    fn extreme_keys_stay_exact() {
        let keys = vec![0u64, 1, u64::MAX - 1, u64::MAX];
        let run = SortedRun::seal(keys.clone());
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(run.lower_bound(k), i, "key {k}");
            assert!(run.contains(k));
        }
        assert_eq!(run.lower_bound(2), 2);
        assert!(!run.contains(2));
    }

    #[test]
    fn range_is_a_correct_subslice() {
        let keys: Vec<u64> = (0..100u64).map(|i| i * 10).collect();
        let run = SortedRun::seal(keys);
        assert_eq!(run.range(15, 45), &[20, 30, 40]);
        assert_eq!(run.range(0, 1), &[0]);
        assert_eq!(run.range(995, u64::MAX), &[]);
        assert_eq!(run.range(50, 50), &[]);
        assert_eq!(run.range(60, 50), &[]);
    }

    #[test]
    fn sealing_is_not_a_training_event() {
        let before = crate::rmi::train_count();
        let _run = SortedRun::seal((0..10_000u64).collect::<Vec<_>>());
        assert_eq!(crate::rmi::train_count(), before);
    }
}
