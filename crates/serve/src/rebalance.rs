//! Rebalancing policy for the sharded write path.
//!
//! The policy is a pure function over per-shard observations —
//! [`plan`] looks at shard lengths and the split-on-error signal and
//! proposes at most one [`RebalanceAction`] — so it can be unit-tested
//! exhaustively without touching locks or building indexes. The
//! executor ([`crate::ShardedWritable::rebalance`]) applies actions
//! under the topology write lock and re-plans until the topology is
//! stable.
//!
//! Two stability arguments are designed into the thresholds:
//!
//! * **Split/merge hysteresis** — a split requires more load than a
//!   merge tolerates: a length-triggered split needs
//!   `len > max_shard_len`, while a merge needs the *combined* pair
//!   `<= merge_max_len < max_shard_len`. The two halves of a fresh
//!   split together exceed `max_shard_len`, so they can never be
//!   re-merged by the very next plan.
//! * **Error-split floor** — an error-triggered split additionally
//!   requires `len > merge_max_len`. Without it, a small shard with a
//!   stubbornly bad model could split into a pair that immediately
//!   qualifies as a cold merge candidate, oscillating forever.

/// Thresholds driving shard splits and merges.
///
/// # Examples
/// ```
/// use li_serve::rebalance::{plan, RebalanceAction, RebalanceConfig};
///
/// let cfg = RebalanceConfig {
///     max_shard_len: 100, // split beyond 100 keys
///     merge_max_len: 40,  // merge pairs holding <= 40 keys combined
///     max_mean_err: None, // no error-triggered splits
///     max_shards: 8,
/// };
/// cfg.validate(); // merge_max_len < max_shard_len: no oscillation
///
/// // An overloaded shard splits before a cold pair merges…
/// assert_eq!(
///     plan(&[150, 10, 5], &[false; 3], &cfg),
///     Some(RebalanceAction::Split { shard: 0 })
/// );
/// // …and a balanced topology plans nothing.
/// assert_eq!(plan(&[60, 70], &[false; 2], &cfg), None);
/// ```
#[derive(Debug, Clone)]
pub struct RebalanceConfig {
    /// Split a shard when its key count exceeds this.
    pub max_shard_len: usize,
    /// Merge an adjacent shard pair when their *combined* key count is
    /// at most this. Keep it at most `max_shard_len / 2` so splits and
    /// merges cannot oscillate (see the module docs).
    pub merge_max_len: usize,
    /// Split a shard (regardless of length, but see the error-split
    /// floor) when its base RMI's `RmiStats::mean_abs_err` — a
    /// key-weighted RMS error, despite the name — exceeds this.
    /// `None` disables error-triggered splits.
    pub max_mean_err: Option<f64>,
    /// Hard cap on the shard count; splits stop proposing at the cap.
    pub max_shards: usize,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        Self {
            max_shard_len: 1 << 20,
            merge_max_len: 1 << 18,
            max_mean_err: None,
            max_shards: 64,
        }
    }
}

impl RebalanceConfig {
    /// Panics on configurations that cannot keep the topology stable.
    pub fn validate(&self) {
        assert!(self.max_shard_len >= 2, "max_shard_len must be >= 2");
        assert!(
            self.merge_max_len < self.max_shard_len,
            "merge_max_len must be < max_shard_len (split/merge hysteresis)"
        );
        assert!(self.max_shards >= 1, "max_shards must be >= 1");
        if let Some(t) = self.max_mean_err {
            assert!(t >= 0.0 && t.is_finite(), "max_mean_err must be finite");
        }
    }
}

/// One topology change proposed by [`plan`] and applied by the
/// executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebalanceAction {
    /// Split shard `shard` into two at its balanced split point.
    Split {
        /// Index of the shard to split.
        shard: usize,
    },
    /// Merge shards `left` and `left + 1` into one.
    Merge {
        /// Index of the left shard of the pair.
        left: usize,
    },
}

/// Propose the next topology change, or `None` when the topology is
/// stable under the observations.
///
/// * `lens[s]` — current key count of shard `s`.
/// * `err_hot[s]` — whether shard `s`'s base-model error exceeds the
///   configured threshold (all-false when error splits are disabled).
///
/// Splits take priority over merges (an overloaded shard hurts every
/// query routed to it; a cold pair only wastes a little memory). Among
/// split candidates the longest shard wins; among merge candidates the
/// coldest adjacent pair wins.
///
/// # Examples
/// ```
/// use li_serve::rebalance::{plan, RebalanceAction, RebalanceConfig};
///
/// let cfg = RebalanceConfig {
///     max_shard_len: 100,
///     merge_max_len: 40,
///     max_mean_err: Some(8.0),
///     max_shards: 8,
/// };
/// // The coldest adjacent pair merges once nothing needs splitting.
/// assert_eq!(
///     plan(&[10, 5, 90], &[false; 3], &cfg),
///     Some(RebalanceAction::Merge { left: 0 })
/// );
/// // An error-hot shard splits only above the merge budget (the
/// // "error-split floor" — its halves must not immediately re-merge).
/// assert_eq!(plan(&[30, 90], &[true, false], &cfg), None);
/// assert_eq!(
///     plan(&[70, 90], &[true, false], &cfg),
///     Some(RebalanceAction::Split { shard: 0 })
/// );
/// ```
pub fn plan(lens: &[usize], err_hot: &[bool], cfg: &RebalanceConfig) -> Option<RebalanceAction> {
    assert_eq!(lens.len(), err_hot.len(), "observation arity mismatch");
    let n = lens.len();

    // Splits: length overload first, then error overload. Both need at
    // least 2 keys to have a split point at all, and room under the cap.
    if n < cfg.max_shards {
        let overloaded = (0..n)
            .filter(|&s| lens[s] > cfg.max_shard_len && lens[s] >= 2)
            .max_by_key(|&s| lens[s]);
        if let Some(shard) = overloaded {
            return Some(RebalanceAction::Split { shard });
        }
        // Error-split floor: require len > merge_max_len so the two
        // halves cannot immediately become a cold merge candidate.
        let hot = (0..n)
            .filter(|&s| err_hot[s] && lens[s] > cfg.merge_max_len && lens[s] >= 2)
            .max_by_key(|&s| lens[s]);
        if let Some(shard) = hot {
            return Some(RebalanceAction::Split { shard });
        }
    }

    // Merges: the coldest adjacent pair, if it fits the merge budget.
    if n > 1 {
        let left = (0..n - 1).min_by_key(|&i| lens[i] + lens[i + 1])?;
        if lens[left] + lens[left + 1] <= cfg.merge_max_len {
            return Some(RebalanceAction::Merge { left });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> RebalanceConfig {
        RebalanceConfig {
            max_shard_len: 100,
            merge_max_len: 40,
            max_mean_err: Some(8.0),
            max_shards: 8,
        }
    }

    #[test]
    fn stable_topology_plans_nothing() {
        let c = cfg();
        assert_eq!(plan(&[50, 60, 70], &[false; 3], &c), None);
        assert_eq!(plan(&[], &[], &c), None);
        assert_eq!(plan(&[5], &[false], &c), None, "singleton never merges");
    }

    #[test]
    fn longest_overloaded_shard_splits_first() {
        let c = cfg();
        assert_eq!(
            plan(&[101, 50, 200], &[false; 3], &c),
            Some(RebalanceAction::Split { shard: 2 })
        );
    }

    #[test]
    fn error_split_requires_the_floor() {
        let c = cfg();
        // Hot but small: below the merge_max_len floor — no split (it
        // would oscillate with the merge rule).
        assert_eq!(plan(&[30, 50], &[true, false], &c), None);
        // Hot and above the floor: split.
        assert_eq!(
            plan(&[41, 99], &[false, true], &c),
            Some(RebalanceAction::Split { shard: 1 })
        );
    }

    #[test]
    fn coldest_adjacent_pair_merges() {
        let c = cfg();
        assert_eq!(
            plan(&[10, 5, 90, 90], &[false; 4], &c),
            Some(RebalanceAction::Merge { left: 0 })
        );
        // Combined above the budget: stable.
        assert_eq!(plan(&[30, 30, 90], &[false; 3], &c), None);
    }

    #[test]
    fn split_respects_the_shard_cap() {
        let c = RebalanceConfig {
            max_shards: 2,
            ..cfg()
        };
        assert_eq!(plan(&[500, 90], &[false; 2], &c), None);
    }

    #[test]
    fn fresh_split_halves_cannot_remerge() {
        let c = cfg();
        // Any len that triggers a split...
        for len in [101usize, 150, 1000] {
            assert!(matches!(
                plan(&[len], &[false], &c),
                Some(RebalanceAction::Split { .. })
            ));
            // ...produces halves whose combined length is `len`, which
            // exceeds merge_max_len by construction — they may split
            // further (cascade) but can never be re-merged.
            let (a, b) = (len / 2, len - len / 2);
            assert!(
                !matches!(
                    plan(&[a, b], &[false, false], &c),
                    Some(RebalanceAction::Merge { .. })
                ),
                "len={len}"
            );
        }
    }

    #[test]
    fn validate_rejects_oscillating_thresholds() {
        let bad = RebalanceConfig {
            max_shard_len: 100,
            merge_max_len: 100,
            ..RebalanceConfig::default()
        };
        assert!(std::panic::catch_unwind(move || bad.validate()).is_err());
        cfg().validate();
        RebalanceConfig::default().validate();
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn mismatched_observations_panic() {
        plan(&[1, 2], &[false], &cfg());
    }
}
