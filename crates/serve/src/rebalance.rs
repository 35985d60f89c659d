//! Rebalancing policy for the sharded write path.
//!
//! The policy is a pure function over per-shard lengths — [`plan`]
//! proposes at most one [`RebalanceAction`] — so it can be unit-tested
//! exhaustively without touching locks or building indexes. The
//! executor ([`crate::ShardedWritable::rebalance`]) applies actions
//! under the topology write lock and re-plans until the topology is
//! stable.
//!
//! Stability is designed into the thresholds as **split/merge
//! hysteresis**: a split requires more load than a merge tolerates. A
//! split needs `len > max_shard_len`, while a merge needs the
//! *combined* pair `<= merge_max_len < max_shard_len`. The two halves
//! of a fresh split together exceed `max_shard_len`, so they can never
//! be re-merged by the very next plan.
//!
//! A shard's model error triggers nothing here: an ε-corridor base's
//! error is set by its segment budget, and each half of a split gets
//! the same budget per key, so a split seldom moves ε, and not reliably
//! down (`EXPERIMENTS.md`, "An error split cannot lower a corridor's
//! ε").

/// Thresholds driving shard splits and merges.
///
/// # Examples
/// ```
/// use li_serve::rebalance::{plan, RebalanceAction, RebalanceConfig};
///
/// let cfg = RebalanceConfig {
///     max_shard_len: 100, // split beyond 100 keys
///     merge_max_len: 40,  // merge pairs holding <= 40 keys combined
///     max_shards: 8,
/// };
/// assert!(cfg.validate().is_ok()); // merge_max_len < max_shard_len: no oscillation
///
/// // An overloaded shard splits before a cold pair merges…
/// assert_eq!(
///     plan(&[150, 10, 5], &cfg),
///     Some(RebalanceAction::Split { shard: 0 })
/// );
/// // …the coldest adjacent pair merges once nothing needs splitting…
/// assert_eq!(
///     plan(&[10, 5, 90], &cfg),
///     Some(RebalanceAction::Merge { left: 0 })
/// );
/// // …and a balanced topology plans nothing.
/// assert_eq!(plan(&[60, 70], &cfg), None);
/// ```
#[derive(Debug, Clone)]
pub struct RebalanceConfig {
    /// Split a shard when its key count exceeds this.
    pub max_shard_len: usize,
    /// Merge an adjacent shard pair when their *combined* key count is
    /// at most this. Keep it at most `max_shard_len / 2` so splits and
    /// merges cannot oscillate (see the module docs).
    pub merge_max_len: usize,
    /// Hard cap on the shard count; splits stop proposing at the cap.
    pub max_shards: usize,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        Self {
            max_shard_len: 1 << 20,
            merge_max_len: 1 << 18,
            max_shards: 64,
        }
    }
}

impl RebalanceConfig {
    /// Rejects configurations that cannot keep the topology stable,
    /// naming the first broken rule.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.max_shard_len < 2 {
            return Err("max_shard_len must be >= 2");
        }
        if self.merge_max_len >= self.max_shard_len {
            return Err("merge_max_len must be < max_shard_len (split/merge hysteresis)");
        }
        if self.max_shards < 1 {
            return Err("max_shards must be >= 1");
        }
        Ok(())
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
/// stable; `lens[s]` is the current key count of shard `s`.
///
/// Splits take priority over merges (an overloaded shard hurts every
/// query routed to it; a cold pair only wastes a little memory). Among
/// split candidates the longest shard wins; among merge candidates the
/// coldest adjacent pair wins. [`RebalanceConfig`]'s example plans
/// each case.
pub fn plan(lens: &[usize], cfg: &RebalanceConfig) -> Option<RebalanceAction> {
    let n = lens.len();

    // Splits need at least 2 keys to have a split point at all, and
    // room under the cap.
    if n < cfg.max_shards {
        let overloaded = (0..n)
            .filter(|&s| lens[s] > cfg.max_shard_len && lens[s] >= 2)
            .max_by_key(|&s| lens[s]);
        if let Some(shard) = overloaded {
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
            max_shards: 8,
        }
    }

    #[test]
    fn stable_topology_plans_nothing() {
        let c = cfg();
        assert_eq!(plan(&[50, 60, 70], &c), None);
        assert_eq!(plan(&[], &c), None);
        assert_eq!(plan(&[5], &c), None, "singleton never merges");
    }

    #[test]
    fn longest_overloaded_shard_splits_first() {
        let c = cfg();
        assert_eq!(
            plan(&[101, 50, 200], &c),
            Some(RebalanceAction::Split { shard: 2 })
        );
    }

    #[test]
    fn coldest_adjacent_pair_merges() {
        let c = cfg();
        assert_eq!(
            plan(&[10, 5, 90, 90], &c),
            Some(RebalanceAction::Merge { left: 0 })
        );
        // Combined above the budget: stable.
        assert_eq!(plan(&[30, 30, 90], &c), None);
    }

    #[test]
    fn split_respects_the_shard_cap() {
        let c = RebalanceConfig {
            max_shards: 2,
            ..cfg()
        };
        assert_eq!(plan(&[500, 90], &c), None);
    }

    #[test]
    fn fresh_split_halves_cannot_remerge() {
        let c = cfg();
        // Any len that triggers a split...
        for len in [101usize, 150, 1000] {
            assert!(matches!(
                plan(&[len], &c),
                Some(RebalanceAction::Split { .. })
            ));
            // ...produces halves whose combined length is `len`, which
            // exceeds merge_max_len by construction — they may split
            // further (cascade) but can never be re-merged.
            let (a, b) = (len / 2, len - len / 2);
            assert!(
                !matches!(plan(&[a, b], &c), Some(RebalanceAction::Merge { .. })),
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
        assert!(bad.validate().unwrap_err().contains("hysteresis"));
        assert_eq!(cfg().validate(), Ok(()));
        assert_eq!(RebalanceConfig::default().validate(), Ok(()));
    }
}
