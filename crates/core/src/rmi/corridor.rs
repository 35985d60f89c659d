//! The ε-corridor leaf layout: a last-mile window bounded at build time.
//!
//! One greedy pass cuts the sorted key array into segments. A segment is
//! anchored at its first key and keeps a cone of slopes, starting as
//! `[0, ∞)`: each later key narrows it to the slopes that predict that
//! key's position within ±ε, and the key that would empty it opens the
//! next segment — the shrinking-cone corridor of FITing-tree and
//! RadixSpline. A lookup finds its segment with one binary search over
//! the segments' first keys and predicts `start + slope · (key − first)`.
//!
//! ε is not configured. A build is given a segment budget — the leaf
//! count the cascade would have had — and takes the smallest ε on the
//! ladder 1, 2, 3, 4, 6, 8, 12, 16, 24, … whose segment count fits it.
//! An attempt gives up as soon as its count passes the budget, so a rung
//! that is too small costs a fraction of a pass.
//!
//! The window is not the cone's: once a segment is closed, its slope is
//! rounded to the `f32` it is stored as and every key's error is measured
//! with the lookup's own arithmetic. The index keeps the worst error on
//! each side, so every stored key lies in its window by measurement. The
//! prediction is monotone in the key inside a segment and clamped to the
//! segment's positions, so every absent key's answer lies in its window
//! too. A segment also closes once its cone holds no `f32` — a cone
//! narrower than one `f32` ulp, left by a key whose bound lands just
//! inside the other side, or by millions of keys on one near-line — so
//! the stored slope always lies in the cone. Rounding can cost one
//! position on one side, so the window holds at most 2ε + 2 keys.

use super::SearchStrategy;

/// A segment's line: its first key's position and its slope, 8 bytes.
#[derive(Debug, Clone, Copy)]
struct Line {
    start: u32,
    slope: f32,
}

/// One ε-corridor segment as persisted (see [`CorridorParams`]): 16
/// bytes, as stored and as accounted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// The segment's first key.
    pub first: u64,
    /// The position of that key.
    pub start: u32,
    /// Positions per key unit.
    pub slope: f32,
}

/// The serializable form of an ε-corridor index: everything a trained
/// corridor knows beyond its key array. This is what the persistence
/// layer writes into a snapshot manifest, and [`crate::rmi::Rmi::from_params`]
/// reassembles it with no retraining.
#[derive(Debug, Clone, PartialEq)]
pub struct CorridorParams {
    /// The ladder rung the segments were cut at.
    pub eps: u32,
    /// The segments, in key order.
    pub segments: Vec<Segment>,
    /// Worst over-prediction `pos − position` over the stored keys.
    pub below: u64,
    /// Worst under-prediction `position − pos` over the stored keys.
    pub above: u64,
    /// Root-mean-square prediction error over the stored keys.
    pub rms: f64,
    /// Last-mile search strategy.
    pub search: SearchStrategy,
}

/// Bytes per segment: first key, start and slope.
pub(super) const SEGMENT_BYTES: usize = 8 + 4 + 4;

/// The trained corridor.
#[derive(Debug, Clone)]
pub(super) struct Corridor {
    pub(super) eps: u32,
    /// Every segment's first key, ascending: the array the lookup
    /// searches, kept apart from the lines so the search touches only
    /// keys.
    firsts: Vec<u64>,
    lines: Vec<Line>,
    pub(super) below: usize,
    pub(super) above: usize,
    pub(super) rms: f64,
    /// `⌈rms⌉`, at least 1: the σ a quaternary search steps by, kept so
    /// a lookup does not round.
    pub(super) sigma: usize,
}

/// The σ of an RMS error.
fn sigma(rms: f64) -> usize {
    (rms.ceil() as usize).max(1)
}

/// The rung after `eps` on the ladder 1, 2, 3, 4, 6, 8, 12, …
fn next_rung(eps: u32) -> u32 {
    if eps < 2 {
        2
    } else if eps.is_power_of_two() {
        eps + eps / 2
    } else {
        eps.checked_next_power_of_two().unwrap_or(u32::MAX)
    }
}

/// The lookup's prediction, shared by the build's error measurement.
#[inline]
fn predict(first: u64, line: Line, key: u64) -> f64 {
    f64::from(line.start) + f64::from(line.slope) * key.saturating_sub(first) as f64
}

/// A cone `[lo, hi]` with `lo ≥ 0` at least this wide relative to `lo`
/// holds an `f32`: an `f32`'s ulp is at most 2⁻²³ of its value (twice
/// that here, for the rounding of `hi − lo`).
const F32_SURE_WIDTH: f64 = 2.0 * f32::EPSILON as f64;

/// Whether the cone `[lo, hi]` holds a slope [`pick_slope`] can store.
fn holds_f32(lo: f64, hi: f64) -> bool {
    hi - lo >= lo * F32_SURE_WIDTH || (lo..=hi).contains(&f64::from(pick_slope(lo, hi)))
}

/// A slope in the cone `[lo, hi]` (`hi = ∞` for a one-key segment) that
/// is exactly representable as an `f32`, if the cone holds one; an `f32`
/// next to the cone otherwise.
fn pick_slope(lo: f64, hi: f64) -> f32 {
    let mid = if hi.is_finite() {
        lo + (hi - lo) / 2.0
    } else {
        lo
    };
    let s = mid as f32;
    let s = if f64::from(s) > hi {
        s.next_down()
    } else if f64::from(s) < lo {
        s.next_up()
    } else {
        s
    };
    s.max(0.0)
}

impl Corridor {
    /// Cut `keys` (sorted, unique, at most `u32::MAX` of them) at the
    /// smallest ladder rung from `from` up whose segment count is at
    /// most `budget` (at least 1). The rung `n` always fits one
    /// segment, so the ladder ends.
    pub(super) fn build(keys: &[u64], from: u32, budget: usize) -> Self {
        assert!(
            u32::try_from(keys.len()).is_ok(),
            "an ε-corridor index holds at most u32::MAX keys"
        );
        let mut eps = from.max(1);
        loop {
            if let Some(mut corridor) = Self::cut(keys, eps, budget.max(1)) {
                corridor.measure(keys);
                return corridor;
            }
            eps = next_rung(eps);
        }
    }

    /// One greedy pass at `eps`; `None` once more than `budget`
    /// segments would be needed. The error bounds are left to
    /// [`Corridor::measure`], so a rung that fails costs no measuring.
    fn cut(keys: &[u64], eps: u32, budget: usize) -> Option<Self> {
        let e = f64::from(eps);
        let mut corridor = Self {
            eps,
            firsts: Vec::new(),
            lines: Vec::new(),
            below: 0,
            above: 0,
            rms: 0.0,
            sigma: 1,
        };
        let mut start = 0usize;
        while start < keys.len() {
            if corridor.firsts.len() == budget {
                return None;
            }
            let first = keys[start];
            let (mut lo, mut hi) = (0.0f64, f64::INFINITY);
            let mut dy = 1.0f64;
            let mut end = start + 1;
            while let Some(&k) = keys.get(end) {
                // This key's slopes; `min`/`max` keep the loop branch-free
                // but for the branch that closes the segment: when the
                // key empties the cone, or leaves no `f32` in it.
                let dx = k.saturating_sub(first) as f64;
                let (up, down) = ((dy + e) / dx, (dy - e) / dx);
                let (next_lo, next_hi) = (lo.max(down), hi.min(up));
                if next_lo > next_hi || !holds_f32(next_lo, next_hi) {
                    break;
                }
                (lo, hi) = (next_lo, next_hi);
                dy += 1.0;
                end += 1;
            }
            corridor.firsts.push(first);
            corridor.lines.push(Line {
                start: start as u32,
                slope: pick_slope(lo, hi),
            });
            start = end;
        }
        Some(corridor)
    }

    /// Measure every key's error with the lookup's own arithmetic: the
    /// worst on each side becomes the window, their RMS the statistic.
    fn measure(&mut self, keys: &[u64]) {
        let n = keys.len();
        let (mut below, mut above, mut sum_sq) = (0i64, 0i64, 0.0f64);
        for (s, (&first, &line)) in self.firsts.iter().zip(&self.lines).enumerate() {
            let start = line.start as usize;
            let end = self.lines.get(s + 1).map_or(n, |l| l.start as usize);
            for (i, &k) in (start..end).zip(&keys[start..end]) {
                let pos = (predict(first, line, k) as usize).min(end);
                let err = i as i64 - pos as i64;
                below = below.max(-err);
                above = above.max(err);
                sum_sq += (err as f64) * (err as f64);
            }
        }
        self.below = below as usize;
        self.above = above as usize;
        if n > 0 {
            self.rms = (sum_sq / n as f64).sqrt();
        }
        self.sigma = sigma(self.rms);
    }

    /// Segment count.
    pub(super) fn len(&self) -> usize {
        self.lines.len()
    }

    /// The search plan `(pos, lo, hi)` for `key` over `n > 0` keys: the
    /// answer lies in `lo..=hi`.
    #[inline]
    pub(super) fn plan(&self, key: u64, n: usize) -> (usize, usize, usize) {
        let s = self.firsts.partition_point(|&f| f <= key).saturating_sub(1);
        let end = self.lines.get(s + 1).map_or(n, |l| l.start as usize);
        let pos = (predict(self.firsts[s], self.lines[s], key) as usize).min(end);
        (
            pos,
            pos.saturating_sub(self.below),
            (pos + self.above + 1).min(n),
        )
    }

    pub(super) fn to_params(&self, search: SearchStrategy) -> CorridorParams {
        CorridorParams {
            eps: self.eps,
            segments: self
                .firsts
                .iter()
                .zip(&self.lines)
                .map(|(&first, l)| Segment {
                    first,
                    start: l.start,
                    slope: l.slope,
                })
                .collect(),
            below: self.below as u64,
            above: self.above as u64,
            rms: self.rms,
            search,
        }
    }

    /// Reassemble from `params` over `n` keys, or `None` if they cannot
    /// describe a corridor over them. The check is O(segments): ε ≥ 1;
    /// segments exist iff keys do; starts begin at 0, strictly increase
    /// and stay below `n`; first keys strictly increase; slopes are
    /// finite and non-negative; the error bounds are at most `n`.
    pub(super) fn from_params(params: &CorridorParams, n: usize) -> Option<Self> {
        let segs = &params.segments;
        let below = usize::try_from(params.below).ok()?;
        let above = usize::try_from(params.above).ok()?;
        let valid = params.eps >= 1
            && segs.is_empty() == (n == 0)
            && segs.first().is_none_or(|s| s.start == 0)
            && segs.iter().all(|s| (s.start as usize) < n)
            && segs
                .windows(2)
                .all(|w| w[0].start < w[1].start && w[0].first < w[1].first)
            && segs.iter().all(|s| s.slope.is_finite() && s.slope >= 0.0)
            && below <= n
            && above <= n
            && params.rms.is_finite();
        valid.then(|| Self {
            eps: params.eps,
            firsts: segs.iter().map(|s| s.first).collect(),
            lines: segs
                .iter()
                .map(|s| Line {
                    start: s.start,
                    slope: s.slope,
                })
                .collect(),
            below,
            above,
            rms: params.rms,
            sigma: sigma(params.rms),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_ladder_alternates_doubling_and_half_steps() {
        let mut rungs = vec![1u32];
        while rungs.len() < 12 {
            rungs.push(next_rung(*rungs.last().unwrap()));
        }
        assert_eq!(rungs, [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64]);
        assert_eq!(next_rung(1 << 31), 3 << 30);
        assert_eq!(next_rung(3 << 30), u32::MAX);
    }

    #[test]
    fn every_segment_fits_the_budget_and_the_window_bound() {
        // Quadratic keys: no single line fits, so ε trades against the
        // segment count.
        let keys: Vec<u64> = (0..20_000u64).map(|i| i * i + 3 * i).collect();
        let mut last_eps = 0;
        for budget in [1usize, 4, 64, 1024, 20_000] {
            let c = Corridor::build(&keys, 1, budget);
            assert!(c.len() <= budget, "budget {budget}: {} segments", c.len());
            assert!(c.below + c.above <= 2 * c.eps as usize + 1);
            if last_eps != 0 {
                assert!(c.eps <= last_eps, "more budget never raises ε");
            }
            last_eps = c.eps;
        }
    }

    /// Keys whose ε = 1 cone ends as `[3 / b, 2 / a]`, narrower than an
    /// `f32` ulp and holding none: the segment closes before `b` rather
    /// than store a slope outside its cone.
    #[test]
    fn a_cone_that_holds_no_f32_closes_its_segment() {
        let a = 5_242_887u64;
        let b = (3 * a).div_ceil(2);
        let (lo, hi) = (3.0 / b as f64, 2.0 / a as f64);
        assert!(lo <= hi && !holds_f32(lo, hi), "the cone must hold no f32");
        assert!(holds_f32(lo, f64::INFINITY) && holds_f32(0.0, 0.0));
        let third = (b - a) / 3;
        let keys = [0, a, a + third, a + 2 * third, b];
        let c = Corridor::build(&keys, 1, keys.len());
        assert_eq!(c.eps, 1);
        assert_eq!(c.len(), 2, "the last key opens a second segment");
        assert_eq!(c.lines[1].start, 4);
        for (s, line) in c.lines.iter().enumerate() {
            let end = c.lines.get(s + 1).map_or(keys.len(), |l| l.start as usize);
            for (i, &k) in keys.iter().enumerate().take(end).skip(line.start as usize) {
                let err = (predict(c.firsts[s], *line, k) - i as f64).abs();
                assert!(err <= 1.0 + 1e-9, "key {i} is {err} from its prediction");
            }
        }
    }

    #[test]
    fn a_build_resumes_at_its_starting_rung() {
        let keys: Vec<u64> = (0..5_000u64).map(|i| i * 7).collect();
        assert_eq!(
            Corridor::build(&keys, 1, 10).eps,
            1,
            "linear keys fit ε = 1"
        );
        assert_eq!(Corridor::build(&keys, 12, 10).eps, 12, "never below `from`");
    }
}
