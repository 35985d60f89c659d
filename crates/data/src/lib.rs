//! # li-data — datasets for the learned-index reproduction
//!
//! The paper evaluates on two proprietary datasets (university web-server
//! logs; a Google web-index document-id set), one public dataset (OSM
//! Maps longitudes), one synthetic dataset (Lognormal), and Google's
//! transparency-report phishing URLs. This crate generates faithful
//! stand-ins for all of them, deterministically from a seed:
//!
//! * [`lognormal::lognormal_keys`] — **exact** reproduction of the
//!   paper's synthetic set: values sampled from Lognormal(μ=0, σ=2),
//!   scaled to integers up to 1B, deduplicated (§3.7.1).
//! * [`maps::maps_longitudes`] — longitudes of world features as a
//!   mixture of population-center clusters over a uniform background:
//!   "relatively linear and has fewer irregularities" (§3.7.1).
//! * [`weblog::weblog_timestamps`] — timestamps from an inhomogeneous
//!   Poisson process with diurnal/weekly/academic-calendar rate and
//!   bursty events: "very complex time patterns … notoriously hard to
//!   learn" (§3.7.1).
//! * [`strings::doc_ids`] — structured document-id strings standing in
//!   for the web-index dataset (§3.7.2).
//! * [`strings::UrlGenerator`] — phishing-style vs. benign URLs standing
//!   in for the transparency-report data (§5.2).
//!
//! [`KeySet`] wraps a sorted deduplicated key array together with query
//! workload sampling (existing and missing keys), and [`records`] holds
//! the 20-byte record layout used by the hash-map experiments
//! (Appendices B/C).
//!
//! Beyond the paper, [`gauntlet`] generates the SOSD-style adversarial
//! distributions (books/osm/fb-like, stepped, heavy-duplicate) that
//! `li-serve`'s sharded index and store are oracle-checked over. Every
//! generator in this crate — including those — is a pure function of
//! an explicit `u64` seed; there is no ambient RNG state anywhere
//! (regression-pinned in `gauntlet::tests`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gauntlet;
pub mod keyset;
pub mod lognormal;
pub mod maps;
pub mod records;
pub mod strings;
pub mod weblog;

pub use gauntlet::Gauntlet;
pub use keyset::KeySet;
pub use li_models::rng::SplitMix64;
pub use records::Record20;

/// The three integer datasets of §3.7.1, by name. Handy for harness
/// loops that sweep "Map Data / Web Data / Log-Normal Data" like the
/// paper's tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// OSM-longitude-like mixture ("Map Data").
    Maps,
    /// Web-server-log-like timestamps ("Web Data").
    Weblogs,
    /// Lognormal(0, 2) scaled to integers ("Log-Normal Data").
    Lognormal,
}

impl Dataset {
    /// All three datasets in the paper's column order.
    pub const ALL: [Dataset; 3] = [Dataset::Maps, Dataset::Weblogs, Dataset::Lognormal];

    /// Paper-style display name.
    pub fn name(&self) -> &'static str {
        match self {
            Dataset::Maps => "Map Data",
            Dataset::Weblogs => "Web Data",
            Dataset::Lognormal => "Log-Normal Data",
        }
    }

    /// Generate `n` unique sorted keys with the given seed.
    pub fn generate(&self, n: usize, seed: u64) -> KeySet {
        match self {
            Dataset::Maps => maps::maps_longitudes(n, seed),
            Dataset::Weblogs => weblog::weblog_timestamps(n, seed),
            Dataset::Lognormal => lognormal::lognormal_keys(n, seed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_datasets_generate_requested_size() {
        for ds in Dataset::ALL {
            let ks = ds.generate(10_000, 42);
            assert_eq!(ks.len(), 10_000, "{}", ds.name());
            assert!(ks.keys().windows(2).all(|w| w[0] < w[1]), "{}", ds.name());
        }
    }

    #[test]
    fn generation_is_deterministic() {
        for ds in Dataset::ALL {
            let a = ds.generate(1000, 7);
            let b = ds.generate(1000, 7);
            assert_eq!(a.keys(), b.keys());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = Dataset::Lognormal.generate(1000, 1);
        let b = Dataset::Lognormal.generate(1000, 2);
        assert_ne!(a.keys(), b.keys());
    }
}
