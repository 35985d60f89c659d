//! # li-bench — the evaluation harness
//!
//! One module per table/figure of the paper's evaluation, each exposing
//! a `run(cfg)` function that generates the workload, builds every
//! structure the paper compares, measures it, and returns printable rows
//! (used by the `repro` binary):
//!
//! | module       | reproduces |
//! |--------------|------------|
//! | [`fig4`]     | Figure 4 — learned index vs B-Tree, 3 integer datasets |
//! | [`fig5`]     | Figure 5 — alternative baselines on Lognormal |
//! | [`fig6`]     | Figure 6 — string data, hybrid indexes, Learned QS |
//! | [`fig8`]     | Figure 8 — hash conflict reduction |
//! | [`fig10`]    | Figure 10 + §5.2 — learned Bloom filter memory/FPR |
//! | [`fig11`]    | Figure 11 (App. B) — model vs random chained hash map |
//! | [`table1`]   | Table 1 (App. C) — cuckoo & in-place chained baselines |
//! | [`naive`]    | §2.3 — naïve TF-style learned index vs B-Tree |
//! | [`appendix_a`] | Appendix A — O(√N) error scaling |
//! | [`appendix_e`] | Appendix E — model-hash Bloom filter |
//!
//! Scale: every experiment takes a key count; the defaults target a
//! laptop (≈2M keys, seconds per experiment). The paper's absolute
//! numbers come from 200M keys on the authors' testbed — the *shape*
//! (who wins, by what factor) is what these reproduce. Set `LI_KEYS` or
//! pass `--keys` to the `repro` binary to raise the scale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod appendix_a;
pub mod appendix_e;
pub mod fig10;
pub mod fig11;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig8;
pub mod harness;
pub mod naive;
pub mod table;
pub mod table1;

pub use harness::{time_batch_chunked_ns, time_batch_ns, BenchConfig};
pub use table::Table;

/// Resolve the key-count scale: CLI override > `LI_KEYS` env > default.
pub fn resolve_keys(cli: Option<usize>, default: usize) -> usize {
    cli.or_else(|| {
        std::env::var("LI_KEYS")
            .ok()
            .and_then(|v| v.replace('_', "").parse().ok())
    })
    .unwrap_or(default)
}
