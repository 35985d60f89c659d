//! Live observability: what the serving tier's own metrics see under
//! a mixed workload, and what the instrumentation costs — beyond the
//! paper.
//!
//! Every other experiment measures the serving tier from the outside
//! with harness stopwatches; this one asks the tier to measure
//! *itself*. A mixed workload (scalar inserts interleaved with point
//! lookups, a batched-insert leg, a batched-lookup leg) drives one
//! instrumented [`ShardedWritable`] plus a read-only [`ShardedIndex`]
//! sharing the same metrics registry, then the tables below are
//! rendered straight from [`ShardedWritable::metrics`] — the same
//! snapshot a production scrape would see via
//! [`ShardedWritable::render_text`]:
//!
//! * **operation counters** — inserts/lookups (scalar and batched) and
//!   the structural events the load provoked (splits, merges, seals,
//!   compactions);
//! * **per-shard gauges** — len / run-stack depth / pending delta per
//!   shard at snapshot time;
//! * **latency histograms** — count/mean/p50/p99 per instrumented
//!   phase, from the li-obs log-linear histograms;
//! * **event tail** — the newest entries of the lock-free trace ring.
//!
//! The final table prices the instrumentation itself: scalar insert
//! and scalar lookup mean ns with observability **on** (per-op
//! counters + sampled latency) vs **off** (`observe: false`, no
//! metrics bundle attached) on identically built structures. The
//! acceptance bar is ≤10% on the sampled hot paths; on a 1-core host
//! the two legs time-share with the OS, so expect noise of the same
//! order (EXPERIMENTS.md records the measured numbers and the caveat).

use crate::harness::{time_batch_ns, BenchConfig, LatencySummary};
use crate::table::Table;
use li_data::Dataset;
use li_serve::{
    FastShardBuilder, MetricsSnapshot, RangeIndex, RebalanceConfig, ServeMetrics, ShardedIndex,
    ShardedWritable, ShardedWritableConfig,
};
use std::sync::Arc;

/// Shard count for the mixed-workload structure.
pub const STATS_SHARDS: usize = 4;

/// Chunk size for the batched-insert leg.
pub const STATS_BATCH: usize = 1024;

/// Trace-ring entries shown in the event-tail table.
pub const EVENT_TAIL: usize = 8;

/// One instrumented-vs-disabled overhead measurement.
#[derive(Debug, Clone)]
pub struct OverheadLeg {
    /// Which hot path was measured.
    pub name: &'static str,
    /// Mean ns/op with observability on (the default configuration).
    pub on_ns: f64,
    /// Mean ns/op with observability off (`observe: false`, or no
    /// metrics bundle attached for the read-only index).
    pub off_ns: f64,
}

impl OverheadLeg {
    /// Instrumented cost as a multiple of the disabled cost.
    pub fn overhead(&self) -> f64 {
        self.on_ns / self.off_ns.max(1e-9)
    }
}

/// Everything `repro stats` measured.
#[derive(Debug, Clone)]
pub struct StatsReport {
    /// The metrics snapshot taken after the mixed workload settled.
    pub snapshot: MetricsSnapshot,
    /// Keys driven through the insert paths (scalar + batched).
    pub inserted: usize,
    /// Point lookups driven (scalar + batched).
    pub lookups_run: usize,
    /// Shard count after the load.
    pub final_shards: usize,
    /// Instrumentation cost per hot path (insert, then lookup).
    pub overhead: Vec<OverheadLeg>,
}

/// Drive the mixed workload and the overhead legs on the Lognormal
/// dataset: half the keys seed the structures, the other half arrive
/// live (half of those scalar + interleaved lookups, half batched).
pub fn run(cfg: &BenchConfig) -> StatsReport {
    let keyset = Dataset::Lognormal.generate(cfg.keys, cfg.seed);
    let keys = keyset.keys();
    let initial: Vec<u64> = keys.iter().copied().step_by(2).collect();
    let fresh: Vec<u64> = keys.iter().copied().skip(1).step_by(2).collect();
    let lookups = keyset.sample_existing(cfg.queries.clamp(1, 20_000), cfg.seed ^ 0x0b5);

    // Split pressure scaled as in the write experiment so the workload
    // provokes real structural events for the counters and the trace
    // ring to see.
    let max_shard_len = (initial.len() * 3 / (2 * STATS_SHARDS)).max(1024);
    let config = ShardedWritableConfig {
        merge_threshold: 1_000,
        rebalance: RebalanceConfig {
            max_shard_len,
            merge_max_len: (max_shard_len / 4).max(1),
            ..RebalanceConfig::default()
        },
        ..ShardedWritableConfig::default()
    };
    let sw = ShardedWritable::new(initial.clone(), STATS_SHARDS, config);
    // The read-only index records its lookups into the *same* registry
    // — one scrape covers the whole serving tier.
    let reader = ShardedIndex::build(initial.clone(), STATS_SHARDS, &FastShardBuilder);
    reader.attach_metrics(Arc::clone(sw.metrics_handle()));

    let (scalar, batched) = fresh.split_at(fresh.len() / 2);
    let mut acc = 0usize;
    let mut li = lookups.iter().cycle();
    for &k in scalar {
        acc = acc.wrapping_add(usize::from(sw.insert(k)));
        acc = acc.wrapping_add(reader.lower_bound(*li.next().expect("cycle")));
    }
    for chunk in batched.chunks(STATS_BATCH) {
        acc = acc.wrapping_add(sw.insert_batch(chunk).iter().filter(|&&f| f).count());
    }
    let mut out = vec![0usize; lookups.len()];
    reader.lower_bound_batch(&lookups, &mut out);
    std::hint::black_box((acc, &out));

    let snapshot = sw.metrics();
    let final_shards = sw.shard_count();
    let overhead = vec![
        insert_overhead(&initial, scalar),
        lookup_overhead(&initial, &lookups),
    ];
    StatsReport {
        snapshot,
        inserted: fresh.len(),
        lookups_run: scalar.len() + lookups.len(),
        final_shards,
        overhead,
    }
}

/// Scalar-insert cost, observability on vs off. Default (no-split)
/// rebalance thresholds so both structures do identical work and the
/// difference is the instrumentation alone.
fn insert_overhead(initial: &[u64], stream: &[u64]) -> OverheadLeg {
    let time = |observe: bool| {
        let config = ShardedWritableConfig {
            observe,
            ..ShardedWritableConfig::default()
        };
        let sw = ShardedWritable::new(initial.to_vec(), STATS_SHARDS, config);
        time_batch_ns(stream, |k| usize::from(sw.insert(k)))
    };
    // Instrumented leg first: any warm-up carry-over (allocator, page
    // cache) then favors the baseline, keeping the ratio conservative.
    let on_ns = time(true);
    OverheadLeg {
        name: "scalar insert",
        on_ns,
        off_ns: time(false),
    }
}

/// Scalar-lookup cost on the read-only index, metrics bundle attached
/// vs absent (the un-attached index skips even the counter add).
fn lookup_overhead(initial: &[u64], lookups: &[u64]) -> OverheadLeg {
    let time = |attach: bool| {
        let idx = ShardedIndex::build(initial.to_vec(), STATS_SHARDS, &FastShardBuilder);
        if attach {
            idx.attach_metrics(Arc::new(ServeMetrics::new()));
        }
        time_batch_ns(lookups, |q| idx.lower_bound(q))
    };
    let on_ns = time(true);
    OverheadLeg {
        name: "scalar lookup",
        on_ns,
        off_ns: time(false),
    }
}

/// Render the live-metrics tables and the overhead table.
pub fn print(report: &StatsReport, keys: usize) {
    let snap = &report.snapshot;

    let mut t = Table::new(
        &format!(
            "Observability — serving-tier metrics after a mixed workload ({keys} keys, half live; {} shards final)",
            report.final_shards
        ),
        &["Counter", "Total"],
    );
    for name in [
        "li_inserts_total",
        "li_batch_insert_keys_total",
        "li_lookups_total",
        "li_batch_lookup_queries_total",
        "li_shard_splits_total",
        "li_shard_merges_total",
        "li_buffer_seals_total",
        "li_compactions_total",
    ] {
        t.row(&[
            name.to_string(),
            snap.counter(name).map_or("-".into(), |v| v.to_string()),
        ]);
    }
    t.note("rendered straight from ShardedWritable::metrics() — the same snapshot render_text() exposes for a scrape; the read-only ShardedIndex records into the same registry");
    t.print();
    println!();

    let dash = |v: Option<u64>| v.map_or("-".into(), |v| v.to_string());
    let shards = snap.gauge_set("li_shard_len").map_or(0, <[u64]>::len);
    let mut t = Table::new(
        "Observability — per-shard gauges at snapshot time",
        &["Shard", "Len", "Runs", "Pending"],
    );
    for i in 0..shards {
        let cell = |name: &str| dash(snap.gauge_set(name).and_then(|v| v.get(i).copied()));
        t.row(&[
            i.to_string(),
            cell("li_shard_len"),
            cell("li_shard_runs"),
            cell("li_shard_pending"),
        ]);
    }
    t.note(&format!(
        "gauges li_shard_count = {}, li_generation = {} (generation counts published topology changes)",
        snap.gauge("li_shard_count").unwrap_or(0),
        snap.gauge("li_generation").unwrap_or(0),
    ));
    t.print();
    println!();

    let mut t = Table::new(
        "Observability — latency histograms (li-obs log-linear, bounded-error quantiles)",
        &["Histogram", "Samples", "Mean (ns)", "p50 (ns)", "p99 (ns)"],
    );
    for (name, h) in &snap.histograms {
        let s = LatencySummary::from_snapshot(h);
        if s.count == 0 {
            continue;
        }
        t.row(&[
            name.clone(),
            s.count.to_string(),
            format!("{:.0}", s.mean_ns),
            s.p50_ns.to_string(),
            s.p99_ns.to_string(),
        ]);
    }
    t.note("per-op latency is sampled (1-in-8 inserts, 1-in-32 lookups); batch and worker phases time every occurrence — empty histograms are omitted");
    t.print();
    println!();

    if let Some(events) = snap.ring("li_events") {
        let mut t = Table::new(
            &format!(
                "Observability — trace-ring tail (newest {EVENT_TAIL} of {})",
                events.len()
            ),
            &["Seq", "At (us)", "Event", "a", "b"],
        );
        for e in events.iter().rev().take(EVENT_TAIL).rev() {
            t.row(&[
                e.seq.to_string(),
                e.at_us.to_string(),
                e.name.to_string(),
                e.a.to_string(),
                e.b.to_string(),
            ]);
        }
        t.note("fixed-capacity lock-free ring: recording never blocks, the oldest entries are overwritten first; payload meaning depends on the event kind");
        t.print();
        println!();
    }

    let mut t = Table::new(
        "Observability — instrumentation overhead (mean ns/op, identical structures)",
        &["Hot path", "Instrumented (ns)", "Disabled (ns)", "Overhead"],
    );
    for leg in &report.overhead {
        t.row(&[
            leg.name.to_string(),
            format!("{:.0}", leg.on_ns),
            format!("{:.0}", leg.off_ns),
            format!("{:.2}x", leg.overhead()),
        ]);
    }
    t.note("instrumented = default config (counters on every op, latency sampled); disabled = observe: false / no metrics bundle attached — the acceptance bar is <=10% on these paths");
    t.note("on a 1-core host the measured difference is the same order as scheduler noise; EXPERIMENTS.md records representative numbers");
    t.print();
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_mixed_workload_populates_the_registry() {
        let report = run(&BenchConfig {
            keys: 6_000,
            queries: 300,
            seed: 7,
        });
        let snap = &report.snapshot;
        // Scalar half counted one by one, batched half by key count.
        let scalar = (report.inserted / 2) as u64;
        assert_eq!(snap.counter("li_inserts_total"), Some(scalar));
        assert_eq!(
            snap.counter("li_batch_insert_keys_total"),
            Some(report.inserted as u64 - scalar)
        );
        // The attached reader's lookups land in the same registry.
        assert_eq!(snap.counter("li_lookups_total"), Some(scalar));
        assert!(snap.counter("li_batch_lookup_queries_total") > Some(0));
        // The load provokes splits, and every split lands in the ring.
        let splits = snap.counter("li_shard_splits_total").expect("registered");
        assert!(splits > 0, "split pressure was scaled to fire");
        assert!(report.final_shards > STATS_SHARDS);
        let events = snap.ring("li_events").expect("ring registered");
        assert!(events.iter().any(|e| e.name == "shard_split"), "{events:?}");
        // Sampled latency histograms saw the workload.
        for name in ["li_insert_ns", "li_lookup_ns", "li_batch_insert_ns"] {
            let h = snap.histogram(name).expect("registered");
            assert!(h.count() > 0, "{name} never sampled");
        }
        // Per-shard gauges cover the final topology.
        assert_eq!(
            snap.gauge_set("li_shard_len").map(<[u64]>::len),
            Some(report.final_shards)
        );
        // Overhead legs measured both sides of both paths.
        assert_eq!(report.overhead.len(), 2);
        for leg in &report.overhead {
            assert!(leg.on_ns > 0.0 && leg.off_ns > 0.0, "{leg:?}");
        }
        // Rendering is total: every metric above appears in the text
        // exposition the same snapshot serves to a scrape.
        let text = snap.render_text();
        assert!(text.contains("li_inserts_total"));
        assert!(text.contains("li_shard_len{shard=\"0\"}"));
    }
}
