//! The bucketed `Rmi::build` this crate shipped before the streaming
//! one, kept as the oracle the streaming build must equal bit for bit:
//! every key is copied to an `f64` array, every stage materialises its
//! members' training subsets as vectors of pairs, and each member is
//! fitted and measured over its own vector — Algorithm 1 as written.

use super::*;
use li_data::Gauntlet;

fn build_bucketed(data: impl Into<KeyStore>, config: &RmiConfig) -> Rmi {
    let data: KeyStore = data.into();
    let n = data.len();
    let keys_f64: Vec<f64> = data.iter().map(|&k| k as f64).collect();

    // Stage 0 (Algorithm 1 line 6, i = 1): train on everything.
    let top = match config.top {
        TopModel::Linear => TrainedTop::Linear(LinearModel::fit_keys(&keys_f64)),
        _ => config.top.fit(&data),
    };

    // Inner stages: route with the trained prefix, then fit linear
    // models per member (lines 4-10).
    let mut mids: Vec<Vec<LinearModel>> = Vec::new();
    let inner_stage_count = config.stages.len() - 1;
    for s in 0..inner_stage_count {
        let m = config.stages[s];
        let mut buckets: Vec<Vec<(f64, f64)>> = vec![Vec::new(); m];
        for (i, &x) in keys_f64.iter().enumerate() {
            let pred = predict_through(&top, &mids, x, n);
            buckets[route(pred, m, n)].push((x, i as f64));
        }
        let stage: Vec<LinearModel> = buckets
            .into_iter()
            .map(|b| LinearModel::fit(b.into_iter()))
            .collect();
        mids.push(stage);
    }

    // Leaf stage: fit, then compute error envelopes (lines 11-12).
    let leaf_count = *config.stages.last().expect("non-empty stages");
    let mut buckets: Vec<Vec<(f64, usize)>> = vec![Vec::new(); leaf_count];
    for (i, &x) in keys_f64.iter().enumerate() {
        let pred = predict_through(&top, &mids, x, n);
        buckets[route(pred, leaf_count, n)].push((x, i));
    }

    let empty_leaf = || Leaf {
        kind: LeafKind::Linear(LinearModel::constant(0.0)),
        min_err: 0,
        max_err: 0,
        std_err: 0.0,
        n_keys: 0,
    };
    let mut leaves = Vec::with_capacity(leaf_count);
    for bucket in &buckets {
        if bucket.is_empty() {
            leaves.push(empty_leaf());
            continue;
        }
        let model = LinearModel::fit(bucket.iter().map(|&(x, y)| (x, y as f64)));
        let mut min_err = i64::MAX;
        let mut max_err = i64::MIN;
        let mut sum_sq = 0.0f64;
        for &(x, y) in bucket {
            let p = clamp_position(model.predict(x), n) as i64;
            let e = y as i64 - p;
            min_err = min_err.min(e);
            max_err = max_err.max(e);
            sum_sq += (e as f64) * (e as f64);
        }
        let std_err = (sum_sq / bucket.len() as f64).sqrt();

        // Hybrid replacement (lines 13-14).
        let abs_err = min_err.unsigned_abs().max(max_err.unsigned_abs());
        let kind = match config.hybrid_threshold {
            Some(t) if abs_err > t as u64 => {
                let first = bucket.iter().map(|&(_, y)| y).min().expect("non-empty");
                let last = bucket.iter().map(|&(_, y)| y).max().expect("non-empty");
                let tree = BTreeIndex::new(data.slice(first..last + 1), config.hybrid_page_size);
                LeafKind::BTree {
                    offset: first,
                    tree: Box::new(tree),
                }
            }
            _ => LeafKind::Linear(model),
        };
        leaves.push(Leaf {
            kind,
            min_err,
            max_err,
            std_err,
            n_keys: bucket.len(),
        });
    }

    let mut boundary = 0usize;
    for (leaf, bucket) in leaves.iter_mut().zip(&buckets) {
        if bucket.is_empty() {
            leaf.kind = LeafKind::Linear(LinearModel::constant(boundary as f64));
        } else {
            boundary = bucket.iter().map(|&(_, y)| y).max().expect("non-empty") + 1;
        }
    }

    Rmi::assemble(data, Stages::Cascade { top, mids, leaves }, config.search)
}

/// Everything a build decides, with floats compared as bit patterns.
fn fingerprint(rmi: &Rmi) -> Vec<u64> {
    let model = |m: &LinearModel| [m.slope().to_bits(), m.intercept().to_bits()];
    let Stages::Cascade { top, mids, leaves } = &rmi.stages else {
        panic!("the reference builds cascades only");
    };
    let mut out = Vec::new();
    // Non-linear tops are trained by the same call in both builds; probe
    // them at a few keys instead of reaching into their weights.
    for x in [0.0, 1.0, 1e6, 1e12, 1e18] {
        out.push(top.predict(x).to_bits());
    }
    for stage in mids {
        out.extend(stage.iter().flat_map(model));
    }
    for leaf in leaves {
        match &leaf.kind {
            LeafKind::Linear(m) => out.extend(model(m)),
            LeafKind::BTree { offset, tree } => out.extend([
                u64::MAX,
                *offset as u64,
                tree.key_store().len() as u64,
                tree.page_size() as u64,
            ]),
        }
        out.extend([
            leaf.min_err as u64,
            leaf.max_err as u64,
            leaf.std_err.to_bits(),
            leaf.n_keys as u64,
        ]);
    }
    let s = rmi.stats();
    out.extend([
        u64::from(rmi.search.to_tag()),
        s.keys as u64,
        s.leaves as u64,
        s.btree_leaves as u64,
        s.mean_abs_err.to_bits(),
        s.max_abs_err,
        s.size_bytes as u64,
        s.op_count as u64,
    ]);
    out
}

fn tops() -> [TopModel; 3] {
    [
        TopModel::Linear,
        TopModel::Multivariate(FeatureMap::FULL),
        TopModel::Mlp {
            hidden: 1,
            width: 8,
        },
    ]
}

fn configs() -> Vec<RmiConfig> {
    let mut out = Vec::new();
    for top in tops() {
        for stages in [vec![64], vec![8, 96]] {
            for hybrid_threshold in [None, Some(4)] {
                out.push(RmiConfig {
                    top: top.clone(),
                    stages: stages.clone(),
                    hybrid_threshold,
                    hybrid_page_size: 16,
                    ..RmiConfig::default()
                });
            }
        }
    }
    out
}

fn assert_same_build(keys: &[u64], config: &RmiConfig, ctx: &str) {
    let store = KeyStore::new(keys.to_vec());
    let streamed = Rmi::build(store.clone(), config);
    let bucketed = build_bucketed(store, config);
    let ctx = format!("{ctx}, n {}, {}", keys.len(), streamed.name());
    assert_eq!(fingerprint(&streamed), fingerprint(&bucketed), "{ctx}");

    // And the index it builds is exact: every key, every gap.
    let stride = (keys.len() / 4000).max(1);
    let mut queries = vec![0u64, u64::MAX];
    for (i, &k) in keys.iter().enumerate().step_by(stride) {
        assert_eq!(streamed.lower_bound(k), i, "{ctx}: key {k}");
        queries.extend([k.saturating_sub(1), k.saturating_add(1)]);
    }
    for q in queries {
        let want = keys.partition_point(|&k| k < q);
        assert_eq!(streamed.lower_bound(q), want, "{ctx}: gap {q}");
    }
}

#[test]
fn streaming_build_equals_the_bucketed_build_bit_for_bit() {
    for g in Gauntlet::ALL {
        for n in [0usize, 1, 2, 3, 1_000] {
            // The generators refuse n = 0.
            let mut keys = if n == 0 { Vec::new() } else { g.generate(n, 7) };
            keys.dedup();
            for config in configs() {
                assert_same_build(&keys, &config, g.name());
            }
        }
    }
}

#[test]
fn streaming_build_equals_the_bucketed_build_at_shard_size() {
    for g in Gauntlet::ALL {
        let mut keys = g.generate(100_000, 11);
        keys.dedup();
        for config in configs() {
            // An MLP top costs seconds to train at this size and is the
            // same call on both sides; one stage shape of it is enough.
            if matches!(config.top, TopModel::Mlp { .. }) && config.stages.len() > 1 {
                continue;
            }
            assert_same_build(&keys, &config, g.name());
        }
    }
}

#[test]
fn keys_at_the_top_of_the_domain_build_identically() {
    let keys: Vec<u64> = (0..5000u64).map(|i| u64::MAX - 3 * (4999 - i)).collect();
    for config in configs() {
        assert_same_build(&keys, &config, "top of the u64 domain");
    }
}

#[test]
fn a_zigzag_route_revisits_members_and_parked_sums_pick_up_where_they_left() {
    // No trained top is reliably non-monotone, so route by hand: odd
    // blocks of 50 keys are sent to the mirrored position, and every
    // member's keys arrive in several runs.
    let keys: Vec<u64> = (0..10_000u64).map(|i| i * i + 3).collect();
    let (n, m) = (keys.len(), 37usize);
    let zigzag = |x: f64| {
        let i = ((x - 3.0).sqrt()).round();
        if (i as usize / 50).is_multiple_of(2) {
            i
        } else {
            n as f64 - i
        }
    };
    let (members, runs) = fit_stage(&keys, m, zigzag);
    assert!(runs.len() > 4 * m, "{} runs", runs.len());
    assert_eq!(
        runs.last(),
        Some(&(route(zigzag(keys[n - 1] as f64), m, n), n))
    );

    let mut buckets: Vec<Vec<(f64, f64)>> = vec![Vec::new(); m];
    for (i, &k) in keys.iter().enumerate() {
        buckets[route(zigzag(k as f64), m, n)].push((k as f64, i as f64));
    }
    for (member, bucket) in members.iter().zip(&buckets) {
        assert_eq!(member.fit.len(), bucket.len());
        assert_eq!(
            member.fit.finish(),
            LinearModel::fit(bucket.iter().copied())
        );
        assert_eq!(member.first as f64, bucket[0].1);
        assert_eq!(member.last as f64, bucket[bucket.len() - 1].1);
    }
}
