//! Property tests for the model substrate and the extension modules
//! (string RMI, delta index, quantization, isotonic calibration).

use learned_indexes::models::rng::SplitMix64;
use learned_indexes::models::{Codebook, IsotonicModel, LinearModel, Model, QuantizedLinear};
use learned_indexes::rmi::{DeltaIndex, RmiConfig, StringRmi, StringRmiConfig, TopModel};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Sorted keys ending just below 2⁶³ or 2⁶⁴, each gap drawn from
/// `[spacing, 2·spacing)` — the magnitudes at which a naive Σx² has no
/// correct bit left.
fn huge_keys(n: usize, log_spacing: u32, below_2_64: bool, seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    let spacing = 1u64 << log_spacing;
    let gaps: Vec<u64> = (0..n).map(|_| spacing + rng.next_u64() % spacing).collect();
    let ceiling = if below_2_64 { u64::MAX } else { 1u64 << 63 };
    let mut key = ceiling - gaps.iter().sum::<u64>();
    gaps.iter()
        .map(|gap| {
            key += gap;
            key
        })
        .collect()
}

/// `LinearModel::fit` over `(key, position)` against the textbook
/// two-pass form with EXACT centring: the keys are integers, so
/// `n·xᵢ − Σx` is computed in `i128` without rounding and only the
/// products are accumulated in `f64`.
fn assert_fit_matches_centred_oracle(keys: &[u64]) -> Result<(), TestCaseError> {
    let xs: Vec<f64> = keys.iter().map(|&k| k as f64).collect();
    let m = LinearModel::fit(xs.iter().enumerate().map(|(i, &x)| (x, i as f64)));

    let n = xs.len() as i128;
    let sum_x: i128 = xs.iter().map(|&x| x as i128).sum();
    let sum_y: i128 = n * (n - 1) / 2;
    let (mut cov, mut var) = (0.0f64, 0.0f64);
    for (i, &x) in xs.iter().enumerate() {
        let cx = (n * x as i128 - sum_x) as f64 / n as f64;
        let cy = (n * i as i128 - sum_y) as f64 / n as f64;
        cov += cx * cy;
        var += cx * cx;
    }
    prop_assume!(var > 0.0);
    let slope = cov / var;
    let intercept = sum_y as f64 / n as f64 - slope * (sum_x as f64 / n as f64);

    let rel = |got: f64, want: f64| (got - want).abs() / want.abs();
    prop_assert!(
        rel(m.slope(), slope) <= 1e-9,
        "slope {} vs {}",
        m.slope(),
        slope
    );
    prop_assert!(
        rel(m.intercept(), intercept) <= 1e-9,
        "intercept {} vs {}",
        m.intercept(),
        intercept
    );
    // Positions agree to ±1, plus what evaluating `slope·x + intercept`
    // in f64 costs either model at this magnitude (nothing once the
    // keys are 2¹⁵ apart; below that the product itself is rounded to
    // more than a position).
    let x_max = xs[xs.len() - 1];
    let tolerance = 1.0 + 4.0 * (slope * x_max).abs() * f64::EPSILON;
    for &x in xs.iter().step_by((xs.len() / 512).max(1)) {
        let (got, want) = (m.predict(x), slope * x + intercept);
        prop_assert!(
            (got - want).abs() <= tolerance,
            "x {}: {} vs {}",
            x,
            got,
            want
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ols_is_exact_on_affine_data(
        slope in -1e3f64..1e3,
        intercept in -1e6f64..1e6,
        xs in prop::collection::btree_set(-1_000_000i32..1_000_000, 2..60),
    ) {
        let xs: Vec<f64> = xs.into_iter().map(f64::from).collect();
        let pairs: Vec<(f64, f64)> = xs.iter().map(|&x| (x, slope * x + intercept)).collect();
        let m = LinearModel::fit(pairs.iter().copied());
        for &(x, y) in &pairs {
            let err = (m.predict(x) - y).abs();
            let tol = 1e-6 * (1.0 + y.abs());
            prop_assert!(err <= tol, "err {} at x {}", err, x);
        }
    }

    #[test]
    fn ols_matches_a_centred_oracle_on_huge_keys_at_leaf_size(
        n in 2usize..4097,
        log_spacing in 0u32..41,
        below_2_64 in any::<bool>(),
        seed in any::<u64>(),
    ) {
        assert_fit_matches_centred_oracle(&huge_keys(n, log_spacing, below_2_64, seed))?;
    }

    #[test]
    fn isotonic_output_is_always_monotone(
        ys in prop::collection::vec(-1e6f64..1e6, 1..200),
    ) {
        let xs: Vec<f64> = (0..ys.len()).map(|i| i as f64).collect();
        let iso = IsotonicModel::fit_sorted(&xs, &ys);
        let mut prev = f64::NEG_INFINITY;
        for i in 0..ys.len() * 2 {
            let v = iso.predict(i as f64 / 2.0);
            prop_assert!(v >= prev - 1e-9);
            prev = v;
        }
    }

    #[test]
    fn isotonic_preserves_monotone_input(
        deltas in prop::collection::vec(0.0f64..100.0, 1..100),
    ) {
        let mut acc = 0.0;
        let ys: Vec<f64> = deltas.iter().map(|d| { acc += d; acc }).collect();
        let xs: Vec<f64> = (0..ys.len()).map(|i| i as f64).collect();
        let iso = IsotonicModel::fit_sorted(&xs, &ys);
        for (&x, &y) in xs.iter().zip(&ys) {
            prop_assert!((iso.predict(x) - y).abs() < 1e-9);
        }
    }

    #[test]
    fn quantization_error_is_bounded(
        slope in -100.0f64..100.0,
        intercept in -1e5f64..1e5,
        probes in prop::collection::vec(-1e4f64..1e4, 1..30),
    ) {
        let m = LinearModel::new(slope, intercept);
        let (sb, ib) = QuantizedLinear::stage_codebooks(&[
            m,
            LinearModel::new(-100.0, -1e5),
            LinearModel::new(100.0, 1e5),
        ]);
        let q = QuantizedLinear::quantize(&m, sb, ib);
        let bound = q.prediction_error_bound(1e4);
        for &x in &probes {
            prop_assert!((q.predict(x) - m.predict(x)).abs() <= bound + 1e-9);
        }
    }

    #[test]
    fn codebook_roundtrip_error_half_step(v in -1e6f64..1e6) {
        let book = Codebook::covering(-1e6, 1e6);
        prop_assert!((book.decode(book.encode(v)) - v).abs() <= book.max_error() + 1e-9);
    }

    #[test]
    fn delta_index_matches_btreeset_model(
        initial in prop::collection::btree_set(any::<u64>(), 1..100),
        inserts in prop::collection::vec(any::<u64>(), 0..100),
        threshold in 1usize..40,
        probes in prop::collection::vec(any::<u64>(), 1..30),
    ) {
        let initial: Vec<u64> = initial.into_iter().collect();
        let mut model: BTreeSet<u64> = initial.iter().copied().collect();
        let mut idx = DeltaIndex::new(
            initial,
            RmiConfig::two_stage(TopModel::Linear, 8),
            threshold,
        );
        for k in inserts {
            idx.insert(k);
            model.insert(k);
            if idx.needs_compaction() {
                idx.compact();
            }
        }
        prop_assert_eq!(idx.len(), model.len());
        for q in probes.iter().copied().chain(model.iter().copied().take(20)) {
            prop_assert_eq!(idx.contains(q), model.contains(&q), "q={}", q);
            prop_assert_eq!(idx.rank(q), model.range(..q).count(), "rank q={}", q);
        }
    }

    #[test]
    fn string_rmi_matches_oracle_on_arbitrary_strings(
        raw in prop::collection::btree_set("[a-z0-9]{0,12}", 1..120),
        queries in prop::collection::vec("[a-z0-9]{0,12}", 1..30),
        leaves in 1usize..32,
    ) {
        let data: Vec<String> = raw.into_iter().collect();
        let rmi = StringRmi::build(
            data.clone(),
            &StringRmiConfig { leaves, ..Default::default() },
        );
        for q in queries.iter().map(String::as_str).chain(data.iter().map(String::as_str)) {
            let expect = data.partition_point(|s| s.as_str() < q);
            prop_assert_eq!(rmi.lower_bound(q), expect, "q={}", q);
        }
    }
}

proptest! {
    // A million keys per case: few cases.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn ols_matches_a_centred_oracle_on_huge_keys_at_shard_size(
        log_spacing in 0u32..41,
        below_2_64 in any::<bool>(),
        seed in any::<u64>(),
    ) {
        assert_fit_matches_centred_oracle(&huge_keys(1_000_000, log_spacing, below_2_64, seed))?;
    }
}
