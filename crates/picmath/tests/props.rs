//! Property-based tests for the math kernels.

use picbench_math::{decomp, CMatrix, Complex, LuDecomposition, MeshScheme};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn complex_strategy() -> impl Strategy<Value = Complex> {
    (-10.0f64..10.0, -10.0f64..10.0).prop_map(|(re, im)| Complex::new(re, im))
}

fn matrix_strategy(n: usize) -> impl Strategy<Value = CMatrix> {
    proptest::collection::vec(complex_strategy(), n * n)
        .prop_map(move |data| CMatrix::from_fn(n, n, |r, c| data[r * n + c]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn complex_multiplication_is_commutative_and_distributive(
        a in complex_strategy(),
        b in complex_strategy(),
        c in complex_strategy(),
    ) {
        prop_assert!((a * b - b * a).abs() < 1e-9);
        prop_assert!((a * (b + c) - (a * b + a * c)).abs() < 1e-9);
    }

    #[test]
    fn complex_polar_roundtrip(z in complex_strategy()) {
        prop_assume!(z.abs() > 1e-9);
        let back = Complex::from_polar(z.abs(), z.arg());
        prop_assert!(back.approx_eq(z, 1e-9 * z.abs().max(1.0)));
    }

    #[test]
    fn matrix_transpose_involution(m in matrix_strategy(4)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn dagger_reverses_products(a in matrix_strategy(3), b in matrix_strategy(3)) {
        let lhs = (&a * &b).dagger();
        let rhs = &b.dagger() * &a.dagger();
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-9);
    }

    #[test]
    fn lu_solve_has_small_residual(m in matrix_strategy(5), seed in 0u64..1000) {
        // Skip (rare) near-singular draws.
        let lu = match LuDecomposition::factor(&m) {
            Ok(lu) => lu,
            Err(_) => return Ok(()),
        };
        prop_assume!(lu.det().abs() > 1e-6);
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        let b: Vec<Complex> = (0..5)
            .map(|_| Complex::new(rng.gen_range(-5.0..5.0), rng.gen_range(-5.0..5.0)))
            .collect();
        let x = lu.solve(&b);
        let r = m.mul_vec(&x);
        for i in 0..5 {
            prop_assert!((r[i] - b[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn inverse_is_two_sided(m in matrix_strategy(4)) {
        let lu = match LuDecomposition::factor(&m) {
            Ok(lu) => lu,
            Err(_) => return Ok(()),
        };
        prop_assume!(lu.det().abs() > 1e-6);
        let inv = lu.inverse();
        prop_assert!((&m * &inv).is_identity(1e-6));
        prop_assert!((&inv * &m).is_identity(1e-6));
    }

    #[test]
    fn decomposition_roundtrips_random_unitaries(
        seed in 0u64..10_000,
        n in 2usize..7,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let u = decomp::random_unitary(n, &mut rng);
        for scheme in [MeshScheme::Reck, MeshScheme::Clements] {
            let mesh = decomp::decompose(&u, scheme).expect("unitary input");
            prop_assert_eq!(mesh.stage_count(), n * (n - 1) / 2);
            let err = mesh.rebuild().max_abs_diff(&u);
            prop_assert!(err < 1e-8, "{} rebuild error {err:.2e}", scheme);
        }
    }

    #[test]
    fn unitary_products_stay_unitary(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = decomp::random_unitary(4, &mut rng);
        let b = decomp::random_unitary(4, &mut rng);
        prop_assert!((&a * &b).is_unitary(1e-8));
    }

    #[test]
    fn scale_in_place_matches_scale(a in matrix_strategy(5), k in complex_strategy()) {
        let mut s = a.clone();
        s.scale_in_place(k);
        prop_assert!(s.max_abs_diff(&a.scale(k)) < 1e-12);
    }
}
