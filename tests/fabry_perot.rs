//! Multiple-reflection physics validation: a Fabry-Perot cavity (two
//! partial mirrors around a waveguide) simulated on both solver paths —
//! the planned production solver and the dense oracle — must reproduce
//! the analytic Airy transmission
//!
//! ```text
//! T(λ) = t⁴ / |1 − R·e^{2iφ(λ)}|²,   φ = 2π·n_eff(λ)·L/λ
//! ```
//!
//! This is the workload the paper's netlists never build (their circuits
//! are feed-forward), so it is the sharpest test that the interconnect
//! algebra — not just cascade multiplication — is implemented correctly.

use picbench::conformance::SolverPath;
use picbench::netlist::NetlistBuilder;
use picbench::sim::{Circuit, ModelRegistry};
use picbench::sparams::models::{effective_index, DEFAULT_NEFF, DEFAULT_NG, DEFAULT_WL0_UM};

fn cavity_netlist(reflectivity: f64, length_um: f64) -> picbench::netlist::Netlist {
    NetlistBuilder::new()
        .instance_with("mirrorIn", "reflector", &[("reflectivity", reflectivity)])
        .instance_with("mirrorOut", "reflector", &[("reflectivity", reflectivity)])
        .instance_with(
            "cavity",
            "waveguide",
            &[("length", length_um), ("loss", 0.0)],
        )
        .connect("mirrorIn,O1", "cavity,I1")
        .connect("cavity,O1", "mirrorOut,I1")
        .port("I1", "mirrorIn,I1")
        .port("O1", "mirrorOut,O1")
        .model("reflector", "reflector")
        .model("waveguide", "waveguide")
        .build()
}

fn airy_transmission(reflectivity: f64, length_um: f64, wl: f64) -> f64 {
    let t_sq = 1.0 - reflectivity;
    let neff = effective_index(wl, DEFAULT_NEFF, DEFAULT_NG, DEFAULT_WL0_UM);
    let phi = 2.0 * std::f64::consts::PI * neff * length_um / wl;
    // |1 − R e^{2iφ}|² = 1 − 2R cos 2φ + R².
    let denom = 1.0 - 2.0 * reflectivity * (2.0 * phi).cos() + reflectivity * reflectivity;
    t_sq * t_sq / denom
}

#[test]
fn cavity_matches_airy_formula_on_both_solver_paths() {
    let registry = ModelRegistry::with_builtins();
    for (reflectivity, length) in [(0.5, 25.0), (0.9, 40.0), (0.3, 10.0)] {
        let netlist = cavity_netlist(reflectivity, length);
        let circuit = Circuit::elaborate(&netlist, &registry, None).unwrap();
        let mut wl = 1.51;
        while wl <= 1.59 {
            let expected = airy_transmission(reflectivity, length, wl);
            for path in SolverPath::ALL {
                let s = path.evaluate(&circuit, wl).unwrap();
                let got = s.s("I1", "O1").unwrap().norm_sqr();
                assert!(
                    (got - expected).abs() < 1e-9,
                    "R={reflectivity} L={length} wl={wl} {path}: {got} vs Airy {expected}"
                );
            }
            wl += 0.003;
        }
    }
}

#[test]
fn cavity_resonances_reach_unity_transmission() {
    // On resonance a lossless symmetric Fabry-Perot transmits fully even
    // with highly reflective mirrors — only multiple-pass interference
    // can produce this.
    let registry = ModelRegistry::with_builtins();
    let netlist = cavity_netlist(0.9, 40.0);
    let circuit = Circuit::elaborate(&netlist, &registry, None).unwrap();
    let mut best: f64 = 0.0;
    let mut worst: f64 = 1.0;
    let mut wl = 1.54;
    while wl <= 1.56 {
        let s = SolverPath::Planned.evaluate(&circuit, wl).unwrap();
        let t = s.s("I1", "O1").unwrap().norm_sqr();
        best = best.max(t);
        worst = worst.min(t);
        wl += 0.00001;
    }
    assert!(best > 0.999, "resonant peak should reach unity, got {best}");
    assert!(
        worst < 0.01,
        "off-resonance transmission of an R=0.9 cavity should be tiny, got {worst}"
    );
}

#[test]
fn cavity_reflection_conserves_energy() {
    let registry = ModelRegistry::with_builtins();
    let netlist = cavity_netlist(0.7, 30.0);
    let circuit = Circuit::elaborate(&netlist, &registry, None).unwrap();
    for wl in [1.51, 1.53, 1.551, 1.572, 1.59] {
        let s = SolverPath::Planned.evaluate(&circuit, wl).unwrap();
        let t = s.s("I1", "O1").unwrap().norm_sqr();
        let r = s.s("I1", "I1").unwrap().norm_sqr();
        assert!(
            (t + r - 1.0).abs() < 1e-9,
            "lossless cavity must conserve energy at {wl}: T={t} R={r}"
        );
    }
}
