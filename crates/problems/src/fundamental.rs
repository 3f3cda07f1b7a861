//! Fundamental-device golden designs: the Mach-Zehnder modulator and the
//! MZI-with-phase-shifter (the paper's running example, Figs. 2 & 4).

use picbench_netlist::{Netlist, NetlistBuilder};
use std::f64::consts::FRAC_PI_2;

/// Golden design for the `MZI ps` problem, exactly as in the paper's
/// Fig. 4 (corrected version): a 1×2 MMI splitter, a waveguide on the
/// bottom arm carrying the ΔL = 10 µm path difference, a phase shifter of
/// length L = 10 µm on the top arm, and a reversed 1×2 MMI combiner.
pub fn mzi_ps_golden() -> Netlist {
    let mut b = NetlistBuilder::new();
    b.instance("mmi1", "mmi");
    b.instance("mmi2", "mmi");
    // Bottom arm: length = phase-shifter length + ΔL.
    b.instance_with("waveBottom", "waveguide", &[("length", 20.0)]);
    b.instance_with("phaseShifter", "phaseshifter", &[("length", 10.0)]);
    b.connect("mmi1,O1", "waveBottom,I1");
    b.connect("waveBottom,O1", "mmi2,O1");
    b.connect("mmi1,O2", "phaseShifter,I1");
    b.connect("phaseShifter,O1", "mmi2,O2");
    b.port("I1", "mmi1,I1");
    b.port("O1", "mmi2,I1");
    b.model("mmi", "mmi1x2");
    b.model("waveguide", "waveguide");
    b.model("phaseshifter", "phaseshifter");
    b.build()
}

/// Golden design for the `MZM` problem: a push-pull Mach-Zehnder
/// modulator circuit — splitter, phase shifters on both arms (biased at
/// ±π/4, i.e. quadrature), combiner.
pub fn mzm_golden() -> Netlist {
    let mut b = NetlistBuilder::new();
    b.instance("mmi1", "mmi");
    b.instance("mmi2", "mmi");
    b.instance_with(
        "psTop",
        "phaseshifter",
        &[("length", 10.0), ("phase", FRAC_PI_2 / 2.0)],
    );
    b.instance_with(
        "psBottom",
        "phaseshifter",
        &[("length", 10.0), ("phase", -FRAC_PI_2 / 2.0)],
    );
    b.connect("mmi1,O1", "psTop,I1");
    b.connect("mmi1,O2", "psBottom,I1");
    b.connect("psTop,O1", "mmi2,O1");
    b.connect("psBottom,O1", "mmi2,O2");
    b.port("I1", "mmi1,I1");
    b.port("O1", "mmi2,I1");
    b.model("mmi", "mmi1x2");
    b.model("phaseshifter", "phaseshifter");
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use picbench_sim::{simulate_netlist, ModelRegistry, PortSpec, WavelengthGrid};

    #[test]
    fn mzi_ps_matches_builtin_mzi_shape() {
        // The golden (ΔL = 10, both arms sharing the same loss model) must
        // produce the same |S|² fringe as the built-in mzi with ΔL = 10.
        let registry = ModelRegistry::with_builtins();
        let golden = simulate_netlist(
            &mzi_ps_golden(),
            &registry,
            Some(&PortSpec::new(1, 1)),
            &WavelengthGrid::paper_default(),
        )
        .unwrap();

        let builtin = picbench_netlist::NetlistBuilder::new()
            .instance_with("m", "mzi", &[("delta_length", 10.0), ("length", 10.0)])
            .port("I1", "m,I1")
            .port("O1", "m,O1")
            .model("mzi", "mzi")
            .build();
        let reference = simulate_netlist(
            &builtin,
            &registry,
            Some(&PortSpec::new(1, 1)),
            &WavelengthGrid::paper_default(),
        )
        .unwrap();

        let got = golden.transmission("I1", "O1").unwrap();
        let want = reference.transmission("I1", "O1").unwrap();
        for (g, w) in got.iter().zip(&want) {
            assert!(
                (g.norm_sqr() - w.norm_sqr()).abs() < 1e-9,
                "fringe mismatch: {} vs {}",
                g.norm_sqr(),
                w.norm_sqr()
            );
        }
    }

    #[test]
    fn mzi_ps_has_fringes_in_band() {
        let registry = ModelRegistry::with_builtins();
        let r = simulate_netlist(
            &mzi_ps_golden(),
            &registry,
            None,
            &WavelengthGrid::paper_default(),
        )
        .unwrap();
        let powers: Vec<f64> = r
            .transmission("I1", "O1")
            .unwrap()
            .iter()
            .map(|t| t.norm_sqr())
            .collect();
        let max = powers.iter().fold(0.0f64, |a, &b| a.max(b));
        let min = powers.iter().fold(1.0f64, |a, &b| a.min(b));
        assert!(max > 0.9, "fringe peak missing (max = {max})");
        assert!(min < 0.1, "fringe null missing (min = {min})");
    }

    #[test]
    fn mzm_sits_at_quadrature() {
        let registry = ModelRegistry::with_builtins();
        let r = simulate_netlist(
            &mzm_golden(),
            &registry,
            Some(&PortSpec::new(1, 1)),
            &WavelengthGrid::paper_default(),
        )
        .unwrap();
        // Push-pull ±π/4 → |cos(π/4)|² = 1/2, balanced arms ⇒ flat.
        for t in r.transmission("I1", "O1").unwrap() {
            assert!((t.norm_sqr() - 0.5).abs() < 0.01, "got {}", t.norm_sqr());
        }
    }
}
