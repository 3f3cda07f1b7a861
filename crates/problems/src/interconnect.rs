//! Optical-interconnect golden designs: modulators, WDM mux/demux and the
//! 90° optical hybrid.

use picbench_netlist::{Netlist, NetlistBuilder};
use std::f64::consts::{FRAC_PI_2, PI};

/// Golden design for the `Direct modulator` problem: an input waveguide, a
/// Mach-Zehnder modulator biased at quadrature (half transmission) and an
/// output waveguide.
pub fn direct_modulator_golden() -> Netlist {
    let mut b = NetlistBuilder::new();
    b.instance_with("wgin", "waveguide", &[("length", 10.0)]);
    b.instance_with("mod1", "mzm", &[("phase_top", FRAC_PI_2)]);
    b.instance_with("wgout", "waveguide", &[("length", 10.0)]);
    b.connect("wgin,O1", "mod1,I1");
    b.connect("mod1,O1", "wgout,I1");
    b.port("I1", "wgin,I1");
    b.port("O1", "wgout,O1");
    b.model("waveguide", "waveguide");
    b.model("mzm", "mzm");
    b.build()
}

/// Appends one IQ (QPSK) modulator stage to a builder.
///
/// Creates instances `{prefix}split`, `{prefix}mzmi`, `{prefix}mzmq`,
/// `{prefix}ps` and `{prefix}comb`; the stage runs from
/// `{prefix}split,I1` to `{prefix}comb,I1` (the combiner is a reversed
/// 1×2 MMI, as in the paper's golden MZI design).
fn add_iq_stage(b: &mut NetlistBuilder, prefix: &str, bias_i: f64, bias_q: f64) {
    let split = format!("{prefix}split");
    let mzmi = format!("{prefix}mzmi");
    let mzmq = format!("{prefix}mzmq");
    let ps = format!("{prefix}ps");
    let comb = format!("{prefix}comb");
    b.instance(&split, "mmi");
    b.instance_with(
        &mzmi,
        "mzm",
        &[("phase_top", bias_i), ("phase_bottom", -bias_i)],
    );
    b.instance_with(
        &mzmq,
        "mzm",
        &[("phase_top", bias_q), ("phase_bottom", -bias_q)],
    );
    b.instance_with(
        &ps,
        "phaseshifter",
        &[("length", 0.0), ("phase", FRAC_PI_2)],
    );
    b.instance(&comb, "mmi");
    b.connect(&format!("{split},O1"), &format!("{mzmi},I1"));
    b.connect(&format!("{split},O2"), &format!("{mzmq},I1"));
    b.connect(&format!("{mzmi},O1"), &format!("{comb},O1"));
    b.connect(&format!("{mzmq},O1"), &format!("{ps},I1"));
    b.connect(&format!("{ps},O1"), &format!("{comb},O2"));
}

fn iq_models(b: &mut NetlistBuilder) {
    b.model("mmi", "mmi1x2");
    b.model("mzm", "mzm");
    b.model("phaseshifter", "phaseshifter");
}

/// Golden design for the `QPSK modulator` problem: a single IQ stage —
/// parallel I and Q Mach-Zehnder modulators with a 90° shift on the Q
/// path.
pub fn qpsk_modulator_golden() -> Netlist {
    let mut b = NetlistBuilder::new();
    add_iq_stage(&mut b, "iq", PI / 4.0, PI / 4.0);
    b.port("I1", "iqsplit,I1");
    b.port("O1", "iqcomb,I1");
    iq_models(&mut b);
    b.build()
}

/// Golden design for the `8-QAM modulator` problem: a QPSK stage in
/// parallel with an amplitude (BPSK) branch at half amplitude, combined
/// asymmetrically.
pub fn qam8_modulator_golden() -> Netlist {
    let mut b = NetlistBuilder::new();
    // Asymmetric split: 2/3 of the power to the QPSK stage.
    b.instance_with("insplit", "splitter", &[("ratio", 2.0 / 3.0)]);
    add_iq_stage(&mut b, "iq", PI / 4.0, PI / 4.0);
    b.instance_with(
        "mzmamp",
        "mzm",
        &[("phase_top", PI / 4.0), ("phase_bottom", -PI / 4.0)],
    );
    b.instance_with("att", "attenuator", &[("attenuation", 6.0206)]);
    b.instance("outcomb", "mmi");
    b.connect("insplit,O1", "iqsplit,I1");
    b.connect("insplit,O2", "mzmamp,I1");
    b.connect("mzmamp,O1", "att,I1");
    b.connect("iqcomb,I1", "outcomb,O1");
    b.connect("att,O1", "outcomb,O2");
    b.port("I1", "insplit,I1");
    b.port("O1", "outcomb,I1");
    iq_models(&mut b);
    b.model("splitter", "splitter");
    b.model("attenuator", "attenuator");
    b.build()
}

/// Golden design for the `64-QAM modulator` problem: three IQ stages with
/// binary-weighted amplitudes (0 dB, 6 dB, 12 dB) combined through a
/// splitter/combiner tree.
pub fn qam64_modulator_golden() -> Netlist {
    let mut b = NetlistBuilder::new();
    // Splitter tree: stage weights 1, 1/2, 1/4 in amplitude are applied by
    // attenuators; the splitters just fan out.
    b.instance("splita", "splitter");
    b.instance("splitb", "splitter");
    for (idx, prefix) in ["msb", "mid", "lsb"].iter().enumerate() {
        add_iq_stage(&mut b, prefix, PI / 4.0, PI / 4.0);
        let att_db = 6.0206 * idx as f64;
        b.instance_with(
            &format!("{prefix}att"),
            "attenuator",
            &[("attenuation", att_db)],
        );
        b.connect(&format!("{prefix}comb,I1"), &format!("{prefix}att,I1"));
    }
    b.connect("splita,O1", "msbsplit,I1");
    b.connect("splita,O2", "splitb,I1");
    b.connect("splitb,O1", "midsplit,I1");
    b.connect("splitb,O2", "lsbsplit,I1");
    // Combiner tree (reversed 1×2 MMIs).
    b.instance("comba", "mmi");
    b.instance("combb", "mmi");
    b.connect("midatt,O1", "combb,O1");
    b.connect("lsbatt,O1", "combb,O2");
    b.connect("msbatt,O1", "comba,O1");
    b.connect("combb,I1", "comba,O2");
    b.port("I1", "splita,I1");
    b.port("O1", "comba,I1");
    iq_models(&mut b);
    b.model("splitter", "splitter");
    b.model("attenuator", "attenuator");
    b.build()
}

/// The four WDM channel wavelengths (µm) used by the mux/demux goldens.
pub const WDM_CHANNELS_UM: [f64; 4] = [1.52, 1.54, 1.56, 1.58];

/// Ring radius resonant at `wavelength_um` with azimuthal order chosen
/// near a 1.1 µm radius (small enough that the free spectral range
/// exceeds the 1510–1590 nm band, so each ring addresses exactly one
/// channel).
pub fn wdm_ring_radius(wavelength_um: f64) -> f64 {
    let neff = picbench_sparams::models::effective_index(
        wavelength_um,
        picbench_sparams::models::DEFAULT_NEFF,
        picbench_sparams::models::DEFAULT_NG,
        picbench_sparams::models::DEFAULT_WL0_UM,
    );
    let m = 10.0; // azimuthal order
    m * wavelength_um / (2.0 * PI * neff)
}

fn wdm_ring(b: &mut NetlistBuilder, name: &str, channel_um: f64) {
    b.instance_with(
        name,
        "ringad",
        &[
            ("radius", wdm_ring_radius(channel_um)),
            ("coupling1", 0.05),
            ("coupling2", 0.05),
        ],
    );
}

/// Golden design for the `WDM demux` problem: a bus waveguide carrying
/// four channels past four add-drop rings, each resonant at one channel
/// and dropping it to its own output.
pub fn wdm_demux_golden() -> Netlist {
    let mut b = NetlistBuilder::new();
    for (k, &ch) in WDM_CHANNELS_UM.iter().enumerate() {
        wdm_ring(&mut b, &format!("ring{}", k + 1), ch);
    }
    // Bus: input → ring1 → ring2 → ring3 → ring4 (through ports chained).
    b.connect("ring1,O1", "ring2,I1");
    b.connect("ring2,O1", "ring3,I1");
    b.connect("ring3,O1", "ring4,I1");
    b.port("I1", "ring1,I1");
    for k in 1..=4 {
        b.port(&format!("O{k}"), &format!("ring{k},O2"));
    }
    b.model("ringad", "ringad");
    b.build()
}

/// Golden design for the `WDM mux` problem: the demux run in reverse —
/// each channel enters its ring's add port and joins the common bus.
pub fn wdm_mux_golden() -> Netlist {
    let mut b = NetlistBuilder::new();
    for (k, &ch) in WDM_CHANNELS_UM.iter().enumerate() {
        wdm_ring(&mut b, &format!("ring{}", k + 1), ch);
    }
    b.connect("ring1,O1", "ring2,I1");
    b.connect("ring2,O1", "ring3,I1");
    b.connect("ring3,O1", "ring4,I1");
    for k in 1..=4usize {
        b.port(&format!("I{k}"), &format!("ring{k},I2"));
    }
    b.port("O1", "ring4,O1");
    b.model("ringad", "ringad");
    b.build()
}

/// Golden design for the `Optical hybrid` problem: a 90° hybrid mixing a
/// signal (I1) and a local oscillator (I2) into four quadrature outputs,
/// built from two 1×2 splitters, two 2×2 MMIs and a 90° phase shifter.
pub fn optical_hybrid_golden() -> Netlist {
    let mut b = NetlistBuilder::new();
    b.instance("splitsig", "mmi");
    b.instance("splitlo", "mmi");
    b.instance_with(
        "ps90",
        "phaseshifter",
        &[("length", 0.0), ("phase", FRAC_PI_2)],
    );
    b.instance("mixa", "mmi22");
    b.instance("mixb", "mmi22");
    b.connect("splitsig,O1", "mixa,I1");
    b.connect("splitlo,O1", "mixa,I2");
    b.connect("splitsig,O2", "mixb,I1");
    b.connect("splitlo,O2", "ps90,I1");
    b.connect("ps90,O1", "mixb,I2");
    b.port("I1", "splitsig,I1");
    b.port("I2", "splitlo,I1");
    b.port("O1", "mixa,O1");
    b.port("O2", "mixa,O2");
    b.port("O3", "mixb,O1");
    b.port("O4", "mixb,O2");
    b.model("mmi", "mmi1x2");
    b.model("mmi22", "mmi2x2");
    b.model("phaseshifter", "phaseshifter");
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use picbench_sim::{simulate_netlist, ModelRegistry, PortSpec, WavelengthGrid};

    fn simulate(netlist: &Netlist, spec: PortSpec) -> picbench_sim::FrequencyResponse {
        let registry = ModelRegistry::with_builtins();
        simulate_netlist(
            netlist,
            &registry,
            Some(&spec),
            &WavelengthGrid::paper_default(),
        )
        .unwrap()
    }

    #[test]
    fn direct_modulator_sits_at_quadrature() {
        let r = simulate(&direct_modulator_golden(), PortSpec::new(1, 1));
        let t = r.transmission("I1", "O1").unwrap();
        for v in t {
            // cos²(π/4) = 1/2, minus a little waveguide loss.
            assert!((v.norm_sqr() - 0.5).abs() < 0.01, "got {}", v.norm_sqr());
        }
    }

    #[test]
    fn qpsk_modulator_passes_light() {
        let r = simulate(&qpsk_modulator_golden(), PortSpec::new(1, 1));
        let t = r.transmission("I1", "O1").unwrap();
        for v in t {
            assert!(v.norm_sqr() > 0.05 && v.norm_sqr() <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn qam_goldens_are_passive_and_transmit() {
        for golden in [qam8_modulator_golden(), qam64_modulator_golden()] {
            let r = simulate(&golden, PortSpec::new(1, 1));
            let t = r.transmission("I1", "O1").unwrap();
            for v in &t {
                assert!(v.norm_sqr() <= 1.0 + 1e-9, "gain is unphysical");
            }
            assert!(
                t.iter().map(|v| v.norm_sqr()).fold(0.0, f64::max) > 0.01,
                "modulator should transmit some light"
            );
        }
    }

    #[test]
    fn qam64_has_three_iq_stages() {
        let golden = qam64_modulator_golden();
        let mzms = golden
            .instances
            .iter()
            .filter(|(_, i)| i.component == "mzm")
            .count();
        assert_eq!(mzms, 6, "three IQ stages, two MZMs each");
        assert!(golden.instances.len() >= 20);
    }

    #[test]
    fn wdm_demux_separates_channels() {
        let r = simulate(&wdm_demux_golden(), PortSpec::new(1, 4));
        let wavelengths = r.wavelengths().to_vec();
        for (k, &ch) in WDM_CHANNELS_UM.iter().enumerate() {
            let out = format!("O{}", k + 1);
            let t = r.transmission_db("I1", &out).unwrap();
            // Transmission at the channel wavelength…
            let at = |target: f64| -> f64 {
                let idx = wavelengths
                    .iter()
                    .enumerate()
                    .min_by(|a, b| {
                        (a.1 - target)
                            .abs()
                            .partial_cmp(&(b.1 - target).abs())
                            .unwrap()
                    })
                    .unwrap()
                    .0;
                t[idx]
            };
            let on_channel = at(ch);
            assert!(
                on_channel > -8.0,
                "channel {k} should drop near {ch} um, got {on_channel} dB"
            );
            // …must beat the transmission at the other channels by a
            // healthy margin (isolation).
            for (j, &other) in WDM_CHANNELS_UM.iter().enumerate() {
                if j != k {
                    let off_channel = at(other);
                    assert!(
                        on_channel - off_channel > 8.0,
                        "isolation {k} vs {j}: {on_channel} vs {off_channel} dB"
                    );
                }
            }
        }
    }

    #[test]
    fn wdm_mux_combines_channels() {
        let r = simulate(&wdm_mux_golden(), PortSpec::new(4, 1));
        let wavelengths = r.wavelengths().to_vec();
        for (k, &ch) in WDM_CHANNELS_UM.iter().enumerate() {
            let input = format!("I{}", k + 1);
            let t = r.transmission_db(&input, "O1").unwrap();
            let idx = wavelengths
                .iter()
                .enumerate()
                .min_by(|a, b| (a.1 - ch).abs().partial_cmp(&(b.1 - ch).abs()).unwrap())
                .unwrap()
                .0;
            assert!(
                t[idx] > -8.0,
                "channel {k} should reach the common port at {ch} um, got {} dB",
                t[idx]
            );
        }
    }

    #[test]
    fn hybrid_outputs_are_balanced_quarters() {
        let r = simulate(&optical_hybrid_golden(), PortSpec::new(2, 4));
        for out in ["O1", "O2", "O3", "O4"] {
            let t = r.transmission("I1", out).unwrap();
            for v in t {
                assert!(
                    (v.norm_sqr() - 0.25).abs() < 1e-9,
                    "signal power to {out} should be 1/4, got {}",
                    v.norm_sqr()
                );
            }
        }
    }

    #[test]
    fn hybrid_has_quadrature_relationship() {
        // The relative phase between the two mixers' beat terms is 90°:
        // compare arg(S_sig→O1 · conj(S_lo→O1)) with the same at O3.
        let r = simulate(&optical_hybrid_golden(), PortSpec::new(2, 4));
        let idx = 40; // mid-band sample
        let s = |from: &str, to: &str| r.transmission(from, to).unwrap()[idx];
        let beat1 = (s("I1", "O1") * s("I2", "O1").conj()).arg();
        let beat3 = (s("I1", "O3") * s("I2", "O3").conj()).arg();
        let mut diff = (beat1 - beat3).abs() % (2.0 * PI);
        if diff > PI {
            diff = 2.0 * PI - diff;
        }
        assert!(
            (diff - FRAC_PI_2).abs() < 1e-6,
            "quadrature phase should be 90°, got {} rad",
            diff
        );
    }
}
