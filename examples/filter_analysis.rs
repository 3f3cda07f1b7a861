//! Characterize a microring add-drop filter with the spectrum-analysis
//! toolbox: resonance positions, free spectral range, 3 dB bandwidth,
//! insertion loss, extinction — and cross-check the FSR against theory.
//!
//! ```sh
//! cargo run --release --example filter_analysis
//! ```

use picbench::netlist::NetlistBuilder;
use picbench::sim::analysis::{
    bandwidth_3db, extinction_ratio_db, find_notches, find_peaks, free_spectral_range_um,
    insertion_loss_db,
};
use picbench::sim::{simulate_netlist, ModelRegistry, WavelengthGrid};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let radius = 5.0;
    let coupling = 0.08;
    let netlist = NetlistBuilder::new()
        .instance_with(
            "ring",
            "ringad",
            &[
                ("radius", radius),
                ("coupling1", coupling),
                ("coupling2", coupling),
            ],
        )
        .port("I1", "ring,I1")
        .port("I2", "ring,I2")
        .port("O1", "ring,O1")
        .port("O2", "ring,O2")
        .model("ringad", "ringad")
        .build();

    let registry = ModelRegistry::with_builtins();
    let response = simulate_netlist(
        &netlist,
        &registry,
        None,
        &WavelengthGrid::new(1.51, 1.59, 4001),
    )?;
    let wl = response.wavelengths().to_vec();
    let drop_db = response.transmission_db("I1", "O2").unwrap();
    let thru_db = response.transmission_db("I1", "O1").unwrap();

    println!("Add-drop microring: radius {radius} um, coupling {coupling}\n");

    let peaks = find_peaks(&wl, &drop_db, 10.0);
    println!("Drop-port resonances ({}):", peaks.len());
    for p in &peaks {
        let bw = bandwidth_3db(&wl, &drop_db, p)
            .map(|b| format!("{:.1} pm", b * 1e6))
            .unwrap_or_else(|| "n/a (band edge)".to_string());
        println!(
            "  {:9.4} um   {:6.2} dB   3dB bandwidth {}",
            p.wavelength_um, p.value_db, bw
        );
    }

    if let Some(fsr) = free_spectral_range_um(&peaks) {
        // FSR theory: λ²/(n_g·L_rt) with L_rt = 2πR.
        let circumference = 2.0 * std::f64::consts::PI * radius;
        let theory = 1.55 * 1.55 / (4.2 * circumference);
        println!(
            "\nFSR measured {:.3} nm vs theory {:.3} nm ({:+.1}%)",
            fsr * 1e3,
            theory * 1e3,
            (fsr - theory) / theory * 100.0
        );
    }

    println!(
        "\nDrop port : insertion loss {:.2} dB, extinction {:.1} dB",
        insertion_loss_db(&drop_db),
        extinction_ratio_db(&drop_db)
    );
    println!(
        "Through   : insertion loss {:.2} dB, on-resonance rejection {:.1} dB",
        insertion_loss_db(&thru_db),
        extinction_ratio_db(&thru_db)
    );

    let notches = find_notches(&wl, &thru_db, 10.0);
    println!(
        "Through-port notches align with drop peaks: {} notches / {} peaks",
        notches.len(),
        peaks.len()
    );
    for (n, p) in notches.iter().zip(&peaks) {
        assert!(
            (n.wavelength_um - p.wavelength_um).abs() < 1e-3,
            "notch/peak misalignment"
        );
    }
    println!("\nAll resonances consistent between drop and through ports.");
    Ok(())
}
