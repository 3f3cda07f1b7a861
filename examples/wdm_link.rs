//! Analyze a WDM link: multiplex four channels onto one bus, demultiplex
//! them again, and report per-channel insertion loss and isolation.
//!
//! ```sh
//! cargo run --example wdm_link
//! ```

use picbench::problems::interconnect::{wdm_demux_golden, WDM_CHANNELS_UM};
use picbench::sim::{simulate_netlist, ModelRegistry, PortSpec, WavelengthGrid};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let registry = ModelRegistry::with_builtins();
    let demux = wdm_demux_golden();
    let grid = WavelengthGrid::new(1.51, 1.59, 321);
    let response = simulate_netlist(&demux, &registry, Some(&PortSpec::new(1, 4)), &grid)?;

    println!("4-channel ring-based WDM demultiplexer");
    println!("channels: {WDM_CHANNELS_UM:?} um\n");
    println!(
        "{:>8} | {:>12} | {:>14} | {:>10}",
        "channel", "wavelength", "insertion loss", "isolation"
    );
    println!("{}", "-".repeat(55));

    let wavelengths = response.wavelengths().to_vec();
    let nearest = |target: f64| -> usize {
        wavelengths
            .iter()
            .enumerate()
            .min_by(|a, b| {
                (a.1 - target)
                    .abs()
                    .partial_cmp(&(b.1 - target).abs())
                    .unwrap()
            })
            .map(|(i, _)| i)
            .unwrap()
    };

    for (k, &ch) in WDM_CHANNELS_UM.iter().enumerate() {
        let own_port = format!("O{}", k + 1);
        let own = response.transmission_db("I1", &own_port).unwrap();
        let idx = nearest(ch);
        let insertion = own[idx];
        // Worst leakage of this channel into any *other* output.
        let mut worst_leak = f64::NEG_INFINITY;
        for j in 0..WDM_CHANNELS_UM.len() {
            if j == k {
                continue;
            }
            let other = response
                .transmission_db("I1", &format!("O{}", j + 1))
                .unwrap();
            worst_leak = worst_leak.max(other[idx]);
        }
        println!(
            "{:>8} | {:>9.3} um | {:>11.2} dB | {:>7.1} dB",
            k + 1,
            ch,
            insertion,
            insertion - worst_leak
        );
    }

    // Spectral scan of channel 1's drop port.
    println!("\nDrop-port spectrum of channel 1 (O1):");
    let o1 = response.transmission_db("I1", "O1").unwrap();
    for (i, (&wl, &t)) in wavelengths.iter().zip(&o1).enumerate() {
        if i % 16 != 0 {
            continue;
        }
        let bars = ((t + 50.0).max(0.0)) as usize;
        println!("{:7.4} um {:>8.2} dB {}", wl, t, "#".repeat(bars / 2));
    }
    Ok(())
}
