//! Quickstart: build a Mach-Zehnder interferometer netlist, simulate it
//! over the C+L band, and print its transmission spectrum.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use picbench::netlist::NetlistBuilder;
use picbench::sim::{simulate_netlist, ModelRegistry, PortSpec, WavelengthGrid};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Describe the circuit: a 1×2 MMI splitter, two arms with a 15 µm
    //    path difference, and a reversed MMI combiner — the same topology
    //    as the paper's MZI example.
    let netlist = NetlistBuilder::new()
        .instance("split", "mmi")
        .instance("combine", "mmi")
        .instance_with("armTop", "waveguide", &[("length", 10.0)])
        .instance_with("armBottom", "waveguide", &[("length", 25.0)])
        .connect("split,O1", "armTop,I1")
        .connect("split,O2", "armBottom,I1")
        .connect("armTop,O1", "combine,O1")
        .connect("armBottom,O1", "combine,O2")
        .port("I1", "split,I1")
        .port("O1", "combine,I1")
        .model("mmi", "mmi1x2")
        .model("waveguide", "waveguide")
        .build();

    println!("Netlist:\n{}\n", netlist.to_json_string());

    // 2. Simulate with the built-in component models.
    let registry = ModelRegistry::with_builtins();
    let response = simulate_netlist(
        &netlist,
        &registry,
        Some(&PortSpec::new(1, 1)),
        &WavelengthGrid::paper_default(),
    )?;

    // 3. Plot the fringe as ASCII art.
    let db = response.transmission_db("I1", "O1").expect("ports exist");
    println!("MZI transmission I1 -> O1 (1510-1590 nm):\n");
    for (wl, t) in response.wavelengths().iter().zip(&db) {
        let bars = ((t + 40.0).max(0.0) * 1.5) as usize;
        println!("{:7.4} um  {:>8.2} dB  {}", wl, t, "#".repeat(bars));
    }

    let min = db.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = db.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    println!("\nFringe contrast: {:.1} dB", max - min);
    Ok(())
}
