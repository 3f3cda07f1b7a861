//! Route an 8×8 Benes switch fabric with the looping algorithm and verify
//! the routing by full S-parameter simulation.
//!
//! ```sh
//! cargo run --example switch_routing
//! ```

use picbench::problems::routing::{route_benes, route_spankebenes};
use picbench::sim::{evaluate, Circuit, ModelRegistry};

fn routing_matrix(
    netlist: &picbench::netlist::Netlist,
    n: usize,
) -> Result<Vec<Vec<f64>>, Box<dyn std::error::Error>> {
    let registry = ModelRegistry::with_builtins();
    let circuit = Circuit::elaborate(netlist, &registry, None)?;
    let s = evaluate(&circuit, 1.55)?;
    Ok((0..n)
        .map(|o| {
            (0..n)
                .map(|i| {
                    s.s(&format!("I{}", i + 1), &format!("O{}", o + 1))
                        .map(|t| t.norm_sqr())
                        .unwrap_or(0.0)
                })
                .collect()
        })
        .collect())
}

fn print_matrix(label: &str, p: &[Vec<f64>]) {
    println!("{label}");
    print!("        ");
    for i in 0..p.len() {
        print!("   I{}  ", i + 1);
    }
    println!();
    for (o, row) in p.iter().enumerate() {
        print!("  O{}  ", o + 1);
        for &v in row {
            if v > 0.5 {
                print!(" [{v:4.2}]");
            } else {
                print!("  {v:4.2} ");
            }
        }
        println!();
    }
    println!();
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The permutation to realize: input i -> output perm[i].
    let perm = vec![5usize, 2, 7, 0, 3, 6, 1, 4];
    println!("Target permutation: {perm:?}\n");

    // Benes: 20 switches, routed with the looping algorithm.
    let benes = route_benes(8, &perm)?;
    println!(
        "Benes 8x8 uses {} switches (rearrangeably non-blocking minimum).",
        benes.instances.len()
    );
    let p = routing_matrix(&benes, 8)?;
    print_matrix("Benes routing power matrix |S|^2 at 1550 nm:", &p);

    // Spanke-Benes: 28 switches in a planar arrangement, routed by
    // odd-even transposition sorting.
    let sb = route_spankebenes(8, &perm)?;
    println!(
        "Spanke-Benes 8x8 uses {} switches (planar, no crossings).",
        sb.instances.len()
    );
    let p = routing_matrix(&sb, 8)?;
    print_matrix("Spanke-Benes routing power matrix |S|^2 at 1550 nm:", &p);

    // Verify the permutation end to end.
    for (i, &o) in perm.iter().enumerate() {
        assert!(p[o][i] > 0.99, "input {i} failed to reach output {o}");
    }
    println!("All {} paths verified at > 99% power.", perm.len());
    Ok(())
}
