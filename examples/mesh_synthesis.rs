//! Synthesize a programmable MZI mesh for a target unitary with both the
//! Reck and Clements schemes, then verify by simulation that the mesh's
//! S-matrix equals the target.
//!
//! ```sh
//! cargo run --example mesh_synthesis
//! ```

use picbench::math::{decomp, CMatrix, MeshScheme};
use picbench::problems::meshes::mesh_netlist;
use picbench::sim::{evaluate, Circuit, ModelRegistry};
use rand::SeedableRng;

fn mesh_matrix(
    netlist: &picbench::netlist::Netlist,
    n: usize,
) -> Result<CMatrix, Box<dyn std::error::Error>> {
    let registry = ModelRegistry::with_builtins();
    let circuit = Circuit::elaborate(netlist, &registry, None)?;
    let s = evaluate(&circuit, 1.55)?;
    Ok(CMatrix::from_fn(n, n, |r, c| {
        s.s(&format!("I{}", c + 1), &format!("O{}", r + 1)).unwrap()
    }))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 6;
    // A Haar-random target unitary.
    let mut rng = rand::rngs::StdRng::seed_from_u64(20260611);
    let target = decomp::random_unitary(n, &mut rng);
    println!("Target: Haar-random {n}x{n} unitary\n");

    for scheme in [MeshScheme::Reck, MeshScheme::Clements] {
        let mesh = decomp::decompose(&target, scheme)?;
        let netlist = mesh_netlist(&mesh);
        let realized = mesh_matrix(&netlist, n)?;
        let algebra_err = mesh.rebuild().max_abs_diff(&target);
        let physics_err = realized.max_abs_diff(&target);
        println!(
            "{scheme:>9} mesh: {} MZI stages, {} instances",
            mesh.stage_count(),
            netlist.instances.len()
        );
        println!("  matrix-algebra rebuild error : {algebra_err:.2e}");
        println!("  simulated S-matrix error     : {physics_err:.2e}");
        assert!(physics_err < 1e-8, "mesh must realize the target");

        // Depth: the Clements arrangement should be shallower (more
        // parallel) than the triangular Reck arrangement for the same
        // stage count. Estimate depth as the longest chain per wire.
        let mut depth = vec![0usize; n];
        for f in &mesh.factors {
            let d = depth[f.mode].max(depth[f.mode + 1]) + 1;
            depth[f.mode] = d;
            depth[f.mode + 1] = d;
        }
        println!(
            "  optical depth (MZIs on longest path): {}\n",
            depth.iter().max().unwrap()
        );
    }

    println!("Both schemes realize the same unitary; Clements does it at lower depth.");
    Ok(())
}
