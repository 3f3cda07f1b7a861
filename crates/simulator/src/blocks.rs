//! Topology-aware block structure of the scattering system.
//!
//! The scattering equations couple an internal port only to the ports of
//! the instance its partner belongs to: writing `x_g` for the wave
//! entering internal port `g`, and `p = partner(g)`,
//!
//! ```text
//! x_g − Σ_{h ∈ internal(inst(p))} S(p, h)·x_h = Σ_{e ∈ external(inst(p))} S(p, e)·a_e
//! ```
//!
//! Grouping the unknowns by the instance that owns each port turns the
//! system into a block-sparse matrix whose pattern is the circuit's
//! connectivity graph — exactly what [`picbench_math::sparse`] factors.
//! [`BlockSchedule::for_circuit`] freezes everything the solve needs:
//!
//! * the block partition (one block per instance with internal ports)
//!   and its [`BlockSymbolic`] analysis (elimination order, static fill);
//! * **scatter recipes** mapping global-matrix entries to value/RHS
//!   storage offsets, grouped by *source instance* so a sweep can split
//!   them into a wavelength-independent baseline image and a small
//!   per-point dispersive refresh;
//! * the **combine recipe** reconstructing the external S-matrix
//!   `S_ext = S_ee + S_ei·X` by walking only the structurally nonzero
//!   instance-local entries.
//!
//! The schedule is pure topology (no settings, no wavelengths), so it
//! lives inside [`crate::SweepSchedule`] and is shared by every plan of
//! the same topology.

use crate::elaborate::Circuit;
use picbench_math::simd::Kernels;
use picbench_math::{BlockSymbolic, CMatrix, Complex, SplitComplexVec};

/// One scatter target: read `global[(row, col)]`, combine into the flat
/// destination offset `dst`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Scatter {
    /// Source row in the assembled global S-matrix.
    pub row: usize,
    /// Source column in the assembled global S-matrix.
    pub col: usize,
    /// Flat destination offset (factor values, or RHS panel).
    pub dst: usize,
}

/// One output term `out[(r, c)] += global[(row, col)] · x[x_row]` (or the
/// direct `S_ee` read when `x_row` is `None`).
#[derive(Debug, Clone, Copy)]
struct EeTerm {
    r: usize,
    c: usize,
    row: usize,
    col: usize,
}

/// One `S_ei` combine term: `out[r, :] += global[(row, col)] · x[x_row, :]`.
#[derive(Debug, Clone, Copy)]
struct EiTerm {
    r: usize,
    row: usize,
    col: usize,
    x_row: usize,
}

/// The frozen block structure of one circuit topology. See the module
/// docs for the formulation.
#[derive(Debug)]
pub(crate) struct BlockSchedule {
    /// Symbolic analysis of the block system.
    pub sym: BlockSymbolic,
    /// Scalar dimension of the block system (= number of internal ports).
    pub n_int: usize,
    /// Number of external ports.
    pub n_ext: usize,
    /// Value offsets receiving the identity's `+1` during assembly.
    diag_ones: Vec<usize>,
    /// System-matrix scatter entries (values get `−S` contributions),
    /// grouped per instance by `matrix_ranges`.
    matrix_scatter: Vec<Scatter>,
    /// `matrix_scatter` range of each instance.
    matrix_ranges: Vec<(usize, usize)>,
    /// RHS scatter entries (`+S` contributions into the `n_int × n_ext`
    /// panel), grouped per instance by `rhs_ranges`.
    rhs_scatter: Vec<Scatter>,
    /// `rhs_scatter` range of each instance.
    rhs_ranges: Vec<(usize, usize)>,
    /// Direct `S_ee` terms (same-instance external port pairs).
    ee_terms: Vec<EeTerm>,
    /// `S_ei · X` combine terms.
    ei_terms: Vec<EiTerm>,
    /// Whether each instance contributes to the system matrix, the RHS
    /// or the `S_ei` coefficients (i.e. owns or faces internal ports).
    touches_system: Vec<bool>,
}

impl BlockSchedule {
    /// Builds the block structure of a circuit's topology.
    pub fn for_circuit(circuit: &Circuit) -> Self {
        let n_ports = circuit.total_ports;
        const NONE: usize = usize::MAX;

        let mut partner = vec![NONE; n_ports];
        for &(a, b) in &circuit.connections {
            partner[a] = b;
            partner[b] = a;
        }
        let mut inst_of = vec![0usize; n_ports];
        for (ii, inst) in circuit.instances.iter().enumerate() {
            for local in 0..inst.port_names.len() {
                inst_of[inst.port_offset + local] = ii;
            }
        }
        let mut ext_pos = vec![NONE; n_ports];
        for (pos, (_, g)) in circuit.externals.iter().enumerate() {
            ext_pos[*g] = pos;
        }

        // Block partition: instances with internal ports, in instance
        // order; each block's scalar entries are its internal ports in
        // ascending global order.
        let mut block_of_inst = vec![NONE; circuit.instances.len()];
        let mut block_sizes = Vec::new();
        let mut local_in_block = vec![NONE; n_ports];
        for (ii, inst) in circuit.instances.iter().enumerate() {
            let internals: Vec<usize> = (0..inst.port_names.len())
                .map(|l| inst.port_offset + l)
                .filter(|&g| partner[g] != NONE)
                .collect();
            if internals.is_empty() {
                continue;
            }
            block_of_inst[ii] = block_sizes.len();
            for (local, &g) in internals.iter().enumerate() {
                local_in_block[g] = local;
            }
            block_sizes.push(internals.len());
        }

        // Coupling edges: the equation row of internal port `g` (in the
        // block of `inst(g)`) reads the block of `inst(partner(g))`.
        let mut edges = Vec::with_capacity(circuit.connections.len() * 2);
        for &(a, b) in &circuit.connections {
            let ba = block_of_inst[inst_of[a]];
            let bb = block_of_inst[inst_of[b]];
            edges.push((ba, bb));
        }
        edges.sort_unstable();
        edges.dedup();
        let sym = BlockSymbolic::analyze(&block_sizes, &edges);
        let n_int = sym.scalar_dim();
        let n_ext = circuit.externals.len();

        // Scalar row of each internal port in elimination order.
        let scalar_row =
            |g: usize| -> usize { sym.scalar_row(block_of_inst[inst_of[g]], local_in_block[g]) };

        // Identity diagonal.
        let mut diag_ones = Vec::with_capacity(n_int);
        for g in 0..n_ports {
            if partner[g] != NONE {
                let b = block_of_inst[inst_of[g]];
                let off = sym
                    .entry_offset(b, b, local_in_block[g], local_in_block[g])
                    .expect("diagonal blocks are always stored");
                diag_ones.push(off);
            }
        }

        // Per-instance scatter recipes. The source instance of row `g`'s
        // entries is `inst(partner(g))` — all reads are `S(p, ·)` entries
        // of that one instance's diagonal block of the global matrix.
        let mut matrix_scatter = Vec::new();
        let mut matrix_ranges = Vec::with_capacity(circuit.instances.len());
        let mut rhs_scatter = Vec::new();
        let mut rhs_ranges = Vec::with_capacity(circuit.instances.len());
        for inst in &circuit.instances {
            let m_start = matrix_scatter.len();
            let r_start = rhs_scatter.len();
            for lp in 0..inst.port_names.len() {
                let p = inst.port_offset + lp;
                if partner[p] == NONE {
                    continue;
                }
                // Row `g = partner(p)` owns the equation fed by `S(p, ·)`.
                let g = partner[p];
                let row_block = block_of_inst[inst_of[g]];
                let row_local = local_in_block[g];
                let row_scalar = scalar_row(g);
                for lh in 0..inst.port_names.len() {
                    let h = inst.port_offset + lh;
                    if partner[h] != NONE {
                        let col_block = block_of_inst[inst_of[h]];
                        let off = sym
                            .entry_offset(row_block, col_block, row_local, local_in_block[h])
                            .expect("structural coupling blocks are always stored");
                        matrix_scatter.push(Scatter {
                            row: p,
                            col: h,
                            dst: off,
                        });
                    } else if ext_pos[h] != NONE {
                        rhs_scatter.push(Scatter {
                            row: p,
                            col: h,
                            dst: row_scalar * n_ext + ext_pos[h],
                        });
                    }
                    // Dangling ports (neither connected nor exposed)
                    // carry no incoming wave and drop out of the system.
                }
            }
            matrix_ranges.push((m_start, matrix_scatter.len()));
            rhs_ranges.push((r_start, rhs_scatter.len()));
        }

        // Combine recipe: S_ee entries exist only between external ports
        // of the same instance; S_ei coefficients only between an
        // external port and the internal ports of its own instance.
        let mut ee_terms = Vec::new();
        let mut ei_terms = Vec::new();
        for (r, (_, gr)) in circuit.externals.iter().enumerate() {
            for (c, (_, gc)) in circuit.externals.iter().enumerate() {
                if inst_of[*gr] == inst_of[*gc] {
                    ee_terms.push(EeTerm {
                        r,
                        c,
                        row: *gr,
                        col: *gc,
                    });
                }
            }
            let inst = &circuit.instances[inst_of[*gr]];
            for lh in 0..inst.port_names.len() {
                let h = inst.port_offset + lh;
                if partner[h] != NONE {
                    ei_terms.push(EiTerm {
                        r,
                        row: *gr,
                        col: h,
                        x_row: scalar_row(h),
                    });
                }
            }
        }

        // An instance touches the solve if it owns an internal port or
        // its S-matrix feeds the system/RHS (it is some row's source) —
        // both reduce to "has at least one internal port".
        let touches_system: Vec<bool> = (0..circuit.instances.len())
            .map(|ii| block_of_inst[ii] != NONE)
            .collect();

        BlockSchedule {
            sym,
            n_int,
            n_ext,
            diag_ones,
            matrix_scatter,
            matrix_ranges,
            rhs_scatter,
            rhs_ranges,
            ee_terms,
            ei_terms,
            touches_system,
        }
    }

    /// Whether instance `ii` contributes entries to the system matrix,
    /// the RHS panel or the `S_ei` combine coefficients.
    pub fn instance_touches_system(&self, ii: usize) -> bool {
        self.touches_system[ii]
    }

    /// Adds the identity and instance `ii`'s `−S` contributions to the
    /// factor value storage, reading the instance's diagonal block of
    /// `global`.
    pub fn scatter_matrix_instance(
        &self,
        ii: usize,
        global: &CMatrix,
        values: &mut SplitComplexVec,
    ) {
        let (start, end) = self.matrix_ranges[ii];
        for s in &self.matrix_scatter[start..end] {
            values.sub_assign(s.dst, global.at(s.row, s.col));
        }
    }

    /// Adds instance `ii`'s `+S` contributions to the RHS panel.
    pub fn scatter_rhs_instance(&self, ii: usize, global: &CMatrix, rhs: &mut SplitComplexVec) {
        let (start, end) = self.rhs_ranges[ii];
        for s in &self.rhs_scatter[start..end] {
            rhs.add_assign(s.dst, global.at(s.row, s.col));
        }
    }

    /// Adds the identity's `+1` diagonal into the factor value storage.
    pub fn scatter_identity(&self, values: &mut SplitComplexVec) {
        for &off in &self.diag_ones {
            values.add_assign(off, Complex::ONE);
        }
    }

    /// Reconstructs the external S-matrix from the solved split panel `x`
    /// (row-major `n_int × n_ext` in elimination order):
    /// `out = S_ee + S_ei · X`, touching only structurally nonzero
    /// entries. The sum accumulates in the caller's split `stage` buffer
    /// (resized to `n_ext × n_ext`, no allocation at steady state) with
    /// the `S_ei` rows running through `kern`'s SIMD axpy; a final
    /// bit-exact interleave copy lands in `out`, reshaped `n_ext × n_ext`.
    pub fn combine(
        &self,
        kern: &Kernels,
        global: &CMatrix,
        x: &SplitComplexVec,
        stage: &mut SplitComplexVec,
        out: &mut CMatrix,
    ) {
        let n_ext = self.n_ext;
        stage.resize_zero(n_ext * n_ext);
        for t in &self.ee_terms {
            stage.add_assign(t.r * n_ext + t.c, global.at(t.row, t.col));
        }
        let (sr, si) = stage.parts_mut();
        for t in &self.ei_terms {
            let coeff = global.at(t.row, t.col);
            if coeff == Complex::ZERO {
                continue;
            }
            let xr = &x.re()[t.x_row * n_ext..(t.x_row + 1) * n_ext];
            let xi = &x.im()[t.x_row * n_ext..(t.x_row + 1) * n_ext];
            kern.axpy_add(
                coeff,
                xr,
                xi,
                &mut sr[t.r * n_ext..(t.r + 1) * n_ext],
                &mut si[t.r * n_ext..(t.r + 1) * n_ext],
            );
        }
        out.fill_from_split(n_ext, n_ext, sr, si);
    }
}
