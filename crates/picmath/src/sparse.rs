//! Block-compressed sparse LU for topology-structured scattering systems.
//!
//! The dense scattering solve factors the full `n_int × n_int` system
//! `(I − P·S_ii)` at every wavelength point even though the matrix is
//! overwhelmingly structural zeros: an instance's ports couple only to
//! the ports of the instances it is wired to, so the system is
//! *block-sparse* with the circuit's connectivity graph as its block
//! pattern. This module is the KLU-style escape hatch from that O(n³)
//! cost, split the way real circuit simulators split it:
//!
//! * [`BlockSymbolic::analyze`] — the **symbolic** phase, run once per
//!   topology: a fill-reducing elimination order over the block graph
//!   (greedy minimum degree, weighted by scalar block size, deterministic
//!   tie-breaks), followed by symbolic Gaussian elimination that computes
//!   the **static fill-in pattern**. The result is an immutable
//!   block-CSR description of the factor — stored blocks, value offsets,
//!   per-step column lists and a pre-resolved Schur-update schedule — so
//!   the numeric phase never searches for a block at solve time.
//! * [`BlockSparseLu`] — the **numeric** phase, run once per wavelength
//!   point on reused buffers: scatter values into the static pattern,
//!   factor with dense partial pivoting *inside* each diagonal block
//!   (pivoting never crosses blocks, so the structure is truly static),
//!   and solve whole panels of right-hand-side columns in one pass.
//!
//! Values live in **split-complex (SoA) storage** — [`SplitComplexVec`],
//! parallel real/imaginary `f64` arrays — so the panel-shaped hot loops
//! (Schur-update GEMMs, triangular panel solves) run through the
//! SIMD kernels of [`crate::simd`], on the tier each [`BlockSparseLu`]
//! resolves when it is built. The tiny
//! sequential kernels (within-block pivoted LU, row pivots, the
//! right-sided triangular solve) stay scalar: their blocks are a handful
//! of entries wide. The vector tiers differ from the scalar tier only by
//! FMA contraction, under the lane-order contract documented in
//! [`crate::simd`]; within one tier, factorizations and solves are
//! bit-stable.
//!
//! One symbolic object serves every wavelength point of a sweep and every
//! worker thread; each [`BlockSparseLu`] is cheap per-worker state whose
//! buffers reach a high-water mark after the first factorization and
//! never allocate again — the same discipline as the dense
//! `SolveWorkspace` path.
//!
//! Scalar unknowns are addressed through [`BlockSymbolic::scalar_row`]
//! (block id + offset within the block → row in elimination order), so
//! callers can assemble and read back without ever materializing the
//! permutation themselves.
//!
//! ## Example
//!
//! ```
//! use picbench_math::{sparse::{BlockSymbolic, BlockSparseLu}, Complex, SplitComplexVec};
//!
//! // Two 1×1 blocks coupled to each other: [[2, 1], [1, 2]].
//! let sym = BlockSymbolic::analyze(&[1, 1], &[(0, 1)]);
//! let mut lu = BlockSparseLu::new();
//! lu.reset(&sym);
//! lu.values_mut().set(sym.entry_offset(0, 0, 0, 0).unwrap(), Complex::real(2.0));
//! lu.values_mut().set(sym.entry_offset(0, 1, 0, 0).unwrap(), Complex::real(1.0));
//! lu.values_mut().set(sym.entry_offset(1, 0, 0, 0).unwrap(), Complex::real(1.0));
//! lu.values_mut().set(sym.entry_offset(1, 1, 0, 0).unwrap(), Complex::real(2.0));
//! lu.factor(&sym)?;
//! let mut rhs = SplitComplexVec::from_interleaved(&[Complex::real(3.0), Complex::real(3.0)]);
//! lu.solve_in_place(&sym, &mut rhs, 1);
//! assert!((rhs.get(sym.scalar_row(0, 0)) - Complex::ONE).abs() < 1e-12);
//! assert!((rhs.get(sym.scalar_row(1, 0)) - Complex::ONE).abs() < 1e-12);
//! # Ok::<(), picbench_math::SingularMatrixError>(())
//! ```

use crate::simd::{self, Kernels, SimdLevel};
use crate::{Complex, SingularMatrixError};

/// Split-complex (structure-of-arrays) storage: a logical `Vec<Complex>`
/// held as two parallel `f64` arrays, one of real parts and one of
/// imaginary parts. This is the panel layout the SIMD kernels of
/// [`crate::simd`] consume — a lane loads `LANES` consecutive real (or
/// imaginary) components with one unshuffled read.
///
/// Indexing helpers ([`SplitComplexVec::get`] / [`SplitComplexVec::set`] /
/// [`SplitComplexVec::add_assign`] / [`SplitComplexVec::sub_assign`])
/// keep scatter/assembly call sites as readable as the interleaved
/// layout was; the component accessors ([`SplitComplexVec::re`],
/// [`SplitComplexVec::im`], [`SplitComplexVec::parts_mut`]) feed the
/// kernels. All growth APIs reuse capacity, so a buffer that reached its
/// high-water mark never allocates again.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SplitComplexVec {
    re: Vec<f64>,
    im: Vec<f64>,
}

impl SplitComplexVec {
    /// An empty vector.
    pub fn new() -> Self {
        SplitComplexVec {
            re: Vec::new(),
            im: Vec::new(),
        }
    }

    /// Builds split storage from interleaved complex values.
    pub fn from_interleaved(src: &[Complex]) -> Self {
        SplitComplexVec {
            re: src.iter().map(|z| z.re).collect(),
            im: src.iter().map(|z| z.im).collect(),
        }
    }

    /// Logical length in complex elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.re.len()
    }

    /// Whether the vector is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.re.is_empty()
    }

    /// Removes every element, keeping capacity.
    pub fn clear(&mut self) {
        self.re.clear();
        self.im.clear();
    }

    /// Resizes to `len` elements, all zero (capacity is reused).
    pub fn resize_zero(&mut self, len: usize) {
        self.re.clear();
        self.re.resize(len, 0.0);
        self.im.clear();
        self.im.resize(len, 0.0);
    }

    /// Makes `self` an element-wise copy of `src` (capacity is reused).
    pub fn copy_from(&mut self, src: &SplitComplexVec) {
        self.re.clear();
        self.re.extend_from_slice(&src.re);
        self.im.clear();
        self.im.extend_from_slice(&src.im);
    }

    /// Makes `self` a copy of `src[start..end]` (capacity is reused).
    pub fn copy_range_from(&mut self, src: &SplitComplexVec, start: usize, end: usize) {
        self.re.clear();
        self.re.extend_from_slice(&src.re[start..end]);
        self.im.clear();
        self.im.extend_from_slice(&src.im[start..end]);
    }

    /// The element at `i`.
    #[inline]
    pub fn get(&self, i: usize) -> Complex {
        Complex::new(self.re[i], self.im[i])
    }

    /// Overwrites the element at `i`.
    #[inline]
    pub fn set(&mut self, i: usize, v: Complex) {
        self.re[i] = v.re;
        self.im[i] = v.im;
    }

    /// Adds `v` to the element at `i`.
    #[inline]
    pub fn add_assign(&mut self, i: usize, v: Complex) {
        self.re[i] += v.re;
        self.im[i] += v.im;
    }

    /// Subtracts `v` from the element at `i`.
    #[inline]
    pub fn sub_assign(&mut self, i: usize, v: Complex) {
        self.re[i] -= v.re;
        self.im[i] -= v.im;
    }

    /// The real components.
    #[inline]
    pub fn re(&self) -> &[f64] {
        &self.re
    }

    /// The imaginary components.
    #[inline]
    pub fn im(&self) -> &[f64] {
        &self.im
    }

    /// Both component arrays, mutably.
    #[inline]
    pub fn parts_mut(&mut self) -> (&mut [f64], &mut [f64]) {
        (&mut self.re, &mut self.im)
    }

    /// Interleaves back into a `Vec<Complex>` (tests, diagnostics).
    pub fn to_interleaved(&self) -> Vec<Complex> {
        self.re
            .iter()
            .zip(&self.im)
            .map(|(&r, &i)| Complex::new(r, i))
            .collect()
    }
}

/// One pre-resolved Schur-complement run `C_i,J −= L_ik · U_k,J`, with
/// every operand located at analysis time. `J` is a maximal run of
/// consecutive tail columns of step `k` that are also stored
/// consecutively in row `i`'s panel, so one GEMM covers as many target
/// columns as the layouts allow.
#[derive(Debug, Clone, Copy)]
struct SchurUpdate {
    /// Absolute value offset of the `L_ik` block (rows × s_k, row stride
    /// `ld`).
    l_off: usize,
    /// Column offset of the run's first `U` column within row `k`'s
    /// panel (the snapshot the factor reads; row stride = row `k`'s
    /// panel width).
    b_col: usize,
    /// Absolute value offset of the run's first target column in row
    /// `i`'s panel (rows × cols, row stride `ld`).
    t_off: usize,
    /// Row stride of row `i`'s panel — shared by `L_ik` and the target.
    ld: usize,
    /// Scalar rows of the update (size of block `i`).
    rows: usize,
    /// Scalar columns of the run (summed sizes of its blocks `j`).
    cols: usize,
}

/// The symbolic analysis of a block-sparse system: elimination order,
/// static fill pattern, value layout and update schedule. Immutable,
/// `Send + Sync`, built once per topology and shared by every numeric
/// factorization (one per wavelength point per worker).
#[derive(Debug)]
pub struct BlockSymbolic {
    /// Block sizes in elimination (permuted) order.
    sizes: Vec<usize>,
    /// `inv_perm[original block id]` = elimination position.
    inv_perm: Vec<usize>,
    /// Scalar row offset of each permuted block.
    scalar_off: Vec<usize>,
    /// Total scalar dimension.
    scalar_dim: usize,
    /// Block-CSR row pointers over elimination positions.
    row_ptr: Vec<usize>,
    /// Stored block columns (elimination positions), ascending per row.
    col_idx: Vec<usize>,
    /// Value offset of each block row's panel. A row's stored blocks are
    /// packed side by side into one row-major `s_r × row_stride[r]`
    /// panel, so a whole block row (and any consecutive run of its
    /// blocks) is a strided matrix the SIMD kernels consume directly.
    row_base: Vec<usize>,
    /// Scalar width of each block row's panel (summed stored block
    /// widths).
    row_stride: Vec<usize>,
    /// Column offset of each stored block within its row panel (parallel
    /// to `col_idx`).
    col_off: Vec<usize>,
    /// Index into `col_idx` of each row's diagonal block.
    diag_idx: Vec<usize>,
    /// Total scalar length of the value storage.
    values_len: usize,
    /// Per step `k`: stored blocks below the diagonal in column `k`, as
    /// `(row position, absolute value offset of the block's first
    /// element)`, ascending by row; the block's row stride is its row's
    /// `row_stride`.
    below: Vec<Vec<(usize, usize)>>,
    /// Flattened Schur-update schedule, grouped per step by `upd_ptr`.
    upd: Vec<SchurUpdate>,
    /// `upd[upd_ptr[k]..upd_ptr[k + 1]]` are step `k`'s updates.
    upd_ptr: Vec<usize>,
    /// Backward-solve runs, grouped per row by `bwd_ptr`: maximal runs
    /// of consecutive stored U columns, as `(value offset of the run's
    /// first element, scalar width, scalar row offset of the first
    /// column)`. Consecutive stored columns are adjacent both in the
    /// row panel and in the solution vector, so each run is one gemm.
    bwd: Vec<(usize, usize, usize)>,
    /// `bwd[bwd_ptr[k]..bwd_ptr[k + 1]]` are row `k`'s U runs.
    bwd_ptr: Vec<usize>,
    /// Stored blocks present before fill (diagnostics).
    structural: usize,
}

impl BlockSymbolic {
    /// Analyzes a block system: `sizes[b]` is the scalar dimension of
    /// block `b`, and `edges` lists the coupled block pairs (diagonal
    /// blocks are always stored; duplicate and self edges are fine).
    ///
    /// Runs greedy minimum-degree ordering (degree = total scalar size of
    /// live neighbors, ties broken by lowest block id, so the order is
    /// deterministic), then symbolic elimination to fix the fill pattern,
    /// the block-CSR layout and the per-step update schedule.
    ///
    /// # Panics
    ///
    /// Panics if an edge references a block out of range.
    pub fn analyze(sizes: &[usize], edges: &[(usize, usize)]) -> Self {
        let n = sizes.len();
        let words = n.div_ceil(64).max(1);
        let mut adjb = vec![0u64; n * words];
        for &(a, b) in edges {
            assert!(
                a < n && b < n,
                "edge ({a}, {b}) out of range for {n} blocks"
            );
            if a != b {
                adjb[a * words + b / 64] |= 1 << (b % 64);
                adjb[b * words + a / 64] |= 1 << (a % 64);
            }
        }

        // Greedy minimum degree on the (progressively filled) block
        // graph, with bitset adjacency rows. Eliminating a vertex only
        // changes the adjacency of its live neighborhood, so degrees are
        // recomputed for those rows alone; the selection rule (min
        // degree, ties to the lowest block id) is unchanged, so the
        // ordering — and every downstream layout — is identical to the
        // naive scan.
        let mut alive_bits = vec![0u64; words];
        for v in 0..n {
            alive_bits[v / 64] |= 1 << (v % 64);
        }
        let sum_deg = |row: &[u64], alive: &[u64]| -> usize {
            let mut s = 0usize;
            for (w, (&rw, &aw)) in row.iter().zip(alive).enumerate() {
                let mut m = rw & aw;
                while m != 0 {
                    s += sizes[w * 64 + m.trailing_zeros() as usize];
                    m &= m - 1;
                }
            }
            s
        };
        let mut deg: Vec<usize> = (0..n)
            .map(|v| sum_deg(&adjb[v * words..(v + 1) * words], &alive_bits))
            .collect();
        let mut alive = vec![true; n];
        let mut perm = Vec::with_capacity(n);
        let mut nbrs = vec![0u64; words];
        for _ in 0..n {
            let mut best = usize::MAX;
            let mut best_deg = usize::MAX;
            for v in 0..n {
                if alive[v] && deg[v] < best_deg {
                    best_deg = deg[v];
                    best = v;
                }
            }
            alive[best] = false;
            alive_bits[best / 64] &= !(1 << (best % 64));
            // Fill: the live neighborhood of `best` becomes a clique.
            for (w, nb) in nbrs.iter_mut().enumerate() {
                *nb = adjb[best * words + w] & alive_bits[w];
            }
            for w in 0..words {
                let mut m = nbrs[w];
                while m != 0 {
                    let a = w * 64 + m.trailing_zeros() as usize;
                    m &= m - 1;
                    let row = &mut adjb[a * words..(a + 1) * words];
                    for (x, &nb) in row.iter_mut().zip(&nbrs) {
                        *x |= nb;
                    }
                    row[a / 64] &= !(1 << (a % 64));
                    deg[a] = sum_deg(&adjb[a * words..(a + 1) * words], &alive_bits);
                }
            }
            perm.push(best);
        }

        let mut inv_perm = vec![0usize; n];
        for (p, &v) in perm.iter().enumerate() {
            inv_perm[v] = p;
        }
        let psizes: Vec<usize> = perm.iter().map(|&v| sizes[v]).collect();
        let mut scalar_off = Vec::with_capacity(n);
        let mut scalar_dim = 0usize;
        for &s in &psizes {
            scalar_off.push(scalar_dim);
            scalar_dim += s;
        }

        // Bit-matrix pattern in elimination coordinates.
        let mut bits = vec![0u64; n * words];
        let set =
            |bits: &mut Vec<u64>, r: usize, c: usize| bits[r * words + c / 64] |= 1 << (c % 64);
        for r in 0..n {
            set(&mut bits, r, r);
        }
        for &(a, b) in edges {
            let (pa, pb) = (inv_perm[a], inv_perm[b]);
            set(&mut bits, pa, pb);
            set(&mut bits, pb, pa);
        }
        let structural: usize = bits.iter().map(|w| w.count_ones() as usize).sum();

        // Symbolic elimination: whenever (i, k) and (k, j) are stored
        // with i, j > k, block (i, j) fills in.
        let mut rowk = vec![0u64; words];
        for k in 0..n {
            rowk.copy_from_slice(&bits[k * words..(k + 1) * words]);
            // Mask row k down to columns > k (zero bits 0..=k).
            for (w, word) in rowk.iter_mut().enumerate() {
                let lo = w * 64;
                if lo + 64 <= k + 1 {
                    *word = 0;
                } else if lo <= k {
                    *word &= !((1u64 << (k + 1 - lo)) - 1);
                }
            }
            for i in k + 1..n {
                if bits[i * words + k / 64] >> (k % 64) & 1 == 1 {
                    for w in 0..words {
                        bits[i * words + w] |= rowk[w];
                    }
                }
            }
        }

        // Panel layout over the final pattern: each block row's stored
        // blocks pack side by side into one row-major `s_r × W_r` panel,
        // so consecutive stored columns are consecutive in memory and
        // the panel kernels run full-width.
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::new();
        let mut row_base = Vec::with_capacity(n);
        let mut row_stride = Vec::with_capacity(n);
        let mut col_off = Vec::new();
        let mut diag_idx = Vec::with_capacity(n);
        let mut values_len = 0usize;
        row_ptr.push(0);
        for r in 0..n {
            row_base.push(values_len);
            let mut width = 0usize;
            for c in 0..n {
                if bits[r * words + c / 64] >> (c % 64) & 1 == 1 {
                    if c == r {
                        diag_idx.push(col_idx.len());
                    }
                    col_idx.push(c);
                    col_off.push(width);
                    width += psizes[c];
                }
            }
            row_stride.push(width);
            values_len += psizes[r] * width;
            row_ptr.push(col_idx.len());
        }

        // Column lists below each diagonal (rows ascend naturally).
        let mut below: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
        for r in 0..n {
            for idx in row_ptr[r]..diag_idx[r] {
                below[col_idx[idx]].push((r, row_base[r] + col_off[idx]));
            }
        }

        // Pre-resolve the Schur-update schedule, merging tail columns
        // that are consecutive in the target row's panel into one run
        // (they are always consecutive in step `k`'s panel).
        let locate = |row: usize, col: usize| -> usize {
            let range = row_ptr[row]..row_ptr[row + 1];
            let rel = col_idx[range.clone()]
                .binary_search(&col)
                .expect("fill closure guarantees the update target is stored");
            row_base[row] + col_off[range.start + rel]
        };
        let mut upd = Vec::new();
        let mut upd_ptr = Vec::with_capacity(n + 1);
        upd_ptr.push(0);
        for k in 0..n {
            for &(i, l_off) in &below[k] {
                let mut idx = diag_idx[k] + 1;
                while idx < row_ptr[k + 1] {
                    let t_off = locate(i, col_idx[idx]);
                    let b_col = col_off[idx];
                    let mut cols = psizes[col_idx[idx]];
                    let mut prev_t = t_off;
                    let mut prev_w = cols;
                    idx += 1;
                    while idx < row_ptr[k + 1] {
                        let t_next = locate(i, col_idx[idx]);
                        if t_next != prev_t + prev_w {
                            break;
                        }
                        prev_t = t_next;
                        prev_w = psizes[col_idx[idx]];
                        cols += prev_w;
                        idx += 1;
                    }
                    upd.push(SchurUpdate {
                        l_off,
                        b_col,
                        t_off,
                        ld: row_stride[i],
                        rows: psizes[i],
                        cols,
                    });
                }
            }
            upd_ptr.push(upd.len());
        }

        // Backward-solve runs: consecutive stored U columns of a row are
        // adjacent in its panel *and* (because stored columns ascend and
        // scalar offsets are cumulative) in the solution vector, so each
        // maximal run collapses to a single gemm. Splitting a gemm on the
        // k dimension only splits the sequential accumulation chain, so
        // the merged form is bit-identical to per-block calls.
        let mut bwd = Vec::new();
        let mut bwd_ptr = Vec::with_capacity(n + 1);
        bwd_ptr.push(0);
        for k in 0..n {
            let mut idx = diag_idx[k] + 1;
            while idx < row_ptr[k + 1] {
                let u_off = row_base[k] + col_off[idx];
                let so = scalar_off[col_idx[idx]];
                let mut prev = col_idx[idx];
                let mut width = psizes[prev];
                idx += 1;
                while idx < row_ptr[k + 1] && col_idx[idx] == prev + 1 {
                    prev = col_idx[idx];
                    width += psizes[prev];
                    idx += 1;
                }
                bwd.push((u_off, width, so));
            }
            bwd_ptr.push(bwd.len());
        }

        BlockSymbolic {
            sizes: psizes,
            inv_perm,
            scalar_off,
            scalar_dim,
            row_ptr,
            col_idx,
            row_base,
            row_stride,
            col_off,
            diag_idx,
            values_len,
            below,
            upd,
            upd_ptr,
            bwd,
            bwd_ptr,
            structural,
        }
    }

    /// Number of blocks.
    pub fn block_count(&self) -> usize {
        self.sizes.len()
    }

    /// Total scalar dimension of the system.
    pub fn scalar_dim(&self) -> usize {
        self.scalar_dim
    }

    /// Scalar length of the value storage (all stored blocks).
    pub fn values_len(&self) -> usize {
        self.values_len
    }

    /// Number of blocks introduced by fill-in (stored minus structural).
    pub fn fill_block_count(&self) -> usize {
        self.col_idx.len() - self.structural
    }

    /// The scalar row (in elimination order) of entry `local` of block
    /// `block` — valid for both assembling values and reading solutions.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `local` exceeds the block size.
    #[inline]
    pub fn scalar_row(&self, block: usize, local: usize) -> usize {
        let p = self.inv_perm[block];
        debug_assert!(local < self.sizes[p], "local index out of block bounds");
        self.scalar_off[p] + local
    }

    /// The value-storage offset of scalar entry `(li, lj)` of block
    /// `(bi, bj)` (original block ids), or `None` when that block is not
    /// stored. Structural entries are always stored; `None` can only
    /// happen for block pairs outside the pattern.
    pub fn entry_offset(&self, bi: usize, bj: usize, li: usize, lj: usize) -> Option<usize> {
        let (pi, pj) = (self.inv_perm[bi], self.inv_perm[bj]);
        let range = self.row_ptr[pi]..self.row_ptr[pi + 1];
        let rel = self.col_idx[range.clone()].binary_search(&pj).ok()?;
        Some(self.row_base[pi] + li * self.row_stride[pi] + self.col_off[range.start + rel] + lj)
    }
}

/// Numeric state of a block-sparse LU: the value storage of the factor
/// (split-complex — see [`SplitComplexVec`]), the within-block pivot
/// permutations and a scratch row. Reusable — one per worker,
/// re-[`BlockSparseLu::factor`]ed at every wavelength point against a
/// shared [`BlockSymbolic`]; every buffer stops allocating once it
/// reaches its high-water mark.
///
/// The panel-shaped inner loops run on the SIMD kernel table resolved
/// at construction ([`BlockSparseLu::new`] takes the process default,
/// [`BlockSparseLu::with_level`] an explicit tier), so concurrent
/// factorizations on different tiers never influence each other.
#[derive(Debug)]
pub struct BlockSparseLu {
    values: SplitComplexVec,
    pivots: Vec<usize>,
    scratch: SplitComplexVec,
    diag_inv: Vec<Complex>,
    kern: &'static Kernels,
}

impl Default for BlockSparseLu {
    fn default() -> Self {
        BlockSparseLu::new()
    }
}

impl BlockSparseLu {
    /// An empty numeric workspace on the default SIMD tier
    /// ([`simd::available_level`]); size it with [`BlockSparseLu::reset`]
    /// or [`BlockSparseLu::load`] before assembling.
    pub fn new() -> Self {
        BlockSparseLu::with_level(simd::available_level())
    }

    /// An empty numeric workspace whose kernels run on `level`.
    ///
    /// # Panics
    ///
    /// Panics if this CPU cannot run `level` ([`simd::is_supported`]).
    pub fn with_level(level: SimdLevel) -> Self {
        BlockSparseLu {
            values: SplitComplexVec::new(),
            pivots: Vec::new(),
            scratch: SplitComplexVec::new(),
            diag_inv: Vec::new(),
            kern: simd::kernels_for(level),
        }
    }

    /// The SIMD tier this workspace's kernels run on.
    pub fn level(&self) -> SimdLevel {
        self.kern.level()
    }

    /// Zeroes the value storage and sizes it for `sym`. Fill blocks start
    /// (and must remain, until factoring) all-zero.
    pub fn reset(&mut self, sym: &BlockSymbolic) {
        self.values.resize_zero(sym.values_len());
    }

    /// Replaces the value storage with a copy of `baseline` (an image
    /// produced by a previous assembly — the wavelength-independent part
    /// of a sweep's system). No allocation once capacity has grown.
    pub fn load(&mut self, baseline: &SplitComplexVec) {
        self.values.copy_from(baseline);
    }

    /// Mutable access to the value storage for scattering assembly
    /// entries at offsets from [`BlockSymbolic::entry_offset`].
    pub fn values_mut(&mut self) -> &mut SplitComplexVec {
        &mut self.values
    }

    /// Read access to the value storage (a baseline image to
    /// [`BlockSparseLu::load`] later, or diagnostics).
    pub fn values(&self) -> &SplitComplexVec {
        &self.values
    }

    /// Factors the assembled system in place: `Q^T·A·Q = L·U` with `Q`
    /// the symbolic block order and dense partial pivoting confined to
    /// each diagonal block. After a successful return the storage holds
    /// the factors and [`BlockSparseLu::solve_in_place`] may be called
    /// any number of times.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] (with the scalar column in
    /// elimination order) when a diagonal pivot block is numerically
    /// singular. The storage is then unspecified; re-assemble before the
    /// next factorization.
    ///
    /// # Panics
    ///
    /// Panics if the storage was not sized for `sym` (via
    /// [`BlockSparseLu::reset`] or [`BlockSparseLu::load`]).
    pub fn factor(&mut self, sym: &BlockSymbolic) -> Result<(), SingularMatrixError> {
        assert_eq!(
            self.values.len(),
            sym.values_len(),
            "value storage does not match the symbolic analysis"
        );
        self.pivots.clear();
        self.pivots.resize(sym.scalar_dim(), 0);
        let kern = self.kern;
        let n = sym.block_count();
        for k in 0..n {
            let sk = sym.sizes[k];
            let so = sym.scalar_off[k];
            let w = sym.row_stride[k];
            let base = sym.row_base[k];
            let d_col = sym.col_off[sym.diag_idx[k]];
            let d_off = base + d_col;
            // Factor the diagonal block with dense partial pivoting
            // (scalar: a few entries wide, sequential by construction).
            {
                let (vr, vi) = self.values.parts_mut();
                lu_block(vr, vi, d_off, w, sk, &mut self.pivots[so..so + sk], so)?;
            }
            // U_k,tail = L_kk⁻¹ · P_k · A_k,tail for everything right of
            // the diagonal — one contiguous strip of the row panel, so
            // the pivots and the unit-lower solve run over the whole
            // tail at full width.
            let tail = w - d_col - sk;
            if tail > 0 {
                let (vr, vi) = self.values.parts_mut();
                apply_row_pivots(vr, vi, d_off + sk, w, tail, &self.pivots[so..so + sk]);
                let pr = vr.as_mut_ptr();
                let pi = vi.as_mut_ptr();
                // SAFETY: the triangle (columns `d_col..d_col+sk`) and
                // the tail (columns after it) are disjoint strips of row
                // `k`'s in-bounds panel; the kernel reads the former and
                // writes the latter.
                unsafe {
                    kern.trsm_lower_unit_ptr(
                        sk,
                        tail,
                        pr.add(d_off),
                        pi.add(d_off),
                        w,
                        pr.add(d_off + sk),
                        pi.add(d_off + sk),
                        w,
                    );
                }
            }
            // Snapshot row k's panel from the diagonal column on — the L
            // strip left of it is never read by this step's consumers —
            // because the Schur updates below read it while mutating
            // other rows. In scratch coordinates column `c` of the panel
            // sits at `c - d_col`.
            let snap = base + d_col;
            self.scratch
                .copy_range_from(&self.values, snap, base + sk * w);
            // Hoist the diagonal reciprocals once per step: every block
            // below shares `U_kk`, and `x / u` is defined as
            // `x * u.recip()`, so multiplying is bit-identical to
            // dividing inside the loop.
            self.diag_inv.clear();
            self.diag_inv.extend((0..sk).map(|c| {
                Complex::new(self.scratch.re[c * w + c], self.scratch.im[c * w + c]).recip()
            }));
            // L_ik = A_ik · U_kk⁻¹ for the blocks below the diagonal
            // (scalar: sequential dependence along each row).
            for &(i, off_ik) in &sym.below[k] {
                let si = sym.sizes[i];
                let (vr, vi) = self.values.parts_mut();
                trsm_right_upper(
                    &self.scratch.re,
                    &self.scratch.im,
                    0,
                    w,
                    sk,
                    &self.diag_inv,
                    vr,
                    vi,
                    off_ik,
                    sym.row_stride[i],
                    si,
                );
            }
            // Pre-scheduled Schur runs: C_i,J −= L_ik · U_k,J. L and the
            // target strip live in the same row panel with col k < every
            // col of J, so their column ranges are disjoint.
            for u in &sym.upd[sym.upd_ptr[k]..sym.upd_ptr[k + 1]] {
                debug_assert!(u.l_off + sk <= u.t_off);
                let (vr, vi) = self.values.parts_mut();
                let pr = vr.as_mut_ptr();
                let pi = vi.as_mut_ptr();
                // SAFETY: B comes from the scratch snapshot (a separate
                // buffer); L and C are disjoint column strips of row
                // `i`'s in-bounds panel (asserted above), and every
                // strided access stays inside that panel.
                unsafe {
                    kern.gemm_sub_ptr(
                        u.rows,
                        sk,
                        u.cols,
                        pr.add(u.l_off),
                        pi.add(u.l_off),
                        u.ld,
                        self.scratch.re.as_ptr().add(u.b_col - d_col),
                        self.scratch.im.as_ptr().add(u.b_col - d_col),
                        w,
                        pr.add(u.t_off),
                        pi.add(u.t_off),
                        u.ld,
                    );
                }
            }
        }
        Ok(())
    }

    /// Solves `A · X = B` in place for a panel of `ncols` right-hand-side
    /// columns. `rhs` is row-major `scalar_dim × ncols` in **elimination
    /// order** (assemble through [`BlockSymbolic::scalar_row`]); on
    /// return it holds the solution in the same layout. The whole panel
    /// moves through the factor in one pass — the pivot permutations and
    /// factor blocks are traversed once regardless of `ncols`.
    ///
    /// # Panics
    ///
    /// Panics if `rhs.len() != scalar_dim · ncols` or the factorization
    /// has not run.
    pub fn solve_in_place(&self, sym: &BlockSymbolic, rhs: &mut SplitComplexVec, ncols: usize) {
        assert_eq!(
            rhs.len(),
            sym.scalar_dim() * ncols,
            "right-hand-side panel has the wrong shape"
        );
        assert_eq!(self.pivots.len(), sym.scalar_dim(), "factorization missing");
        if ncols == 0 || sym.scalar_dim() == 0 {
            return;
        }
        let kern = self.kern;
        let n = sym.block_count();
        let vr = &self.values.re;
        let vi = &self.values.im;
        let (rr, ri) = rhs.parts_mut();
        // Forward: apply within-block pivots, unit-lower solves, and
        // push updates down the below-diagonal column lists.
        for k in 0..n {
            let sk = sym.sizes[k];
            let so = sym.scalar_off[k];
            let w = sym.row_stride[k];
            let d_off = sym.row_base[k] + sym.col_off[sym.diag_idx[k]];
            apply_row_pivots(rr, ri, so * ncols, ncols, ncols, &self.pivots[so..so + sk]);
            let rp = rr.as_mut_ptr();
            let ip = ri.as_mut_ptr();
            // SAFETY: the factor panels are read-only here; the RHS rows
            // touched per call ([so, so+sk) then each [soi, soi+si) with
            // soi ≥ so + sk) are in-bounds and disjoint from the rows
            // read as B.
            unsafe {
                kern.trsm_lower_unit_ptr(
                    sk,
                    ncols,
                    vr.as_ptr().add(d_off),
                    vi.as_ptr().add(d_off),
                    w,
                    rp.add(so * ncols),
                    ip.add(so * ncols),
                    ncols,
                );
                for &(i, off_ik) in &sym.below[k] {
                    let si = sym.sizes[i];
                    let soi = sym.scalar_off[i];
                    kern.gemm_sub_ptr(
                        si,
                        sk,
                        ncols,
                        vr.as_ptr().add(off_ik),
                        vi.as_ptr().add(off_ik),
                        sym.row_stride[i],
                        rp.add(so * ncols),
                        ip.add(so * ncols),
                        ncols,
                        rp.add(soi * ncols),
                        ip.add(soi * ncols),
                        ncols,
                    );
                }
            }
        }
        // Backward: subtract the U blocks right of each diagonal, then
        // divide through the diagonal factor.
        for k in (0..n).rev() {
            let sk = sym.sizes[k];
            let so = sym.scalar_off[k];
            let w = sym.row_stride[k];
            let base = sym.row_base[k];
            let rp = rr.as_mut_ptr();
            let ip = ri.as_mut_ptr();
            // SAFETY: same in-bounds/disjointness argument as the forward
            // pass — every U block has col j > k, so soj ≥ so + sk and
            // the B rows never alias the C rows.
            unsafe {
                for &(u_off, width, soj) in &sym.bwd[sym.bwd_ptr[k]..sym.bwd_ptr[k + 1]] {
                    kern.gemm_sub_ptr(
                        sk,
                        width,
                        ncols,
                        vr.as_ptr().add(u_off),
                        vi.as_ptr().add(u_off),
                        w,
                        rp.add(soj * ncols),
                        ip.add(soj * ncols),
                        ncols,
                        rp.add(so * ncols),
                        ip.add(so * ncols),
                        ncols,
                    );
                }
                let d_off = base + sym.col_off[sym.diag_idx[k]];
                kern.trsm_upper_ptr(
                    sk,
                    ncols,
                    vr.as_ptr().add(d_off),
                    vi.as_ptr().add(d_off),
                    w,
                    rp.add(so * ncols),
                    ip.add(so * ncols),
                    ncols,
                );
            }
        }
    }
}

/// Dense partial-pivot LU of an `s × s` block in place. The block lives
/// at element offset `base` of a row panel with row stride `ld` (split
/// storage, unit lower diagonal implicit). The pivot swaps touch only the
/// block's own `s` columns — the U tail right of it is permuted
/// separately by [`apply_row_pivots`]. `col_base` labels singularity
/// reports with the block's global scalar offset. Scalar on purpose:
/// blocks are a handful of entries wide and the pivot search/swap
/// sequence is inherently sequential.
fn lu_block(
    ar: &mut [f64],
    ai: &mut [f64],
    base: usize,
    ld: usize,
    s: usize,
    piv: &mut [usize],
    col_base: usize,
) -> Result<(), SingularMatrixError> {
    #[inline(always)]
    fn at(re: &[f64], im: &[f64], idx: usize) -> Complex {
        Complex::new(re[idx], im[idx])
    }
    for c in 0..s {
        let mut pivot_row = c;
        let mut pivot_mag = at(ar, ai, base + c * ld + c).abs();
        for r in c + 1..s {
            let mag = at(ar, ai, base + r * ld + c).abs();
            if mag > pivot_mag {
                pivot_mag = mag;
                pivot_row = r;
            }
        }
        if pivot_mag.is_nan() || pivot_mag <= 1e-300 {
            return Err(SingularMatrixError {
                column: col_base + c,
            });
        }
        piv[c] = pivot_row;
        if pivot_row != c {
            for cc in 0..s {
                ar.swap(base + c * ld + cc, base + pivot_row * ld + cc);
                ai.swap(base + c * ld + cc, base + pivot_row * ld + cc);
            }
        }
        let pivot = at(ar, ai, base + c * ld + c);
        for r in c + 1..s {
            let factor = at(ar, ai, base + r * ld + c) / pivot;
            ar[base + r * ld + c] = factor.re;
            ai[base + r * ld + c] = factor.im;
            if factor == Complex::ZERO {
                continue;
            }
            for cc in c + 1..s {
                let sub = factor * at(ar, ai, base + c * ld + cc);
                ar[base + r * ld + cc] -= sub.re;
                ai[base + r * ld + cc] -= sub.im;
            }
        }
    }
    Ok(())
}

/// Applies a within-block pivot sequence (LAPACK `ipiv` semantics: swap
/// row `c` with row `piv[c]`, in order) to `len` columns of a split panel
/// starting at element offset `base` with row stride `ld`.
fn apply_row_pivots(
    br: &mut [f64],
    bi: &mut [f64],
    base: usize,
    ld: usize,
    len: usize,
    piv: &[usize],
) {
    for (c, &pr) in piv.iter().enumerate() {
        if pr != c {
            for cc in 0..len {
                br.swap(base + c * ld + cc, base + pr * ld + cc);
                bi.swap(base + c * ld + cc, base + pr * ld + cc);
            }
        }
    }
}

/// `A ← A · U⁻¹` for the upper triangle of a compact `s × s` LU block at
/// element offset `u_base` (row stride `ld_u`), applied to every row of
/// an `nrows × s` split panel at offset `a_base` (row stride `ld_a`).
/// `inv` carries the pre-computed diagonal reciprocals (hoisted by the
/// caller: `x / u == x * u.recip()` by [`Complex`]'s `Div` definition, so
/// sharing them across blocks changes no bits). Scalar on purpose: each
/// row's entries depend sequentially on the previous ones.
#[allow(clippy::too_many_arguments)]
fn trsm_right_upper(
    ur: &[f64],
    ui: &[f64],
    u_base: usize,
    ld_u: usize,
    s: usize,
    inv: &[Complex],
    ar: &mut [f64],
    ai: &mut [f64],
    a_base: usize,
    ld_a: usize,
    nrows: usize,
) {
    for row in 0..nrows {
        let base = a_base + row * ld_a;
        for c in 0..s {
            let mut acc = Complex::new(ar[base + c], ai[base + c]);
            for m in 0..c {
                let x = Complex::new(ar[base + m], ai[base + m]);
                acc -= x * Complex::new(ur[u_base + m * ld_u + c], ui[u_base + m * ld_u + c]);
            }
            let v = acc * inv[c];
            ar[base + c] = v.re;
            ai[base + c] = v.im;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CMatrix, LuDecomposition};

    fn c(re: f64, im: f64) -> Complex {
        Complex::new(re, im)
    }

    /// Deterministic pseudo-random fill, as in the `lu` tests.
    fn rng(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed.wrapping_mul(2685821657736338717).wrapping_add(1);
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) * 2.0 - 1.0
        }
    }

    /// Assembles a random diagonally-dominant block system over the given
    /// structure, returning both the sparse storage and an equivalent
    /// dense matrix (in elimination scalar order).
    fn random_system(
        sizes: &[usize],
        edges: &[(usize, usize)],
        seed: u64,
    ) -> (BlockSymbolic, BlockSparseLu, CMatrix) {
        let sym = BlockSymbolic::analyze(sizes, edges);
        let mut lu = BlockSparseLu::new();
        lu.reset(&sym);
        let nd = sym.scalar_dim();
        let mut dense = CMatrix::zeros(nd, nd);
        let mut next = rng(seed);
        let mut stored: Vec<(usize, usize)> = edges.to_vec();
        stored.extend((0..sizes.len()).map(|b| (b, b)));
        stored.sort_unstable();
        stored.dedup();
        for &(bi, bj) in &stored {
            for li in 0..sizes[bi] {
                for lj in 0..sizes[bj] {
                    let v = if bi == bj && li == lj {
                        // Dominant diagonal keeps the reference solve
                        // well-conditioned without defeating pivoting.
                        c(4.0 + next(), next())
                    } else {
                        c(next() * 0.8, next() * 0.8)
                    };
                    let off = sym.entry_offset(bi, bj, li, lj).unwrap();
                    lu.values_mut().set(off, v);
                    dense[(sym.scalar_row(bi, li), sym.scalar_row(bj, lj))] = v;
                }
            }
        }
        (sym, lu, dense)
    }

    #[test]
    fn chain_structure_solves_like_dense() {
        // A chain of 5 blocks of mixed sizes: 0–1–2–3–4.
        let sizes = [2usize, 3, 1, 2, 2];
        let edges = [(0, 1), (1, 2), (2, 3), (3, 4)];
        let (sym, mut lu, dense) = random_system(&sizes, &edges, 11);
        lu.factor(&sym).unwrap();

        let nd = sym.scalar_dim();
        let ncols = 3;
        let mut next = rng(99);
        let rhs_mat = CMatrix::from_fn(nd, ncols, |_, _| c(next(), next()));
        let mut panel = SplitComplexVec::from_interleaved(rhs_mat.as_slice());
        lu.solve_in_place(&sym, &mut panel, ncols);

        let reference = LuDecomposition::factor(&dense)
            .unwrap()
            .solve_matrix(&rhs_mat);
        for r in 0..nd {
            for cc in 0..ncols {
                assert!(
                    (panel.get(r * ncols + cc) - reference[(r, cc)]).abs() < 1e-11,
                    "mismatch at ({r}, {cc})"
                );
            }
        }
    }

    #[test]
    fn grid_structure_with_fill_solves_like_dense() {
        // A 3×3 grid of 2-port blocks — elimination must create fill.
        let sizes = vec![2usize; 9];
        let mut edges = Vec::new();
        for r in 0..3 {
            for cc in 0..3 {
                let v = r * 3 + cc;
                if cc + 1 < 3 {
                    edges.push((v, v + 1));
                }
                if r + 1 < 3 {
                    edges.push((v, v + 3));
                }
            }
        }
        let (sym, mut lu, dense) = random_system(&sizes, &edges, 5);
        assert!(sym.fill_block_count() > 0, "a grid must produce fill");
        lu.factor(&sym).unwrap();

        let nd = sym.scalar_dim();
        let mut next = rng(7);
        let rhs_mat = CMatrix::from_fn(nd, 2, |_, _| c(next(), next()));
        let mut panel = SplitComplexVec::from_interleaved(rhs_mat.as_slice());
        lu.solve_in_place(&sym, &mut panel, 2);
        let reference = LuDecomposition::factor(&dense)
            .unwrap()
            .solve_matrix(&rhs_mat);
        for r in 0..nd {
            for cc in 0..2 {
                assert!((panel.get(r * 2 + cc) - reference[(r, cc)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn refactoring_reuses_storage_deterministically() {
        let sizes = [2usize, 2, 2];
        let edges = [(0, 1), (1, 2)];
        let (sym, mut lu, _) = random_system(&sizes, &edges, 3);
        let baseline = lu.values().clone();
        lu.factor(&sym).unwrap();
        let first = lu.values().clone();
        // Reload the identical assembly and refactor: identical bits.
        lu.load(&baseline);
        lu.factor(&sym).unwrap();
        assert_eq!(lu.values(), &first);
    }

    #[test]
    fn scalar_tier_factor_and_solve_agree_within_tolerance() {
        // The vector tiers deviate from the scalar tier only by FMA
        // contraction (see `simd`'s module docs); verify end-to-end on a
        // filled system that factor and solution stay within a tolerance
        // far tighter than any structural divergence could produce.
        let sizes = vec![3usize; 9];
        let mut edges = Vec::new();
        for r in 0..3 {
            for cc in 0..3 {
                let v = r * 3 + cc;
                if cc + 1 < 3 {
                    edges.push((v, v + 1));
                }
                if r + 1 < 3 {
                    edges.push((v, v + 3));
                }
            }
        }
        let (sym, mut lu, _) = random_system(&sizes, &edges, 21);
        let baseline = lu.values().clone();
        let nd = sym.scalar_dim();
        let ncols = 5;
        let mut next = rng(33);
        let rhs: Vec<Complex> = (0..nd * ncols).map(|_| c(next(), next())).collect();

        lu.factor(&sym).unwrap();
        let simd_factor = lu.values().clone();
        let mut simd_panel = SplitComplexVec::from_interleaved(&rhs);
        lu.solve_in_place(&sym, &mut simd_panel, ncols);

        let mut scalar = BlockSparseLu::with_level(SimdLevel::Scalar);
        scalar.load(&baseline);
        scalar.factor(&sym).unwrap();
        let mut scalar_panel = SplitComplexVec::from_interleaved(&rhs);
        scalar.solve_in_place(&sym, &mut scalar_panel, ncols);
        let scalar_factor = scalar.values().clone();

        let close = |a: &SplitComplexVec, b: &SplitComplexVec, what: &str| {
            assert_eq!(a.len(), b.len());
            for idx in 0..a.len() {
                let d = (a.get(idx) - b.get(idx)).abs();
                let scale = b.get(idx).abs().max(1.0);
                assert!(d <= 1e-11 * scale, "{what}[{idx}]: |Δ| = {d:e}");
            }
        };
        close(&simd_factor, &scalar_factor, "factor");
        close(&simd_panel, &scalar_panel, "solution");
    }

    #[test]
    fn singular_diagonal_block_is_reported() {
        let sym = BlockSymbolic::analyze(&[2], &[]);
        let mut lu = BlockSparseLu::new();
        lu.reset(&sym);
        // Rank-1 block: [[1, 2], [2, 4]].
        lu.values_mut()
            .set(sym.entry_offset(0, 0, 0, 0).unwrap(), c(1.0, 0.0));
        lu.values_mut()
            .set(sym.entry_offset(0, 0, 0, 1).unwrap(), c(2.0, 0.0));
        lu.values_mut()
            .set(sym.entry_offset(0, 0, 1, 0).unwrap(), c(2.0, 0.0));
        lu.values_mut()
            .set(sym.entry_offset(0, 0, 1, 1).unwrap(), c(4.0, 0.0));
        let err = lu.factor(&sym).unwrap_err();
        assert_eq!(err.column, 1);
    }

    #[test]
    fn empty_system_is_a_no_op() {
        let sym = BlockSymbolic::analyze(&[], &[]);
        assert_eq!(sym.scalar_dim(), 0);
        assert_eq!(sym.values_len(), 0);
        let mut lu = BlockSparseLu::new();
        lu.reset(&sym);
        lu.factor(&sym).unwrap();
        let mut rhs = SplitComplexVec::new();
        lu.solve_in_place(&sym, &mut rhs, 4);
    }

    #[test]
    fn ordering_is_deterministic_and_fill_reducing() {
        // A star: hub 0 connected to six leaves. Eliminating leaves first
        // produces zero fill; eliminating the hub first fills everything.
        let sizes = vec![2usize; 7];
        let edges: Vec<(usize, usize)> = (1..7).map(|l| (0, l)).collect();
        let a = BlockSymbolic::analyze(&sizes, &edges);
        let b = BlockSymbolic::analyze(&sizes, &edges);
        assert_eq!(a.fill_block_count(), 0, "min-degree defers the hub");
        assert_eq!(a.inv_perm, b.inv_perm, "analysis must be deterministic");
        // The hub survives until only one leaf is left (a tie it then
        // wins on block id).
        assert!(a.inv_perm[0] >= 5, "hub eliminated too early");
    }

    #[test]
    fn scalar_rows_cover_the_dimension_exactly() {
        let sizes = [3usize, 1, 2];
        let sym = BlockSymbolic::analyze(&sizes, &[(0, 1), (1, 2), (0, 2)]);
        let mut seen = vec![false; sym.scalar_dim()];
        for (b, &s) in sizes.iter().enumerate() {
            for l in 0..s {
                let r = sym.scalar_row(b, l);
                assert!(!seen[r], "scalar rows must be disjoint");
                seen[r] = true;
            }
        }
        assert!(seen.iter().all(|&x| x));
    }

    #[test]
    fn split_vec_round_trips_and_indexes() {
        let src = [c(1.0, -2.0), c(0.0, 0.5), c(-3.0, 4.0)];
        let mut v = SplitComplexVec::from_interleaved(&src);
        assert_eq!(v.len(), 3);
        assert_eq!(v.to_interleaved(), src);
        v.add_assign(1, c(1.0, 1.0));
        v.sub_assign(2, c(0.5, 0.0));
        assert_eq!(v.get(1), c(1.0, 1.5));
        assert_eq!(v.get(2), c(-3.5, 4.0));
        let mut w = SplitComplexVec::new();
        w.copy_from(&v);
        assert_eq!(w, v);
        w.resize_zero(2);
        assert_eq!(w.get(0), Complex::ZERO);
        let mut r = SplitComplexVec::new();
        r.copy_range_from(&v, 1, 3);
        assert_eq!(r.len(), 2);
        assert_eq!(r.get(0), v.get(1));
    }
}
