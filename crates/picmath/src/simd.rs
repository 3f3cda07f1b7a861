//! Runtime-dispatched SIMD kernels for split-complex (SoA) panels.
//!
//! The block-sparse solver ([`crate::sparse`]) stores complex panels as
//! two parallel `f64` arrays (real parts / imaginary parts). Every hot
//! kernel — the Schur-update GEMM, the unit-lower and upper triangular
//! panel solves, and the `S_ee + S_ei·X` combine's axpy — is implemented
//! once as a generic body over a minimal vector abstraction (`Vf`) and
//! instantiated per instruction set:
//!
//! * **scalar** — `Vf` over plain `f64`, always compiled, on every
//!   platform; the reference semantics.
//! * **AVX2** — 4 × `f64` lanes (`x86_64`, runtime-detected).
//! * **AVX-512F** — 8 × `f64` lanes (`x86_64`, runtime-detected).
//! * **NEON** — 2 × `f64` lanes (`aarch64`, baseline feature).
//!
//! The panel kernels take explicit **row strides** (`lda`/`ldb`/`ldc`),
//! so a block embedded in a wider row panel — the storage layout
//! [`crate::sparse`] uses so whole block rows are contiguous — runs
//! through the same bodies as a packed block.
//!
//! There is no process-wide dispatch switch. Solver objects resolve a
//! kernel table once, when they are built: [`kernels`] for the default
//! tier ([`available_level`] — the widest the CPU supports, capped to
//! scalar by the `PICBENCH_FORCE_SCALAR=1` environment override, read
//! once at first use), or [`kernels_for`] for an explicit tier. Two
//! solvers on different tiers can therefore run side by side in one
//! process — which is how differential tests compare them.
//!
//! ## Lane order and numerical contract
//!
//! Every tier walks panels the same way, so results are a pure function
//! of the tier — never of panel alignment or call pattern:
//!
//! * Panels are processed in ascending element order, in groups of
//!   `LANES` elements with one masked partial group covering the
//!   remainder (inactive lanes are loaded as `+0.0` and never stored).
//!   All operations are element-wise, so grouping cannot reorder the
//!   arithmetic applied to any one element, and each element's
//!   multiply-accumulate chain runs in the same `k`-ascending order on
//!   every tier.
//! * The **scalar tier is the reference**: a complex multiply is
//!   `(f.re·y.re − f.im·y.im, f.re·y.im + f.im·y.re)` — plain IEEE-754
//!   mul/add/sub, no FMA, no reassociation, matching [`Complex`]'s
//!   `Mul` exactly. Divisions are hoisted as one scalar
//!   [`Complex::recip`] per pivot and applied as a complex multiply —
//!   the same value [`Complex`]'s `Div` computes per element.
//! * The **vector tiers contract** each `a·b ± c` in those trees into a
//!   fused multiply-add (`Vf::cmac_sub` and friends). This is the one
//!   permitted deviation from the scalar tier: it skips an intermediate
//!   rounding per product (≤ 1 ulp locally, and usually *more*
//!   accurate), so SIMD and scalar results may differ in the last bits.
//!   The deviation is bounded and gated — the `simd` conformance axis
//!   sweeps every generator family differentially against a
//!   scalar-tier plan under a tight tolerance, and this module's
//!   tests bound each kernel against its scalar instantiation.
//! * Zero-coefficient skips test `f.re == 0.0 && f.im == 0.0`, the same
//!   predicate as the scalar `f == Complex::ZERO`, independent of lane
//!   grouping.
//!
//! Within one tier, results are deterministic and bit-stable: refactor
//! and re-solve reproduce identical bits, on any thread.

use crate::Complex;
use std::fmt;
use std::str::FromStr;
use std::sync::OnceLock;

/// An instruction-set tier the kernels can run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdLevel {
    /// Plain `f64` arithmetic — always available, the reference path.
    Scalar,
    /// AVX2: 4 × `f64` lanes (`x86_64`).
    Avx2,
    /// AVX-512F: 8 × `f64` lanes (`x86_64`).
    Avx512,
    /// NEON: 2 × `f64` lanes (`aarch64`).
    Neon,
}

impl SimdLevel {
    /// Stable kebab-case token used in bench reports and CLI output.
    pub fn token(&self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Avx512 => "avx512",
            SimdLevel::Neon => "neon",
        }
    }
}

/// The default tier is [`available_level`]: the widest this process may
/// use.
impl Default for SimdLevel {
    fn default() -> Self {
        available_level()
    }
}

impl fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

impl FromStr for SimdLevel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        [
            SimdLevel::Scalar,
            SimdLevel::Avx2,
            SimdLevel::Avx512,
            SimdLevel::Neon,
        ]
        .iter()
        .find(|l| l.token() == s)
        .copied()
        .ok_or_else(|| format!("unknown SIMD level {s:?}"))
    }
}

#[allow(clippy::too_many_arguments)]
type GemmSubFn = unsafe fn(
    m: usize,
    k: usize,
    n: usize,
    ar: *const f64,
    ai: *const f64,
    lda: usize,
    br: *const f64,
    bi: *const f64,
    ldb: usize,
    cr: *mut f64,
    ci: *mut f64,
    ldc: usize,
);
type TrsmFn = unsafe fn(
    s: usize,
    ncols: usize,
    tr: *const f64,
    ti: *const f64,
    ldt: usize,
    br: *mut f64,
    bi: *mut f64,
    ldb: usize,
);
type AxpyFn = unsafe fn(
    len: usize,
    fr: f64,
    fi: f64,
    yr: *const f64,
    yi: *const f64,
    xr: *mut f64,
    xi: *mut f64,
);

/// A dispatched kernel table: one entry per hot operation, resolved to
/// the selected instruction set. Obtain via [`kernels`]; the safe methods
/// check shapes and wrap the raw calls.
pub struct Kernels {
    level: SimdLevel,
    gemm_sub: GemmSubFn,
    trsm_lower_unit: TrsmFn,
    trsm_upper: TrsmFn,
    axpy_sub: AxpyFn,
    axpy_add: AxpyFn,
}

impl fmt::Debug for Kernels {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Kernels")
            .field("level", &self.level)
            .finish()
    }
}

impl Kernels {
    /// The instruction-set tier these kernels run on.
    pub fn level(&self) -> SimdLevel {
        self.level
    }

    /// `C −= A·B` on packed row-major split-complex blocks (`m × k`,
    /// `k × n`, `m × n`).
    ///
    /// # Panics
    ///
    /// Panics if any component slice is shorter than its block shape or a
    /// re/im pair disagrees in length.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn gemm_sub(
        &self,
        cr: &mut [f64],
        ci: &mut [f64],
        ar: &[f64],
        ai: &[f64],
        br: &[f64],
        bi: &[f64],
        m: usize,
        k: usize,
        n: usize,
    ) {
        assert!(ar.len() >= m * k && ai.len() == ar.len(), "A too small");
        assert!(br.len() >= k * n && bi.len() == br.len(), "B too small");
        assert!(cr.len() >= m * n && ci.len() == cr.len(), "C too small");
        // SAFETY: shapes checked above; A, B and C are disjoint by the
        // borrow rules (two shared, one exclusive, distinct slices).
        unsafe {
            (self.gemm_sub)(
                m,
                k,
                n,
                ar.as_ptr(),
                ai.as_ptr(),
                k,
                br.as_ptr(),
                bi.as_ptr(),
                n,
                cr.as_mut_ptr(),
                ci.as_mut_ptr(),
                n,
            )
        }
    }

    /// Strided raw dispatch of `C −= A·B`: operand rows live `ld*`
    /// elements apart, so blocks embedded in wider row panels feed the
    /// kernel in place.
    ///
    /// # Safety
    ///
    /// Every accessed element (`row·ld + col` from each base pointer, for
    /// the operand's `rows × cols` shape) must be in bounds, and the `C`
    /// region must not overlap `A` or `B`.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub(crate) unsafe fn gemm_sub_ptr(
        &self,
        m: usize,
        k: usize,
        n: usize,
        ar: *const f64,
        ai: *const f64,
        lda: usize,
        br: *const f64,
        bi: *const f64,
        ldb: usize,
        cr: *mut f64,
        ci: *mut f64,
        ldc: usize,
    ) {
        (self.gemm_sub)(m, k, n, ar, ai, lda, br, bi, ldb, cr, ci, ldc)
    }

    /// `B ← L⁻¹·B` for the unit-lower triangle of a packed `s × s` LU
    /// block over a packed row-major `s × ncols` split-complex panel.
    ///
    /// # Panics
    ///
    /// Panics if a slice is shorter than its shape requires.
    #[inline]
    pub fn trsm_lower_unit(
        &self,
        lr: &[f64],
        li: &[f64],
        s: usize,
        br: &mut [f64],
        bi: &mut [f64],
        ncols: usize,
    ) {
        assert!(lr.len() >= s * s && li.len() == lr.len(), "L too small");
        assert!(br.len() >= s * ncols && bi.len() == br.len(), "B too small");
        // SAFETY: shapes checked; the kernel only forms raw-pointer row
        // views inside the two exclusive panel slices.
        unsafe {
            (self.trsm_lower_unit)(
                s,
                ncols,
                lr.as_ptr(),
                li.as_ptr(),
                s,
                br.as_mut_ptr(),
                bi.as_mut_ptr(),
                ncols,
            )
        }
    }

    /// Strided raw dispatch of the unit-lower panel solve.
    ///
    /// # Safety
    ///
    /// As [`Kernels::gemm_sub_ptr`]: strided accesses in bounds, and the
    /// `B` region disjoint from the triangle `L`.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub(crate) unsafe fn trsm_lower_unit_ptr(
        &self,
        s: usize,
        ncols: usize,
        lr: *const f64,
        li: *const f64,
        ldl: usize,
        br: *mut f64,
        bi: *mut f64,
        ldb: usize,
    ) {
        (self.trsm_lower_unit)(s, ncols, lr, li, ldl, br, bi, ldb)
    }

    /// `B ← U⁻¹·B` for the upper triangle of a packed `s × s` LU block
    /// over a packed row-major `s × ncols` split-complex panel. The
    /// diagonal division is applied as one hoisted [`Complex::recip`]
    /// multiply per row — on the scalar tier exactly the value dividing
    /// each element produces; vector tiers contract the multiply (see
    /// the module docs).
    ///
    /// # Panics
    ///
    /// Panics if a slice is shorter than its shape requires.
    #[inline]
    pub fn trsm_upper(
        &self,
        ur: &[f64],
        ui: &[f64],
        s: usize,
        br: &mut [f64],
        bi: &mut [f64],
        ncols: usize,
    ) {
        assert!(ur.len() >= s * s && ui.len() == ur.len(), "U too small");
        assert!(br.len() >= s * ncols && bi.len() == br.len(), "B too small");
        // SAFETY: shapes checked; row views stay inside the panel slices.
        unsafe {
            (self.trsm_upper)(
                s,
                ncols,
                ur.as_ptr(),
                ui.as_ptr(),
                s,
                br.as_mut_ptr(),
                bi.as_mut_ptr(),
                ncols,
            )
        }
    }

    /// Strided raw dispatch of the upper panel solve.
    ///
    /// # Safety
    ///
    /// As [`Kernels::gemm_sub_ptr`]: strided accesses in bounds, and the
    /// `B` region disjoint from the triangle `U`.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub(crate) unsafe fn trsm_upper_ptr(
        &self,
        s: usize,
        ncols: usize,
        ur: *const f64,
        ui: *const f64,
        ldu: usize,
        br: *mut f64,
        bi: *mut f64,
        ldb: usize,
    ) {
        (self.trsm_upper)(s, ncols, ur, ui, ldu, br, bi, ldb)
    }

    /// `x −= f·y` element-wise over split-complex vectors.
    ///
    /// # Panics
    ///
    /// Panics if the four slices do not share one length.
    #[inline]
    pub fn axpy_sub(&self, f: Complex, yr: &[f64], yi: &[f64], xr: &mut [f64], xi: &mut [f64]) {
        let len = xr.len();
        assert!(
            yr.len() == len && yi.len() == len && xi.len() == len,
            "axpy operands disagree in length"
        );
        // SAFETY: lengths checked; x and y are disjoint by borrow rules.
        unsafe {
            (self.axpy_sub)(
                len,
                f.re,
                f.im,
                yr.as_ptr(),
                yi.as_ptr(),
                xr.as_mut_ptr(),
                xi.as_mut_ptr(),
            )
        }
    }

    /// `x += f·y` element-wise over split-complex vectors.
    ///
    /// # Panics
    ///
    /// Panics if the four slices do not share one length.
    #[inline]
    pub fn axpy_add(&self, f: Complex, yr: &[f64], yi: &[f64], xr: &mut [f64], xi: &mut [f64]) {
        let len = xr.len();
        assert!(
            yr.len() == len && yi.len() == len && xi.len() == len,
            "axpy operands disagree in length"
        );
        // SAFETY: lengths checked; x and y are disjoint by borrow rules.
        unsafe {
            (self.axpy_add)(
                len,
                f.re,
                f.im,
                yr.as_ptr(),
                yi.as_ptr(),
                xr.as_mut_ptr(),
                xi.as_mut_ptr(),
            )
        }
    }
}

/// Minimal vector abstraction the generic kernel bodies are written
/// against: a register of `LANES` packed `f64` values with element-wise
/// IEEE-754 arithmetic and masked partial loads/stores for sub-`LANES`
/// tails. One implementation per tier.
///
/// The complex multiply-accumulate helpers ship reference (separately
/// rounded) default bodies that the scalar tier keeps — matching
/// [`Complex`] arithmetic bit for bit — while the vector tiers override
/// them with FMA-contracted forms (see the module docs for the
/// numerical contract).
trait Vf: Copy {
    /// Packed lane count.
    const LANES: usize;
    /// Broadcasts one value to every lane.
    unsafe fn splat(x: f64) -> Self;
    /// Unaligned load of `LANES` consecutive values.
    unsafe fn load(p: *const f64) -> Self;
    /// Unaligned store of `LANES` consecutive values.
    unsafe fn store(self, p: *mut f64);
    /// Masked load of the first `n < LANES` values; inactive lanes are
    /// `+0.0` and no memory past `p + n` is touched.
    unsafe fn load_partial(p: *const f64, n: usize) -> Self;
    /// Masked store of the first `n < LANES` lanes; memory past `p + n`
    /// is untouched.
    unsafe fn store_partial(self, p: *mut f64, n: usize);
    /// Lane-wise addition.
    unsafe fn add(self, o: Self) -> Self;
    /// Lane-wise subtraction.
    unsafe fn sub(self, o: Self) -> Self;
    /// Lane-wise multiplication (not fused).
    unsafe fn mul(self, o: Self) -> Self;
    /// `self·b + c`, fused where the tier has FMA; the default is the
    /// separately-rounded reference.
    #[inline(always)]
    unsafe fn mul_adds(self, b: Self, c: Self) -> Self {
        self.mul(b).add(c)
    }
    /// `c − self·b`, fused where the tier has FMA; the default is the
    /// separately-rounded reference.
    #[inline(always)]
    unsafe fn neg_mul_adds(self, b: Self, c: Self) -> Self {
        c.sub(self.mul(b))
    }
    /// `(accr, acci) −= (fr, fi)·(yr, yi)` — one complex
    /// multiply-accumulate. The default is the exact [`Complex`] `Mul`
    /// tree (`acc − (fr·yr − fi·yi)`, `acc − (fr·yi + fi·yr)`); FMA
    /// tiers override with the contracted form, which keeps the same
    /// operand order but skips intermediate roundings.
    #[inline(always)]
    unsafe fn cmac_sub(
        accr: Self,
        acci: Self,
        fr: Self,
        fi: Self,
        yr: Self,
        yi: Self,
    ) -> (Self, Self) {
        (
            accr.sub(fr.mul(yr).sub(fi.mul(yi))),
            acci.sub(fr.mul(yi).add(fi.mul(yr))),
        )
    }
    /// `(accr, acci) += (fr, fi)·(yr, yi)` (conventions as
    /// [`Vf::cmac_sub`]).
    #[inline(always)]
    unsafe fn cmac_add(
        accr: Self,
        acci: Self,
        fr: Self,
        fi: Self,
        yr: Self,
        yi: Self,
    ) -> (Self, Self) {
        (
            accr.add(fr.mul(yr).sub(fi.mul(yi))),
            acci.add(fr.mul(yi).add(fi.mul(yr))),
        )
    }
    /// Complex multiply `(ar, ai)·(br, bi)` (conventions as
    /// [`Vf::cmac_sub`]).
    #[inline(always)]
    unsafe fn cmul(ar: Self, ai: Self, br: Self, bi: Self) -> (Self, Self) {
        (ar.mul(br).sub(ai.mul(bi)), ar.mul(bi).add(ai.mul(br)))
    }
}

impl Vf for f64 {
    const LANES: usize = 1;
    #[inline(always)]
    unsafe fn splat(x: f64) -> Self {
        x
    }
    #[inline(always)]
    unsafe fn load(p: *const f64) -> Self {
        *p
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f64) {
        *p = self;
    }
    #[inline(always)]
    unsafe fn load_partial(p: *const f64, _n: usize) -> Self {
        // With one lane the main loop leaves no remainder; kept total
        // so the generic bodies compile for every tier.
        *p
    }
    #[inline(always)]
    unsafe fn store_partial(self, p: *mut f64, _n: usize) {
        *p = self;
    }
    #[inline(always)]
    unsafe fn add(self, o: Self) -> Self {
        self + o
    }
    #[inline(always)]
    unsafe fn sub(self, o: Self) -> Self {
        self - o
    }
    #[inline(always)]
    unsafe fn mul(self, o: Self) -> Self {
        self * o
    }
}

/// FMA-contracted `(accr, acci) −= (fr, fi)·(yr, yi)`: the operand order
/// of the reference tree with the intermediate roundings fused away.
/// Vector tiers plug this into [`Vf::cmac_sub`].
#[inline(always)]
unsafe fn cmac_sub_fused<V: Vf>(accr: V, acci: V, fr: V, fi: V, yr: V, yi: V) -> (V, V) {
    (
        fi.mul_adds(yi, fr.neg_mul_adds(yr, accr)),
        fi.neg_mul_adds(yr, fr.neg_mul_adds(yi, acci)),
    )
}

/// FMA-contracted `(accr, acci) += (fr, fi)·(yr, yi)`.
#[inline(always)]
unsafe fn cmac_add_fused<V: Vf>(accr: V, acci: V, fr: V, fi: V, yr: V, yi: V) -> (V, V) {
    (
        fi.neg_mul_adds(yi, fr.mul_adds(yr, accr)),
        fi.mul_adds(yr, fr.mul_adds(yi, acci)),
    )
}

/// FMA-contracted complex multiply `(ar, ai)·(br, bi)`.
#[inline(always)]
unsafe fn cmul_fused<V: Vf>(ar: V, ai: V, br: V, bi: V) -> (V, V) {
    (ai.neg_mul_adds(bi, ar.mul(br)), ai.mul_adds(br, ar.mul(bi)))
}

/// Overrides the [`Vf`] complex helpers with their fused compositions —
/// one line per tier with hardware FMA.
macro_rules! fused_cmacs {
    () => {
        #[inline(always)]
        unsafe fn cmac_sub(
            accr: Self,
            acci: Self,
            fr: Self,
            fi: Self,
            yr: Self,
            yi: Self,
        ) -> (Self, Self) {
            super::cmac_sub_fused::<Self>(accr, acci, fr, fi, yr, yi)
        }
        #[inline(always)]
        unsafe fn cmac_add(
            accr: Self,
            acci: Self,
            fr: Self,
            fi: Self,
            yr: Self,
            yi: Self,
        ) -> (Self, Self) {
            super::cmac_add_fused::<Self>(accr, acci, fr, fi, yr, yi)
        }
        #[inline(always)]
        unsafe fn cmul(ar: Self, ai: Self, br: Self, bi: Self) -> (Self, Self) {
            super::cmul_fused::<Self>(ar, ai, br, bi)
        }
    };
}

/// `x −= f·y` over one contiguous run: ascending elements, `LANES` at a
/// time with a masked tail; per element the exact complex-multiply tree.
#[inline(always)]
unsafe fn axpy_sub_g<V: Vf>(
    len: usize,
    fr: f64,
    fi: f64,
    yr: *const f64,
    yi: *const f64,
    xr: *mut f64,
    xi: *mut f64,
) {
    let vfr = V::splat(fr);
    let vfi = V::splat(fi);
    let mut j = 0;
    while j + V::LANES <= len {
        let yrv = V::load(yr.add(j));
        let yiv = V::load(yi.add(j));
        let xrv = V::load(xr.add(j));
        let xiv = V::load(xi.add(j));
        let (outr, outi) = V::cmac_sub(xrv, xiv, vfr, vfi, yrv, yiv);
        outr.store(xr.add(j));
        outi.store(xi.add(j));
        j += V::LANES;
    }
    let rem = len - j;
    if rem > 0 {
        let yrv = V::load_partial(yr.add(j), rem);
        let yiv = V::load_partial(yi.add(j), rem);
        let xrv = V::load_partial(xr.add(j), rem);
        let xiv = V::load_partial(xi.add(j), rem);
        let (outr, outi) = V::cmac_sub(xrv, xiv, vfr, vfi, yrv, yiv);
        outr.store_partial(xr.add(j), rem);
        outi.store_partial(xi.add(j), rem);
    }
}

/// `x += f·y` over one contiguous run (lane order as [`axpy_sub_g`]).
#[inline(always)]
unsafe fn axpy_add_g<V: Vf>(
    len: usize,
    fr: f64,
    fi: f64,
    yr: *const f64,
    yi: *const f64,
    xr: *mut f64,
    xi: *mut f64,
) {
    let vfr = V::splat(fr);
    let vfi = V::splat(fi);
    let mut j = 0;
    while j + V::LANES <= len {
        let yrv = V::load(yr.add(j));
        let yiv = V::load(yi.add(j));
        let xrv = V::load(xr.add(j));
        let xiv = V::load(xi.add(j));
        let (outr, outi) = V::cmac_add(xrv, xiv, vfr, vfi, yrv, yiv);
        outr.store(xr.add(j));
        outi.store(xi.add(j));
        j += V::LANES;
    }
    let rem = len - j;
    if rem > 0 {
        let yrv = V::load_partial(yr.add(j), rem);
        let yiv = V::load_partial(yi.add(j), rem);
        let xrv = V::load_partial(xr.add(j), rem);
        let xiv = V::load_partial(xi.add(j), rem);
        let (outr, outi) = V::cmac_add(xrv, xiv, vfr, vfi, yrv, yiv);
        outr.store_partial(xr.add(j), rem);
        outi.store_partial(xi.add(j), rem);
    }
}

/// `C −= A·B` on strided row-major operands, register-blocked along `n`:
/// each output chunk is loaded once, accumulates every `k` rank-1 term in
/// ascending order, and is stored once — per element the same chain the
/// streaming scalar loop produces.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_sub_g<V: Vf>(
    m: usize,
    k: usize,
    n: usize,
    ar: *const f64,
    ai: *const f64,
    lda: usize,
    br: *const f64,
    bi: *const f64,
    ldb: usize,
    cr: *mut f64,
    ci: *mut f64,
    ldc: usize,
) {
    for r in 0..m {
        let arow = r * lda;
        let crow_r = cr.add(r * ldc);
        let crow_i = ci.add(r * ldc);
        let mut j = 0;
        while j + V::LANES <= n {
            let mut accr = V::load(crow_r.add(j));
            let mut acci = V::load(crow_i.add(j));
            for t in 0..k {
                let fr = *ar.add(arow + t);
                let fi = *ai.add(arow + t);
                if fr == 0.0 && fi == 0.0 {
                    continue;
                }
                let vfr = V::splat(fr);
                let vfi = V::splat(fi);
                let yrv = V::load(br.add(t * ldb + j));
                let yiv = V::load(bi.add(t * ldb + j));
                (accr, acci) = V::cmac_sub(accr, acci, vfr, vfi, yrv, yiv);
            }
            accr.store(crow_r.add(j));
            acci.store(crow_i.add(j));
            j += V::LANES;
        }
        let rem = n - j;
        if rem > 0 {
            let mut accr = V::load_partial(crow_r.add(j), rem);
            let mut acci = V::load_partial(crow_i.add(j), rem);
            for t in 0..k {
                let fr = *ar.add(arow + t);
                let fi = *ai.add(arow + t);
                if fr == 0.0 && fi == 0.0 {
                    continue;
                }
                let vfr = V::splat(fr);
                let vfi = V::splat(fi);
                let yrv = V::load_partial(br.add(t * ldb + j), rem);
                let yiv = V::load_partial(bi.add(t * ldb + j), rem);
                (accr, acci) = V::cmac_sub(accr, acci, vfr, vfi, yrv, yiv);
            }
            accr.store_partial(crow_r.add(j), rem);
            acci.store_partial(crow_i.add(j), rem);
        }
    }
}

/// `B ← L⁻¹·B` (unit lower triangle, strided), rows top-down, each output
/// chunk accumulating its `m < r` terms in ascending order.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn trsm_lower_unit_g<V: Vf>(
    s: usize,
    ncols: usize,
    lr: *const f64,
    li: *const f64,
    ldl: usize,
    br: *mut f64,
    bi: *mut f64,
    ldb: usize,
) {
    for r in 1..s {
        let row_r_r = br.add(r * ldb);
        let row_r_i = bi.add(r * ldb);
        let mut j = 0;
        while j + V::LANES <= ncols {
            let mut accr = V::load(row_r_r.add(j));
            let mut acci = V::load(row_r_i.add(j));
            for m in 0..r {
                let fr = *lr.add(r * ldl + m);
                let fi = *li.add(r * ldl + m);
                if fr == 0.0 && fi == 0.0 {
                    continue;
                }
                let vfr = V::splat(fr);
                let vfi = V::splat(fi);
                let yrv = V::load(br.add(m * ldb + j) as *const f64);
                let yiv = V::load(bi.add(m * ldb + j) as *const f64);
                (accr, acci) = V::cmac_sub(accr, acci, vfr, vfi, yrv, yiv);
            }
            accr.store(row_r_r.add(j));
            acci.store(row_r_i.add(j));
            j += V::LANES;
        }
        let rem = ncols - j;
        if rem > 0 {
            let mut accr = V::load_partial(row_r_r.add(j), rem);
            let mut acci = V::load_partial(row_r_i.add(j), rem);
            for m in 0..r {
                let fr = *lr.add(r * ldl + m);
                let fi = *li.add(r * ldl + m);
                if fr == 0.0 && fi == 0.0 {
                    continue;
                }
                let vfr = V::splat(fr);
                let vfi = V::splat(fi);
                let yrv = V::load_partial(br.add(m * ldb + j) as *const f64, rem);
                let yiv = V::load_partial(bi.add(m * ldb + j) as *const f64, rem);
                (accr, acci) = V::cmac_sub(accr, acci, vfr, vfi, yrv, yiv);
            }
            accr.store_partial(row_r_r.add(j), rem);
            acci.store_partial(row_r_i.add(j), rem);
        }
    }
}

/// `B ← U⁻¹·B` (upper triangle, strided), rows bottom-up: subtract the
/// already-solved tail rows in ascending order, then multiply by the
/// row's hoisted diagonal reciprocal.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn trsm_upper_g<V: Vf>(
    s: usize,
    ncols: usize,
    ur: *const f64,
    ui: *const f64,
    ldu: usize,
    br: *mut f64,
    bi: *mut f64,
    ldb: usize,
) {
    for r in (0..s).rev() {
        // Hoisted scalar reciprocal of the diagonal: per element,
        // multiplying by it is exactly the `Complex::div` the scalar
        // reference performs.
        let inv = Complex::new(*ur.add(r * ldu + r), *ui.add(r * ldu + r)).recip();
        let vir = V::splat(inv.re);
        let vii = V::splat(inv.im);
        let row_r_r = br.add(r * ldb);
        let row_r_i = bi.add(r * ldb);
        let mut j = 0;
        while j + V::LANES <= ncols {
            let mut accr = V::load(row_r_r.add(j));
            let mut acci = V::load(row_r_i.add(j));
            for t in r + 1..s {
                let fr = *ur.add(r * ldu + t);
                let fi = *ui.add(r * ldu + t);
                if fr == 0.0 && fi == 0.0 {
                    continue;
                }
                let vfr = V::splat(fr);
                let vfi = V::splat(fi);
                let yrv = V::load(br.add(t * ldb + j) as *const f64);
                let yiv = V::load(bi.add(t * ldb + j) as *const f64);
                (accr, acci) = V::cmac_sub(accr, acci, vfr, vfi, yrv, yiv);
            }
            let (outr, outi) = V::cmul(accr, acci, vir, vii);
            outr.store(row_r_r.add(j));
            outi.store(row_r_i.add(j));
            j += V::LANES;
        }
        let rem = ncols - j;
        if rem > 0 {
            let mut accr = V::load_partial(row_r_r.add(j), rem);
            let mut acci = V::load_partial(row_r_i.add(j), rem);
            for t in r + 1..s {
                let fr = *ur.add(r * ldu + t);
                let fi = *ui.add(r * ldu + t);
                if fr == 0.0 && fi == 0.0 {
                    continue;
                }
                let vfr = V::splat(fr);
                let vfi = V::splat(fi);
                let yrv = V::load_partial(br.add(t * ldb + j) as *const f64, rem);
                let yiv = V::load_partial(bi.add(t * ldb + j) as *const f64, rem);
                (accr, acci) = V::cmac_sub(accr, acci, vfr, vfi, yrv, yiv);
            }
            let (outr, outi) = V::cmul(accr, acci, vir, vii);
            outr.store_partial(row_r_r.add(j), rem);
            outi.store_partial(row_r_i.add(j), rem);
        }
    }
}

/// Instantiates the five kernel entry points for a tier by delegating to
/// the generic bodies over the given [`Vf`] register type, with an
/// optional `#[target_feature]` gate applied to each.
macro_rules! instantiate_kernels {
    ($(#[$gate:meta])*, $vec:ty) => {
        $(#[$gate])*
        #[allow(clippy::too_many_arguments)]
        pub unsafe fn gemm_sub(
            m: usize,
            k: usize,
            n: usize,
            ar: *const f64,
            ai: *const f64,
            lda: usize,
            br: *const f64,
            bi: *const f64,
            ldb: usize,
            cr: *mut f64,
            ci: *mut f64,
            ldc: usize,
        ) {
            super::gemm_sub_g::<$vec>(m, k, n, ar, ai, lda, br, bi, ldb, cr, ci, ldc)
        }

        $(#[$gate])*
        #[allow(clippy::too_many_arguments)]
        pub unsafe fn trsm_lower_unit(
            s: usize,
            ncols: usize,
            lr: *const f64,
            li: *const f64,
            ldl: usize,
            br: *mut f64,
            bi: *mut f64,
            ldb: usize,
        ) {
            super::trsm_lower_unit_g::<$vec>(s, ncols, lr, li, ldl, br, bi, ldb)
        }

        $(#[$gate])*
        #[allow(clippy::too_many_arguments)]
        pub unsafe fn trsm_upper(
            s: usize,
            ncols: usize,
            ur: *const f64,
            ui: *const f64,
            ldu: usize,
            br: *mut f64,
            bi: *mut f64,
            ldb: usize,
        ) {
            super::trsm_upper_g::<$vec>(s, ncols, ur, ui, ldu, br, bi, ldb)
        }

        $(#[$gate])*
        pub unsafe fn axpy_sub(
            len: usize,
            fr: f64,
            fi: f64,
            yr: *const f64,
            yi: *const f64,
            xr: *mut f64,
            xi: *mut f64,
        ) {
            super::axpy_sub_g::<$vec>(len, fr, fi, yr, yi, xr, xi)
        }

        $(#[$gate])*
        pub unsafe fn axpy_add(
            len: usize,
            fr: f64,
            fi: f64,
            yr: *const f64,
            yi: *const f64,
            xr: *mut f64,
            xi: *mut f64,
        ) {
            super::axpy_add_g::<$vec>(len, fr, fi, yr, yi, xr, xi)
        }
    };
}

/// Scalar instantiations — the always-compiled fallback on every
/// platform, and the separately-rounded reference semantics the vector
/// tiers must match within the FMA-contraction tolerance.
mod scalar {
    instantiate_kernels!(, f64);
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::Vf;
    use std::arch::x86_64::*;

    #[derive(Clone, Copy)]
    pub struct V(__m256d);

    /// Lane-enable masks for 1–3 active lanes (high bit of each `i64`).
    #[inline(always)]
    unsafe fn mask(n: usize) -> __m256i {
        match n {
            1 => _mm256_setr_epi64x(-1, 0, 0, 0),
            2 => _mm256_setr_epi64x(-1, -1, 0, 0),
            _ => _mm256_setr_epi64x(-1, -1, -1, 0),
        }
    }

    impl Vf for V {
        const LANES: usize = 4;
        #[inline(always)]
        unsafe fn splat(x: f64) -> Self {
            V(_mm256_set1_pd(x))
        }
        #[inline(always)]
        unsafe fn load(p: *const f64) -> Self {
            V(_mm256_loadu_pd(p))
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f64) {
            _mm256_storeu_pd(p, self.0)
        }
        #[inline(always)]
        unsafe fn load_partial(p: *const f64, n: usize) -> Self {
            // VMASKMOVPD suppresses faults and zeroes inactive lanes.
            V(_mm256_maskload_pd(p, mask(n)))
        }
        #[inline(always)]
        unsafe fn store_partial(self, p: *mut f64, n: usize) {
            _mm256_maskstore_pd(p, mask(n), self.0)
        }
        #[inline(always)]
        unsafe fn add(self, o: Self) -> Self {
            V(_mm256_add_pd(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn sub(self, o: Self) -> Self {
            V(_mm256_sub_pd(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn mul(self, o: Self) -> Self {
            V(_mm256_mul_pd(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn mul_adds(self, b: Self, c: Self) -> Self {
            V(_mm256_fmadd_pd(self.0, b.0, c.0))
        }
        #[inline(always)]
        unsafe fn neg_mul_adds(self, b: Self, c: Self) -> Self {
            V(_mm256_fnmadd_pd(self.0, b.0, c.0))
        }
        fused_cmacs!();
    }

    instantiate_kernels!(#[target_feature(enable = "avx2,fma")], V);
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::Vf;
    use std::arch::x86_64::*;

    #[derive(Clone, Copy)]
    pub struct V(__m512d);

    impl Vf for V {
        const LANES: usize = 8;
        #[inline(always)]
        unsafe fn splat(x: f64) -> Self {
            V(_mm512_set1_pd(x))
        }
        #[inline(always)]
        unsafe fn load(p: *const f64) -> Self {
            V(_mm512_loadu_pd(p))
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f64) {
            _mm512_storeu_pd(p, self.0)
        }
        #[inline(always)]
        unsafe fn load_partial(p: *const f64, n: usize) -> Self {
            // Masked loads suppress faults on inactive lanes and zero
            // them.
            V(_mm512_maskz_loadu_pd((1u8 << n) - 1, p))
        }
        #[inline(always)]
        unsafe fn store_partial(self, p: *mut f64, n: usize) {
            _mm512_mask_storeu_pd(p, (1u8 << n) - 1, self.0)
        }
        #[inline(always)]
        unsafe fn add(self, o: Self) -> Self {
            V(_mm512_add_pd(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn sub(self, o: Self) -> Self {
            V(_mm512_sub_pd(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn mul(self, o: Self) -> Self {
            V(_mm512_mul_pd(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn mul_adds(self, b: Self, c: Self) -> Self {
            V(_mm512_fmadd_pd(self.0, b.0, c.0))
        }
        #[inline(always)]
        unsafe fn neg_mul_adds(self, b: Self, c: Self) -> Self {
            V(_mm512_fnmadd_pd(self.0, b.0, c.0))
        }
        fused_cmacs!();
    }

    instantiate_kernels!(#[target_feature(enable = "avx512f")], V);
}

#[cfg(target_arch = "aarch64")]
mod neon {
    use super::Vf;
    use std::arch::aarch64::*;

    #[derive(Clone, Copy)]
    pub struct V(float64x2_t);

    impl Vf for V {
        const LANES: usize = 2;
        #[inline(always)]
        unsafe fn splat(x: f64) -> Self {
            V(vdupq_n_f64(x))
        }
        #[inline(always)]
        unsafe fn load(p: *const f64) -> Self {
            V(vld1q_f64(p))
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f64) {
            vst1q_f64(p, self.0)
        }
        #[inline(always)]
        unsafe fn load_partial(p: *const f64, _n: usize) -> Self {
            // The only partial width with two lanes is one element.
            V(vsetq_lane_f64::<0>(*p, vdupq_n_f64(0.0)))
        }
        #[inline(always)]
        unsafe fn store_partial(self, p: *mut f64, _n: usize) {
            *p = vgetq_lane_f64::<0>(self.0)
        }
        #[inline(always)]
        unsafe fn add(self, o: Self) -> Self {
            V(vaddq_f64(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn sub(self, o: Self) -> Self {
            V(vsubq_f64(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn mul(self, o: Self) -> Self {
            V(vmulq_f64(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn mul_adds(self, b: Self, c: Self) -> Self {
            // vfmaq(c, a, b) = c + a·b, fused.
            V(vfmaq_f64(c.0, self.0, b.0))
        }
        #[inline(always)]
        unsafe fn neg_mul_adds(self, b: Self, c: Self) -> Self {
            // vfmsq(c, a, b) = c − a·b, fused.
            V(vfmsq_f64(c.0, self.0, b.0))
        }
        fused_cmacs!();
    }

    // NEON is part of the aarch64 baseline, so no `target_feature` gate
    // is needed; the fns stay `unsafe` for signature uniformity with the
    // other tiers.
    instantiate_kernels!(, V);
}

static SCALAR_KERNELS: Kernels = Kernels {
    level: SimdLevel::Scalar,
    gemm_sub: scalar::gemm_sub,
    trsm_lower_unit: scalar::trsm_lower_unit,
    trsm_upper: scalar::trsm_upper,
    axpy_sub: scalar::axpy_sub,
    axpy_add: scalar::axpy_add,
};

#[cfg(target_arch = "x86_64")]
static AVX2_KERNELS: Kernels = Kernels {
    level: SimdLevel::Avx2,
    gemm_sub: avx2::gemm_sub,
    trsm_lower_unit: avx2::trsm_lower_unit,
    trsm_upper: avx2::trsm_upper,
    axpy_sub: avx2::axpy_sub,
    axpy_add: avx2::axpy_add,
};

#[cfg(target_arch = "x86_64")]
static AVX512_KERNELS: Kernels = Kernels {
    level: SimdLevel::Avx512,
    gemm_sub: avx512::gemm_sub,
    trsm_lower_unit: avx512::trsm_lower_unit,
    trsm_upper: avx512::trsm_upper,
    axpy_sub: avx512::axpy_sub,
    axpy_add: avx512::axpy_add,
};

#[cfg(target_arch = "aarch64")]
static NEON_KERNELS: Kernels = Kernels {
    level: SimdLevel::Neon,
    gemm_sub: neon::gemm_sub,
    trsm_lower_unit: neon::trsm_lower_unit,
    trsm_upper: neon::trsm_upper,
    axpy_sub: neon::axpy_sub,
    axpy_add: neon::axpy_add,
};

fn detect() -> SimdLevel {
    // Both x86 tiers contract through FMA: AVX-512F carries its own fused
    // ops, the AVX2 tier needs the separate `fma` feature (in practice
    // present on every AVX2 part).
    [SimdLevel::Avx512, SimdLevel::Avx2, SimdLevel::Neon]
        .into_iter()
        .find(|&level| is_supported(level))
        .unwrap_or(SimdLevel::Scalar)
}

/// The widest tier this process may use: runtime CPU detection, capped to
/// scalar when `PICBENCH_FORCE_SCALAR` is set to anything but `0`/empty
/// in the environment (read once, at first call).
pub fn available_level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        let env_forced =
            std::env::var_os("PICBENCH_FORCE_SCALAR").is_some_and(|v| !v.is_empty() && v != *"0");
        if env_forced {
            SimdLevel::Scalar
        } else {
            detect()
        }
    })
}

/// Whether this CPU can run `level`'s kernels (runtime detection; the
/// `PICBENCH_FORCE_SCALAR` override does not apply — it only lowers the
/// [`available_level`] default, and scalar is supported everywhere).
pub fn is_supported(level: SimdLevel) -> bool {
    match level {
        SimdLevel::Scalar => true,
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        }
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => true,
        #[allow(unreachable_patterns)]
        _ => false,
    }
}

/// The kernel table of an explicit tier. Callers resolve it once — at
/// plan or factorization construction — so every kernel call of that
/// object dispatches the same tier no matter what else runs in the
/// process.
///
/// # Panics
///
/// Panics if this CPU cannot run `level` (see [`is_supported`]):
/// dispatching an undetected instruction set would be undefined
/// behaviour.
pub fn kernels_for(level: SimdLevel) -> &'static Kernels {
    assert!(
        is_supported(level),
        "SIMD level {level} is not supported on this CPU"
    );
    match level {
        SimdLevel::Scalar => &SCALAR_KERNELS,
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => &AVX2_KERNELS,
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => &AVX512_KERNELS,
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => &NEON_KERNELS,
        #[allow(unreachable_patterns)]
        _ => unreachable!("is_supported rejects tiers of other architectures"),
    }
}

/// The kernel table of [`available_level`] — the default every solver
/// object resolves at construction.
pub fn kernels() -> &'static Kernels {
    kernels_for(available_level())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed.wrapping_mul(2685821657736338717).wrapping_add(1);
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) * 2.0 - 1.0
        }
    }

    fn random_panel(len: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let mut next = rng(seed);
        (
            (0..len).map(|_| next()).collect(),
            (0..len).map(|_| next()).collect(),
        )
    }

    #[test]
    fn level_tokens_round_trip() {
        for level in [
            SimdLevel::Scalar,
            SimdLevel::Avx2,
            SimdLevel::Avx512,
            SimdLevel::Neon,
        ] {
            assert_eq!(level.token().parse::<SimdLevel>().unwrap(), level);
        }
        assert!("sse9".parse::<SimdLevel>().is_err());
    }

    #[test]
    fn explicit_levels_resolve_their_own_tables() {
        assert_eq!(kernels_for(SimdLevel::Scalar).level(), SimdLevel::Scalar);
        assert!(is_supported(available_level()));
        assert_eq!(kernels().level(), available_level());
    }

    /// Element-wise closeness bound for the SIMD-vs-scalar comparisons:
    /// the only permitted deviation is FMA contraction, a sub-ulp local
    /// effect, so the tolerance can sit far below what accumulated
    /// rounding could ever explain away.
    fn assert_close(a: &[f64], b: &[f64], what: &str) {
        const TOL: f64 = 1e-13;
        for (idx, (&x, &y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() <= TOL * y.abs().max(1.0),
                "{what}[{idx}]: {x} vs {y}"
            );
        }
    }

    /// The heart of the contract: on hardware with a SIMD tier, every
    /// kernel must match the scalar instantiation within the documented
    /// FMA-contraction tolerance, including ragged lengths that exercise
    /// the masked lane tail, zero coefficients and signed zeros.
    #[test]
    fn simd_kernels_match_scalar_within_contraction_tolerance() {
        let wide = kernels();
        if wide.level() == SimdLevel::Scalar {
            return; // nothing to differentiate on this host
        }
        let scalar = &SCALAR_KERNELS;
        for n in [1usize, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33] {
            let (m, k) = (3usize, 4usize);
            let (ar, ai) = random_panel(m * k, 100 + n as u64);
            let (br, bi) = random_panel(k * n, 200 + n as u64);
            let (cr0, ci0) = random_panel(m * n, 300 + n as u64);
            // Plant exact zeros (both signs) to exercise the skip path.
            let mut ar = ar;
            ar[1] = 0.0;
            let mut ai = ai;
            ai[1] = -0.0;

            let (mut cr_a, mut ci_a) = (cr0.clone(), ci0.clone());
            let (mut cr_b, mut ci_b) = (cr0.clone(), ci0.clone());
            wide.gemm_sub(&mut cr_a, &mut ci_a, &ar, &ai, &br, &bi, m, k, n);
            scalar.gemm_sub(&mut cr_b, &mut ci_b, &ar, &ai, &br, &bi, m, k, n);
            assert_close(&cr_a, &cr_b, "gemm_sub re");
            assert_close(&ci_a, &ci_b, "gemm_sub im");

            let s = 5usize;
            let (mut tr, ti) = random_panel(s * s, 400 + n as u64);
            // Keep the diagonal well away from zero for the upper solve.
            for d in 0..s {
                tr[d * s + d] += 3.0;
            }
            let (pr0, pi0) = random_panel(s * n, 500 + n as u64);

            let (mut pr_a, mut pi_a) = (pr0.clone(), pi0.clone());
            let (mut pr_b, mut pi_b) = (pr0.clone(), pi0.clone());
            wide.trsm_lower_unit(&tr, &ti, s, &mut pr_a, &mut pi_a, n);
            scalar.trsm_lower_unit(&tr, &ti, s, &mut pr_b, &mut pi_b, n);
            assert_close(&pr_a, &pr_b, "trsm_lower_unit re");
            assert_close(&pi_a, &pi_b, "trsm_lower_unit im");

            let (mut pr_a, mut pi_a) = (pr0.clone(), pi0.clone());
            let (mut pr_b, mut pi_b) = (pr0.clone(), pi0.clone());
            wide.trsm_upper(&tr, &ti, s, &mut pr_a, &mut pi_a, n);
            scalar.trsm_upper(&tr, &ti, s, &mut pr_b, &mut pi_b, n);
            assert_close(&pr_a, &pr_b, "trsm_upper re");
            assert_close(&pi_a, &pi_b, "trsm_upper im");

            let f = Complex::new(0.37, -1.21);
            let (yr, yi) = random_panel(n, 600 + n as u64);
            let (xr0, xi0) = random_panel(n, 700 + n as u64);
            let (mut xr_a, mut xi_a) = (xr0.clone(), xi0.clone());
            let (mut xr_b, mut xi_b) = (xr0.clone(), xi0.clone());
            wide.axpy_sub(f, &yr, &yi, &mut xr_a, &mut xi_a);
            scalar.axpy_sub(f, &yr, &yi, &mut xr_b, &mut xi_b);
            assert_close(&xr_a, &xr_b, "axpy_sub re");
            assert_close(&xi_a, &xi_b, "axpy_sub im");

            let (mut xr_a, mut xi_a) = (xr0.clone(), xi0.clone());
            let (mut xr_b, mut xi_b) = (xr0, xi0);
            wide.axpy_add(f, &yr, &yi, &mut xr_a, &mut xi_a);
            scalar.axpy_add(f, &yr, &yi, &mut xr_b, &mut xi_b);
            assert_close(&xr_a, &xr_b, "axpy_add re");
            assert_close(&xi_a, &xi_b, "axpy_add im");
        }
    }

    /// The scalar tier is pinned to [`Complex`] arithmetic **bit for
    /// bit** — it is the reference everything else is measured against.
    #[test]
    fn scalar_tier_matches_complex_reference_exactly() {
        let (m, k, n) = (3usize, 4usize, 7usize);
        let (ar, ai) = random_panel(m * k, 31);
        let (br, bi) = random_panel(k * n, 32);
        let (mut cr, mut ci) = random_panel(m * n, 33);
        let mut c: Vec<Complex> = cr
            .iter()
            .zip(&ci)
            .map(|(&r, &i)| Complex::new(r, i))
            .collect();
        SCALAR_KERNELS.gemm_sub(&mut cr, &mut ci, &ar, &ai, &br, &bi, m, k, n);
        for r in 0..m {
            for t in 0..k {
                let f = Complex::new(ar[r * k + t], ai[r * k + t]);
                for j in 0..n {
                    let y = Complex::new(br[t * n + j], bi[t * n + j]);
                    c[r * n + j] -= f * y;
                }
            }
        }
        for idx in 0..m * n {
            assert_eq!(cr[idx], c[idx].re, "re[{idx}]");
            assert_eq!(ci[idx], c[idx].im, "im[{idx}]");
        }
    }

    /// The kernels must agree with the straightforward complex reference
    /// computation (not just with each other).
    #[test]
    fn gemm_sub_matches_complex_reference() {
        let (m, k, n) = (4usize, 3usize, 6usize);
        let (ar, ai) = random_panel(m * k, 1);
        let (br, bi) = random_panel(k * n, 2);
        let (mut cr, mut ci) = random_panel(m * n, 3);
        let a: Vec<Complex> = ar
            .iter()
            .zip(&ai)
            .map(|(&r, &i)| Complex::new(r, i))
            .collect();
        let b: Vec<Complex> = br
            .iter()
            .zip(&bi)
            .map(|(&r, &i)| Complex::new(r, i))
            .collect();
        let mut c: Vec<Complex> = cr
            .iter()
            .zip(&ci)
            .map(|(&r, &i)| Complex::new(r, i))
            .collect();
        kernels().gemm_sub(&mut cr, &mut ci, &ar, &ai, &br, &bi, m, k, n);
        for r in 0..m {
            for t in 0..k {
                let f = a[r * k + t];
                for j in 0..n {
                    c[r * n + j] -= f * b[t * n + j];
                }
            }
        }
        for idx in 0..m * n {
            assert!((Complex::new(cr[idx], ci[idx]) - c[idx]).abs() < 1e-12);
        }
    }

    /// Strided dispatch must agree bit for bit with a packed call over
    /// the same logical operands — the panel-embedded layout the sparse
    /// factor uses.
    #[test]
    fn strided_kernels_match_packed() {
        let kern = kernels();
        let (m, k, n) = (3usize, 4usize, 6usize);
        let (lda, ldb, ldc) = (9usize, 11usize, 8usize);
        let (ar_w, ai_w) = random_panel(m * lda, 41);
        let (br_w, bi_w) = random_panel(k * ldb, 42);
        let (cr_w0, ci_w0) = random_panel(m * ldc, 43);

        // Pack the embedded operands.
        let pack = |src: &[f64], rows: usize, cols: usize, ld: usize| -> Vec<f64> {
            (0..rows)
                .flat_map(|r| src[r * ld..r * ld + cols].to_vec())
                .collect()
        };
        let (ar, ai) = (pack(&ar_w, m, k, lda), pack(&ai_w, m, k, lda));
        let (br, bi) = (pack(&br_w, k, n, ldb), pack(&bi_w, k, n, ldb));
        let (mut cr, mut ci) = (pack(&cr_w0, m, n, ldc), pack(&ci_w0, m, n, ldc));
        kern.gemm_sub(&mut cr, &mut ci, &ar, &ai, &br, &bi, m, k, n);

        let (mut cr_w, mut ci_w) = (cr_w0.clone(), ci_w0.clone());
        // SAFETY: all strided accesses stay inside the widened buffers;
        // A, B and C are separate allocations.
        unsafe {
            kern.gemm_sub_ptr(
                m,
                k,
                n,
                ar_w.as_ptr(),
                ai_w.as_ptr(),
                lda,
                br_w.as_ptr(),
                bi_w.as_ptr(),
                ldb,
                cr_w.as_mut_ptr(),
                ci_w.as_mut_ptr(),
                ldc,
            );
        }
        for r in 0..m {
            for j in 0..n {
                assert_eq!(cr_w[r * ldc + j], cr[r * n + j], "strided re ({r},{j})");
                assert_eq!(ci_w[r * ldc + j], ci[r * n + j], "strided im ({r},{j})");
            }
        }
        // Untouched gutter columns keep their original bits.
        for r in 0..m {
            for j in n..ldc {
                assert_eq!(cr_w[r * ldc + j], cr_w0[r * ldc + j], "gutter ({r},{j})");
            }
        }
    }
}
