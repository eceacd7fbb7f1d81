//! Quantised `i8×i8→i32` GEMM — the integer twin of the `f32` kernel
//! in [`crate::gemm`], used by [`crate::quant::Precision::Int8`].
//!
//! # Int8 kernel layout
//!
//! The blocked structure and the operand types are the `f32` kernel's
//! ([`PackedA8`] and [`PackedB8`] are [`crate::gemm::Packed`] over
//! `i16`: MR-tall A row strips, NR-wide B column strips, zero-padded,
//! one panel group per K-slice), with three quantisation-specific
//! differences:
//!
//! - values are quantised to the symmetric int8 grid `[-127, 127]`
//!   **during packing** (`round(x · inv_scale)`, saturating), so
//!   quantisation is never a separate pass over the data. They are
//!   *stored* as `i16` in **pair-interleaved** panels — for k-pair
//!   `q`, row `r` of an A strip holds `(a[2q][r], a[2q+1][r])`
//!   adjacently and column `c` of a B strip holds `(b[2q][c],
//!   b[2q+1][c])` — the exact operand shape of the SSE2 `pmaddwd`
//!   multiply-accumulate the micro-kernel
//!   ([`eml_simd::madd_tile_i16`]) is built on. Odd depths are padded
//!   with one zero k-step;
//! - the K-slice depth is [`KC8`]` = 1024` instead of the `f32`
//!   kernel's 256 (an i16 panel is half the bytes of an f32 one at the
//!   same footprint). Every layer shape in this crate then fits a
//!   *single* K-slice, which keeps the kernel on its fast path: a full
//!   MR×NR tile accumulates `i32` in registers and requantises there
//!   before it stores into `C` ([`eml_simd::madd_tile_i16_into_f32`] /
//!   [`eml_simd::madd_tile_i16_into_i8`]), with no spill buffer; edge
//!   tiles requantise in a masked write-back;
//! - deeper products (`k > KC8`) accumulate per MC8-row block into a
//!   thread-local `i32` scratch and requantise once after the last
//!   slice, so multi-slice results are identical to a single wide
//!   slice.
//!
//! ```text
//!        N                 per MR×NR tile, per k-pair:   ┌── PackedB8 panel
//!   ┌─────────┐              acc_i32 += a0·b0 + a1·b1   │   KC8 × N i16 pairs,
//!   │ B (i16  │ K            (pmaddwd: 8 MACs/insn)     │   NR-wide strips
//!   │  pairs) │              f32 out = acc·scale + b    ├── PackedA8 block
//!   └─────────┘                                         │   MR-tall strips
//! M ┌──┐┌─────────┐                                     └── both zero-padded
//!   │A8││ C (f32) │
//!   └──┘└─────────┘
//! ```
//!
//! # Requantisation: one epilogue, two write-backs
//!
//! The accumulator is `i32` throughout — exact integer arithmetic, no
//! rounding until the epilogue. One [`QEpilogue`] folds the
//! scale-bias-activate sequence into the write-back,
//! `v = relu(acc · scale + bias)` in `f32`, and the element type of `C`
//! picks what is stored:
//!
//! - [`gemm_i8`] writes `f32`: it **dequantises**, `scale` being the
//!   product of the two operands' per-tensor scales;
//! - [`gemm_i8_q`] writes int8-grid values in `i16` storage: it
//!   **requantises** with a saturating round straight onto the
//!   **next** layer's grid (`scale = in_scale·w_scale/out_scale`, bias
//!   pre-divided by the output scale, optional ReLU a free `max(0)`
//!   before the round), so chained layers never materialise an `f32`
//!   activation. The test-only `requantize_i8` is the scalar form of
//!   that write-back, and the rounding is [`eml_simd::round_to_grid`],
//!   the same clamp and magic-bias round the input quantisers use.
//!
//! # Overflow guard
//!
//! Each i8-grid product is at most `127² = 16129`, so a same-sign
//! reduction over `k` terms stays inside `i32` iff
//! `k ≤ i32::MAX / 16129 = MAX_K_I8`. [`gemm_i8`] asserts this —
//! the layers are orders of magnitude below it, but the guard turns a
//! silent wrap into a loud panic if someone feeds the kernel a
//! pathological shape.

use std::cell::RefCell;

use eml_simd::{relu, QTileEpilogue};

use crate::gemm::{
    pack_a_into, packed_len, row_bands, tile_bias, Bias, MatRef, PackElem, Packed, PackedRef,
    SideA, SideB, MR, NR, PAR_MIN_WORK_I8,
};
use crate::quant::quantize_i8w;

// The register tile this module packs for is the one the shared
// micro-kernel crate implements.
const _: () = assert!(MR == eml_simd::MR && NR == eml_simd::NR);

/// Depth (K) packed per K-slice of the int8 kernel (see module docs).
pub const KC8: usize = 1024;
/// Rows of A per macro block (same as the `f32` kernel's `MC`).
const MC8: usize = 64;
/// Largest `k` the kernel accepts: beyond this a same-sign i8-grid
/// reduction could wrap the `i32` accumulator (`i32::MAX / 127²`).
const MAX_K_I8: usize = (i32::MAX / (127 * 127)) as usize;

impl PackElem for i16 {
    const KC: usize = KC8;
    const PAIR: usize = 2;
}

/// An int8 A operand: `MR`-tall pair-interleaved row strips of
/// int8-grid values, [`KC8`]-deep slices.
pub type PackedA8 = Packed<i16, SideA>;
/// A borrowed [`PackedA8`].
pub type PackedA8Ref<'a> = PackedRef<'a, i16, SideA>;
/// An int8 B operand: `NR`-wide pair-interleaved column strips of
/// int8-grid values, [`KC8`]-deep slices.
pub type PackedB8 = Packed<i16, SideB>;
/// A borrowed [`PackedB8`].
pub type PackedB8Ref<'a> = PackedRef<'a, i16, SideB>;

/// Buffer length (in `i16` elements) of a packed `m × k` int8 A
/// operand (see [`PackedA8`]).
pub fn packed_a8_len(m: usize, k: usize) -> usize {
    packed_len::<i16, SideA>(m, k)
}

/// Buffer length (in `i16` elements) of a packed `k × n` int8 B
/// operand (see [`PackedB8`]).
pub fn packed_b8_len(k: usize, n: usize) -> usize {
    packed_len::<i16, SideB>(k, n)
}

/// Quantises the `k × n` logical `f32` matrix `b` into `buf` (length ≥
/// [`packed_b8_len`]) in the layout of [`PackedB8`]: per K-slice, NR-wide
/// pair-interleaved column strips, element `(p, c)` of a strip at
/// `(p/2)·2NR + c·2 + p%2`. Pads each slice's odd tail k-step and the
/// columns past `n` with zeros.
fn pack_b8_into(b: MatRef<'_>, k: usize, n: usize, inv: f32, buf: &mut [i16]) {
    let n_pad = n.div_ceil(NR) * NR;
    let mut pc = 0;
    while pc < k {
        let kc = KC8.min(k - pc);
        let kcp = kc.next_multiple_of(2);
        for strip in 0..n_pad / NR {
            let j0 = strip * NR;
            let width = NR.min(n - j0);
            let base = n_pad * pc + strip * kcp * NR;
            for p in 0..kcp {
                let dst = &mut buf[base + (p / 2) * 2 * NR + (p & 1)..][..2 * NR - 1];
                for (j, d) in dst.iter_mut().step_by(2).enumerate() {
                    *d = if j < width && p < kc {
                        quantize_i8w(b.at(pc + p, j0 + j), inv)
                    } else {
                        0
                    };
                }
            }
        }
        pc += kc;
    }
}

/// Quantises an `m × k` logical `f32` matrix straight into the packed
/// int8 A layout inside `buf` (length ≥ [`packed_a8_len`]). Wrap the
/// result in [`PackedA8Ref::new`]; [`PackedA8::pack_quantized`] is the
/// owning convenience form.
pub fn pack_a8_quantized(a: MatRef<'_>, m: usize, k: usize, inv_scale: f32, buf: &mut [i16]) {
    pack_a_into(m, k, buf, |i, p| quantize_i8w(a.at(i, p), inv_scale));
}

/// Packs an `m × k` row-major matrix of **already-quantised**
/// int8-grid values (`i16` storage) straight into the packed int8 A
/// layout inside `buf` (length ≥ [`packed_a8_len`]) — the chained-layer
/// twin of [`pack_a8_quantized`]: the values were requantised by the
/// previous layer's [`gemm_i8_q`] write-back, so this is pure integer
/// copies with no quantisation pass and no `f32` intermediate. Wrap the
/// result in [`PackedA8Ref::new`].
pub fn pack_a8_i16(src: &[i16], m: usize, k: usize, buf: &mut [i16]) {
    debug_assert!(src.len() >= m * k);
    pack_a_into(m, k, buf, |i, p| src[i * k + p]);
}

impl PackedA8 {
    /// Quantises the `m × k` logical `f32` matrix `a` with
    /// `value = round(x · inv_scale)` (saturating to `[-127, 127]`)
    /// and packs it.
    pub fn pack_quantized(a: MatRef<'_>, m: usize, k: usize, inv_scale: f32) -> Self {
        Self::filled(m, k, |buf| pack_a8_quantized(a, m, k, inv_scale, buf))
    }
}

impl PackedB8 {
    /// Quantises the `k × n` logical `f32` matrix `b` with
    /// `value = round(x · inv_scale)` (saturating to `[-127, 127]`)
    /// and packs it.
    pub fn pack_quantized(b: MatRef<'_>, k: usize, n: usize, inv_scale: f32) -> Self {
        Self::filled(k, n, |buf| pack_b8_into(b, k, n, inv_scale, buf))
    }
}

/// The epilogue fused into the int8 kernel's write-back, applied once
/// per output element after the full `k` reduction:
/// `v = relu(acc · scale + bias)` in `f32`, bias and ReLU optional and
/// applied in that order, exactly like the `f32` kernel's
/// [`crate::gemm::Epilogue`]. The output element decides what `v`
/// becomes. [`gemm_i8`] writes it as `f32` (dequantise: `scale` is the
/// product of the two operands' per-tensor scales). [`gemm_i8_q`]
/// rounds it onto the int8 grid (requantise: `scale` is
/// `in_scale · weight_scale / out_scale`, and bias values must arrive
/// **pre-divided by the output scale**, see the chained-scale algebra
/// in [`crate::quant`]'s module docs).
#[derive(Debug, Clone, Copy)]
pub struct QEpilogue<'a> {
    scale: f32,
    bias: Option<Bias<'a>>,
    relu: bool,
}

/// [`QEpilogue`] under the name of its requantising use ([`gemm_i8_q`]).
pub type QEpilogueI8<'a> = QEpilogue<'a>;

impl<'a> QEpilogue<'a> {
    /// Scale only: `v = acc · scale`.
    pub fn scaled(scale: f32) -> Self {
        Self {
            scale,
            bias: None,
            relu: false,
        }
    }

    /// Fuses a per-row bias add after the scale.
    pub fn with_bias_row(mut self, bias: &'a [f32]) -> Self {
        self.bias = Some(Bias::Row(bias));
        self
    }

    /// Fuses a per-column bias add after the scale.
    pub fn with_bias_col(mut self, bias: &'a [f32]) -> Self {
        self.bias = Some(Bias::Col(bias));
        self
    }

    /// Additionally clamps at zero (ReLU) after the bias add, before
    /// any round.
    pub fn with_relu(mut self) -> Self {
        self.relu = true;
        self
    }

    /// The register-tile form of this epilogue at (`row0`, `col0`).
    #[inline]
    fn tile(&self, row0: usize, col0: usize) -> QTileEpilogue<'a> {
        QTileEpilogue {
            scale: self.scale,
            bias: tile_bias(self.bias, row0, col0),
            relu: self.relu,
        }
    }

    /// Writes one row segment from its accumulators. `row` is the
    /// global row index, `col0` the global column of `dst[0]`/`acc[0]`.
    #[inline]
    fn apply<T: QOut>(&self, dst: &mut [T], acc: &[i32], row: usize, col0: usize) {
        for (j, (d, &a)) in dst.iter_mut().zip(acc).enumerate() {
            let bias = match self.bias {
                Some(Bias::Row(b)) => b[row],
                Some(Bias::Col(b)) => b[col0 + j],
                None => 0.0,
            };
            let mut v = a as f32 * self.scale + bias;
            if self.relu {
                v = relu(v);
            }
            *d = T::from_real(v);
        }
    }
}

/// An output element of the int8 kernel; it picks the write-back.
/// `f32` dequantises (a layer output that leaves the quantised
/// domain); `i16` requantises straight onto the int8 grid (chained
/// quantised-to-quantised layers, `eml_nn::quant` chaining docs).
pub(crate) trait QOut: Copy + Send {
    /// Computes the full MR×NR tile of `pairs` k-pairs and writes it
    /// into `c` (leading dimension `ldc`), epilogue applied in
    /// registers.
    fn store_tile(
        pa: &[i16],
        pb: &[i16],
        pairs: usize,
        c: &mut [Self],
        ldc: usize,
        ep: QTileEpilogue<'_>,
    );

    /// The element holding the epilogue's value `v`.
    fn from_real(v: f32) -> Self;
}

impl QOut for f32 {
    #[inline]
    fn store_tile(
        pa: &[i16],
        pb: &[i16],
        pairs: usize,
        c: &mut [f32],
        ldc: usize,
        ep: QTileEpilogue<'_>,
    ) {
        eml_simd::madd_tile_i16_into_f32(pa, pb, pairs, c, ldc, ep);
    }

    #[inline]
    fn from_real(v: f32) -> f32 {
        v
    }
}

impl QOut for i16 {
    #[inline]
    fn store_tile(
        pa: &[i16],
        pb: &[i16],
        pairs: usize,
        c: &mut [i16],
        ldc: usize,
        ep: QTileEpilogue<'_>,
    ) {
        eml_simd::madd_tile_i16_into_i8(pa, pb, pairs, c, ldc, ep);
    }

    /// A saturating round onto `[-127, 127]`.
    #[inline]
    fn from_real(v: f32) -> i16 {
        eml_simd::round_to_grid(v)
    }
}

/// Saturating int8 requantisation of one `i32` accumulator:
/// `round(acc · scale + bias)` (ReLU before the round when `relu`),
/// clamped to the symmetric int8 grid `[-127, 127]`. This is the
/// scalar form of the output half of a quantised-to-quantised layer
/// chain ([`gemm_i8_q`]'s write-back is the fused kernel form); `scale` there is
/// `in_scale · weight_scale / out_scale`.
///
/// Rounds ties to even — the same branchless magic-bias core as the
/// input quantisers and the fused epilogue, so no call site can
/// diverge in rounding policy.
#[cfg(test)]
fn requantize_i8(acc: i32, scale: f32, bias: f32, relu: bool) -> i8 {
    let mut v = acc as f32 * scale + bias;
    if relu {
        v = v.max(0.0);
    }
    crate::quant::round_clamp_i8(v)
}

thread_local! {
    /// Per-thread i32 accumulator block for multi-slice products
    /// (`k > KC8`); grown once, then reused.
    static ACC32: RefCell<Vec<i32>> = const { RefCell::new(Vec::new()) };
}

/// `C = epilogue(A·B)` over quantised operands: logical shapes
/// `A: m×k` (int8 grid, [`PackedA8Ref`]), `B: k×n` (int8 grid,
/// [`PackedB8Ref`]), `C: m×n` (`f32`, row-major with leading dimension
/// `ldc ≥ n`, overwritten). Accumulation is exact `i32`; the
/// [`QEpilogue`] dequantises in the write-back.
///
/// Both operands arrive pre-packed by construction — the layers cache
/// quantised weight panels and lower activations directly into packed
/// layout, so unlike the `f32` kernel there is no internal pack step.
/// When `parallel` is set and the product carries at least twice the
/// `f32` kernel's parallel work threshold, the `M` range splits into
/// one `MR`-aligned band per worker through the same band split as
/// [`crate::gemm::gemm_with`].
///
/// # Panics
///
/// Panics if `k > MAX_K_I8` (the `i32` overflow guard);
/// debug-asserts operand dimensions.
#[allow(clippy::too_many_arguments)] // GEMM is inherently (m, n, k, A, B, C)-shaped
pub fn gemm_i8(
    m: usize,
    n: usize,
    k: usize,
    a: PackedA8Ref<'_>,
    b: PackedB8Ref<'_>,
    c: &mut [f32],
    ldc: usize,
    parallel: bool,
    ep: QEpilogue<'_>,
) {
    gemm_i8_with(m, n, k, a, b, c, ldc, parallel, ep);
}

/// [`gemm_i8`] with a **saturating int8 output**: `C` holds int8-grid
/// values in `i16` storage (the packed panels' operand form): the
/// [`QEpilogue`] value is rounded onto the grid. This is the kernel of a
/// chained quantised-to-quantised layer: the output can be lowered
/// straight into the next layer's packed int8 operand without ever
/// materialising an `f32` intermediate.
///
/// # Panics
///
/// Same conditions as [`gemm_i8`].
#[allow(clippy::too_many_arguments)]
pub fn gemm_i8_q(
    m: usize,
    n: usize,
    k: usize,
    a: PackedA8Ref<'_>,
    b: PackedB8Ref<'_>,
    c: &mut [i16],
    ldc: usize,
    parallel: bool,
    ep: QEpilogue<'_>,
) {
    gemm_i8_with(m, n, k, a, b, c, ldc, parallel, ep);
}

/// Shared driver behind [`gemm_i8`] and [`gemm_i8_q`], generic over
/// the output element (`f32` dequantise vs int8 requantise).
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_i8_with<T: QOut>(
    m: usize,
    n: usize,
    k: usize,
    a: PackedA8Ref<'_>,
    b: PackedB8Ref<'_>,
    c: &mut [T],
    ldc: usize,
    parallel: bool,
    ep: QEpilogue<'_>,
) {
    assert!(
        k <= MAX_K_I8,
        "gemm_i8: k = {k} exceeds the i32 overflow bound {MAX_K_I8}"
    );
    debug_assert!(ldc >= n);
    debug_assert_eq!((a.rows, a.cols), (m, k), "packed A8 shape");
    debug_assert_eq!((b.rows, b.cols), (k, n), "packed B8 shape");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        let zeros = [0i32; NR];
        for (i, row) in c.chunks_mut(ldc).take(m).enumerate() {
            let mut j0 = 0;
            while j0 < n {
                let width = NR.min(n - j0);
                ep.apply(&mut row[j0..j0 + width], &zeros[..width], i, j0);
                j0 += width;
            }
        }
        return;
    }
    let workers = crate::workers::worker_count();
    if parallel && workers > 1 && m * n * k >= PAR_MIN_WORK_I8 && m >= 2 * MR {
        row_bands(m, c, ldc, workers, |i0, rows, band_c| {
            gemm_i8_band(i0, rows, n, k, a, b, band_c, ldc, ep);
        });
    } else {
        gemm_i8_band(0, m, n, k, a, b, c, ldc, ep);
    }
}

/// The int8 blocked GEMM over rows `i0..i0+m` of the logical product;
/// `c` starts at row `i0`.
#[allow(clippy::too_many_arguments)]
fn gemm_i8_band<T: QOut>(
    i0: usize,
    m: usize,
    n: usize,
    k: usize,
    a: PackedA8Ref<'_>,
    b: PackedB8Ref<'_>,
    c: &mut [T],
    ldc: usize,
    ep: QEpilogue<'_>,
) {
    if k <= KC8 {
        // Single-slice fast path (every layer shape in this crate):
        // requantise straight out of the register tile.
        let panel = b.strips(0, 0, k);
        let mut ic = 0;
        while ic < m {
            let mc = MC8.min(m - ic);
            macro_tile_i8(
                a.strips(i0 + ic, 0, k),
                panel,
                mc,
                n,
                k,
                &mut c[ic * ldc..],
                ldc,
                i0 + ic,
                ep,
            );
            ic += mc;
        }
        return;
    }
    // Multi-slice: accumulate each MC8-row block across all K-slices in
    // an i32 scratch, requantise once after the last slice.
    ACC32.with(|cell| {
        let mut acc = cell.take();
        acc.resize((MC8 * n).max(acc.len()), 0);
        let mut ic = 0;
        while ic < m {
            let mc = MC8.min(m - ic);
            acc[..mc * n].fill(0);
            let mut pc = 0;
            while pc < k {
                let kc = KC8.min(k - pc);
                macro_tile_i8_acc(
                    a.strips(i0 + ic, pc, kc),
                    b.strips(0, pc, kc),
                    mc,
                    n,
                    kc,
                    &mut acc,
                );
                pc += kc;
            }
            for r in 0..mc {
                let row = &mut c[(ic + r) * ldc..][..n];
                ep.apply(row, &acc[r * n..][..n], i0 + ic + r, 0);
            }
            ic += mc;
        }
        cell.replace(acc);
    });
}

/// Runs the int8 micro-kernel ([`eml_simd::madd_tile_i16`]) over every
/// MR×NR tile of an `mc × n` block, requantising each tile row
/// straight into `c` (single-slice path). `row0` is the global row
/// index of `c[0]`.
#[allow(clippy::too_many_arguments)]
fn macro_tile_i8<T: QOut>(
    pa: &[i16],
    pb: &[i16],
    mc: usize,
    n: usize,
    kc: usize,
    c: &mut [T],
    ldc: usize,
    row0: usize,
    ep: QEpilogue<'_>,
) {
    let row_strips = mc.div_ceil(MR);
    let col_strips = n.div_ceil(NR);
    let kcp = kc.next_multiple_of(2);
    for rs in 0..row_strips {
        let pa_strip = &pa[rs * kcp * MR..][..kcp * MR];
        let rows = MR.min(mc - rs * MR);
        for cs in 0..col_strips {
            let pb_strip = &pb[cs * kcp * NR..][..kcp * NR];
            let cols = NR.min(n - cs * NR);
            if rows == MR && cols == NR {
                // Full tile: the kernel runs the epilogue in registers
                // and stores the rows itself.
                let dst = &mut c[rs * MR * ldc + cs * NR..];
                let tile_ep = ep.tile(row0 + rs * MR, cs * NR);
                T::store_tile(pa_strip, pb_strip, kcp / 2, dst, ldc, tile_ep);
                continue;
            }
            let mut acc = [[0i32; NR]; MR];
            eml_simd::madd_tile_i16(pa_strip, pb_strip, kcp / 2, &mut acc);
            for (r, vals) in acc.iter().enumerate().take(rows) {
                let row = &mut c[(rs * MR + r) * ldc + cs * NR..][..cols];
                ep.apply(row, &vals[..cols], row0 + rs * MR + r, cs * NR);
            }
        }
    }
}

/// [`macro_tile_i8`], but accumulating raw `i32` tiles into `acc`
/// (`mc × n`, row-major) for the multi-slice path.
fn macro_tile_i8_acc(pa: &[i16], pb: &[i16], mc: usize, n: usize, kc: usize, acc: &mut [i32]) {
    let row_strips = mc.div_ceil(MR);
    let col_strips = n.div_ceil(NR);
    let kcp = kc.next_multiple_of(2);
    for rs in 0..row_strips {
        let pa_strip = &pa[rs * kcp * MR..][..kcp * MR];
        let rows = MR.min(mc - rs * MR);
        for cs in 0..col_strips {
            let pb_strip = &pb[cs * kcp * NR..][..kcp * NR];
            let cols = NR.min(n - cs * NR);
            let mut tile = [[0i32; NR]; MR];
            eml_simd::madd_tile_i16(pa_strip, pb_strip, kcp / 2, &mut tile);
            for (r, vals) in tile.iter().enumerate().take(rows) {
                let row = &mut acc[(rs * MR + r) * n + cs * NR..][..cols];
                for (d, &v) in row.iter_mut().zip(vals) {
                    *d += v;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quant::quantize_i8;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_vec(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    /// Scalar oracle: quantise both operands exactly like the pack
    /// step, multiply in i64, requantise per element.
    #[allow(clippy::too_many_arguments)]
    fn naive_i8(
        m: usize,
        n: usize,
        k: usize,
        a: &[f32],
        b: &[f32],
        inv_a: f32,
        inv_b: f32,
        scale: f32,
        bias_row: Option<&[f32]>,
        bias_col: Option<&[f32]>,
        relu: bool,
    ) -> Vec<f32> {
        let qa: Vec<i32> = a.iter().map(|&x| quantize_i8(x, inv_a) as i32).collect();
        let qb: Vec<i32> = b.iter().map(|&x| quantize_i8(x, inv_b) as i32).collect();
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0i64;
                for p in 0..k {
                    acc += i64::from(qa[i * k + p]) * i64::from(qb[p * n + j]);
                }
                let mut v = acc as f32 * scale
                    + bias_row.map_or(0.0, |b| b[i])
                    + bias_col.map_or(0.0, |b| b[j]);
                if relu {
                    v = v.max(0.0);
                }
                out[i * n + j] = v;
            }
        }
        out
    }

    fn check_case(m: usize, n: usize, k: usize, bias_kind: usize, relu: bool) {
        let a = random_vec(m * k, 100 + m as u64 * 7 + k as u64);
        let b = random_vec(k * n, 200 + n as u64 * 13);
        let bias = random_vec(m.max(n), 300);
        let (inv_a, inv_b) = (127.0 / 0.9, 127.0 / 0.8);
        let scale = (0.9 / 127.0) * (0.8 / 127.0);
        let pa = PackedA8::pack_quantized(MatRef::new(&a, k), m, k, inv_a);
        let pb = PackedB8::pack_quantized(MatRef::new(&b, n), k, n, inv_b);
        let mut ep = QEpilogue::scaled(scale);
        let (bias_row, bias_col) = match bias_kind {
            1 => {
                ep = ep.with_bias_row(&bias[..m]);
                (Some(&bias[..m]), None)
            }
            2 => {
                ep = ep.with_bias_col(&bias[..n]);
                (None, Some(&bias[..n]))
            }
            _ => (None, None),
        };
        if relu {
            ep = ep.with_relu();
        }
        let expect = naive_i8(
            m, n, k, &a, &b, inv_a, inv_b, scale, bias_row, bias_col, relu,
        );
        let mut c = vec![f32::NAN; m * n];
        gemm_i8(m, n, k, pa.as_ref(), pb.as_ref(), &mut c, n, false, ep);
        for (i, (&got, &want)) in c.iter().zip(&expect).enumerate() {
            // Integer accumulation is exact; the only float work is the
            // final scale+bias, identical in both — bit-equal expected.
            assert!(
                got.to_bits() == want.to_bits(),
                "({m}x{n}x{k} bias{bias_kind} relu{relu}) c[{i}]: {got} vs {want}"
            );
        }
    }

    #[test]
    fn matches_naive_across_shapes_and_epilogues() {
        for &(m, n, k) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (4, 16, 8),
            (5, 17, 9),
            (32, 64, 27),
            (13, 40, 144),
            (65, 33, 301),
        ] {
            for bias_kind in 0..3 {
                for relu in [false, true] {
                    check_case(m, n, k, bias_kind, relu);
                }
            }
        }
    }

    #[test]
    fn multi_slice_matches_single_wide_slice_semantics() {
        // k > KC8 exercises the i32-scratch accumulation path; the
        // oracle reduces in one pass, so agreement proves the slices
        // compose exactly. Odd k additionally pads the tail slice.
        let (m, n, k) = (9usize, 21usize, KC8 + 37);
        check_case(m, n, k, 1, true);
        check_case(m, n, k, 0, false);
        check_case(m, n, 2 * KC8 + 2, 2, false);
    }

    #[test]
    fn parallel_band_split_matches_serial() {
        let (m, n, k) = (96usize, 64usize, 400usize);
        let a = random_vec(m * k, 6);
        let b = random_vec(k * n, 7);
        let bias = random_vec(m, 8);
        let inv = 127.0;
        let scale = 1.0 / (127.0 * 127.0);
        let pa = PackedA8::pack_quantized(MatRef::new(&a, k), m, k, inv);
        let pb = PackedB8::pack_quantized(MatRef::new(&b, n), k, n, inv);
        let ep = QEpilogue::scaled(scale).with_bias_row(&bias).with_relu();
        let mut serial = vec![0.0f32; m * n];
        gemm_i8(m, n, k, pa.as_ref(), pb.as_ref(), &mut serial, n, false, ep);
        for workers in [2usize, 4] {
            crate::workers::FORCE_WORKERS.with(|f| f.set(Some(workers)));
            let mut par = vec![0.0f32; m * n];
            gemm_i8(m, n, k, pa.as_ref(), pb.as_ref(), &mut par, n, true, ep);
            crate::workers::FORCE_WORKERS.with(|f| f.set(None));
            assert!(
                serial
                    .iter()
                    .zip(&par)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "workers={workers}: banded int8 product differs from serial"
            );
        }
    }

    #[test]
    fn k_zero_writes_bias_only() {
        let bias = [1.5f32, -2.0];
        let mut c = vec![9.0f32; 6];
        let ep = QEpilogue::scaled(0.25).with_bias_row(&bias);
        gemm_i8(
            2,
            3,
            0,
            PackedA8Ref::new(&[], 2, 0),
            PackedB8Ref::new(&[], 0, 3),
            &mut c,
            3,
            false,
            ep,
        );
        assert_eq!(c, &[1.5, 1.5, 1.5, -2.0, -2.0, -2.0]);
        // With ReLU the negative bias clamps to zero.
        let ep = QEpilogue::scaled(0.25).with_bias_row(&bias).with_relu();
        gemm_i8(
            2,
            3,
            0,
            PackedA8Ref::new(&[], 2, 0),
            PackedB8Ref::new(&[], 0, 3),
            &mut c,
            3,
            false,
            ep,
        );
        assert_eq!(c, &[1.5, 1.5, 1.5, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn respects_leading_dimension_on_c() {
        let (m, n, k, ldc) = (3usize, 4usize, 5usize, 7usize);
        let a = random_vec(m * k, 4);
        let b = random_vec(k * n, 5);
        let pa = PackedA8::pack_quantized(MatRef::new(&a, k), m, k, 127.0);
        let pb = PackedB8::pack_quantized(MatRef::new(&b, n), k, n, 127.0);
        let mut c = vec![9.0f32; m * ldc];
        gemm_i8(
            m,
            n,
            k,
            pa.as_ref(),
            pb.as_ref(),
            &mut c,
            ldc,
            false,
            QEpilogue::scaled(1.0),
        );
        for row in c.chunks(ldc) {
            for &v in &row[n..] {
                assert_eq!(v, 9.0, "columns beyond n must not be written");
            }
        }
    }

    #[test]
    #[should_panic(expected = "i32 overflow bound")]
    fn overflow_guard_rejects_pathological_k() {
        let k = MAX_K_I8 + 1;
        let pa_buf = vec![0i16; packed_a8_len(4, k)];
        let pb_buf = vec![0i16; packed_b8_len(k, 1)];
        let mut c = vec![0.0f32; 4];
        gemm_i8(
            4,
            1,
            k,
            PackedA8Ref::new(&pa_buf, 4, k),
            PackedB8Ref::new(&pb_buf, k, 1),
            &mut c,
            1,
            false,
            QEpilogue::scaled(1.0),
        );
    }

    #[test]
    fn quantized_packing_saturates_and_rounds() {
        // Values past the grid clamp to ±127 rather than wrapping, and
        // non-finite values land on the grid (never escape it).
        let a = [
            2.0f32,
            -2.0,
            0.004,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
        ];
        let pa = PackedA8::pack_quantized(MatRef::new(&a, 6), 1, 6, 127.0);
        let strip = pa.as_ref().strips(0, 0, 6);
        // Pair-interleaved: element p of row 0 is at (p/2)·2MR + p%2.
        let lane0: Vec<i16> = (0..6).map(|p| strip[(p / 2) * 2 * MR + (p % 2)]).collect();
        assert_eq!(lane0, vec![127, -127, 1, -127, 127, -127]);
    }

    #[test]
    fn requantize_i8_saturation_edges() {
        // i32 extremes saturate to the grid ends instead of wrapping.
        assert_eq!(requantize_i8(i32::MAX, 1.0, 0.0, false), 127);
        assert_eq!(requantize_i8(i32::MIN, 1.0, 0.0, false), -127);
        // ±127 clamp exactly at the boundary, one step inside and out.
        assert_eq!(requantize_i8(127, 1.0, 0.0, false), 127);
        assert_eq!(requantize_i8(128, 1.0, 0.0, false), 127);
        assert_eq!(requantize_i8(-127, 1.0, 0.0, false), -127);
        assert_eq!(requantize_i8(-128, 1.0, 0.0, false), -127);
        // Bias shifts before the clamp; ReLU clips negatives first.
        assert_eq!(requantize_i8(100, 1.0, 100.0, false), 127);
        assert_eq!(requantize_i8(-50, 1.0, 0.0, true), 0);
        // All-zero accumulator stays exactly zero whatever the scale.
        assert_eq!(requantize_i8(0, 12345.0, 0.0, false), 0);
        assert_eq!(requantize_i8(0, 0.0, 0.0, true), 0);
        // Round-to-nearest, ties to even — the same magic-bias core as
        // the input quantisers, so chaining cannot mix rounding rules.
        assert_eq!(requantize_i8(3, 0.5, 0.0, false), 2); // 1.5 ties to even 2
        assert_eq!(requantize_i8(5, 0.5, 0.0, false), 2); // 2.5 ties to even 2
        assert_eq!(requantize_i8(7, 0.5, 0.0, false), 4); // 3.5 ties to even 4
        assert_eq!(requantize_i8(-5, 0.5, 0.0, false), -2);
    }

    /// The fused int8-output epilogue ([`gemm_i8_q`]) must agree with
    /// the scalar [`requantize_i8`] primitive applied to the exact
    /// integer accumulators, across bias orientations, ReLU, edge
    /// tiles and the multi-slice accumulation path.
    #[test]
    fn gemm_i8_q_matches_requantize_primitive() {
        for &(m, n, k) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (4, 16, 8),
            (5, 17, 9),
            (13, 40, 144),
            (9, 21, KC8 + 37),
        ] {
            let a = random_vec(m * k, 400 + m as u64);
            let b = random_vec(k * n, 500 + n as u64);
            let bias = random_vec(m.max(n), 600);
            let (inv_a, inv_b) = (127.0 / 0.9, 127.0 / 0.8);
            // Chained-layer multiplier: s_x·s_w / s_out with an
            // arbitrary output scale.
            let scale = (0.9 / 127.0) * (0.8 / 127.0) / 0.01;
            let pa = PackedA8::pack_quantized(MatRef::new(&a, k), m, k, inv_a);
            let pb = PackedB8::pack_quantized(MatRef::new(&b, n), k, n, inv_b);
            // Exact integer accumulators from the quantised operands.
            let qa: Vec<i64> = a.iter().map(|&x| quantize_i8(x, inv_a) as i64).collect();
            let qb: Vec<i64> = b.iter().map(|&x| quantize_i8(x, inv_b) as i64).collect();
            for bias_kind in 0..3usize {
                for relu in [false, true] {
                    let mut ep = QEpilogueI8::scaled(scale);
                    match bias_kind {
                        1 => ep = ep.with_bias_row(&bias[..m]),
                        2 => ep = ep.with_bias_col(&bias[..n]),
                        _ => {}
                    }
                    if relu {
                        ep = ep.with_relu();
                    }
                    let mut c = vec![i16::MIN; m * n];
                    gemm_i8_q(m, n, k, pa.as_ref(), pb.as_ref(), &mut c, n, false, ep);
                    for i in 0..m {
                        for j in 0..n {
                            let acc: i64 = (0..k).map(|p| qa[i * k + p] * qb[p * n + j]).sum();
                            let bv = match bias_kind {
                                1 => bias[i],
                                2 => bias[j],
                                _ => 0.0,
                            };
                            let want = requantize_i8(acc as i32, scale, bv, relu);
                            assert_eq!(
                                c[i * n + j],
                                i16::from(want),
                                "({m}x{n}x{k} bias{bias_kind} relu{relu}) c[{i}][{j}]"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Packing pre-quantised `i16` values must produce the identical
    /// panel bytes as quantise-during-pack of the values they came
    /// from — the chained lowering introduces no re-quantisation.
    #[test]
    fn pack_a8_i16_matches_quantising_pack() {
        for &(m, k) in &[(1usize, 1usize), (3, 7), (4, 16), (7, 33), (5, KC8 + 3)] {
            let a = random_vec(m * k, 70 + k as u64);
            let inv = 127.0 / 0.85;
            let expect = PackedA8::pack_quantized(MatRef::new(&a, k), m, k, inv);
            let mut qa = vec![0i16; m * k];
            crate::quant::quantize_slice_i16(&a, inv, &mut qa);
            let mut buf = vec![i16::MIN; packed_a8_len(m, k)];
            pack_a8_i16(&qa, m, k, &mut buf);
            assert_eq!(buf, expect.as_slice(), "m={m} k={k}");
        }
    }

    #[test]
    fn all_zero_operands_give_exact_zero_or_bias() {
        let (m, n, k) = (4usize, 16usize, 32usize);
        let a = vec![0.0f32; m * k];
        let b = vec![0.0f32; k * n];
        let pa = PackedA8::pack_quantized(MatRef::new(&a, k), m, k, 0.0);
        let pb = PackedB8::pack_quantized(MatRef::new(&b, n), k, n, 0.0);
        let mut c = vec![f32::NAN; m * n];
        gemm_i8(
            m,
            n,
            k,
            pa.as_ref(),
            pb.as_ref(),
            &mut c,
            n,
            false,
            QEpilogue::scaled(0.0),
        );
        assert!(c.iter().all(|&v| v == 0.0));
        let bias = random_vec(m, 9);
        let mut c2 = vec![f32::NAN; m * n];
        gemm_i8(
            m,
            n,
            k,
            pa.as_ref(),
            pb.as_ref(),
            &mut c2,
            n,
            false,
            QEpilogue::scaled(0.0).with_bias_row(&bias),
        );
        for (i, row) in c2.chunks(n).enumerate() {
            assert!(row.iter().all(|&v| v == bias[i]));
        }
    }
}
