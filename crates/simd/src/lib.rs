//! # eml-simd
//!
//! Arch-specific micro-kernel primitives for the `emlrt` workspace —
//! the "arch intrinsics behind a feature gate" rung of the ROADMAP.
//! This is deliberately the **only** product crate that contains
//! `unsafe`: one narrowly-scoped block per intrinsic kernel, with the
//! safety argument written out, and a portable scalar implementation
//! that is both the non-x86 fallback and the test oracle.
//!
//! # Kernels
//!
//! - [`madd_tile_i16`]: the inner tile of the quantised int8 GEMM
//!   (`eml_nn::gemm::int8`). Values are int8-grid quantised
//!   (`[-127, 127]`) but **stored as `i16` in pair-interleaved
//!   panels**, because the integer multiply-accumulate instruction the
//!   x86-64 *baseline* (SSE2) offers — `pmaddwd` — consumes adjacent
//!   `i16` pairs: `acc_i32 += a0·b0 + a1·b1` per lane, 8 MACs per
//!   instruction (16 on the AVX2 tier), twice the `f32` `mulps+addps`
//!   rate. Auto-vectorisation cannot be coaxed into emitting it
//!   reliably (measured: the best scalar formulation runs ~2× *slower*
//!   than the f32 kernel), which is why this crate exists.
//! - [`madd_tile_f32`]: the inner tile of the `f32` blocked GEMM.
//!   The scalar form is exactly the kernel `eml_nn::gemm` shipped as
//!   safe auto-vectorised Rust (which the baseline x86-64 target
//!   vectorises only 4-wide, SSE); the AVX2 tier issues the same
//!   multiply/add sequence 8 lanes at a time. `eml_nn::gemm` runs it on
//!   edge tiles; the instrument's tile probe times it.
//! - [`madd_tile_f32_into`]: the storing form of [`madd_tile_f32`],
//!   run on every full tile. It accumulates from zero, then applies a
//!   [`TileEpilogue`] (`+ C`, `+ bias`, [`relu`]) and stores the tile
//!   straight into `C`.
//! - [`madd_tile_i16_into_f32`] and [`madd_tile_i16_into_i8`]: the
//!   storing forms of [`madd_tile_i16`], run on every full tile of a
//!   single-slice int8 product. They apply a [`QTileEpilogue`]
//!   (`· scale`, `+ bias`, [`relu`]), and the `i16` form
//!   rounds onto the int8 grid with [`round_to_grid`].
//!
//! The register epilogues are AVX2 only. On the other tiers a storing
//! kernel is that tier's accumulating kernel on a zeroed tile followed
//! by the element-wise write-back, which is the composition the callers
//! used before; the scalar one is the oracle the other tiers are tested
//! against.
//!
//! # Dispatch tiers
//!
//! Every kernel dispatches through [`active_tier`], resolved once per
//! process:
//!
//! 1. the best tier the CPU supports at runtime
//!    (`is_x86_feature_detected!("avx2")` → [`Tier::Avx2`]; plain
//!    x86-64 → [`Tier::Sse2`], part of the baseline ABI, no detection
//!    needed; everything else → [`Tier::Scalar`]),
//! 2. **capped** by the `EML_SIMD_FORCE` environment variable
//!    (`scalar` | `sse2` | `avx2`). The cap can only lower the tier —
//!    forcing `avx2` on a CPU without it falls back to the best
//!    available tier rather than executing illegal instructions.
//!    Unrecognised values are ignored. CI uses `EML_SIMD_FORCE=scalar`
//!    to keep the fallback oracle exercised on every push, not just on
//!    non-x86 hardware.
//!
//! The SSE2 and AVX2 tiers are bit-identical to their scalar oracles:
//! the int8 kernels are exact integer arithmetic, and the f32 kernels
//! deliberately issue separate `vmulps`/`vaddps` (not FMA, which would
//! contract the rounding) in the scalar kernel's exact per-element
//! operation order. The epilogues issue the same adds, a `maxps`
//! against zero, which is exactly [`relu`], and the clamp and
//! magic-bias round of [`round_to_grid`]. So selecting a tier never
//! changes results; only the sign and payload of a NaN, which Rust
//! leaves unspecified, may differ.
//!
//! # Panel layout
//!
//! For a register tile of [`MR`]`×`[`NR`] and a depth slice of
//! `pairs` k-pairs (odd depths are zero-padded to even by the int8
//! packers):
//!
//! ```text
//! A strip: [q][r][2] — pairs * 2*MR i16   (one 16-byte row per pair)
//! B strip: [q][c][2] — pairs * 2*NR i16   (four 16-byte rows per pair)
//! ```
//!
//! i.e. for k-pair `q`, row `r` of A holds `(a[2q][r], a[2q+1][r])`
//! adjacently, and column `c` of B holds `(b[2q][c], b[2q+1][c])`
//! adjacently — exactly the operand shape `pmaddwd` multiplies. The
//! `f32` strips are the plain `[p][r]` / `[p][c]` panel layout of
//! `eml_nn::gemm` (no pair interleave).

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::sync::OnceLock;

/// Register tile height (rows of the accumulator tile), shared by the
/// int8 and f32 kernels.
pub const MR: usize = 4;
/// Register tile width (columns of the accumulator tile), shared by
/// the int8 and f32 kernels.
pub const NR: usize = 16;
/// Alias of [`MR`] retained for the int8 kernel's original callers.
pub const MR8: usize = MR;
/// Alias of [`NR`] retained for the int8 kernel's original callers.
pub const NR8: usize = NR;

/// A micro-kernel implementation tier, ordered from most portable to
/// fastest. See the module docs for the selection rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// Portable scalar Rust: the non-x86 fallback and the test oracle.
    Scalar,
    /// SSE2 (`pmaddwd`, 128-bit): part of the x86-64 baseline ABI, so
    /// this tier needs no runtime detection.
    Sse2,
    /// AVX2 (256-bit): runtime-detected via `is_x86_feature_detected!`.
    Avx2,
}

/// The tier every kernel in this crate dispatches to, resolved once
/// per process: the best runtime-detected tier, capped by the
/// `EML_SIMD_FORCE` environment variable (see module docs).
pub fn active_tier() -> Tier {
    static TIER: OnceLock<Tier> = OnceLock::new();
    *TIER.get_or_init(|| {
        let force = std::env::var("EML_SIMD_FORCE").ok();
        tier_for(force.as_deref(), best_tier())
    })
}

/// Pure selection rule: `force` caps `best`, never raises it;
/// unrecognised values leave `best` untouched.
fn tier_for(force: Option<&str>, best: Tier) -> Tier {
    let cap = match force {
        Some("scalar") => Tier::Scalar,
        Some("sse2") => Tier::Sse2,
        _ => Tier::Avx2,
    };
    cap.min(best)
}

/// The best tier this CPU can execute.
fn best_tier() -> Tier {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            Tier::Avx2
        } else {
            Tier::Sse2
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Tier::Scalar
    }
}

/// Accumulates one [`MR`]`×`[`NR`] `i32` tile of `A_strip · B_strip`
/// into `acc`, where both strips hold int8-grid values in the
/// pair-interleaved `i16` layout above: `pa` is `pairs * 2*MR`
/// elements, `pb` is `pairs * 2*NR` elements.
///
/// The accumulation is exact integer arithmetic: with values in
/// `[-127, 127]` each pair sum is at most `2·127² = 32258`, so the
/// `i16×i16→i32` pairwise products never overflow an `i32` lane for
/// any depth the caller's overflow guard admits. Every tier therefore
/// produces bit-identical results.
///
/// # Panics
///
/// Panics if either slice is shorter than the layout requires.
#[inline]
pub fn madd_tile_i16(pa: &[i16], pb: &[i16], pairs: usize, acc: &mut [[i32; NR]; MR]) {
    assert!(
        pa.len() >= pairs * 2 * MR && pb.len() >= pairs * 2 * NR,
        "strip buffers shorter than {pairs} k-pairs"
    );
    match active_tier() {
        Tier::Scalar => madd_tile_scalar(pa, pb, pairs, acc),
        #[cfg(target_arch = "x86_64")]
        Tier::Sse2 => x86::madd_tile_sse2(pa, pb, pairs, acc),
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 => x86::madd_tile_i16_avx2(pa, pb, pairs, acc),
        #[cfg(not(target_arch = "x86_64"))]
        _ => madd_tile_scalar(pa, pb, pairs, acc),
    }
}

/// Portable scalar form of [`madd_tile_i16`]: the non-x86 fallback and
/// the oracle the intrinsics paths are tested against.
fn madd_tile_scalar(pa: &[i16], pb: &[i16], pairs: usize, acc: &mut [[i32; NR]; MR]) {
    assert!(pa.len() >= pairs * 2 * MR && pb.len() >= pairs * 2 * NR);
    for q in 0..pairs {
        let ap = &pa[q * 2 * MR..][..2 * MR];
        let bp = &pb[q * 2 * NR..][..2 * NR];
        for (r, row) in acc.iter_mut().enumerate() {
            let a0 = i32::from(ap[2 * r]);
            let a1 = i32::from(ap[2 * r + 1]);
            for (x, b) in row.iter_mut().zip(bp.chunks_exact(2)) {
                *x += a0 * i32::from(b[0]) + a1 * i32::from(b[1]);
            }
        }
    }
}

/// Accumulates one [`MR`]`×`[`NR`] `f32` tile of `A_strip · B_strip`
/// into `acc` over `kc` k-steps of plain (non-interleaved) panel
/// strips: `pa` is `kc * MR` elements (`[p][r]`), `pb` is `kc * NR`
/// elements (`[p][c]`).
///
/// Every tier issues the identical per-element multiply/add sequence
/// (two independent chains per accumulator row, k-steps in pairs, no
/// FMA contraction), so results are **bit-identical** across tiers —
/// selecting AVX2 changes latency, never numerics.
///
/// # Panics
///
/// Panics if either slice is shorter than the layout requires.
#[inline]
pub fn madd_tile_f32(pa: &[f32], pb: &[f32], kc: usize, acc: &mut [[f32; NR]; MR]) {
    assert!(
        pa.len() >= kc * MR && pb.len() >= kc * NR,
        "strip buffers shorter than {kc} k-steps"
    );
    match active_tier() {
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 => x86::madd_tile_f32_avx2(pa, pb, kc, acc),
        // The SSE2 tier has no hand-written f32 kernel: the scalar
        // form below auto-vectorises to the same 4-wide SSE code the
        // baseline target allows, so intrinsics would buy nothing.
        _ => madd_tile_f32_scalar(pa, pb, kc, acc),
    }
}

/// The bias of a storing tile kernel, already sliced to its tile.
#[derive(Debug, Clone, Copy)]
pub enum TileBias<'a> {
    /// No bias add.
    None,
    /// `+ bias[r]` across tile row `r` (a convolution's output channel).
    Row(&'a [f32; MR]),
    /// `+ bias[c]` down tile column `c` (a linear layer's feature).
    Col(&'a [f32; NR]),
}

impl TileBias<'_> {
    /// Adds the bias of tile row `r` to `vals`, one `f32` add per lane.
    #[inline]
    fn add_to(self, vals: &mut [f32; NR], r: usize) {
        match self {
            TileBias::None => {}
            TileBias::Row(b) => vals.iter_mut().for_each(|v| *v += b[r]),
            TileBias::Col(b) => vals.iter_mut().zip(b).for_each(|(v, &bv)| *v += bv),
        }
    }
}

/// What [`madd_tile_f32_into`] does to the register tile before its
/// store, in this order: `+ C` when `beta` is set, `+ bias`, then
/// [`relu`] when `relu` is set.
#[derive(Debug, Clone, Copy)]
pub struct TileEpilogue<'a> {
    /// Add the `C` tile already in memory (GEMM `beta = 1`) instead of
    /// overwriting it.
    pub beta: bool,
    /// The bias added after `C`.
    pub bias: TileBias<'a>,
    /// Clamp at zero last.
    pub relu: bool,
}

/// What the storing int8 tiles ([`madd_tile_i16_into_f32`],
/// [`madd_tile_i16_into_i8`]) do to each `i32` accumulator, in this
/// order: `acc as f32 · scale`, `+ bias`, then [`relu`] when `relu` is
/// set. The `i16` form then rounds with [`round_to_grid`].
#[derive(Debug, Clone, Copy)]
pub struct QTileEpilogue<'a> {
    /// Dequantising (or requantising) multiplier.
    pub scale: f32,
    /// The bias added after the scale.
    pub bias: TileBias<'a>,
    /// Clamp at zero after the bias.
    pub relu: bool,
}

impl QTileEpilogue<'_> {
    /// Dequantises one accumulator tile: the scalar form of the int8
    /// epilogue.
    fn dequantise(&self, acc: &[[i32; NR]; MR]) -> [[f32; NR]; MR] {
        let mut out = [[0.0f32; NR]; MR];
        for (r, (vals, row)) in out.iter_mut().zip(acc).enumerate() {
            for (v, &a) in vals.iter_mut().zip(row) {
                *v = a as f32 * self.scale;
            }
            self.bias.add_to(vals, r);
            if self.relu {
                vals.iter_mut().for_each(|v| *v = relu(*v));
            }
        }
        out
    }
}

/// The ReLU of every epilogue: `v` if `v > 0`, else `+0.0`. So NaN
/// and `-0.0` both give `+0.0`, which is exactly what `maxps(v, 0)`
/// returns; `f32::max` leaves the sign of a zero to the compiler and
/// the build profile.
#[inline]
pub fn relu(v: f32) -> f32 {
    if v > 0.0 {
        v
    } else {
        0.0
    }
}

/// Rounds `v` onto the symmetric int8 grid in `i16` storage: clamped to
/// `[-127, 127]` first (NaN goes to `-127`), then rounded half to even.
/// The rounding is the branchless magic-bias add: after `+ 1.5·2²³` the
/// low mantissa bits hold the rounded value in two's complement.
#[inline]
#[allow(clippy::manual_clamp)] // f32::clamp would keep NaN; max-then-min sends it to -127
pub fn round_to_grid(v: f32) -> i16 {
    let v = v.max(-GRID_MAX).min(GRID_MAX);
    (v + MAGIC).to_bits().wrapping_sub(MAGIC.to_bits()) as i16
}

/// The edge of the symmetric int8 grid.
const GRID_MAX: f32 = 127.0;
/// `1.5 · 2²³`, the magic bias of [`round_to_grid`].
const MAGIC: f32 = 12_582_912.0;

/// Panics unless `c` holds an [`MR`]`×`[`NR`] tile at leading
/// dimension `ldc`.
#[inline]
fn check_tile<T>(c: &[T], ldc: usize) {
    assert!(
        ldc >= NR && c.len() >= (MR - 1) * ldc + NR,
        "C shorter than one {MR}x{NR} tile at ldc = {ldc}"
    );
}

/// Computes one [`MR`]`×`[`NR`] `f32` tile of `A_strip · B_strip` (the
/// operands of [`madd_tile_f32`]) from zero, applies `ep` to it (in
/// registers on AVX2) and stores it into rows `c[r·ldc..][..NR]`.
///
/// Bit-identical across tiers, and to [`madd_tile_f32`] on a zeroed
/// tile followed by the same `+ C`, `+ bias` and [`relu`] per element.
///
/// # Panics
///
/// Panics if a strip is shorter than [`madd_tile_f32`] requires or `c`
/// is shorter than one tile.
#[inline]
pub fn madd_tile_f32_into(
    pa: &[f32],
    pb: &[f32],
    kc: usize,
    c: &mut [f32],
    ldc: usize,
    ep: TileEpilogue<'_>,
) {
    assert!(
        pa.len() >= kc * MR && pb.len() >= kc * NR,
        "strip buffers shorter than {kc} k-steps"
    );
    check_tile(c, ldc);
    match active_tier() {
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 => x86::madd_tile_f32_into_avx2(pa, pb, kc, c, ldc, ep),
        _ => madd_tile_f32_into_scalar(pa, pb, kc, c, ldc, ep),
    }
}

/// Portable scalar form of [`madd_tile_f32_into`] and its oracle: the
/// accumulating tile, then the write-back one row at a time.
fn madd_tile_f32_into_scalar(
    pa: &[f32],
    pb: &[f32],
    kc: usize,
    c: &mut [f32],
    ldc: usize,
    ep: TileEpilogue<'_>,
) {
    let mut acc = [[0.0f32; NR]; MR];
    madd_tile_f32_scalar(pa, pb, kc, &mut acc);
    for (r, vals) in acc.iter_mut().enumerate() {
        let dst: &mut [f32; NR] = (&mut c[r * ldc..][..NR]).try_into().expect("NR-wide row");
        if ep.beta {
            for (v, &d) in vals.iter_mut().zip(dst.iter()) {
                *v += d;
            }
        }
        ep.bias.add_to(vals, r);
        if ep.relu {
            vals.iter_mut().for_each(|v| *v = relu(*v));
        }
        *dst = *vals;
    }
}

/// Computes one [`MR`]`×`[`NR`] int8 tile (the operands of
/// [`madd_tile_i16`]) from zero, dequantises it through `ep` (in
/// registers on AVX2) and stores it as `f32` into rows `c[r·ldc..][..NR]`.
///
/// Bit-identical across tiers, and to [`madd_tile_i16`] on a zeroed
/// tile followed by `ep` per element.
///
/// # Panics
///
/// Panics if a strip is shorter than [`madd_tile_i16`] requires or `c`
/// is shorter than one tile.
#[inline]
pub fn madd_tile_i16_into_f32(
    pa: &[i16],
    pb: &[i16],
    pairs: usize,
    c: &mut [f32],
    ldc: usize,
    ep: QTileEpilogue<'_>,
) {
    assert!(
        pa.len() >= pairs * 2 * MR && pb.len() >= pairs * 2 * NR,
        "strip buffers shorter than {pairs} k-pairs"
    );
    check_tile(c, ldc);
    match active_tier() {
        #[cfg(target_arch = "x86_64")]
        Tier::Sse2 => madd_tile_i16_into_f32_via(x86::madd_tile_sse2, pa, pb, pairs, c, ldc, ep),
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 => x86::madd_tile_i16_into_f32_avx2(pa, pb, pairs, c, ldc, ep),
        _ => madd_tile_i16_into_f32_via(madd_tile_scalar, pa, pb, pairs, c, ldc, ep),
    }
}

/// An accumulating int8 tile of one tier, as [`madd_tile_i16`].
type I16Tile = fn(&[i16], &[i16], usize, &mut [[i32; NR]; MR]);

/// [`madd_tile_i16_into_f32`] on a tier without a storing int8 kernel:
/// `tile` on a zeroed tile, then the element-wise write-back. With
/// [`madd_tile_scalar`] it is the oracle.
#[inline]
fn madd_tile_i16_into_f32_via(
    tile: I16Tile,
    pa: &[i16],
    pb: &[i16],
    pairs: usize,
    c: &mut [f32],
    ldc: usize,
    ep: QTileEpilogue<'_>,
) {
    let mut acc = [[0i32; NR]; MR];
    tile(pa, pb, pairs, &mut acc);
    for (r, vals) in ep.dequantise(&acc).iter().enumerate() {
        c[r * ldc..][..NR].copy_from_slice(vals);
    }
}

/// [`madd_tile_i16_into_f32`], but rounding each value onto the int8
/// grid with [`round_to_grid`] and storing it as `i16`: the write-back
/// of a chained quantised layer.
///
/// # Panics
///
/// Same conditions as [`madd_tile_i16_into_f32`].
#[inline]
pub fn madd_tile_i16_into_i8(
    pa: &[i16],
    pb: &[i16],
    pairs: usize,
    c: &mut [i16],
    ldc: usize,
    ep: QTileEpilogue<'_>,
) {
    assert!(
        pa.len() >= pairs * 2 * MR && pb.len() >= pairs * 2 * NR,
        "strip buffers shorter than {pairs} k-pairs"
    );
    check_tile(c, ldc);
    match active_tier() {
        #[cfg(target_arch = "x86_64")]
        Tier::Sse2 => madd_tile_i16_into_i8_via(x86::madd_tile_sse2, pa, pb, pairs, c, ldc, ep),
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 => x86::madd_tile_i16_into_i8_avx2(pa, pb, pairs, c, ldc, ep),
        _ => madd_tile_i16_into_i8_via(madd_tile_scalar, pa, pb, pairs, c, ldc, ep),
    }
}

/// [`madd_tile_i16_into_i8`] on a tier without a storing int8 kernel,
/// as [`madd_tile_i16_into_f32_via`].
#[inline]
fn madd_tile_i16_into_i8_via(
    tile: I16Tile,
    pa: &[i16],
    pb: &[i16],
    pairs: usize,
    c: &mut [i16],
    ldc: usize,
    ep: QTileEpilogue<'_>,
) {
    let mut acc = [[0i32; NR]; MR];
    tile(pa, pb, pairs, &mut acc);
    for (r, vals) in ep.dequantise(&acc).iter().enumerate() {
        for (d, &v) in c[r * ldc..][..NR].iter_mut().zip(vals) {
            *d = round_to_grid(v);
        }
    }
}

/// Portable scalar form of [`madd_tile_f32`]: the fallback on
/// non-AVX2 tiers and the oracle the AVX2 path is tested against.
/// Two k-steps per iteration — halves the loop overhead and gives the
/// scheduler two independent chains per accumulator row.
fn madd_tile_f32_scalar(pa: &[f32], pb: &[f32], kc: usize, acc: &mut [[f32; NR]; MR]) {
    assert!(pa.len() >= kc * MR && pb.len() >= kc * NR);
    let mut ap2 = pa[..kc * MR].chunks_exact(2 * MR);
    let mut bp2 = pb[..kc * NR].chunks_exact(2 * NR);
    for (ap, bp) in (&mut ap2).zip(&mut bp2) {
        for (r, row) in acc.iter_mut().enumerate() {
            let av = ap[r];
            for (x, &bv) in row.iter_mut().zip(&bp[..NR]) {
                *x += av * bv;
            }
        }
        for (r, row) in acc.iter_mut().enumerate() {
            let av = ap[MR + r];
            for (x, &bv) in row.iter_mut().zip(&bp[NR..]) {
                *x += av * bv;
            }
        }
    }
    for (ap, bp) in ap2
        .remainder()
        .chunks_exact(MR)
        .zip(bp2.remainder().chunks_exact(NR))
    {
        for (r, row) in acc.iter_mut().enumerate() {
            let av = ap[r];
            for (x, &bv) in row.iter_mut().zip(bp) {
                *x += av * bv;
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! SSE2 and AVX2 tile kernels. SSE2 is part of the x86-64 baseline
    //! ABI, so that path needs no runtime feature detection; the AVX2
    //! entry points are only reached after `active_tier()` confirmed
    //! `is_x86_feature_detected!("avx2")`.
    //!
    //! AVX2 has one k-loop per element type. Its accumulating kernels
    //! add the registers to the caller's tile; its storing kernels run
    //! the epilogue on them and store straight into `C`. SSE2 has only
    //! the accumulating int8 tile.
    #![allow(unsafe_code)]

    use super::{QTileEpilogue, TileBias, TileEpilogue, GRID_MAX, MAGIC, MR, NR};
    use core::arch::x86_64::{
        __m128i, __m256, __m256i, _mm256_add_epi32, _mm256_add_ps, _mm256_castps_si256,
        _mm256_cvtepi32_ps, _mm256_loadu_ps, _mm256_loadu_si256, _mm256_madd_epi16, _mm256_max_ps,
        _mm256_min_ps, _mm256_mul_ps, _mm256_packs_epi32, _mm256_permute4x64_epi64,
        _mm256_set1_epi32, _mm256_set1_ps, _mm256_setzero_ps, _mm256_setzero_si256,
        _mm256_storeu_ps, _mm256_storeu_si256, _mm256_sub_epi32, _mm_add_epi32, _mm_loadu_si128,
        _mm_madd_epi16, _mm_setzero_si128, _mm_shuffle_epi32, _mm_storeu_si128,
    };

    /// See [`super::madd_tile_i16`]; caller has checked the slice
    /// lengths.
    pub(super) fn madd_tile_sse2(pa: &[i16], pb: &[i16], pairs: usize, acc: &mut [[i32; NR]; MR]) {
        debug_assert!(pa.len() >= pairs * 2 * MR && pb.len() >= pairs * 2 * NR);
        // Four i32x4 accumulator vectors per row: the whole MR×NR
        // tile lives in xmm registers across the k loop.
        let mut c: [[__m128i; 4]; MR] =
            // SAFETY: `_mm_setzero_si128` has no preconditions (SSE2,
            // baseline on x86_64).
            unsafe { [[_mm_setzero_si128(); 4]; MR] };
        for q in 0..pairs {
            // Bounds-checked subslices: every 8-lane load below reads
            // exactly the 16 bytes these slices prove are in range.
            let ap: &[i16] = &pa[q * 2 * MR..][..2 * MR];
            let bp: &[i16] = &pb[q * 2 * NR..][..2 * NR];
            // SAFETY: `_mm_loadu_si128` reads 16 unaligned bytes; each
            // pointer is derived from an in-bounds 8-element `i16`
            // subslice (16 bytes exactly). All intrinsics are SSE2.
            unsafe {
                let aw = _mm_loadu_si128(ap.as_ptr().cast());
                let b0 = _mm_loadu_si128(bp[0..8].as_ptr().cast());
                let b1 = _mm_loadu_si128(bp[8..16].as_ptr().cast());
                let b2 = _mm_loadu_si128(bp[16..24].as_ptr().cast());
                let b3 = _mm_loadu_si128(bp[24..32].as_ptr().cast());
                // Broadcast row r's (even, odd) i16 pair — one 32-bit
                // lane of `aw` — against every column pair.
                macro_rules! row {
                    ($r:expr, $imm:expr) => {{
                        let ar = _mm_shuffle_epi32(aw, $imm);
                        c[$r][0] = _mm_add_epi32(c[$r][0], _mm_madd_epi16(ar, b0));
                        c[$r][1] = _mm_add_epi32(c[$r][1], _mm_madd_epi16(ar, b1));
                        c[$r][2] = _mm_add_epi32(c[$r][2], _mm_madd_epi16(ar, b2));
                        c[$r][3] = _mm_add_epi32(c[$r][3], _mm_madd_epi16(ar, b3));
                    }};
                }
                row!(0, 0x00);
                row!(1, 0x55);
                row!(2, 0xAA);
                row!(3, 0xFF);
            }
        }
        for (row, vecs) in acc.iter_mut().zip(&c) {
            for (seg, v) in row.chunks_exact_mut(4).zip(vecs) {
                let mut out = [0i32; 4];
                // SAFETY: `_mm_storeu_si128` writes 16 unaligned bytes
                // into `out`, a local `[i32; 4]` (16 bytes exactly).
                unsafe { _mm_storeu_si128(out.as_mut_ptr().cast(), *v) };
                for (d, &x) in seg.iter_mut().zip(&out) {
                    *d += x;
                }
            }
        }
    }

    /// AVX2 form of [`super::madd_tile_i16`]: the same `pmaddwd`
    /// reduction, 16 lanes (two 256-bit accumulators per row) instead
    /// of SSE2's four 128-bit ones. Caller has checked the slice
    /// lengths and runtime AVX2 support.
    pub(super) fn madd_tile_i16_avx2(
        pa: &[i16],
        pb: &[i16],
        pairs: usize,
        acc: &mut [[i32; NR]; MR],
    ) {
        debug_assert!(pa.len() >= pairs * 2 * MR && pb.len() >= pairs * 2 * NR);
        // SAFETY: `active_tier()` only selects this path after
        // `is_x86_feature_detected!("avx2")` confirmed support.
        unsafe { madd_tile_i16_avx2_impl(pa, pb, pairs, acc) }
    }

    /// The AVX2 `pmaddwd` k-loop: one [`MR`]`×`[`NR`] `i32` tile from
    /// zero, two i32x8 vectors per row (8 ymm total). A macro rather
    /// than a function, because a `target_feature` function cannot be
    /// `#[inline(always)]` and an outlined loop spills the tile to
    /// memory; expand it only inside an AVX2 `target_feature` function.
    /// Each load covers an in-bounds 16-element `i16` subslice (32
    /// bytes exactly).
    macro_rules! i16_tile_avx2 {
        ($pa:expr, $pb:expr, $pairs:expr) => {{
            let (pa, pb): (&[i16], &[i16]) = ($pa, $pb);
            let mut c: [[__m256i; 2]; MR] = [[_mm256_setzero_si256(); 2]; MR];
            for q in 0..$pairs {
                let ap: &[i16] = &pa[q * 2 * MR..][..2 * MR];
                let bp: &[i16] = &pb[q * 2 * NR..][..2 * NR];
                let b0 = _mm256_loadu_si256(bp[0..16].as_ptr().cast());
                let b1 = _mm256_loadu_si256(bp[16..32].as_ptr().cast());
                for r in 0..MR {
                    // Row r's (even, odd) i16 pair packed into one i32
                    // lane, broadcast against every column pair.
                    let pair =
                        (ap[2 * r] as u16 as u32 | (ap[2 * r + 1] as u16 as u32) << 16) as i32;
                    let ar = _mm256_set1_epi32(pair);
                    c[r][0] = _mm256_add_epi32(c[r][0], _mm256_madd_epi16(ar, b0));
                    c[r][1] = _mm256_add_epi32(c[r][1], _mm256_madd_epi16(ar, b1));
                }
            }
            c
        }};
    }

    /// # Safety
    ///
    /// Requires AVX2 at runtime. The intrinsic calls inside are safe
    /// under the enclosing `target_feature`; the stores write into a
    /// local `[i32; 8]` (32 bytes exactly).
    #[target_feature(enable = "avx2")]
    unsafe fn madd_tile_i16_avx2_impl(
        pa: &[i16],
        pb: &[i16],
        pairs: usize,
        acc: &mut [[i32; NR]; MR],
    ) {
        let c = i16_tile_avx2!(pa, pb, pairs);
        for (row, vecs) in acc.iter_mut().zip(&c) {
            for (seg, v) in row.chunks_exact_mut(8).zip(vecs) {
                let mut out = [0i32; 8];
                _mm256_storeu_si256(out.as_mut_ptr().cast(), *v);
                for (d, &x) in seg.iter_mut().zip(&out) {
                    *d += x;
                }
            }
        }
    }

    /// The int8 epilogue on one AVX2 tile row: `acc as f32 · scale`,
    /// `+ bias`, then `maxps(v, 0)` — lane for lane the scalar
    /// `QTileEpilogue::dequantise`.
    ///
    /// # Safety
    ///
    /// Requires AVX2 at runtime. Each load reads an in-bounds 8-element
    /// `f32` subslice (32 bytes exactly).
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn dequantise_row_avx2(
        acc: [__m256i; 2],
        r: usize,
        ep: &QTileEpilogue<'_>,
    ) -> [__m256; 2] {
        let scale = _mm256_set1_ps(ep.scale);
        let mut v0 = _mm256_mul_ps(_mm256_cvtepi32_ps(acc[0]), scale);
        let mut v1 = _mm256_mul_ps(_mm256_cvtepi32_ps(acc[1]), scale);
        match ep.bias {
            TileBias::None => {}
            TileBias::Row(b) => {
                let bv = _mm256_set1_ps(b[r]);
                v0 = _mm256_add_ps(v0, bv);
                v1 = _mm256_add_ps(v1, bv);
            }
            TileBias::Col(b) => {
                v0 = _mm256_add_ps(v0, _mm256_loadu_ps(b[..8].as_ptr()));
                v1 = _mm256_add_ps(v1, _mm256_loadu_ps(b[8..].as_ptr()));
            }
        }
        if ep.relu {
            v0 = _mm256_max_ps(v0, _mm256_setzero_ps());
            v1 = _mm256_max_ps(v1, _mm256_setzero_ps());
        }
        [v0, v1]
    }

    /// AVX2 form of [`super::madd_tile_i16_into_f32`]. Caller has
    /// checked the slice lengths and runtime AVX2 support.
    pub(super) fn madd_tile_i16_into_f32_avx2(
        pa: &[i16],
        pb: &[i16],
        pairs: usize,
        c: &mut [f32],
        ldc: usize,
        ep: QTileEpilogue<'_>,
    ) {
        // SAFETY: `active_tier()` only selects this path after
        // `is_x86_feature_detected!("avx2")` confirmed support.
        unsafe { madd_tile_i16_into_f32_avx2_impl(pa, pb, pairs, c, ldc, ep) }
    }

    /// # Safety
    ///
    /// Requires AVX2 at runtime. Every store covers an in-bounds
    /// 8-element `f32` half of a row of `c` (32 bytes exactly).
    #[target_feature(enable = "avx2")]
    unsafe fn madd_tile_i16_into_f32_avx2_impl(
        pa: &[i16],
        pb: &[i16],
        pairs: usize,
        c: &mut [f32],
        ldc: usize,
        ep: QTileEpilogue<'_>,
    ) {
        let acc = i16_tile_avx2!(pa, pb, pairs);
        for (r, row) in acc.into_iter().enumerate() {
            let [v0, v1] = dequantise_row_avx2(row, r, &ep);
            let (lo, hi) = c[r * ldc..][..NR].split_at_mut(8);
            _mm256_storeu_ps(lo.as_mut_ptr(), v0);
            _mm256_storeu_ps(hi.as_mut_ptr(), v1);
        }
    }

    /// AVX2 form of [`super::madd_tile_i16_into_i8`]. Caller has
    /// checked the slice lengths and runtime AVX2 support.
    pub(super) fn madd_tile_i16_into_i8_avx2(
        pa: &[i16],
        pb: &[i16],
        pairs: usize,
        c: &mut [i16],
        ldc: usize,
        ep: QTileEpilogue<'_>,
    ) {
        // SAFETY: `active_tier()` only selects this path after
        // `is_x86_feature_detected!("avx2")` confirmed support.
        unsafe { madd_tile_i16_into_i8_avx2_impl(pa, pb, pairs, c, ldc, ep) }
    }

    /// # Safety
    ///
    /// Requires AVX2 at runtime. Each row's store covers an in-bounds
    /// 16-element `i16` row of `c` (32 bytes exactly).
    #[target_feature(enable = "avx2")]
    unsafe fn madd_tile_i16_into_i8_avx2_impl(
        pa: &[i16],
        pb: &[i16],
        pairs: usize,
        c: &mut [i16],
        ldc: usize,
        ep: QTileEpilogue<'_>,
    ) {
        let acc = i16_tile_avx2!(pa, pb, pairs);
        let (lo, hi) = (_mm256_set1_ps(-GRID_MAX), _mm256_set1_ps(GRID_MAX));
        let magic = _mm256_set1_ps(MAGIC);
        let magic_bits = _mm256_set1_epi32(MAGIC.to_bits() as i32);
        for (r, row) in acc.into_iter().enumerate() {
            let [v0, v1] = dequantise_row_avx2(row, r, &ep);
            // `round_to_grid` on 8 lanes: `maxps(v, -127)` (NaN →
            // −127), `minps(v, 127)`, then the magic-bias round. The
            // results lie in `[-127, 127]`, so `packssdw` is exact.
            let v0 = _mm256_add_ps(_mm256_min_ps(_mm256_max_ps(v0, lo), hi), magic);
            let v1 = _mm256_add_ps(_mm256_min_ps(_mm256_max_ps(v1, lo), hi), magic);
            let q0 = _mm256_sub_epi32(_mm256_castps_si256(v0), magic_bits);
            let q1 = _mm256_sub_epi32(_mm256_castps_si256(v1), magic_bits);
            // `packssdw` interleaves the 128-bit halves (q0 lo, q1 lo,
            // q0 hi, q1 hi); the permute restores column order.
            let packed = _mm256_permute4x64_epi64(_mm256_packs_epi32(q0, q1), 0b11_01_10_00);
            _mm256_storeu_si256(c[r * ldc..][..NR].as_mut_ptr().cast(), packed);
        }
    }

    /// AVX2 form of [`super::madd_tile_f32`]: the scalar kernel's
    /// exact multiply/add sequence, 8 lanes per instruction.
    /// Deliberately `vmulps` + `vaddps` (no FMA contraction) in the
    /// scalar loop's per-element operation order, so the result is
    /// bit-identical to [`super::madd_tile_f32_scalar`]. Caller has
    /// checked the slice lengths and runtime AVX2 support.
    pub(super) fn madd_tile_f32_avx2(pa: &[f32], pb: &[f32], kc: usize, acc: &mut [[f32; NR]; MR]) {
        debug_assert!(pa.len() >= kc * MR && pb.len() >= kc * NR);
        // SAFETY: `active_tier()` only selects this path after
        // `is_x86_feature_detected!("avx2")` confirmed support.
        unsafe { madd_tile_f32_avx2_impl(pa, pb, kc, acc) }
    }

    /// The AVX2 f32 k-loop, accumulating into `$c`: paired k-steps,
    /// then an odd tail — the scalar kernel's structure, so the add
    /// sequence per lane is identical. A macro for the reason
    /// `i16_tile_avx2!` is one; expand it only inside an AVX2
    /// `target_feature` function. Every load covers an in-bounds
    /// 8-element `f32` subslice (32 bytes exactly).
    macro_rules! f32_tile_avx2 {
        ($pa:expr, $pb:expr, $kc:expr, $c:expr) => {{
            let (pa, pb, kc): (&[f32], &[f32], usize) = ($pa, $pb, $kc);
            let c: &mut [[__m256; 2]; MR] = $c;
            let mut q = 0;
            while q + 2 <= kc {
                let ap = &pa[q * MR..][..2 * MR];
                let bp = &pb[q * NR..][..2 * NR];
                let b0 = _mm256_loadu_ps(bp[0..8].as_ptr());
                let b1 = _mm256_loadu_ps(bp[8..16].as_ptr());
                for (r, cr) in c.iter_mut().enumerate() {
                    let av = _mm256_set1_ps(ap[r]);
                    cr[0] = _mm256_add_ps(cr[0], _mm256_mul_ps(av, b0));
                    cr[1] = _mm256_add_ps(cr[1], _mm256_mul_ps(av, b1));
                }
                let b2 = _mm256_loadu_ps(bp[16..24].as_ptr());
                let b3 = _mm256_loadu_ps(bp[24..32].as_ptr());
                for (r, cr) in c.iter_mut().enumerate() {
                    let av = _mm256_set1_ps(ap[MR + r]);
                    cr[0] = _mm256_add_ps(cr[0], _mm256_mul_ps(av, b2));
                    cr[1] = _mm256_add_ps(cr[1], _mm256_mul_ps(av, b3));
                }
                q += 2;
            }
            if q < kc {
                let ap = &pa[q * MR..][..MR];
                let bp = &pb[q * NR..][..NR];
                let b0 = _mm256_loadu_ps(bp[0..8].as_ptr());
                let b1 = _mm256_loadu_ps(bp[8..16].as_ptr());
                for (r, cr) in c.iter_mut().enumerate() {
                    let av = _mm256_set1_ps(ap[r]);
                    cr[0] = _mm256_add_ps(cr[0], _mm256_mul_ps(av, b0));
                    cr[1] = _mm256_add_ps(cr[1], _mm256_mul_ps(av, b1));
                }
            }
        }};
    }

    /// # Safety
    ///
    /// Requires AVX2 at runtime. The intrinsic calls inside are safe
    /// under the enclosing `target_feature`; every unaligned load and
    /// store covers an in-bounds 8-element `f32` subslice (32 bytes
    /// exactly).
    #[target_feature(enable = "avx2")]
    unsafe fn madd_tile_f32_avx2_impl(
        pa: &[f32],
        pb: &[f32],
        kc: usize,
        acc: &mut [[f32; NR]; MR],
    ) {
        // Two f32x8 accumulator vectors per row, seeded from `acc` so
        // accumulation order matches the scalar in-place form exactly.
        let mut c: [[__m256; 2]; MR] = [[_mm256_setzero_ps(); 2]; MR];
        for (cr, row) in c.iter_mut().zip(acc.iter()) {
            cr[0] = _mm256_loadu_ps(row[0..8].as_ptr());
            cr[1] = _mm256_loadu_ps(row[8..16].as_ptr());
        }
        f32_tile_avx2!(pa, pb, kc, &mut c);
        for (row, vecs) in acc.iter_mut().zip(&c) {
            _mm256_storeu_ps(row[0..8].as_mut_ptr(), vecs[0]);
            _mm256_storeu_ps(row[8..16].as_mut_ptr(), vecs[1]);
        }
    }

    /// AVX2 form of [`super::madd_tile_f32_into`]. Caller has checked
    /// the slice lengths and runtime AVX2 support.
    pub(super) fn madd_tile_f32_into_avx2(
        pa: &[f32],
        pb: &[f32],
        kc: usize,
        c: &mut [f32],
        ldc: usize,
        ep: TileEpilogue<'_>,
    ) {
        // SAFETY: `active_tier()` only selects this path after
        // `is_x86_feature_detected!("avx2")` confirmed support.
        unsafe { madd_tile_f32_into_avx2_impl(pa, pb, kc, c, ldc, ep) }
    }

    /// The tile stays in registers from the first k-step to the store:
    /// `+ C`, `+ bias` and `maxps(v, 0)` run on the accumulators in the
    /// scalar write-back's order.
    ///
    /// # Safety
    ///
    /// Requires AVX2 at runtime. Every load and store covers an
    /// in-bounds 8-element `f32` subslice (32 bytes exactly).
    #[target_feature(enable = "avx2")]
    unsafe fn madd_tile_f32_into_avx2_impl(
        pa: &[f32],
        pb: &[f32],
        kc: usize,
        c: &mut [f32],
        ldc: usize,
        ep: TileEpilogue<'_>,
    ) {
        let zero = _mm256_setzero_ps();
        let mut acc: [[__m256; 2]; MR] = [[zero; 2]; MR];
        f32_tile_avx2!(pa, pb, kc, &mut acc);
        // Fixed indices throughout, so the tile stays in registers.
        for (r, [mut v0, mut v1]) in acc.into_iter().enumerate() {
            let (lo, hi) = c[r * ldc..][..NR].split_at_mut(8);
            if ep.beta {
                v0 = _mm256_add_ps(v0, _mm256_loadu_ps(lo.as_ptr()));
                v1 = _mm256_add_ps(v1, _mm256_loadu_ps(hi.as_ptr()));
            }
            match ep.bias {
                TileBias::None => {}
                TileBias::Row(b) => {
                    let bv = _mm256_set1_ps(b[r]);
                    v0 = _mm256_add_ps(v0, bv);
                    v1 = _mm256_add_ps(v1, bv);
                }
                TileBias::Col(b) => {
                    v0 = _mm256_add_ps(v0, _mm256_loadu_ps(b[..8].as_ptr()));
                    v1 = _mm256_add_ps(v1, _mm256_loadu_ps(b[8..].as_ptr()));
                }
            }
            if ep.relu {
                v0 = _mm256_max_ps(v0, zero);
                v1 = _mm256_max_ps(v1, zero);
            }
            _mm256_storeu_ps(lo.as_mut_ptr(), v0);
            _mm256_storeu_ps(hi.as_mut_ptr(), v1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(len: usize, seed: i32) -> Vec<i16> {
        (0..len)
            .map(|i| ((i as i32 * 37 + seed) % 255 - 127) as i16)
            .collect()
    }

    fn pattern_f32(len: usize, seed: i32) -> Vec<f32> {
        (0..len)
            .map(|i| ((i as i32 * 31 + seed) % 255 - 127) as f32 * 0.013)
            .collect()
    }

    #[test]
    fn force_env_caps_but_never_raises_the_tier() {
        assert_eq!(tier_for(Some("scalar"), Tier::Avx2), Tier::Scalar);
        assert_eq!(tier_for(Some("sse2"), Tier::Avx2), Tier::Sse2);
        assert_eq!(tier_for(Some("avx2"), Tier::Avx2), Tier::Avx2);
        // A cap above the machine's best tier cannot raise it.
        assert_eq!(tier_for(Some("avx2"), Tier::Sse2), Tier::Sse2);
        assert_eq!(tier_for(Some("avx2"), Tier::Scalar), Tier::Scalar);
        assert_eq!(tier_for(Some("sse2"), Tier::Scalar), Tier::Scalar);
        // Unset / unrecognised values leave the detected tier alone.
        assert_eq!(tier_for(None, Tier::Avx2), Tier::Avx2);
        assert_eq!(tier_for(Some("neon"), Tier::Sse2), Tier::Sse2);
    }

    #[test]
    fn dispatch_matches_scalar_oracle() {
        for pairs in [0usize, 1, 2, 7, 72, 513] {
            let pa = pattern(pairs * 2 * MR, 1);
            let pb = pattern(pairs * 2 * NR, 2);
            let mut got = [[3i32; NR]; MR];
            let mut want = [[3i32; NR]; MR];
            madd_tile_i16(&pa, &pb, pairs, &mut got);
            madd_tile_scalar(&pa, &pb, pairs, &mut want);
            assert_eq!(got, want, "pairs = {pairs}");
        }
    }

    /// Every x86 tier — not just the dispatched one — must agree with
    /// the scalar oracle bit for bit.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn every_i16_tier_matches_scalar_oracle() {
        for pairs in [0usize, 1, 2, 7, 72, 513] {
            let pa = pattern(pairs * 2 * MR, 3);
            let pb = pattern(pairs * 2 * NR, 4);
            let mut want = [[7i32; NR]; MR];
            madd_tile_scalar(&pa, &pb, pairs, &mut want);
            let mut sse = [[7i32; NR]; MR];
            x86::madd_tile_sse2(&pa, &pb, pairs, &mut sse);
            assert_eq!(sse, want, "sse2, pairs = {pairs}");
            if std::arch::is_x86_feature_detected!("avx2") {
                let mut avx = [[7i32; NR]; MR];
                x86::madd_tile_i16_avx2(&pa, &pb, pairs, &mut avx);
                assert_eq!(avx, want, "avx2, pairs = {pairs}");
            }
        }
    }

    #[test]
    fn f32_dispatch_matches_scalar_oracle_bitwise() {
        for kc in [0usize, 1, 2, 3, 7, 64, 255] {
            let pa = pattern_f32(kc * MR, 5);
            let pb = pattern_f32(kc * NR, 6);
            let mut got = [[0.25f32; NR]; MR];
            let mut want = [[0.25f32; NR]; MR];
            madd_tile_f32(&pa, &pb, kc, &mut got);
            madd_tile_f32_scalar(&pa, &pb, kc, &mut want);
            for (g, w) in got.iter().flatten().zip(want.iter().flatten()) {
                assert_eq!(g.to_bits(), w.to_bits(), "kc = {kc}");
            }
        }
    }

    /// The AVX2 f32 tile must be bit-identical to the scalar oracle —
    /// same multiply/add sequence, no FMA contraction — including odd
    /// k-counts (tail step) and accumulation on top of a non-zero
    /// tile.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn f32_avx2_tier_is_bit_identical_to_scalar() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        for kc in [0usize, 1, 2, 3, 7, 64, 255] {
            let pa = pattern_f32(kc * MR, 8);
            let pb = pattern_f32(kc * NR, 9);
            let mut seed = [[0.0f32; NR]; MR];
            for (i, v) in seed.iter_mut().flatten().enumerate() {
                *v = (i as f32 - 31.0) * 0.125;
            }
            let mut want = seed;
            madd_tile_f32_scalar(&pa, &pb, kc, &mut want);
            let mut got = seed;
            x86::madd_tile_f32_avx2(&pa, &pb, kc, &mut got);
            for (g, w) in got.iter().flatten().zip(want.iter().flatten()) {
                assert_eq!(g.to_bits(), w.to_bits(), "kc = {kc}");
            }
        }
    }

    #[test]
    fn accumulates_on_top_of_existing_tile() {
        let pa = pattern(2 * MR, 5);
        let pb = pattern(2 * NR, 6);
        let mut once = [[0i32; NR]; MR];
        madd_tile_i16(&pa, &pb, 1, &mut once);
        let mut twice = [[0i32; NR]; MR];
        madd_tile_i16(&pa, &pb, 1, &mut twice);
        madd_tile_i16(&pa, &pb, 1, &mut twice);
        for (a, b) in once.iter().flatten().zip(twice.iter().flatten()) {
            assert_eq!(2 * a, *b);
        }
    }

    #[test]
    fn known_value_tile() {
        // a row r = [r+1, 1], b col c = [c, 2] for both k-steps of the
        // single pair: acc[r][c] = (r+1)*c + 1*2.
        let mut pa = [0i16; 2 * MR];
        for r in 0..MR {
            pa[2 * r] = r as i16 + 1;
            pa[2 * r + 1] = 1;
        }
        let mut pb = [0i16; 2 * NR];
        for c in 0..NR {
            pb[2 * c] = c as i16;
            pb[2 * c + 1] = 2;
        }
        let mut acc = [[0i32; NR]; MR];
        madd_tile_i16(&pa, &pb, 1, &mut acc);
        for (r, row) in acc.iter().enumerate() {
            for (c, &v) in row.iter().enumerate() {
                assert_eq!(v, (r as i32 + 1) * c as i32 + 2, "acc[{r}][{c}]");
            }
        }
    }

    #[test]
    #[should_panic(expected = "k-pairs")]
    fn short_buffer_rejected() {
        let pa = [0i16; 4];
        let pb = [0i16; 2 * NR];
        let mut acc = [[0i32; NR]; MR];
        madd_tile_i16(&pa, &pb, 1, &mut acc);
    }

    #[test]
    #[should_panic(expected = "k-steps")]
    fn short_f32_buffer_rejected() {
        let pa = [0.0f32; 4];
        let pb = [0.0f32; 2 * NR];
        let mut acc = [[0.0f32; NR]; MR];
        madd_tile_f32(&pa, &pb, 2, &mut acc);
    }

    /// Extremes of the int8 grid across a long reduction: exactness of
    /// the i32 accumulation at the values the quantiser can produce.
    #[test]
    fn grid_extremes_accumulate_exactly() {
        let pairs = 500;
        let pa = vec![127i16; pairs * 2 * MR];
        let pb = vec![-127i16; pairs * 2 * NR];
        let mut acc = [[0i32; NR]; MR];
        madd_tile_i16(&pa, &pb, pairs, &mut acc);
        let want = -(127 * 127) * 2 * pairs as i32;
        assert!(acc.iter().flatten().all(|&v| v == want));
    }

    /// Values at the edges of IEEE arithmetic: NaNs of both signs with
    /// distinct payloads, both infinities, both zeros, denormals of
    /// both signs, and ties and out-of-range values for the int8 round
    /// (±k.5, ±127.5, past the grid).
    const EDGES: [f32; 20] = [
        f32::from_bits(0x7fc0_0001),
        f32::from_bits(0xffc0_0002),
        f32::INFINITY,
        f32::NEG_INFINITY,
        -0.0,
        0.0,
        1e-40,
        -1e-40,
        f32::MIN_POSITIVE,
        0.5,
        -0.5,
        2.5,
        -3.5,
        126.5,
        -126.5,
        127.5,
        -127.5,
        128.0,
        -1.0e6,
        0.75,
    ];

    /// `len` values cycling through [`EDGES`] from `salt`.
    fn edges(len: usize, salt: usize) -> Vec<f32> {
        (0..len)
            .map(|i| EDGES[(i * 7 + salt) % EDGES.len()])
            .collect()
    }

    /// Every bias orientation a storing tile takes, drawn from
    /// [`EDGES`].
    fn biases<'a>(row: &'a [f32; MR], col: &'a [f32; NR]) -> [TileBias<'a>; 3] {
        [TileBias::None, TileBias::Row(row), TileBias::Col(col)]
    }

    /// The bits of `v`, except that every NaN reads as one: Rust leaves
    /// the sign and payload of a NaN result unspecified (x86 keeps the
    /// first operand's, and the compiler may swap the operands of an
    /// add), so no oracle can pin them. Zeros, denormals and
    /// infinities still compare bit for bit.
    fn f32_bits(v: f32) -> u32 {
        if v.is_nan() {
            f32::NAN.to_bits()
        } else {
            v.to_bits()
        }
    }

    fn assert_bits<T: Copy + std::fmt::Debug>(
        got: &[T],
        want: &[T],
        bits: impl Fn(T) -> u32,
        what: &str,
    ) {
        for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
            assert_eq!(bits(g), bits(w), "{what}: c[{i}] = {g:?}, oracle {w:?}");
        }
    }

    /// Depths of the parity sweeps: empty, the odd tails, conv1's
    /// K = 27, and long reductions.
    const DEPTHS: [usize; 7] = [0, 1, 2, 3, 27, 72, 255];

    /// The storing f32 tile on every tier is bit-identical to its
    /// scalar oracle, and the oracle to the accumulating tile plus the
    /// element-wise write-back, with `C` and the bias seeded at the
    /// edges of IEEE. `C` is wider than the tile so the columns past
    /// it prove untouched.
    #[test]
    fn f32_storing_tile_matches_oracle_on_every_tier_at_ieee_edges() {
        let ldc = NR + 3;
        let row: [f32; MR] = edges(MR, 3).try_into().unwrap();
        let col: [f32; NR] = edges(NR, 5).try_into().unwrap();
        for kc in DEPTHS {
            let pa = pattern_f32(kc * MR, 11);
            let pb = pattern_f32(kc * NR, 12);
            let c0 = edges(MR * ldc, kc);
            for (beta, bias, relu) in [false, true]
                .into_iter()
                .flat_map(|beta| biases(&row, &col).map(|bias| (beta, bias)))
                .flat_map(|(beta, bias)| [(beta, bias, false), (beta, bias, true)])
            {
                let ep = TileEpilogue { beta, bias, relu };
                let what = format!("kc {kc} beta {beta} {bias:?} relu {relu}");
                let mut want = c0.clone();
                madd_tile_f32_into_scalar(&pa, &pb, kc, &mut want, ldc, ep);
                // The oracle is the accumulating tile from zero plus
                // the write-back, one element at a time.
                let mut acc = [[0.0f32; NR]; MR];
                madd_tile_f32(&pa, &pb, kc, &mut acc);
                let mut composed = c0.clone();
                for (r, vals) in acc.iter().enumerate() {
                    for (j, &v) in vals.iter().enumerate() {
                        let d = &mut composed[r * ldc + j];
                        let mut v = if beta { v + *d } else { v };
                        v = match bias {
                            TileBias::None => v,
                            TileBias::Row(b) => v + b[r],
                            TileBias::Col(b) => v + b[j],
                        };
                        *d = if relu { relu_ref(v) } else { v };
                    }
                }
                assert_bits(&composed, &want, f32_bits, &format!("composed, {what}"));
                let mut got = c0.clone();
                madd_tile_f32_into(&pa, &pb, kc, &mut got, ldc, ep);
                assert_bits(&got, &want, f32_bits, &format!("dispatched, {what}"));
                #[cfg(target_arch = "x86_64")]
                if std::arch::is_x86_feature_detected!("avx2") {
                    let mut got = c0.clone();
                    x86::madd_tile_f32_into_avx2(&pa, &pb, kc, &mut got, ldc, ep);
                    assert_bits(&got, &want, f32_bits, &format!("avx2, {what}"));
                }
            }
        }
    }

    /// [`relu`] written out: what `maxps(v, 0)` returns.
    fn relu_ref(v: f32) -> f32 {
        if v.is_nan() || v <= 0.0 {
            0.0
        } else {
            v
        }
    }

    #[test]
    fn relu_and_round_at_ieee_edges() {
        for v in EDGES {
            assert_eq!(relu(v).to_bits(), relu_ref(v).to_bits(), "relu({v:?})");
        }
        let cases = [
            (f32::NAN, -127),
            (-f32::NAN, -127),
            (f32::INFINITY, 127),
            (f32::NEG_INFINITY, -127),
            (-0.0, 0),
            (1e-40, 0),
            (0.5, 0),
            (-0.5, 0),
            (1.5, 2),
            (2.5, 2),
            (-3.5, -4),
            (126.5, 126),
            (-126.5, -126),
            (127.5, 127),
            (-127.5, -127),
            (1.0e6, 127),
        ];
        for (v, want) in cases {
            assert_eq!(round_to_grid(v), want, "round_to_grid({v:?})");
        }
    }

    /// A storing int8 tile with `f32` output, as a tier table entry.
    type ToF32 = fn(&[i16], &[i16], usize, &mut [f32], usize, QTileEpilogue<'_>);
    /// A storing int8 tile with int8-grid output.
    type ToI8 = fn(&[i16], &[i16], usize, &mut [i16], usize, QTileEpilogue<'_>);

    /// The storing int8 tiles, both outputs, on every tier, are
    /// bit-identical to their scalar oracles. Scale 0 makes every
    /// value its bias, so the [`EDGES`] biases put ties at ±k.5, values
    /// past ±127.5, NaN and ±Inf straight into the round; scale 0.5
    /// puts ties on every odd accumulator.
    #[test]
    fn int8_storing_tiles_match_oracle_on_every_tier_at_ieee_edges() {
        let ldc = NR + 5;
        let row: [f32; MR] = edges(MR, 1).try_into().unwrap();
        let col: [f32; NR] = edges(NR, 2).try_into().unwrap();
        for pairs in DEPTHS {
            let pa = pattern(pairs * 2 * MR, 13);
            let pb = pattern(pairs * 2 * NR, 14);
            for scale in [0.0, 0.5, -0.25, 1e-3, 1e6, f32::NAN] {
                for (bias, relu) in biases(&row, &col)
                    .into_iter()
                    .flat_map(|bias| [(bias, false), (bias, true)])
                {
                    let ep = QTileEpilogue { scale, bias, relu };
                    let what = format!("pairs {pairs} scale {scale} {bias:?} relu {relu}");
                    let f0 = edges(MR * ldc, pairs);
                    let mut want = f0.clone();
                    madd_tile_i16_into_f32_via(
                        madd_tile_scalar,
                        &pa,
                        &pb,
                        pairs,
                        &mut want,
                        ldc,
                        ep,
                    );
                    let q0 = vec![i16::MIN; MR * ldc];
                    let mut want_q = q0.clone();
                    madd_tile_i16_into_i8_via(
                        madd_tile_scalar,
                        &pa,
                        &pb,
                        pairs,
                        &mut want_q,
                        ldc,
                        ep,
                    );
                    for (q, v) in want_q.iter().zip(&want) {
                        assert!(*q == i16::MIN || *q == round_to_grid(*v), "{what}");
                    }
                    let mut tiers: Vec<(&str, ToF32, ToI8)> =
                        vec![("dispatched", madd_tile_i16_into_f32, madd_tile_i16_into_i8)];
                    #[cfg(target_arch = "x86_64")]
                    {
                        tiers.push((
                            "sse2",
                            |pa, pb, pairs, c, ldc, ep| {
                                madd_tile_i16_into_f32_via(
                                    x86::madd_tile_sse2,
                                    pa,
                                    pb,
                                    pairs,
                                    c,
                                    ldc,
                                    ep,
                                )
                            },
                            |pa, pb, pairs, c, ldc, ep| {
                                madd_tile_i16_into_i8_via(
                                    x86::madd_tile_sse2,
                                    pa,
                                    pb,
                                    pairs,
                                    c,
                                    ldc,
                                    ep,
                                )
                            },
                        ));
                        if std::arch::is_x86_feature_detected!("avx2") {
                            tiers.push((
                                "avx2",
                                x86::madd_tile_i16_into_f32_avx2,
                                x86::madd_tile_i16_into_i8_avx2,
                            ));
                        }
                    }
                    for (tier, to_f32, to_i8) in tiers {
                        let mut got = f0.clone();
                        to_f32(&pa, &pb, pairs, &mut got, ldc, ep);
                        assert_bits(&got, &want, f32_bits, &format!("{tier} f32, {what}"));
                        let mut got_q = q0.clone();
                        to_i8(&pa, &pb, pairs, &mut got_q, ldc, ep);
                        assert_bits(&got_q, &want_q, |q| q as u32, &format!("{tier} i8, {what}"));
                    }
                }
            }
        }
    }
}
