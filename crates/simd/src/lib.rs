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
//!   multiply/add sequence 8 lanes at a time.
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
//! The AVX2 tiers are bit-identical to their scalar oracles: the int8
//! kernel is exact integer arithmetic, and the f32 kernel deliberately
//! issues separate `vmulps`/`vaddps` (not FMA, which would contract
//! the rounding) in the scalar kernel's exact per-element operation
//! order, so selecting a tier never changes results.
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
    #![allow(unsafe_code)]

    use super::{MR, NR};
    use core::arch::x86_64::{
        __m128i, __m256, __m256i, _mm256_add_epi32, _mm256_add_ps, _mm256_loadu_ps,
        _mm256_loadu_si256, _mm256_madd_epi16, _mm256_mul_ps, _mm256_set1_epi32, _mm256_set1_ps,
        _mm256_setzero_ps, _mm256_setzero_si256, _mm256_storeu_ps, _mm256_storeu_si256,
        _mm_add_epi32, _mm_loadu_si128, _mm_madd_epi16, _mm_setzero_si128, _mm_shuffle_epi32,
        _mm_storeu_si128,
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

    /// # Safety
    ///
    /// Requires AVX2 at runtime. The intrinsic calls inside are safe
    /// under the enclosing `target_feature`; the unaligned loads and
    /// stores read/write exactly the bytes their in-bounds subslices
    /// prove are in range.
    #[target_feature(enable = "avx2")]
    unsafe fn madd_tile_i16_avx2_impl(
        pa: &[i16],
        pb: &[i16],
        pairs: usize,
        acc: &mut [[i32; NR]; MR],
    ) {
        // Two i32x8 accumulator vectors per row (8 ymm total).
        let mut c: [[__m256i; 2]; MR] = [[_mm256_setzero_si256(); 2]; MR];
        for q in 0..pairs {
            let ap: &[i16] = &pa[q * 2 * MR..][..2 * MR];
            let bp: &[i16] = &pb[q * 2 * NR..][..2 * NR];
            // Each load covers an in-bounds 16-element `i16` subslice
            // (32 bytes exactly).
            let b0 = _mm256_loadu_si256(bp[0..16].as_ptr().cast());
            let b1 = _mm256_loadu_si256(bp[16..32].as_ptr().cast());
            for r in 0..MR {
                // Row r's (even, odd) i16 pair packed into one i32
                // lane, broadcast against every column pair.
                let pair = (ap[2 * r] as u16 as u32 | (ap[2 * r + 1] as u16 as u32) << 16) as i32;
                let ar = _mm256_set1_epi32(pair);
                c[r][0] = _mm256_add_epi32(c[r][0], _mm256_madd_epi16(ar, b0));
                c[r][1] = _mm256_add_epi32(c[r][1], _mm256_madd_epi16(ar, b1));
            }
        }
        for (row, vecs) in acc.iter_mut().zip(&c) {
            for (seg, v) in row.chunks_exact_mut(8).zip(vecs) {
                let mut out = [0i32; 8];
                // Writes 32 bytes into `out`, a local `[i32; 8]`.
                _mm256_storeu_si256(out.as_mut_ptr().cast(), *v);
                for (d, &x) in seg.iter_mut().zip(&out) {
                    *d += x;
                }
            }
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
        let mut q = 0;
        // Paired k-steps, then an odd tail — the scalar kernel's
        // structure, so the add sequence per lane is identical.
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
        for (row, vecs) in acc.iter_mut().zip(&c) {
            _mm256_storeu_ps(row[0..8].as_mut_ptr(), vecs[0]);
            _mm256_storeu_ps(row[8..16].as_mut_ptr(), vecs[1]);
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
}
