//! im2col/col2im lowering: turns convolution into matrix
//! multiplication.
//!
//! # Layout
//!
//! For one sample and one channel group, [`im2col`] writes the column
//! matrix `Col` with one **row per (channel, ky, kx) weight position**
//! and one **column per output pixel**:
//!
//! ```text
//! row (icg·k + ky)·k + kx, column oy·ow + ox
//!     = x[ch_base + icg][oy·s + ky − p][ox·s + kx − p]   (0 if padded)
//!
//!            ┌───────────── oh·ow ─────────────┐
//!            │ x(c0, shifted by ky=0,kx=0) ... │
//!  icg·k·k   │ x(c0, shifted by ky=0,kx=1) ... │
//!   rows     │           ...                   │
//!            │ x(c_last, ky=k−1, kx=k−1)   ... │
//!            └─────────────────────────────────┘
//! ```
//!
//! The convolution then becomes `Out = W · Col` where `W` is the
//! layer's weight matrix (`out_channels × icg·k·k`, already stored
//! row-major in exactly that order), computed by [`crate::gemm`].
//! [`col2im_add`] is the adjoint scatter used by the backward pass.
//!
//! Rows are filled segment-wise: for each row the valid `ox` interval
//! is computed once from the padding arithmetic, the out-of-image
//! margins are zero-filled, and the in-image span is a `memcpy` for
//! stride 1 (the common case) or a short strided loop otherwise — no
//! per-element bounds branching.
//!
//! [`im2col_packed`] writes the same matrix **directly in the GEMM
//! kernel's packed-B panel layout** (NR-wide column strips per K-slice,
//! see [`crate::gemm::PackedB`]), so the convolution hot path skips the
//! kernel's separate pack pass entirely: lowering and packing become
//! one write over the data. [`im2col_packed_i8`] does the same for the
//! quantised int8 kernel's pair-interleaved panels (see
//! [`crate::gemm::int8`]), lowering a pre-quantised sample with pure
//! integer copies.

/// Geometry of one conv lowering (per sample, per group).
#[derive(Debug, Clone, Copy)]
pub struct ConvGeom {
    /// Channels read by this group.
    pub channels: usize,
    /// First input channel of the group within the sample.
    pub ch_base: usize,
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w: usize,
    /// Square kernel size.
    pub k: usize,
    /// Stride.
    pub stride: usize,
    /// Zero padding.
    pub padding: usize,
    /// Output height.
    pub oh: usize,
    /// Output width.
    pub ow: usize,
}

impl ConvGeom {
    /// Rows of the column matrix (`channels · k²`).
    pub fn rows(&self) -> usize {
        self.channels * self.k * self.k
    }

    /// Columns of the column matrix (`oh · ow`).
    pub fn cols(&self) -> usize {
        self.oh * self.ow
    }

    /// Required `col` buffer length.
    fn col_len(&self) -> usize {
        self.rows() * self.cols()
    }

    /// The valid `ox` range `[lo, hi)` for kernel column `kx`, i.e.
    /// where `0 ≤ ox·s + kx − p < w`.
    #[inline]
    fn ox_range(&self, kx: usize) -> (usize, usize) {
        let (s, p, w) = (self.stride, self.padding as isize, self.w as isize);
        let kx = kx as isize;
        // ox ≥ (p − kx) / s, rounded up.
        let lo = ((p - kx).max(0) as usize).div_ceil(s);
        // ox ≤ (w − 1 − kx + p) / s, rounded down — floor division, not
        // Rust's toward-zero `/`: the numerator is negative when the
        // kernel overhangs the whole row (kernel > w + padding).
        let hi_excl = ((w - 1 - kx + p).div_euclid(s as isize) + 1).max(0) as usize;
        (lo.min(self.ow), hi_excl.min(self.ow))
    }

    /// The input row index for output row `oy` and kernel row `ky`, or
    /// `None` when it falls in the padding.
    #[inline]
    fn iy(&self, oy: usize, ky: usize) -> Option<usize> {
        let iy = (oy * self.stride + ky) as isize - self.padding as isize;
        (iy >= 0 && iy < self.h as isize).then_some(iy as usize)
    }
}

/// Fills `col` (length `rows · cols` of the [`ConvGeom`]) from one sample's input
/// plane `x` (`≥ (ch_base + channels)·h·w` elements).
pub fn im2col(x: &[f32], g: &ConvGeom, col: &mut [f32]) {
    let (k, s, ow) = (g.k, g.stride, g.ow);
    let plane = g.h * g.w;
    let cols = g.cols();
    for icg in 0..g.channels {
        let xc = &x[(g.ch_base + icg) * plane..][..plane];
        for ky in 0..k {
            for kx in 0..k {
                let row = ((icg * k + ky) * k + kx) * cols;
                let dst = &mut col[row..][..cols];
                let (lo, hi) = g.ox_range(kx);
                for oy in 0..g.oh {
                    let seg = &mut dst[oy * ow..][..ow];
                    match g.iy(oy, ky) {
                        None => seg.fill(0.0),
                        Some(iy) => {
                            seg[..lo].fill(0.0);
                            seg[hi..].fill(0.0);
                            if lo < hi {
                                let ix0 = lo * s + kx - g.padding;
                                let src = &xc[iy * g.w..][..g.w];
                                if s == 1 {
                                    seg[lo..hi].copy_from_slice(&src[ix0..ix0 + (hi - lo)]);
                                } else {
                                    for (i, v) in seg[lo..hi].iter_mut().enumerate() {
                                        *v = src[ix0 + i * s];
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// The destination of one packed row: resolves column index `j` of
/// logical row `p` to positions inside the packed-B buffer. Columns of
/// a row sit NR apart in memory strips; walking `j` therefore jumps by
/// `strip_stride` every NR columns.
#[derive(Clone, Copy)]
struct PackedRow {
    /// Offset of column 0 of this row (strip 0).
    base: usize,
    /// Elements between consecutive strips of this row's K-slice.
    strip_stride: usize,
}

impl PackedRow {
    fn new(p: usize, k_rows: usize, n_pad: usize) -> Self {
        use crate::gemm::{KC, NR};
        let slice = p / KC;
        let kc = KC.min(k_rows - slice * KC);
        Self {
            base: n_pad * slice * KC + (p % KC) * NR,
            strip_stride: kc * NR,
        }
    }

    /// Zero-fills columns `[j0, j1)`.
    fn fill_zero(&self, pb: &mut [f32], mut j0: usize, j1: usize) {
        use crate::gemm::NR;
        while j0 < j1 {
            let off = j0 % NR;
            let take = (NR - off).min(j1 - j0);
            let at = self.base + (j0 / NR) * self.strip_stride + off;
            pb[at..at + take].fill(0.0);
            j0 += take;
        }
    }

    /// Writes `src[0], src[stride], …` into columns `[j0, j0 + len)`.
    fn copy_strided(&self, pb: &mut [f32], mut j0: usize, len: usize, src: &[f32], stride: usize) {
        use crate::gemm::NR;
        let j1 = j0 + len;
        let mut i = 0;
        while j0 < j1 {
            let off = j0 % NR;
            let take = (NR - off).min(j1 - j0);
            let at = self.base + (j0 / NR) * self.strip_stride + off;
            if stride == 1 {
                pb[at..at + take].copy_from_slice(&src[i..i + take]);
            } else {
                for (t, d) in pb[at..at + take].iter_mut().enumerate() {
                    *d = src[(i + t) * stride];
                }
            }
            i += take;
            j0 += take;
        }
    }
}

/// [`im2col`], but writing straight into the GEMM kernel's packed-B
/// panel layout: `pb` must hold at least
/// [`crate::gemm::packed_b_len`]`(g.rows(), g.cols())` elements and is
/// fully overwritten (including the zero padding), so it can be reused
/// across samples without clearing. Wrap the result in
/// [`crate::gemm::PackedBRef::new`] and multiply with
/// [`crate::gemm::gemm_with`].
pub fn im2col_packed(x: &[f32], g: &ConvGeom, pb: &mut [f32]) {
    use crate::gemm::{packed_b_len, NR};
    let (k, s, ow) = (g.k, g.stride, g.ow);
    let plane = g.h * g.w;
    let n = g.cols();
    let k_rows = g.rows();
    let n_pad = n.div_ceil(NR) * NR;
    debug_assert!(pb.len() >= packed_b_len(k_rows, n));
    for icg in 0..g.channels {
        let xc = &x[(g.ch_base + icg) * plane..][..plane];
        for ky in 0..k {
            for kx in 0..k {
                let p = (icg * k + ky) * k + kx;
                let row = PackedRow::new(p, k_rows, n_pad);
                let (lo, hi) = g.ox_range(kx);
                for oy in 0..g.oh {
                    let j0 = oy * ow;
                    match g.iy(oy, ky) {
                        None => row.fill_zero(pb, j0, j0 + ow),
                        Some(iy) => {
                            row.fill_zero(pb, j0, j0 + lo);
                            row.fill_zero(pb, j0 + hi, j0 + ow);
                            if lo < hi {
                                let ix0 = lo * s + kx - g.padding;
                                let src = &xc[iy * g.w + ix0..];
                                row.copy_strided(pb, j0 + lo, hi - lo, src, s);
                            }
                        }
                    }
                }
                // Padding columns n..n_pad must be zero, matching what
                // the kernel's own pack step would have produced.
                row.fill_zero(pb, n, n_pad);
            }
        }
    }
}

/// [`im2col`] over a pre-quantised `i16` sample: identical semantics
/// (zero margins, `memcpy` spans), writing the plain `rows × cols`
/// row-major column matrix. `staging` must hold `w + 2·padding`
/// elements; its contents are ignored on entry.
///
/// Stride 1 (every convolution in this crate) takes a staging-row fast
/// path: the input row is copied once into the zero-padded staging
/// buffer, after which the segment for kernel column `kx` is the plain
/// window `staging[kx..kx + ow]` — no per-segment range arithmetic, no
/// boundary fills, one unconditional `memcpy` per `(ky, kx, oy)`.
fn im2col_i16(qx: &[i16], g: &ConvGeom, col: &mut [i16], staging: &mut [i16]) {
    let (k, s, ow) = (g.k, g.stride, g.ow);
    let plane = g.h * g.w;
    let cols = g.cols();
    if s == 1 && ow + k <= g.w + 2 * g.padding + 1 {
        // ow + k − 1 == w + 2p exactly (stride-1 output arithmetic);
        // the guard documents the staging window invariant.
        let p = g.padding;
        // The padding margins of the staging row are the zeros every
        // window copy reads; one tiny fill per call keeps them correct
        // whatever a previous (differently-sized) call left behind.
        staging.fill(0);
        for icg in 0..g.channels {
            let xc = &qx[(g.ch_base + icg) * plane..][..plane];
            let band = icg * k * k;
            for ky in 0..k {
                for oy in 0..g.oh {
                    match g.iy(oy, ky) {
                        None => {
                            for kx in 0..k {
                                col[((band + ky * k) + kx) * cols + oy * ow..][..ow].fill(0);
                            }
                        }
                        Some(iy) => {
                            staging[p..p + g.w].copy_from_slice(&xc[iy * g.w..][..g.w]);
                            for kx in 0..k {
                                col[((band + ky * k) + kx) * cols + oy * ow..][..ow]
                                    .copy_from_slice(&staging[kx..kx + ow]);
                            }
                        }
                    }
                }
            }
        }
        return;
    }
    for icg in 0..g.channels {
        let xc = &qx[(g.ch_base + icg) * plane..][..plane];
        for ky in 0..k {
            for kx in 0..k {
                let row = ((icg * k + ky) * k + kx) * cols;
                let dst = &mut col[row..][..cols];
                let (lo, hi) = g.ox_range(kx);
                for oy in 0..g.oh {
                    let seg = &mut dst[oy * ow..][..ow];
                    match g.iy(oy, ky) {
                        None => seg.fill(0),
                        Some(iy) => {
                            seg[..lo].fill(0);
                            seg[hi..].fill(0);
                            if lo < hi {
                                let ix0 = lo * s + kx - g.padding;
                                let src = &xc[iy * g.w..][..g.w];
                                for (i, v) in seg[lo..hi].iter_mut().enumerate() {
                                    *v = src[ix0 + i * s];
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Packs a plain `k_rows × n` row-major `i16` column matrix into the
/// int8 kernel's pair-interleaved packed-B panel layout (layout of
/// [`crate::gemm::PackedB8`]): for each NR-wide strip and k-pair, the
/// two rows' segments interleave element-wise — a fixed-width loop the
/// compiler lowers to `punpcklwd`/`punpckhwd`-class shuffles, instead
/// of the one-lane-at-a-time scatter a direct pair-interleaved
/// lowering would need. Every element of the used region is written
/// (column padding, pair padding and the odd-tail k-step included).
fn pack_b8_rows(col: &[i16], k_rows: usize, n: usize, pb: &mut [i16]) {
    use crate::gemm::int8::KC8;
    use crate::gemm::NR;
    let n_pad = n.div_ceil(NR) * NR;
    let strips = n.div_ceil(NR);
    let mut pc = 0;
    while pc < k_rows {
        let kc = KC8.min(k_rows - pc);
        let kcp = kc + (kc & 1);
        let slice_base = n_pad * pc;
        for strip in 0..strips {
            let j0 = strip * NR;
            let width = NR.min(n - j0);
            let sbase = slice_base + strip * kcp * NR;
            for q in 0..kcp / 2 {
                let p0 = pc + 2 * q;
                let dst = &mut pb[sbase + q * 2 * NR..][..2 * NR];
                let a = &col[p0 * n + j0..][..width];
                if 2 * q + 1 < kc {
                    let b = &col[(p0 + 1) * n + j0..][..width];
                    if width == NR {
                        // Full-strip fast path: fixed trip count, pure
                        // interleave — vectorises.
                        for c in 0..NR {
                            dst[2 * c] = a[c];
                            dst[2 * c + 1] = b[c];
                        }
                    } else {
                        for c in 0..width {
                            dst[2 * c] = a[c];
                            dst[2 * c + 1] = b[c];
                        }
                        dst[2 * width..].fill(0);
                    }
                } else {
                    // Odd tail k-step: the pair partner is zero pad.
                    for c in 0..width {
                        dst[2 * c] = a[c];
                        dst[2 * c + 1] = 0;
                    }
                    dst[2 * width..].fill(0);
                }
            }
        }
        pc += kc;
    }
}

thread_local! {
    /// Reusable plain column matrix for the two-pass int8 lowering;
    /// grown once, then reused.
    static COL_I16: std::cell::RefCell<Vec<i16>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// [`im2col`], but lowering a **pre-quantised** sample (int8-grid
/// values in `i16` storage, see `quant::quantize_slice_i16`) into the
/// int8 GEMM kernel's pair-interleaved packed-B layout: quantise once
/// per sample, then lowering and packing are pure integer copies. `qx`
/// has the same `[channels][h][w]` plane layout as the `f32` sample;
/// `pb` must hold at least
/// [`crate::gemm::packed_b8_len`]`(g.rows(), g.cols())` elements and
/// its used region is fully overwritten (padding included), so it can
/// be reused across samples without clearing. Wrap the result in
/// [`crate::gemm::PackedB8Ref::new`] and multiply with
/// [`crate::gemm::gemm_i8`].
///
/// Runs in two passes over a reusable thread-local buffer — a plain
/// contiguous [`im2col`] (`memcpy` spans) followed by a vectorisable
/// pair-interleave pack (`pack_b8_rows`). Measured ~2× faster than
/// the previous single-pass form, whose lane-strided writes (every
/// other `i16`) compiled to one-element scatter stores and dominated
/// the whole batch-1 quantised forward at small widths.
pub fn im2col_packed_i8(qx: &[i16], g: &ConvGeom, pb: &mut [i16]) {
    use crate::gemm::packed_b8_len;
    debug_assert!(pb.len() >= packed_b8_len(g.rows(), g.cols()));
    let staging_len = g.w + 2 * g.padding;
    COL_I16.with(|cell| {
        let mut col = cell.take();
        let need = g.col_len() + staging_len;
        if col.len() < need {
            // Staging must be zeroed; the column region gets fully
            // overwritten, so only growth needs the explicit zeros.
            col.resize(need, 0);
        }
        let split = col.len() - staging_len;
        let (col_mat, staging) = col.split_at_mut(split);
        im2col_i16(qx, g, col_mat, staging);
        pack_b8_rows(col_mat, g.rows(), g.cols(), pb);
        cell.replace(col);
    });
}

/// The destination of one row of the column matrix in **packed-A**
/// layout (MR-tall row strips per K-slice, see
/// [`crate::gemm::PackedA`]): the backward pass multiplies
/// `im2col(x) · dOutᵀ`, where the column matrix is the *left* operand,
/// so its rows interleave MR-wise instead of its columns.
#[derive(Clone, Copy)]
struct PackedLhsRow {
    /// `i / MR` — which MR-tall strip holds this row.
    strip: usize,
    /// `i % MR` — lane within the strip.
    lane: usize,
    /// Rows of the logical matrix, padded to a multiple of MR.
    m_pad: usize,
    /// Total K extent (columns of the logical matrix).
    total_k: usize,
}

impl PackedLhsRow {
    fn new(i: usize, m: usize, total_k: usize) -> Self {
        use crate::gemm::MR;
        Self {
            strip: i / MR,
            lane: i % MR,
            m_pad: m.div_ceil(MR) * MR,
            total_k,
        }
    }

    /// Runs `write(addr, idx)` for every column `j0 + idx` in
    /// `[j0, j1)`, resolving the packed address slice by slice.
    #[inline]
    fn for_each(&self, mut j: usize, j1: usize, mut write: impl FnMut(usize, usize)) {
        use crate::gemm::{KC, MR};
        let j0 = j;
        while j < j1 {
            let slice = j / KC;
            let kc = KC.min(self.total_k - slice * KC);
            let slice_end = (slice * KC + kc).min(j1);
            let mut addr =
                self.m_pad * slice * KC + self.strip * kc * MR + (j % KC) * MR + self.lane;
            while j < slice_end {
                write(addr, j - j0);
                addr += MR;
                j += 1;
            }
        }
    }

    fn fill_zero(&self, pa: &mut [f32], j0: usize, j1: usize) {
        self.for_each(j0, j1, |addr, _| pa[addr] = 0.0);
    }

    fn copy_strided(&self, pa: &mut [f32], j0: usize, len: usize, src: &[f32], stride: usize) {
        self.for_each(j0, j0 + len, |addr, idx| pa[addr] = src[idx * stride]);
    }
}

/// [`im2col`], but writing straight into the GEMM kernel's packed-A
/// layout, for products where the column matrix is the *left* operand
/// (`gWᵀ = im2col(x) · dOutᵀ` in the convolution backward pass). `pa`
/// must hold at least [`crate::gemm::packed_a_len`]`(g.rows(),
/// g.cols())` elements and is fully overwritten, padding included.
/// Wrap the result in [`crate::gemm::PackedARef::new`].
pub fn im2col_packed_lhs(x: &[f32], g: &ConvGeom, pa: &mut [f32]) {
    use crate::gemm::{packed_a_len, MR};
    let (k, s, ow) = (g.k, g.stride, g.ow);
    let plane = g.h * g.w;
    let n = g.cols();
    let m = g.rows();
    debug_assert!(pa.len() >= packed_a_len(m, n));
    for icg in 0..g.channels {
        let xc = &x[(g.ch_base + icg) * plane..][..plane];
        for ky in 0..k {
            for kx in 0..k {
                let i = (icg * k + ky) * k + kx;
                let row = PackedLhsRow::new(i, m, n);
                let (lo, hi) = g.ox_range(kx);
                for oy in 0..g.oh {
                    let j0 = oy * ow;
                    match g.iy(oy, ky) {
                        None => row.fill_zero(pa, j0, j0 + ow),
                        Some(iy) => {
                            row.fill_zero(pa, j0, j0 + lo);
                            row.fill_zero(pa, j0 + hi, j0 + ow);
                            if lo < hi {
                                let ix0 = lo * s + kx - g.padding;
                                let src = &xc[iy * g.w + ix0..];
                                row.copy_strided(pa, j0 + lo, hi - lo, src, s);
                            }
                        }
                    }
                }
            }
        }
    }
    // Lane padding: rows m..m_pad of the last strip must be zero.
    let m_pad = m.div_ceil(MR) * MR;
    for i in m..m_pad {
        PackedLhsRow::new(i, m, n).fill_zero(pa, 0, n);
    }
}

/// Adjoint of [`im2col`]: scatter-adds `col` back into the gradient
/// plane `gx` (same layout as the input sample).
pub fn col2im_add(col: &[f32], g: &ConvGeom, gx: &mut [f32]) {
    let (k, s, ow) = (g.k, g.stride, g.ow);
    let plane = g.h * g.w;
    let cols = g.cols();
    for icg in 0..g.channels {
        let gc = &mut gx[(g.ch_base + icg) * plane..][..plane];
        for ky in 0..k {
            for kx in 0..k {
                let row = ((icg * k + ky) * k + kx) * cols;
                let src_row = &col[row..][..cols];
                let (lo, hi) = g.ox_range(kx);
                if lo >= hi {
                    continue;
                }
                for oy in 0..g.oh {
                    let Some(iy) = g.iy(oy, ky) else { continue };
                    let seg = &src_row[oy * ow..][..ow];
                    let ix0 = lo * s + kx - g.padding;
                    let dst = &mut gc[iy * g.w..][..g.w];
                    if s == 1 {
                        for (d, &v) in dst[ix0..ix0 + (hi - lo)].iter_mut().zip(&seg[lo..hi]) {
                            *d += v;
                        }
                    } else {
                        for (i, &v) in seg[lo..hi].iter().enumerate() {
                            dst[ix0 + i * s] += v;
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_im2col(x: &[f32], g: &ConvGeom) -> Vec<f32> {
        let mut col = vec![0.0f32; g.col_len()];
        let cols = g.cols();
        for icg in 0..g.channels {
            for ky in 0..g.k {
                for kx in 0..g.k {
                    for oy in 0..g.oh {
                        for ox in 0..g.ow {
                            let iy = (oy * g.stride + ky) as isize - g.padding as isize;
                            let ix = (ox * g.stride + kx) as isize - g.padding as isize;
                            let v = if iy >= 0
                                && (iy as usize) < g.h
                                && ix >= 0
                                && (ix as usize) < g.w
                            {
                                x[(g.ch_base + icg) * g.h * g.w + iy as usize * g.w + ix as usize]
                            } else {
                                0.0
                            };
                            col[((icg * g.k + ky) * g.k + kx) * cols + oy * g.ow + ox] = v;
                        }
                    }
                }
            }
        }
        col
    }

    fn geom(h: usize, w: usize, k: usize, s: usize, p: usize, ch: usize, base: usize) -> ConvGeom {
        ConvGeom {
            channels: ch,
            ch_base: base,
            h,
            w,
            k,
            stride: s,
            padding: p,
            oh: (h + 2 * p - k) / s + 1,
            ow: (w + 2 * p - k) / s + 1,
        }
    }

    #[test]
    fn matches_naive_lowering() {
        for &(h, w, k, s, p) in &[
            (5, 5, 3, 1, 1),
            (5, 7, 3, 2, 1),
            (4, 4, 1, 1, 0),
            (6, 6, 3, 1, 0),
            (8, 5, 2, 2, 0),
            (3, 3, 3, 1, 2),
            // Kernel overhangs the whole input row (regression: the
            // valid-ox interval must be empty, not [0, 1)).
            (2, 2, 4, 2, 1),
            (3, 3, 5, 2, 1),
        ] {
            let g = geom(h, w, k, s, p, 2, 1);
            let x: Vec<f32> = (0..(g.ch_base + g.channels) * h * w)
                .map(|i| i as f32 * 0.25 - 3.0)
                .collect();
            let mut col = vec![f32::NAN; g.col_len()];
            im2col(&x, &g, &mut col);
            assert_eq!(col, naive_im2col(&x, &g), "geom h{h} w{w} k{k} s{s} p{p}");
        }
    }

    #[test]
    fn packed_lowering_matches_pack_of_plain_lowering() {
        use crate::gemm::{packed_b_len, MatRef, PackedB};
        // Geometries cover: unaligned column counts (ow not a multiple
        // of NR), strides, padding, kernels overhanging the row, and a
        // row count above KC (kernel 6 × 8 channels = 288 rows > 256),
        // which forces a second K-slice in the packed layout.
        for &(h, w, k, s, p, ch) in &[
            (5usize, 5usize, 3usize, 1usize, 1usize, 2usize),
            (5, 7, 3, 2, 1, 2),
            (4, 4, 1, 1, 0, 3),
            (8, 5, 2, 2, 0, 2),
            (2, 2, 4, 2, 1, 1),
            (9, 9, 6, 1, 2, 8),
        ] {
            let g = geom(h, w, k, s, p, ch, 1);
            let x: Vec<f32> = (0..(g.ch_base + g.channels) * h * w)
                .map(|i| (i as f32 * 0.37).sin())
                .collect();
            let mut col = vec![0.0f32; g.col_len()];
            im2col(&x, &g, &mut col);
            let expect = PackedB::pack(MatRef::new(&col, g.cols()), g.rows(), g.cols());
            // Poison the destination: the packed writer must overwrite
            // everything, padding included.
            let mut pb = vec![f32::NAN; packed_b_len(g.rows(), g.cols())];
            im2col_packed(&x, &g, &mut pb);
            let mut probe = vec![0.0f32; g.rows() * g.cols()];
            let mut probe2 = vec![0.0f32; g.rows() * g.cols()];
            // Compare through the GEMM (identity A would do, but a
            // random A exercises every panel): bit-equality required.
            let a: Vec<f32> = (0..3 * g.rows()).map(|i| (i as f32 * 0.11).cos()).collect();
            crate::gemm::gemm_with(
                3,
                g.cols(),
                g.rows(),
                crate::gemm::Lhs::Mat(MatRef::new(&a, g.rows())),
                crate::gemm::Rhs::Packed(expect.as_ref()),
                0.0,
                &mut probe,
                g.cols(),
                false,
                crate::gemm::Epilogue::none(),
            );
            crate::gemm::gemm_with(
                3,
                g.cols(),
                g.rows(),
                crate::gemm::Lhs::Mat(MatRef::new(&a, g.rows())),
                crate::gemm::Rhs::Packed(crate::gemm::PackedBRef::new(&pb, g.rows(), g.cols())),
                0.0,
                &mut probe2,
                g.cols(),
                false,
                crate::gemm::Epilogue::none(),
            );
            assert!(
                probe
                    .iter()
                    .zip(&probe2)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "geom h{h} w{w} k{k} s{s} p{p} ch{ch}: packed lowering differs"
            );
        }
    }

    #[test]
    fn packed_i8_lowering_matches_quantised_pack_of_plain_lowering() {
        use crate::gemm::int8::QEpilogue;
        use crate::gemm::{gemm_i8, packed_b8_len, MatRef, PackedA8, PackedB8, PackedB8Ref};
        use crate::quant::quantize_slice_i16;
        // Same geometry classes as the f32 packed test: unaligned
        // column counts, strides, padding, overhanging kernels, odd
        // row counts (pair padding) — plus one geometry whose row
        // count exceeds the int8 kernel's own (deeper) K-slice,
        // pinning the KC8-based pair-interleaved slice addressing.
        for &(h, w, k, s, p, ch) in &[
            (5usize, 5usize, 3usize, 1usize, 1usize, 2usize),
            (5, 7, 3, 2, 1, 2),
            (4, 4, 1, 1, 0, 3),
            (8, 5, 2, 2, 0, 2),
            (2, 2, 4, 2, 1, 1),
            (9, 9, 6, 1, 2, 8),
            // Pointwise conv, 2 channels on 4x4: an even row count
            // with cols an exact multiple of NR, so the odd row's last
            // span ends flush at the final strip boundary (regression:
            // the pair-lane slice used to overrun the buffer by one).
            (4, 4, 1, 1, 0, 2),
            // 3 channels x 3^2 kernel = 27 rows: odd, so the layout
            // carries a zero pad k-step.
            (6, 6, 3, 1, 1, 3),
            // 8 channels x 12^2 kernel = 1152 rows > KC8: forces a
            // second int8 K-slice in the packed layout.
            (12, 12, 12, 1, 2, 8),
        ] {
            let g = geom(h, w, k, s, p, ch, 1);
            let x: Vec<f32> = (0..(g.ch_base + g.channels) * h * w)
                .map(|i| (i as f32 * 0.37).sin())
                .collect();
            let inv = 127.0 / 0.95;
            let mut col = vec![0.0f32; g.col_len()];
            im2col(&x, &g, &mut col);
            let expect =
                PackedB8::pack_quantized(MatRef::new(&col, g.cols()), g.rows(), g.cols(), inv);
            // Quantise the sample once, then lower; poison the
            // destination: the writer must overwrite everything,
            // padding included.
            let mut qx = vec![0i16; x.len()];
            quantize_slice_i16(&x, inv, &mut qx);
            let mut pb = vec![i16::MIN; packed_b8_len(g.rows(), g.cols())];
            im2col_packed_i8(&qx, &g, &mut pb);
            // Compare through the int8 GEMM (a random quantised A
            // exercises every panel): bit-equality required.
            let a: Vec<f32> = (0..3 * g.rows()).map(|i| (i as f32 * 0.11).cos()).collect();
            let pa = PackedA8::pack_quantized(MatRef::new(&a, g.rows()), 3, g.rows(), 127.0);
            let mut probe = vec![0.0f32; 3 * g.cols()];
            let mut probe2 = vec![0.0f32; 3 * g.cols()];
            let ep = QEpilogue::scaled(1.0);
            gemm_i8(
                3,
                g.cols(),
                g.rows(),
                pa.as_ref(),
                expect.as_ref(),
                &mut probe,
                g.cols(),
                false,
                ep,
            );
            gemm_i8(
                3,
                g.cols(),
                g.rows(),
                pa.as_ref(),
                PackedB8Ref::new(&pb, g.rows(), g.cols()),
                &mut probe2,
                g.cols(),
                false,
                ep,
            );
            assert!(
                probe
                    .iter()
                    .zip(&probe2)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "geom h{h} w{w} k{k} s{s} p{p} ch{ch}: packed int8 lowering differs"
            );
        }
    }

    #[test]
    fn packed_lhs_lowering_matches_pack_of_plain_lowering() {
        use crate::gemm::{packed_a_len, Epilogue, Lhs, MatRef, PackedA, PackedARef, Rhs};
        // Same geometry sweep as the packed-B test; the kernel-6 case
        // again pushes the row count past one K-slice worth of columns
        // is impossible here (K = output positions), so a 17×17 input
        // with stride 1 drives cols() past KC instead.
        for &(h, w, k, s, p, ch) in &[
            (5usize, 5usize, 3usize, 1usize, 1usize, 2usize),
            (5, 7, 3, 2, 1, 2),
            (4, 4, 1, 1, 0, 3),
            (8, 5, 2, 2, 0, 2),
            (2, 2, 4, 2, 1, 1),
            (17, 17, 3, 1, 1, 2),
        ] {
            let g = geom(h, w, k, s, p, ch, 0);
            let x: Vec<f32> = (0..g.channels * h * w)
                .map(|i| (i as f32 * 0.29).sin())
                .collect();
            let mut col = vec![0.0f32; g.col_len()];
            im2col(&x, &g, &mut col);
            let expect = PackedA::pack(MatRef::new(&col, g.cols()), g.rows(), g.cols());
            let mut pa = vec![f32::NAN; packed_a_len(g.rows(), g.cols())];
            im2col_packed_lhs(&x, &g, &mut pa);
            // Compare through the GEMM: bit-equality required.
            let b: Vec<f32> = (0..g.cols() * 3).map(|i| (i as f32 * 0.13).cos()).collect();
            let mut probe = vec![0.0f32; g.rows() * 3];
            let mut probe2 = vec![0.0f32; g.rows() * 3];
            crate::gemm::gemm_with(
                g.rows(),
                3,
                g.cols(),
                Lhs::Packed(expect.as_ref()),
                Rhs::Mat(MatRef::new(&b, 3)),
                0.0,
                &mut probe,
                3,
                false,
                Epilogue::none(),
            );
            crate::gemm::gemm_with(
                g.rows(),
                3,
                g.cols(),
                Lhs::Packed(PackedARef::new(&pa, g.rows(), g.cols())),
                Rhs::Mat(MatRef::new(&b, 3)),
                0.0,
                &mut probe2,
                3,
                false,
                Epilogue::none(),
            );
            assert!(
                probe
                    .iter()
                    .zip(&probe2)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "geom h{h} w{w} k{k} s{s} p{p} ch{ch}: packed-A lowering differs"
            );
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), c> == <x, col2im(c)> for all x, c — the defining
        // property of the adjoint, checked on a dense basis-free probe.
        let g = geom(5, 6, 3, 2, 1, 2, 0);
        let x: Vec<f32> = (0..g.channels * g.h * g.w)
            .map(|i| (i as f32).sin())
            .collect();
        let c: Vec<f32> = (0..g.col_len()).map(|i| (i as f32 * 0.7).cos()).collect();
        let mut col = vec![0.0f32; g.col_len()];
        im2col(&x, &g, &mut col);
        let lhs: f64 = col
            .iter()
            .zip(&c)
            .map(|(&a, &b)| f64::from(a) * f64::from(b))
            .sum();
        let mut gx = vec![0.0f32; x.len()];
        col2im_add(&c, &g, &mut gx);
        let rhs: f64 = x
            .iter()
            .zip(&gx)
            .map(|(&a, &b)| f64::from(a) * f64::from(b))
            .sum();
        assert!((lhs - rhs).abs() < 1e-3, "adjoint mismatch: {lhs} vs {rhs}");
    }

    #[test]
    fn col2im_accumulates() {
        let g = geom(4, 4, 3, 1, 1, 1, 0);
        let col = vec![1.0f32; g.col_len()];
        let mut gx = vec![0.5f32; g.h * g.w];
        col2im_add(&col, &g, &mut gx);
        // Centre pixels are touched by all 9 kernel offsets.
        assert_eq!(gx[4 + 1], 0.5 + 9.0);
    }
}
