//! im2col/col2im lowering: turns convolution into matrix
//! multiplication.
//!
//! # Layout
//!
//! For one sample and one channel group, the lowering yields the column
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
//! # Lowering by table, prepared once per geometry
//!
//! `Col` itself is never built. Element `(row, column)` of `Col` is
//! read as `plane[base + offset]` from a zero-padded copy of the
//! group's input channels, `channels × (h+2p) × (w+2p)`, through two
//! tables: a base `icg·(h+2p)(w+2p) + ky·(w+2p) + kx` per row and an
//! offset `oy·s·(w+2p) + ox·s` per column. That is one indexed load for
//! every stride, every padding and every kernel that overhangs the
//! input, because the padding is read from the plane's zero margins
//! instead of being decided per element or per segment.
//!
//! None of this depends on the data or on which group is lowered, so
//! it is **prepared once** (the *Prepare* half of a Prepare/Invoke
//! split) into a plan keyed by the geometry without `ch_base`:
//! `channels, h, w, k, stride, padding, oh, ow`. A plan holds the
//! plane, both tables and, per NR-column strip, a *run class*: the
//! strip's offsets are runs of `NR`, `NR/2` or `NR/4` consecutive
//! elements (a full strip at stride 1 with `ow` = 4, 8 or a multiple
//! of 16), or the strip is gathered (a partial strip, a stride above
//! 1, any other width). Each thread keeps its last four plans, most
//! recently used first, one cache for `f32` and one for `i16`, so the
//! workers of a band-parallel forward each hold their own; a miss
//! reuses the least recently used plan's buffers.
//!
//! The plane's margins are zeroed when the plan is prepared and never
//! written again: a call (the *Invoke* half) copies only the group's
//! `h` interior rows per channel into the plane, so every margin
//! element still reads zero, whichever group or sample came before.
//!
//! Each writer walks its destination in memory order, straight in the
//! GEMM kernels' packed layouts, so a convolution has no separate pack
//! pass. A line of a strip with runs is written as fixed-width block
//! copies, one per run; any other line is a fixed-width gather of the
//! form above.
//! [`im2col_packed`] writes the f32 kernel's packed-B panels (NR-wide
//! column strips per K-slice, see [`crate::gemm::PackedB`]).
//! [`im2col_packed_i8`] writes the int8 kernel's pair-interleaved
//! panels (see [`crate::gemm::int8`]) from a pre-quantised sample,
//! filling the `[a, b]` lanes of two rows in the same pass (two rows'
//! runs interleave into `[a, b]` pairs).
//! [`im2col_packed_lhs`] writes packed-A strips for the backward pass,
//! where `Col` is the left operand; its MR-wide lines run over row
//! bases, whose runs are at most `k` long, so it always gathers. Only
//! the last, partial strip of a panel zero-fills lanes; every used
//! element is overwritten, so the output is identical, element for
//! element, to packing a plain lowering.

use std::cell::RefCell;

use crate::gemm::int8::KC8;
use crate::gemm::{KC, MR, NR};

/// Geometry of one conv lowering (per sample, per group).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

    /// The same geometry for group `g` of a layer whose groups read
    /// consecutive `channels`-wide channel ranges from channel 0.
    pub(crate) fn group(&self, g: usize) -> Self {
        Self {
            ch_base: g * self.channels,
            ..*self
        }
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

/// A thread keeps this many prepared plans per element type, most
/// recently used first. One forward of the models served here lowers
/// three geometries, whatever the width.
const PLANS: usize = 4;

// The run lengths a full strip can be copied in, besides `NR`.
const HALF: usize = NR / 2;
const QUARTER: usize = NR / 4;

/// One geometry's lowering, prepared once: element `(row, column)` of
/// the column matrix is `plane[rows[row] + cols[column]]`.
struct Plan<T> {
    /// The geometry prepared for, with `ch_base` 0: every group of a
    /// layer shares one plan.
    key: ConvGeom,
    /// `channels` planes of `(h+2p) × (w+2p)`. The margins are zeroed
    /// when the plan is prepared and never written again; each call
    /// copies its group's channels into the interiors.
    plane: Vec<T>,
    /// Per row `(icg, ky, kx)`: `icg·(h+2p)(w+2p) + ky·(w+2p) + kx`.
    rows: Vec<usize>,
    /// Per column `(oy, ox)`: `(oy·(w+2p) + ox)·s`.
    cols: Vec<usize>,
    /// Per NR-wide strip of `cols`: the length of the runs of
    /// consecutive offsets it consists of (`NR`, `NR/2` or `NR/4`), or
    /// 0 when it is gathered.
    runs: Vec<usize>,
}

/// A thread's prepared plans, most recently used first.
struct Plans<T>(Vec<Plan<T>>);

thread_local! {
    /// Plans for the f32 lowerings (forward and backward share them).
    static PLANS_F32: RefCell<Plans<f32>> = const { RefCell::new(Plans(Vec::new())) };
    /// Plans for the int8 lowering.
    static PLANS_I16: RefCell<Plans<i16>> = const { RefCell::new(Plans(Vec::new())) };
}

impl<T: Copy + Default> Plans<T> {
    /// The plan for `g`'s geometry, with the group `g` names copied in
    /// from the sample `x` (`[channels][h][w]` planes). A miss prepares
    /// the plan in the buffers of the least recently used one once all
    /// [`PLANS`] are taken, so a thread allocates only while its
    /// geometries grow.
    fn stage(&mut self, x: &[T], g: &ConvGeom) -> &Plan<T> {
        let key = ConvGeom { ch_base: 0, ..*g };
        match self.0.iter().position(|p| p.key == key) {
            Some(i) => self.0[..=i].rotate_right(1),
            None => {
                let spare = if self.0.len() == PLANS {
                    self.0.pop()
                } else {
                    None
                };
                self.0.insert(0, Plan::prepare(key, spare));
            }
        }
        let plan = &mut self.0[0];
        plan.restage(x, g);
        plan
    }
}

impl<T: Copy + Default> Plan<T> {
    /// Builds the plan for `g` (reusing `spare`'s buffers): zeroes the
    /// whole plane and fills the tables and the run classes.
    fn prepare(g: ConvGeom, spare: Option<Self>) -> Self {
        let (mut plane, mut rows, mut cols, mut runs) =
            spare.map_or_else(Default::default, |p| (p.plane, p.rows, p.cols, p.runs));
        let wp = g.w + 2 * g.padding;
        let channel = (g.h + 2 * g.padding) * wp;
        plane.clear();
        plane.resize(g.channels * channel, T::default());
        rows.clear();
        for icg in 0..g.channels {
            for ky in 0..g.k {
                for kx in 0..g.k {
                    rows.push(icg * channel + ky * wp + kx);
                }
            }
        }
        cols.clear();
        for oy in 0..g.oh {
            for ox in 0..g.ow {
                cols.push((oy * wp + ox) * g.stride);
            }
        }
        runs.clear();
        runs.extend(cols.chunks(NR).map(run_len));
        Self {
            key: g,
            plane,
            rows,
            cols,
            runs,
        }
    }

    /// Copies group `g` of `x` into the plane's interiors, row by row;
    /// the margins stay as [`Plan::prepare`] left them.
    fn restage(&mut self, x: &[T], g: &ConvGeom) {
        let (p, hw, wp) = (g.padding, g.h * g.w, g.w + 2 * g.padding);
        let channel = (g.h + 2 * p) * wp;
        let src = x[g.ch_base * hw..][..g.channels * hw].chunks_exact(hw);
        for (xc, pc) in src.zip(self.plane.chunks_exact_mut(channel)) {
            // Input row `iy` starts `p` rows and `p` columns in.
            for (row, dst) in xc.chunks_exact(g.w).zip(pc[p * wp + p..].chunks_mut(wp)) {
                dst[..g.w].copy_from_slice(row);
            }
        }
    }
}

/// The longest of `NR`, `NR/2` and `NR/4` such that the offsets of a
/// full strip are runs of that many consecutive elements, or 0 (a
/// partial strip, or a stride above 1). At stride 1 a full strip has
/// runs when `ow` is 4, 8 or a multiple of 16.
fn run_len(offs: &[usize]) -> usize {
    if offs.len() < NR {
        return 0;
    }
    [NR, HALF, QUARTER]
        .into_iter()
        .find(|&r| {
            offs.chunks(r)
                .all(|run| run.windows(2).all(|o| o[1] == o[0] + 1))
        })
        .unwrap_or(0)
}

/// `dst[l] = src[offs[l]]` for every offset, zeros in the lanes past
/// them (only a panel's last, partial strip has any). A full `W`-wide
/// line takes a fixed-width loop.
#[inline]
fn gather<T: Copy + Default, const W: usize>(dst: &mut [T], src: &[T], offs: &[usize]) {
    if let (Ok(d), Ok(o)) = (
        <&mut [T; W]>::try_from(&mut *dst),
        <&[usize; W]>::try_from(offs),
    ) {
        for (d, &o) in d.iter_mut().zip(o) {
            *d = src[o];
        }
        return;
    }
    let (head, tail) = dst.split_at_mut(offs.len());
    for (d, &o) in head.iter_mut().zip(offs) {
        *d = src[o];
    }
    tail.fill(T::default());
}

/// [`gather`] for a full line whose offsets are runs of `R`
/// consecutive elements: one block copy per run.
#[inline]
fn copy_runs<T: Copy, const R: usize>(dst: &mut [T], src: &[T], offs: &[usize]) {
    for (d, &o) in dst
        .as_chunks_mut::<R>()
        .0
        .iter_mut()
        .zip(offs.iter().step_by(R))
    {
        d.copy_from_slice(&src[o..][..R]);
    }
}

/// Writes one NR-column strip, one NR-wide line per row base in
/// `rows`, by the strip's run class `run` (chosen once per strip).
#[inline]
fn write_strip<T: Copy + Default>(
    strip: &mut [T],
    plane: &[T],
    rows: &[usize],
    offs: &[usize],
    run: usize,
) {
    let lines = strip.chunks_exact_mut(NR).zip(rows);
    match run {
        NR => lines.for_each(|(d, &r)| copy_runs::<T, NR>(d, &plane[r..], offs)),
        HALF => lines.for_each(|(d, &r)| copy_runs::<T, HALF>(d, &plane[r..], offs)),
        QUARTER => lines.for_each(|(d, &r)| copy_runs::<T, QUARTER>(d, &plane[r..], offs)),
        _ => lines.for_each(|(d, &r)| gather::<T, NR>(d, &plane[r..], offs)),
    }
}

/// [`gather`] of two rows into interleaved `[a, b]` lane pairs; a
/// missing `b` (the odd row count's last k-step) reads as zero.
#[inline]
fn gather_pair(dst: &mut [i16], a: &[i16], b: Option<&[i16]>, offs: &[usize]) {
    if let (Ok(d), Ok(o), Some(b)) = (
        <&mut [i16; 2 * NR]>::try_from(&mut *dst),
        <&[usize; NR]>::try_from(offs),
        b,
    ) {
        for (d, &o) in d.as_chunks_mut::<2>().0.iter_mut().zip(o) {
            *d = [a[o], b[o]];
        }
        return;
    }
    let (head, tail) = dst.split_at_mut(2 * offs.len());
    for (d, &o) in head.as_chunks_mut::<2>().0.iter_mut().zip(offs) {
        *d = [a[o], b.map_or(0, |b| b[o])];
    }
    tail.fill(0);
}

/// [`gather_pair`] for a full line whose offsets are runs of `R`
/// consecutive elements: each pair of runs is interleaved as a block.
#[inline]
fn copy_run_pairs<const R: usize>(dst: &mut [i16], a: &[i16], b: Option<&[i16]>, offs: &[usize]) {
    let Some(b) = b else {
        return gather_pair(dst, a, None, offs);
    };
    for (d, &o) in dst.chunks_exact_mut(2 * R).zip(offs.iter().step_by(R)) {
        let (a, b) = (&a[o..][..R], &b[o..][..R]);
        for (d, (&a, &b)) in d.as_chunks_mut::<2>().0.iter_mut().zip(a.iter().zip(b)) {
            *d = [a, b];
        }
    }
}

/// [`write_strip`] for the int8 layout: one 2·NR-wide line per pair of
/// row bases.
#[inline]
fn write_strip_pairs(strip: &mut [i16], plane: &[i16], rows: &[usize], offs: &[usize], run: usize) {
    let lines = strip.chunks_exact_mut(2 * NR).zip(rows.chunks(2));
    let pairs = lines.map(|(d, r)| (d, &plane[r[0]..], r.get(1).map(|&b| &plane[b..])));
    match run {
        NR => pairs.for_each(|(d, a, b)| copy_run_pairs::<NR>(d, a, b, offs)),
        HALF => pairs.for_each(|(d, a, b)| copy_run_pairs::<HALF>(d, a, b, offs)),
        QUARTER => pairs.for_each(|(d, a, b)| copy_run_pairs::<QUARTER>(d, a, b, offs)),
        _ => pairs.for_each(|(d, a, b)| gather_pair(d, a, b, offs)),
    }
}

/// Lowers group `g` of one sample `x` straight into the GEMM kernel's
/// packed-B panel layout: `pb` must hold at least
/// [`crate::gemm::packed_b_len`]`(g.rows(), g.cols())` elements and is
/// fully overwritten (including the zero padding), so it can be reused
/// across samples without clearing. Wrap the result in
/// [`crate::gemm::PackedBRef::new`] and multiply with
/// [`crate::gemm::gemm_with`].
pub fn im2col_packed(x: &[f32], g: &ConvGeom, pb: &mut [f32]) {
    debug_assert!(pb.len() >= crate::gemm::packed_b_len(g.rows(), g.cols()));
    PLANS_F32.with_borrow_mut(|plans| {
        let plan = plans.stage(x, g);
        let n_pad = g.cols().div_ceil(NR) * NR;
        // K-slice `s` holds rows `s·KC..`: per column strip, one NR-wide
        // line per row.
        for (slice, rows) in plan.rows.chunks(KC).enumerate() {
            let panel = &mut pb[n_pad * slice * KC..][..n_pad * rows.len()];
            let strips = panel.chunks_exact_mut(rows.len() * NR);
            for ((strip, offs), &run) in strips.zip(plan.cols.chunks(NR)).zip(&plan.runs) {
                write_strip(strip, &plan.plane, rows, offs, run);
            }
        }
    });
}

/// [`im2col_packed`] for a **pre-quantised** sample (int8-grid values
/// in `i16` storage, see `quant::quantize_slice_i16`), writing the int8
/// GEMM kernel's pair-interleaved packed-B layout: quantise once per
/// sample, then lowering and packing are pure integer copies. `qx` has
/// the same `[channels][h][w]` plane layout as the `f32` sample; `pb`
/// must hold at least [`crate::gemm::packed_b8_len`]`(g.rows(),
/// g.cols())` elements and its used region is fully overwritten
/// (padding included), so it can be reused across samples without
/// clearing. Wrap the result in [`crate::gemm::PackedB8Ref::new`] and
/// multiply with [`crate::gemm::gemm_i8`].
pub fn im2col_packed_i8(qx: &[i16], g: &ConvGeom, pb: &mut [i16]) {
    debug_assert!(pb.len() >= crate::gemm::packed_b8_len(g.rows(), g.cols()));
    PLANS_I16.with_borrow_mut(|plans| {
        let plan = plans.stage(qx, g);
        let n_pad = g.cols().div_ceil(NR) * NR;
        // As in `im2col_packed`, with KC8-deep slices padded to whole
        // k-pairs and one 2·NR-wide line per pair of rows.
        for (slice, rows) in plan.rows.chunks(KC8).enumerate() {
            let kcp = rows.len().div_ceil(2) * 2;
            let panel = &mut pb[n_pad * slice * KC8..][..n_pad * kcp];
            let strips = panel.chunks_exact_mut(kcp * NR);
            for ((strip, offs), &run) in strips.zip(plan.cols.chunks(NR)).zip(&plan.runs) {
                write_strip_pairs(strip, &plan.plane, rows, offs, run);
            }
        }
    });
}

/// The lowering written straight into the GEMM kernel's packed-A
/// layout, for products where the column matrix is the *left* operand
/// (`gWᵀ = im2col(x) · dOutᵀ` in the convolution backward pass). `pa`
/// must hold at least [`crate::gemm::packed_a_len`]`(g.rows(),
/// g.cols())` elements and is fully overwritten, padding included.
/// Wrap the result in [`crate::gemm::PackedARef::new`].
pub fn im2col_packed_lhs(x: &[f32], g: &ConvGeom, pa: &mut [f32]) {
    debug_assert!(pa.len() >= crate::gemm::packed_a_len(g.rows(), g.cols()));
    PLANS_F32.with_borrow_mut(|plans| {
        let plan = plans.stage(x, g);
        let m_pad = g.rows().div_ceil(MR) * MR;
        // K-slices run over the columns here; an MR-row strip stores one
        // MR-wide line per column.
        for (slice, offs) in plan.cols.chunks(KC).enumerate() {
            let panel = &mut pa[m_pad * slice * KC..][..m_pad * offs.len()];
            let strips = panel.chunks_exact_mut(offs.len() * MR);
            for (strip, bases) in strips.zip(plan.rows.chunks(MR)) {
                for (dst, &off) in strip.chunks_exact_mut(MR).zip(offs) {
                    gather::<_, MR>(dst, &plan.plane[off..], bases);
                }
            }
        }
    });
}

/// Adjoint of the lowering: scatter-adds the plain row-major column
/// matrix `col` (`rows · cols` elements) back into the gradient plane
/// `gx` (same layout as the input sample).
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
    use crate::gemm::{
        packed_a_len, packed_b8_len, packed_b_len, MatRef, PackedA, PackedB, PackedB8,
    };
    use crate::quant::quantize_slice_i16;
    use proptest::prelude::*;

    fn col_len(g: &ConvGeom) -> usize {
        g.rows() * g.cols()
    }

    /// The segment-wise plain lowering: each row's valid `ox` interval
    /// comes from [`ConvGeom::ox_range`], the arithmetic [`col2im_add`]
    /// scatters by, so this form (checked against [`naive_im2col`])
    /// pins that arithmetic and serves as the adjoint test's forward.
    fn im2col(x: &[f32], g: &ConvGeom, col: &mut [f32]) {
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

    fn naive_im2col(x: &[f32], g: &ConvGeom) -> Vec<f32> {
        let mut col = vec![0.0f32; col_len(g)];
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

    /// A sample for `g` with no zero values, so a misplaced padding
    /// zero cannot pass for data.
    fn sample(g: &ConvGeom) -> Vec<f32> {
        sample_at(g, 0)
    }

    /// [`sample`] shifted by `phase`, so consecutive calls of one
    /// geometry see different data.
    fn sample_at(g: &ConvGeom, phase: usize) -> Vec<f32> {
        (0..(g.ch_base + g.channels) * g.h * g.w)
            .map(|i| (i as f32 * 0.37 + 1.0 + phase as f32).sin())
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `im2col_packed` into a NaN-filled buffer equals, bit for bit,
    /// `PackedB::pack` of the naive lowering.
    fn check_packed_b(g: &ConvGeom, x: &[f32]) -> std::result::Result<(), String> {
        let expect = PackedB::pack(
            MatRef::new(&naive_im2col(x, g), g.cols()),
            g.rows(),
            g.cols(),
        );
        let mut pb = vec![f32::NAN; packed_b_len(g.rows(), g.cols())];
        im2col_packed(x, g, &mut pb);
        prop_assert!(
            bits(&pb) == bits(expect.as_slice()),
            "packed-B lowering differs: {g:?}"
        );
        Ok(())
    }

    /// `im2col_packed_i8` into a sentinel-filled buffer equals
    /// `PackedB8::pack_quantized` of the naive lowering.
    fn check_packed_b8(g: &ConvGeom, x: &[f32]) -> std::result::Result<(), String> {
        let inv = 127.0 / 0.95;
        let expect = PackedB8::pack_quantized(
            MatRef::new(&naive_im2col(x, g), g.cols()),
            g.rows(),
            g.cols(),
            inv,
        );
        let mut qx = vec![0i16; x.len()];
        quantize_slice_i16(x, inv, &mut qx);
        let mut pb = vec![i16::MIN; packed_b8_len(g.rows(), g.cols())];
        im2col_packed_i8(&qx, g, &mut pb);
        prop_assert!(
            pb == expect.as_slice(),
            "packed int8 lowering differs: {g:?}"
        );
        Ok(())
    }

    /// `im2col_packed_lhs` into a NaN-filled buffer equals, bit for
    /// bit, `PackedA::pack` of the naive lowering.
    fn check_packed_a(g: &ConvGeom, x: &[f32]) -> std::result::Result<(), String> {
        let expect = PackedA::pack(
            MatRef::new(&naive_im2col(x, g), g.cols()),
            g.rows(),
            g.cols(),
        );
        let mut pa = vec![f32::NAN; packed_a_len(g.rows(), g.cols())];
        im2col_packed_lhs(x, g, &mut pa);
        prop_assert!(
            bits(&pa) == bits(expect.as_slice()),
            "packed-A lowering differs: {g:?}"
        );
        Ok(())
    }

    /// Generated geometry: channels 1–4 from base 0–2, `h`/`w` 1–12,
    /// kernel 1–6 (overhanging the input whenever it exceeds it),
    /// stride 1–3, padding 0–3. `None` when the kernel does not fit the
    /// padded input.
    fn gen_geom() -> impl Strategy<Value = Option<ConvGeom>> {
        (
            (1usize..=4, 0usize..=2),
            1usize..=12,
            1usize..=12,
            1usize..=6,
            1usize..=3,
            0usize..=3,
        )
            .prop_map(|((ch, base), h, w, k, s, p)| {
                (k <= h + 2 * p && k <= w + 2 * p).then(|| geom(h, w, k, s, p, ch, base))
            })
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
            let mut col = vec![f32::NAN; col_len(&g)];
            im2col(&x, &g, &mut col);
            assert_eq!(col, naive_im2col(&x, &g), "geom h{h} w{w} k{k} s{s} p{p}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn packed_lowering_matches_pack_of_plain_lowering(g in gen_geom()) {
            prop_assume!(g.is_some());
            let g = g.expect("assumed");
            check_packed_b(&g, &sample(&g))?;
        }

        #[test]
        fn packed_i8_lowering_matches_quantised_pack_of_plain_lowering(g in gen_geom()) {
            prop_assume!(g.is_some());
            let g = g.expect("assumed");
            check_packed_b8(&g, &sample(&g))?;
        }

        #[test]
        fn packed_lhs_lowering_matches_pack_of_plain_lowering(g in gen_geom()) {
            prop_assume!(g.is_some());
            let g = g.expect("assumed");
            check_packed_a(&g, &sample(&g))?;
        }
    }

    /// Generated walk of one thread through the plan cache: a first
    /// geometry, its key again for another group, the same
    /// `channels/h/w` at another padding and at another stride, a
    /// stride-3 pair that differs in padding alone (the output sizes
    /// collide: `h + 2p − k3` is a multiple of 3), more distinct keys
    /// than a thread keeps plans for, then the first key again (evicted
    /// by then).
    fn gen_walk() -> impl Strategy<Value = Vec<ConvGeom>> {
        (
            (1usize..=3, 0usize..=1),
            3usize..=9,
            3usize..=20,
            1usize..=3,
            0usize..=2,
        )
            .prop_map(|((ch, base), h, w, k, p)| {
                let k3 = 3 + (h + 2 * p) % 3;
                let mut walk = vec![
                    geom(h, w, k, 1, p, ch, base),
                    geom(h, w, k, 1, p, ch, base + 1),
                    geom(h, w, k, 1, p + 1, ch, base),
                    geom(h, w, k, 2, p, ch, base),
                    geom(h, h, k3, 3, p, ch, base),
                    geom(h, h, k3, 3, p + 1, ch, base),
                ];
                walk.extend((1..=PLANS).map(|i| geom(h + i, w, k, 1, p, ch, base)));
                walk.push(geom(h, w, k, 1, p, ch, 1 - base));
                walk
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every step runs all three writers on new data, after the
        /// previous sample was overwritten with NaN: a plan must
        /// restage every channel of every call, and must never carry
        /// one geometry's margins or tables into another.
        #[test]
        fn plan_cache_walk_matches_pack_of_plain_lowering(walk in gen_walk()) {
            let mut prev: Vec<f32> = Vec::new();
            for (step, g) in walk.iter().enumerate() {
                prev.fill(f32::NAN);
                let x = sample_at(g, step);
                check_packed_b(g, &x)?;
                check_packed_b8(g, &x)?;
                check_packed_a(g, &x)?;
                prev = x;
            }
        }
    }

    /// Full stride-1 strips are copied as whole runs when `ow` is 4, 8
    /// or a multiple of 16 (and in runs of 4 or 8 where a strip spans
    /// rows of another width); any other strip is gathered. Each case
    /// also goes through all three writers.
    #[test]
    fn full_stride_one_strips_copy_whole_runs() {
        for (w, s, runs) in [
            (16, 1, &[16, 16, 16, 16][..]),
            (32, 1, &[16; 8][..]),
            (8, 1, &[8, 8][..]),
            (4, 1, &[4][..]),
            (12, 1, &[4, 8, 4][..]),
            (5, 1, &[0, 0][..]),
            (16, 2, &[0][..]),
        ] {
            let g = geom(4, w, 3, s, 1, 2, 1);
            let x = sample(&g);
            check_packed_b(&g, &x).unwrap();
            assert_eq!(
                PLANS_F32.with_borrow(|p| p.0[0].runs.clone()),
                runs,
                "w{w} s{s}"
            );
            check_packed_b8(&g, &x).unwrap();
            assert_eq!(
                PLANS_I16.with_borrow(|p| p.0[0].runs.clone()),
                runs,
                "w{w} s{s}"
            );
            check_packed_a(&g, &x).unwrap();
        }
    }

    #[test]
    fn packed_lowerings_span_a_second_k_slice() {
        // Generated sizes stay below the kernels' K-slice depths. Kernel
        // 6 × 8 channels = 288 rows > KC; kernel 12 × 8 channels = 1152
        // rows > KC8; a 17×17 stride-1 output = 289 columns > KC, the
        // packed-A lowering's K extent.
        let g = geom(9, 9, 6, 1, 2, 8, 1);
        assert!(g.rows() > KC);
        check_packed_b(&g, &sample(&g)).unwrap();
        let g = geom(12, 12, 12, 1, 2, 8, 1);
        assert!(g.rows() > KC8);
        check_packed_b8(&g, &sample(&g)).unwrap();
        let g = geom(17, 17, 3, 1, 1, 2, 0);
        assert!(g.cols() > KC);
        check_packed_a(&g, &sample(&g)).unwrap();
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), c> == <x, col2im(c)> for all x, c — the defining
        // property of the adjoint, checked on a dense basis-free probe.
        let g = geom(5, 6, 3, 2, 1, 2, 0);
        let x: Vec<f32> = (0..g.channels * g.h * g.w)
            .map(|i| (i as f32).sin())
            .collect();
        let c: Vec<f32> = (0..col_len(&g)).map(|i| (i as f32 * 0.7).cos()).collect();
        let mut col = vec![0.0f32; col_len(&g)];
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
        let col = vec![1.0f32; col_len(&g)];
        let mut gx = vec![0.5f32; g.h * g.w];
        col2im_add(&col, &g, &mut gx);
        // Centre pixels are touched by all 9 kernel offsets.
        assert_eq!(gx[4 + 1], 0.5 + 9.0);
    }
}
