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
//! # Lowering by table
//!
//! `Col` itself is never built. Each call first **stages** the group's
//! input channels once into a zero-padded plane, `channels × (h+2p) ×
//! (w+2p)` (thread-local, reused across calls), and builds two tables
//! over it: a base `icg·(h+2p)(w+2p) + ky·(w+2p) + kx` per row and an
//! offset `oy·s·(w+2p) + ox·s` per column. Element `(row, column)` of
//! `Col` is then `plane[base + offset]`: one indexed load for every
//! stride, every padding and every kernel that overhangs the input,
//! because the padding is read from the plane's zero margins instead of
//! being decided per element or per segment.
//!
//! Each writer walks its destination in memory order and fills it with
//! fixed-width gathers of that form, straight in the GEMM kernels'
//! packed layouts, so a convolution has no separate pack pass.
//! [`im2col_packed`] writes the f32 kernel's packed-B panels (NR-wide
//! column strips per K-slice, see [`crate::gemm::PackedB`]).
//! [`im2col_packed_i8`] writes the int8 kernel's pair-interleaved
//! panels (see [`crate::gemm::int8`]) from a pre-quantised sample,
//! filling the `[a, b]` lanes of two rows in the same pass.
//! [`im2col_packed_lhs`] writes packed-A strips for the backward pass,
//! where `Col` is the left operand. Only the last, partial strip of a
//! panel zero-fills lanes; every used element is overwritten, so the
//! output is identical, element for element, to packing a plain
//! lowering.

use std::cell::RefCell;

use crate::gemm::int8::KC8;
use crate::gemm::{KC, MR, NR};

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

/// The staged input of one lowering: element `(row, column)` of the
/// column matrix is `plane[rows[row] + cols[column]]`.
struct Stage<T> {
    /// The group's channels, each zero-padded to `(h+2p) × (w+2p)`.
    plane: Vec<T>,
    /// Per row `(icg, ky, kx)`: `icg·(h+2p)(w+2p) + ky·(w+2p) + kx`.
    rows: Vec<usize>,
    /// Per column `(oy, ox)`: `(oy·(w+2p) + ox)·s`.
    cols: Vec<usize>,
}

thread_local! {
    /// Staging for the f32 lowerings; grown once, then reused.
    static STAGE_F32: RefCell<Stage<f32>> = const { RefCell::new(Stage::new()) };
    /// Staging for the int8 lowering; grown once, then reused.
    static STAGE_I16: RefCell<Stage<i16>> = const { RefCell::new(Stage::new()) };
}

impl<T: Copy + Default> Stage<T> {
    const fn new() -> Self {
        Self {
            plane: Vec::new(),
            rows: Vec::new(),
            cols: Vec::new(),
        }
    }

    /// Stages group `g` of the sample `x` (`[channels][h][w]` planes)
    /// and builds both tables. Writes every plane element once.
    fn fill(&mut self, x: &[T], g: &ConvGeom) {
        let (p, hw, wp) = (g.padding, g.h * g.w, g.w + 2 * g.padding);
        let zero = T::default();
        let plane = &mut self.plane;
        plane.clear();
        for xc in x[g.ch_base * hw..][..g.channels * hw].chunks_exact(hw) {
            // Top margin, then each row between its side margins (the
            // right margin of one row runs into the left of the next),
            // then the rest of the bottom margin.
            plane.resize(plane.len() + p * wp + p, zero);
            for row in xc.chunks_exact(g.w) {
                plane.extend_from_slice(row);
                plane.resize(plane.len() + 2 * p, zero);
            }
            plane.resize(plane.len() + p * wp - p, zero);
        }
        let channel = (g.h + 2 * p) * wp;
        self.rows.clear();
        for icg in 0..g.channels {
            for ky in 0..g.k {
                for kx in 0..g.k {
                    self.rows.push(icg * channel + ky * wp + kx);
                }
            }
        }
        self.cols.clear();
        for oy in 0..g.oh {
            for ox in 0..g.ow {
                self.cols.push((oy * wp + ox) * g.stride);
            }
        }
    }
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

/// Lowers group `g` of one sample `x` straight into the GEMM kernel's
/// packed-B panel layout: `pb` must hold at least
/// [`crate::gemm::packed_b_len`]`(g.rows(), g.cols())` elements and is
/// fully overwritten (including the zero padding), so it can be reused
/// across samples without clearing. Wrap the result in
/// [`crate::gemm::PackedBRef::new`] and multiply with
/// [`crate::gemm::gemm_with`].
pub fn im2col_packed(x: &[f32], g: &ConvGeom, pb: &mut [f32]) {
    debug_assert!(pb.len() >= crate::gemm::packed_b_len(g.rows(), g.cols()));
    STAGE_F32.with_borrow_mut(|st| {
        st.fill(x, g);
        let n_pad = g.cols().div_ceil(NR) * NR;
        // K-slice `s` holds rows `s·KC..`: per column strip, one NR-wide
        // line per row.
        for (slice, rows) in st.rows.chunks(KC).enumerate() {
            let panel = &mut pb[n_pad * slice * KC..][..n_pad * rows.len()];
            let strips = panel.chunks_exact_mut(rows.len() * NR);
            for (strip, offs) in strips.zip(st.cols.chunks(NR)) {
                for (dst, &base) in strip.chunks_exact_mut(NR).zip(rows) {
                    gather::<_, NR>(dst, &st.plane[base..], offs);
                }
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
    STAGE_I16.with_borrow_mut(|st| {
        st.fill(qx, g);
        let n_pad = g.cols().div_ceil(NR) * NR;
        // As in `im2col_packed`, with KC8-deep slices padded to whole
        // k-pairs and one 2·NR-wide line per pair of rows.
        for (slice, rows) in st.rows.chunks(KC8).enumerate() {
            let kcp = rows.len().div_ceil(2) * 2;
            let panel = &mut pb[n_pad * slice * KC8..][..n_pad * kcp];
            for (strip, offs) in panel.chunks_exact_mut(kcp * NR).zip(st.cols.chunks(NR)) {
                for (dst, pair) in strip.chunks_exact_mut(2 * NR).zip(rows.chunks(2)) {
                    let b = pair.get(1).map(|&b| &st.plane[b..]);
                    gather_pair(dst, &st.plane[pair[0]..], b, offs);
                }
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
    STAGE_F32.with_borrow_mut(|st| {
        st.fill(x, g);
        let m_pad = g.rows().div_ceil(MR) * MR;
        // K-slices run over the columns here; an MR-row strip stores one
        // MR-wide line per column.
        for (slice, offs) in st.cols.chunks(KC).enumerate() {
            let panel = &mut pa[m_pad * slice * KC..][..m_pad * offs.len()];
            let strips = panel.chunks_exact_mut(offs.len() * MR);
            for (strip, bases) in strips.zip(st.rows.chunks(MR)) {
                for (dst, &off) in strip.chunks_exact_mut(MR).zip(offs) {
                    gather::<_, MR>(dst, &st.plane[off..], bases);
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
        (0..(g.ch_base + g.channels) * g.h * g.w)
            .map(|i| (i as f32 * 0.37 + 1.0).sin())
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `im2col_packed` into a NaN-filled buffer equals, bit for bit,
    /// `PackedB::pack` of the naive lowering.
    fn check_packed_b(g: &ConvGeom) -> std::result::Result<(), String> {
        let x = sample(g);
        let expect = PackedB::pack(
            MatRef::new(&naive_im2col(&x, g), g.cols()),
            g.rows(),
            g.cols(),
        );
        let mut pb = vec![f32::NAN; packed_b_len(g.rows(), g.cols())];
        im2col_packed(&x, g, &mut pb);
        prop_assert!(
            bits(&pb) == bits(expect.as_slice()),
            "packed-B lowering differs: {g:?}"
        );
        Ok(())
    }

    /// `im2col_packed_i8` into a sentinel-filled buffer equals
    /// `PackedB8::pack_quantized` of the naive lowering.
    fn check_packed_b8(g: &ConvGeom) -> std::result::Result<(), String> {
        let x = sample(g);
        let inv = 127.0 / 0.95;
        let expect = PackedB8::pack_quantized(
            MatRef::new(&naive_im2col(&x, g), g.cols()),
            g.rows(),
            g.cols(),
            inv,
        );
        let mut qx = vec![0i16; x.len()];
        quantize_slice_i16(&x, inv, &mut qx);
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
    fn check_packed_a(g: &ConvGeom) -> std::result::Result<(), String> {
        let x = sample(g);
        let expect = PackedA::pack(
            MatRef::new(&naive_im2col(&x, g), g.cols()),
            g.rows(),
            g.cols(),
        );
        let mut pa = vec![f32::NAN; packed_a_len(g.rows(), g.cols())];
        im2col_packed_lhs(&x, g, &mut pa);
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
            check_packed_b(&g.expect("assumed"))?;
        }

        #[test]
        fn packed_i8_lowering_matches_quantised_pack_of_plain_lowering(g in gen_geom()) {
            prop_assume!(g.is_some());
            check_packed_b8(&g.expect("assumed"))?;
        }

        #[test]
        fn packed_lhs_lowering_matches_pack_of_plain_lowering(g in gen_geom()) {
            prop_assume!(g.is_some());
            check_packed_a(&g.expect("assumed"))?;
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
        check_packed_b(&g).unwrap();
        let g = geom(12, 12, 12, 1, 2, 8, 1);
        assert!(g.rows() > KC8);
        check_packed_b8(&g).unwrap();
        let g = geom(17, 17, 3, 1, 1, 2, 0);
        assert!(g.cols() > KC);
        check_packed_a(&g).unwrap();
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
