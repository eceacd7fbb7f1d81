//! Cache-blocked, register-tiled `f32` matrix multiplication — the
//! shared compute kernel behind [`crate::conv::Conv2d`] and
//! [`crate::linear::Linear`] at [`crate::quant::Precision::F32`]. The
//! quantised sibling behind [`crate::quant::Precision::Int8`] lives in [`int8`]
//! (same blocked structure, `i8`-grid operands, exact `i32`
//! accumulation, fused requantisation).
//!
//! # Layout
//!
//! All matrices are row-major slices with an explicit leading dimension
//! (`ld` = elements between consecutive rows), so sub-matrices and
//! transposed views cost nothing: a [`MatRef`] with [`Trans::T`] reads
//! `A[i][p]` from `data[p * ld + i]`, and transposition is absorbed by
//! the packing step below rather than strided inner loops.
//!
//! # Blocking
//!
//! The kernel follows the classic three-level GEMM structure
//! (Goto/BLIS; the same shape TFLite Micro's optimised kernels use):
//!
//! ```text
//!        N                 pack plain A, B whole       ┌── packed B: per K-slice
//!   ┌─────────┐            for pc in K step KC:        │   a KC × N panel of
//!   │    B    │ K            for ic in M step MC:      │   NR-wide column strips
//!   └─────────┘                for each MR×NR tile:    ├── packed A: per K-slice
//! M ┌──┐┌─────────┐              register tile → C     │   MR-tall row strips,
//!   │A ││    C    │                                    │   read MC rows a block
//!   └──┘└─────────┘                                    └── both zero-padded
//! ```
//!
//! Blocking parameters: `MR×NR = 4×16` register tile (8 accumulator
//! vectors of 8 `f32` on AVX2-class hardware), `MC = 64` rows,
//! `KC = 256` — an A block of 64 KiB and a B panel that stays resident
//! in L1/L2 for the matrix sizes this crate meets. Panels are padded to
//! multiples of `MR`/`NR` with zeros so the register tile has no edge
//! cases. A full tile runs through [`eml_simd::madd_tile_f32_into`]:
//! it accumulates from zero in registers and writes its 4×16 result
//! straight into `C`. An edge tile (fewer than `MR` rows or `NR`
//! columns of `C` left) runs [`eml_simd::madd_tile_f32`] into a local
//! tile, and its write-back masks the padding. Both kernels dispatch at
//! runtime: an AVX2 tier where the CPU has it (the baseline x86-64
//! target only auto-vectorises 4-wide) and the original safe scalar
//! formulation as fallback and oracle. Every tier issues the identical
//! multiply/add sequence, so tier selection never changes results.
//!
//! A product with fewer than `MR` rows of a plain A against a packed B
//! (the batch-1 classifier, and its backward at batch < 4) skips the
//! tiles: the row kernel runs each row as 1×`NR` strips, so it does
//! not multiply the zero rows a padded A strip would carry. It keeps
//! the tiles' per-output order (a sequential sum per K-slice, added to
//! `C` slice by slice) and is bit-identical to them.
//!
//! # Packed operands
//!
//! The blocked loop reads packed operands only. This is TFLite Micro's
//! Prepare/Invoke split: operands go into kernel layout first, and the
//! loop that follows reads nothing else. One owned type, [`Packed`],
//! and one borrowed view, [`PackedRef`], hold a whole matrix in panel
//! layout for both kernels and both operands. They are generic over
//! the element ([`PackElem`]: `f32` here, int8-grid `i16` in [`int8`],
//! which differ in K-slice depth and in the int8 k-pair interleave)
//! and over the [`Side`] ([`SideA`]'s `MR`-tall row strips or
//! [`SideB`]'s `NR`-wide column strips); one offset rule finds a K-slice
//! in all four. [`PackedA`], [`PackedB`], [`int8::PackedA8`] and
//! [`int8::PackedB8`] (and their `*Ref` views) are those four
//! instances. [`gemm_with`] takes `f32` ones through [`Lhs`]/[`Rhs`] as
//! they are. A plain [`MatRef`] operand
//! ([`Lhs::Mat`]/[`Rhs::Mat`]) is packed whole into a pack buffer
//! before the product, by the same code that [`PackedA::pack`] and
//! [`PackedB::pack`] run. Packing is where small products spend most
//! of their time, so the layers pack as little as they can. Weight
//! matrices are packed once per weight version and cached
//! (invalidated on update/width/precision changes), and
//! [`crate::im2col::im2col_packed`] lowers convolution inputs
//! *directly* into packed-B layout, so the convolution hot path has no
//! pack pass at all.
//!
//! A product large enough to split runs its `M` range as one band per
//! worker (`row_bands`, shared with [`int8`]); each band runs the same
//! K-slice loop over its rows, so no output depends on the split.
//!
//! The pack buffers for [`MatRef`] operands are a thread-local pair
//! (`PACK_BUFS`, one for A and one for B). Each only ever grows, to the
//! largest whole operand its thread has packed, and packing runs on the
//! calling thread before any band starts; a product with both operands
//! packed does not touch them. A call that packs takes both buffers out of the thread-local and puts them back
//! when the product is done, rather than holding a `RefCell` borrow
//! across it: a work-stealing `rayon` may run another task on the
//! thread that waits in the band scope, and if that task calls
//! [`gemm_with`] a held borrow would panic. Under the pooled `rayon`
//! stand-in worker threads are persistent, so steady-state calls —
//! serial *and* parallel — do no heap allocation beyond what the caller
//! passes in.
//!
//! # Fused epilogue
//!
//! [`Epilogue`] folds the per-row or per-column bias add (and
//! optionally a ReLU) into the write-back of the last K-slice, so
//! `Out = W·im2col(x) + b` is one pass over the output instead of two.
//! A full tile applies it in registers, after the `+ C` of `beta = 1`
//! or of an earlier K-slice and before its one store per row. Edge
//! tiles and the row kernel apply it to the row segment they just
//! wrote. Every path performs the same `+ C`, then `+ bias`, then
//! [`eml_simd::relu`] per element, so the fused result is bit-identical
//! to the separate passes.

use std::cell::RefCell;
use std::marker::PhantomData;

use eml_simd::{relu, TileBias, TileEpilogue};

pub mod int8;

pub use int8::{
    gemm_i8, gemm_i8_q, pack_a8_i16, pack_a8_quantized, packed_a8_len, packed_b8_len, PackedA8,
    PackedA8Ref, PackedB8, PackedB8Ref, QEpilogue, QEpilogueI8,
};

/// Register tile height (rows of C per micro-kernel call).
pub const MR: usize = 4;
/// Register tile width (columns of C per micro-kernel call).
pub const NR: usize = 16;
/// Rows of A packed per block.
const MC: usize = 64;
/// Depth (K) packed per block.
pub const KC: usize = 256;

/// Minimum `m·n·k` (MAC count) before a product is worth splitting
/// across workers; also used by the layers to gate batch parallelism.
pub(crate) const PAR_MIN_WORK: usize = 1 << 21;

/// Int8 counterpart of [`PAR_MIN_WORK`]: the `pmaddwd` tiles retire
/// MACs ~1.6× faster than the f32 kernel, so a band must carry
/// proportionally more of them before the fixed dispatch cost (queue
/// push + wakeup per band) amortises. Batched int8 serving sits right
/// at this boundary — micro-batches of a small model are exactly the
/// workloads the f32 threshold over-eagerly splits.
pub(crate) const PAR_MIN_WORK_I8: usize = PAR_MIN_WORK * 2;

/// Whether a matrix operand is read as stored or transposed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trans {
    /// `A[i][p] = data[i * ld + p]`.
    N,
    /// `A[i][p] = data[p * ld + i]`.
    T,
}

/// A borrowed row-major matrix view with leading dimension and
/// optional transposition.
#[derive(Debug, Clone, Copy)]
pub struct MatRef<'a> {
    /// Underlying elements.
    pub data: &'a [f32],
    /// Elements between consecutive stored rows.
    pub ld: usize,
    /// How logical indices map onto storage.
    pub trans: Trans,
}

impl<'a> MatRef<'a> {
    /// A non-transposed view.
    pub fn new(data: &'a [f32], ld: usize) -> Self {
        Self {
            data,
            ld,
            trans: Trans::N,
        }
    }

    /// A transposed view.
    pub fn t(data: &'a [f32], ld: usize) -> Self {
        Self {
            data,
            ld,
            trans: Trans::T,
        }
    }

    #[inline]
    fn at(&self, i: usize, p: usize) -> f32 {
        match self.trans {
            Trans::N => self.data[i * self.ld + p],
            Trans::T => self.data[p * self.ld + i],
        }
    }
}

/// The element a packed operand stores, and the K-slicing its kernel
/// reads: `f32` for this module's kernel, int8-grid values in `i16`
/// storage for [`int8`]'s.
pub trait PackElem: Copy + Default {
    /// Depth (K) of one K-slice: [`KC`] for `f32`, [`int8::KC8`] for
    /// `i16`.
    const KC: usize;
    /// K-steps stored side by side per lane: 1 for `f32`, 2 for the
    /// pair-interleaved int8 panels (an odd depth carries one zero
    /// k-step).
    const PAIR: usize;
}

impl PackElem for f32 {
    const KC: usize = KC;
    const PAIR: usize = 1;
}

/// Which operand of the product a packed buffer holds: [`SideA`] packs
/// `MR`-tall row strips of an `m × k` matrix, [`SideB`] `NR`-wide
/// column strips of a `k × n` one.
pub trait Side: Copy {
    /// Lanes (rows of A, columns of B) per strip.
    const STRIP: usize;
    /// The lane count and the depth of a `rows × cols` operand.
    fn lanes_depth(rows: usize, cols: usize) -> (usize, usize);
}

/// The left-hand operand's [`Side`].
#[derive(Debug, Clone, Copy)]
pub enum SideA {}

/// The right-hand operand's [`Side`].
#[derive(Debug, Clone, Copy)]
pub enum SideB {}

impl Side for SideA {
    const STRIP: usize = MR;
    fn lanes_depth(rows: usize, cols: usize) -> (usize, usize) {
        (rows, cols)
    }
}

impl Side for SideB {
    const STRIP: usize = NR;
    fn lanes_depth(rows: usize, cols: usize) -> (usize, usize) {
        (cols, rows)
    }
}

/// Buffer length of a packed `rows × cols` operand (see [`Packed`]).
fn packed_len<T: PackElem, S: Side>(rows: usize, cols: usize) -> usize {
    let (lanes, depth) = S::lanes_depth(rows, cols);
    lanes.div_ceil(S::STRIP) * S::STRIP * depth.next_multiple_of(T::PAIR)
}

/// Buffer length of a packed `m × k` A operand (see [`PackedA`]).
pub fn packed_a_len(m: usize, k: usize) -> usize {
    packed_len::<f32, SideA>(m, k)
}

/// Buffer length of a packed `k × n` B operand (see [`PackedB`]).
pub fn packed_b_len(k: usize, n: usize) -> usize {
    packed_len::<f32, SideB>(k, n)
}

/// An owned, fully packed operand in the layout the blocked loop reads.
/// K-slice `s` (depth `s·T::KC..`) starts at `lanes_pad · s · T::KC`,
/// where `lanes_pad` is the lane count zero-padded to whole strips.
/// Within a slice `kc` deep, with `kcs` = `kc` rounded up to whole
/// `T::PAIR`s, strip `st` occupies `kcs · STRIP` elements, and k-step
/// `p` of the strip's lane `r` sits at
/// `(p / PAIR) · PAIR · STRIP + r · PAIR + p % PAIR`: `p·MR + r` for an
/// `f32` A strip, `(p/2)·2MR + r·2 + p%2` for an int8 one, whose lanes
/// hold k-pairs side by side (the `pmaddwd` operand shape).
#[derive(Clone)]
pub struct Packed<T: PackElem, S: Side> {
    buf: Vec<T>,
    rows: usize,
    cols: usize,
    side: PhantomData<S>,
}

impl<T: PackElem, S: Side> std::fmt::Debug for Packed<T, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Packed({}x{})", self.rows, self.cols)
    }
}

impl<T: PackElem, S: Side> Packed<T, S> {
    /// A `rows × cols` operand whose buffer `fill` writes whole.
    fn filled(rows: usize, cols: usize, fill: impl FnOnce(&mut [T])) -> Self {
        let mut buf = vec![T::default(); packed_len::<T, S>(rows, cols)];
        fill(&mut buf);
        Self {
            buf,
            rows,
            cols,
            side: PhantomData,
        }
    }

    /// The packed buffer, for tests that compare layouts directly.
    #[cfg(test)]
    pub(crate) fn as_slice(&self) -> &[T] {
        &self.buf
    }

    /// A borrowed view for [`gemm_with`] or [`gemm_i8`].
    pub fn as_ref(&self) -> PackedRef<'_, T, S> {
        PackedRef::new(&self.buf, self.rows, self.cols)
    }
}

impl PackedA {
    /// Packs the `m × k` logical matrix `a`.
    pub fn pack(a: MatRef<'_>, m: usize, k: usize) -> Self {
        Self::filled(m, k, |buf| pack_a_into(m, k, buf, |i, p| a.at(i, p)))
    }
}

impl PackedB {
    /// Packs the `k × n` logical matrix `b`.
    pub fn pack(b: MatRef<'_>, k: usize, n: usize) -> Self {
        Self::filled(k, n, |buf| pack_b_into(b, k, n, buf))
    }
}

/// A borrowed packed operand (see [`Packed`]). Also constructible over
/// an external buffer, e.g. one filled by
/// [`crate::im2col::im2col_packed`].
#[derive(Debug, Clone, Copy)]
pub struct PackedRef<'a, T: PackElem, S: Side> {
    data: &'a [T],
    rows: usize,
    cols: usize,
    side: PhantomData<S>,
}

impl<'a, T: PackElem, S: Side> PackedRef<'a, T, S> {
    /// Wraps an externally built packed buffer of a `rows × cols`
    /// operand (`m × k` for A, `k × n` for B; layout of [`Packed`]).
    pub fn new(data: &'a [T], rows: usize, cols: usize) -> Self {
        debug_assert!(data.len() >= packed_len::<T, S>(rows, cols));
        Self {
            data,
            rows,
            cols,
            side: PhantomData,
        }
    }

    /// The strips of K-slice `pc..pc+kc` from lane `first` (a multiple
    /// of the strip width) to the slice's end, in exactly the layout the
    /// tiles consume: the rows of an A block, or (from 0) a B panel.
    #[inline]
    fn strips(&self, first: usize, pc: usize, kc: usize) -> &'a [T] {
        debug_assert_eq!(first % S::STRIP, 0);
        let (lanes, _) = S::lanes_depth(self.rows, self.cols);
        let pad = lanes.div_ceil(S::STRIP) * S::STRIP;
        let kcs = kc.next_multiple_of(T::PAIR);
        &self.data[pad * pc + first * kcs..pad * (pc + kcs)]
    }
}

/// An `f32` A operand: `MR`-tall row strips, [`KC`]-deep slices.
pub type PackedA = Packed<f32, SideA>;
/// A borrowed [`PackedA`].
pub type PackedARef<'a> = PackedRef<'a, f32, SideA>;
/// An `f32` B operand: `NR`-wide column strips, [`KC`]-deep slices.
pub type PackedB = Packed<f32, SideB>;
/// A borrowed [`PackedB`].
pub type PackedBRef<'a> = PackedRef<'a, f32, SideB>;

/// The left-hand operand of [`gemm_with`].
#[derive(Debug, Clone, Copy)]
pub enum Lhs<'a> {
    /// A plain matrix view; packed whole into a thread-local buffer
    /// before the product.
    Mat(MatRef<'a>),
    /// An already packed operand; used as-is.
    Packed(PackedARef<'a>),
}

/// The right-hand operand of [`gemm_with`].
#[derive(Debug, Clone, Copy)]
pub enum Rhs<'a> {
    /// A plain matrix view; packed whole into a thread-local buffer
    /// before the product.
    Mat(MatRef<'a>),
    /// An already packed operand; used as-is.
    Packed(PackedBRef<'a>),
}

/// Bias orientation of a fused [`Epilogue`].
#[derive(Debug, Clone, Copy)]
pub enum Bias<'a> {
    /// `C[i][j] += bias[i]` — one bias per output row (convolution:
    /// per output channel).
    Row(&'a [f32]),
    /// `C[i][j] += bias[j]` — one bias per output column (linear:
    /// per output feature).
    Col(&'a [f32]),
}

/// An operation fused into the final write-back of [`gemm_with`]:
/// optional bias add, optional ReLU, applied in that order once the
/// full `k` reduction is complete.
#[derive(Debug, Clone, Copy, Default)]
pub struct Epilogue<'a> {
    bias: Option<Bias<'a>>,
    relu: bool,
}

impl<'a> Epilogue<'a> {
    /// No fused work: plain `C = A·B + beta·C`.
    pub fn none() -> Self {
        Self::default()
    }

    /// Fuses a per-row bias add.
    pub fn bias_row(bias: &'a [f32]) -> Self {
        Self {
            bias: Some(Bias::Row(bias)),
            relu: false,
        }
    }

    /// Fuses a per-column bias add.
    pub fn bias_col(bias: &'a [f32]) -> Self {
        Self {
            bias: Some(Bias::Col(bias)),
            relu: false,
        }
    }

    /// Additionally clamps the final value at zero (ReLU), after the
    /// bias add.
    pub fn with_relu(mut self) -> Self {
        self.relu = true;
        self
    }

    fn is_some(&self) -> bool {
        self.bias.is_some() || self.relu
    }

    /// The register-tile form of this epilogue for the full tile at
    /// (`row0`, `col0`): `+ C` when `beta` is set, and the bias and
    /// ReLU only on the `last` K-slice.
    #[inline]
    fn tile(&self, beta: bool, last: bool, row0: usize, col0: usize) -> TileEpilogue<'a> {
        TileEpilogue {
            beta,
            bias: if last {
                tile_bias(self.bias, row0, col0)
            } else {
                TileBias::None
            },
            relu: last && self.relu,
        }
    }

    /// Applies the epilogue to one already-written row segment. `row`
    /// is the global row index, `col0` the global column of `seg[0]`.
    #[inline]
    fn apply(&self, seg: &mut [f32], row: usize, col0: usize) {
        match self.bias {
            Some(Bias::Row(b)) => {
                let bv = b[row];
                for v in seg.iter_mut() {
                    *v += bv;
                }
            }
            Some(Bias::Col(b)) => {
                for (v, &bv) in seg.iter_mut().zip(&b[col0..]) {
                    *v += bv;
                }
            }
            None => {}
        }
        if self.relu {
            for v in seg.iter_mut() {
                *v = relu(*v);
            }
        }
    }
}

/// `bias` sliced to the full register tile at (`row0`, `col0`).
#[inline]
pub(crate) fn tile_bias(bias: Option<Bias<'_>>, row0: usize, col0: usize) -> TileBias<'_> {
    match bias {
        Some(Bias::Row(b)) => TileBias::Row(b[row0..row0 + MR].try_into().expect("MR rows")),
        Some(Bias::Col(b)) => TileBias::Col(b[col0..col0 + NR].try_into().expect("NR columns")),
        None => TileBias::None,
    }
}

thread_local! {
    /// Per-thread whole-operand pack buffers (A, B) for [`Lhs::Mat`] /
    /// [`Rhs::Mat`]; grown once, then reused. [`gemm_with`] takes them
    /// out for the call (see the module docs).
    static PACK_BUFS: RefCell<(Vec<f32>, Vec<f32>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// `C = A·B + beta·C` for logical shapes `A: m×k`, `B: k×n`, `C: m×n`.
///
/// `beta` must be `0.0` (overwrite `C`) or `1.0` (accumulate into `C`);
/// those are the only modes the layers need. `c` is a row-major view
/// with leading dimension `ldc ≥ n`. When `parallel` is true and the
/// product is large enough, the `M` range is split across workers —
/// pass `false` from code that already parallelises an outer dimension.
///
/// # Panics
///
/// Debug-asserts shape/stride consistency; out-of-bounds operands panic
/// via slice indexing.
#[allow(clippy::too_many_arguments)] // GEMM is inherently (m, n, k, A, B, beta, C)-shaped
pub fn gemm(
    m: usize,
    n: usize,
    k: usize,
    a: MatRef<'_>,
    b: MatRef<'_>,
    beta: f32,
    c: &mut [f32],
    ldc: usize,
    parallel: bool,
) {
    gemm_with(
        m,
        n,
        k,
        Lhs::Mat(a),
        Rhs::Mat(b),
        beta,
        c,
        ldc,
        parallel,
        Epilogue::none(),
    );
}

/// [`gemm`] generalised over pre-packed operands and a fused epilogue:
/// `C = epilogue(A·B + beta·C)`.
///
/// A plain operand is packed whole before the product; a packed one is
/// read as it is. Either way the blocked loop only ever sees packed
/// views, so with both operands packed the call is the micro-kernel
/// plus the masked write-back and nothing else.
///
/// # Panics
///
/// Debug-asserts that packed operand dimensions match `m`/`n`/`k`, and
/// shape/stride consistency as in [`gemm`].
#[allow(clippy::too_many_arguments)]
pub fn gemm_with(
    m: usize,
    n: usize,
    k: usize,
    a: Lhs<'_>,
    b: Rhs<'_>,
    beta: f32,
    c: &mut [f32],
    ldc: usize,
    parallel: bool,
    ep: Epilogue<'_>,
) {
    debug_assert!(beta == 0.0 || beta == 1.0, "beta must be 0 or 1");
    debug_assert!(ldc >= n);
    if let Lhs::Packed(p) = &a {
        debug_assert_eq!((p.rows, p.cols), (m, k), "packed A shape");
    }
    if let Rhs::Packed(p) = &b {
        debug_assert_eq!((p.rows, p.cols), (k, n), "packed B shape");
    }
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        for (i, row) in c.chunks_mut(ldc).take(m).enumerate() {
            if beta == 0.0 {
                row[..n].fill(0.0);
            }
            if ep.is_some() {
                ep.apply(&mut row[..n], i, 0);
            }
        }
        return;
    }
    if let (Lhs::Mat(a), Rhs::Packed(b), true) = (a, b, m < MR) {
        gemm_rows(m, n, k, a, b, beta, c, ldc, ep);
        return;
    }
    // Both operands packed (the conv forward): no thread-local traffic.
    let packs = matches!(a, Lhs::Mat(_)) || matches!(b, Rhs::Mat(_));
    let (mut a_buf, mut b_buf) = if packs {
        PACK_BUFS.with(RefCell::take)
    } else {
        Default::default()
    };
    let a = match a {
        Lhs::Packed(p) => p,
        Lhs::Mat(mat) => {
            a_buf.resize(packed_a_len(m, k).max(a_buf.len()), 0.0);
            pack_a_into(m, k, &mut a_buf, |i, p| mat.at(i, p));
            PackedARef::new(&a_buf, m, k)
        }
    };
    let b = match b {
        Rhs::Packed(p) => p,
        Rhs::Mat(mat) => {
            b_buf.resize(packed_b_len(k, n).max(b_buf.len()), 0.0);
            pack_b_into(mat, k, n, &mut b_buf);
            PackedBRef::new(&b_buf, k, n)
        }
    };
    let workers = crate::workers::worker_count();
    if parallel && workers > 1 && m * n * k >= PAR_MIN_WORK && m >= 2 * MR {
        row_bands(m, c, ldc, workers, |i0, rows, band_c| {
            gemm_band(i0, rows, n, k, a, b, beta, band_c, ldc, ep);
        });
    } else {
        gemm_band(0, m, n, k, a, b, beta, c, ldc, ep);
    }
    if packs {
        PACK_BUFS.with(|bufs| bufs.replace((a_buf, b_buf)));
    }
}

/// Splits the `m` rows of `c` (leading dimension `ldc`) into one
/// `MR`-aligned band per worker and runs `band(i0, rows, band_c)` on
/// each inside one scope; `band_c` starts at row `i0`. The
/// `f32` and int8 drivers enter it only for a product large enough to
/// split, and call their band body directly otherwise: the closure and
/// the scope cost more than a small product.
pub(crate) fn row_bands<T: Send>(
    m: usize,
    c: &mut [T],
    ldc: usize,
    workers: usize,
    band: impl Fn(usize, usize, &mut [T]) + Sync,
) {
    let height = m.div_ceil(workers).div_ceil(MR) * MR;
    rayon::scope(|s| {
        let band = &band;
        let mut rest = c;
        let mut i0 = 0;
        while i0 < m {
            let rows = height.min(m - i0);
            let (band_c, tail) = rest.split_at_mut((rows * ldc).min(rest.len()));
            s.spawn(move |_| band(i0, rows, band_c));
            rest = tail;
            i0 += rows;
        }
    });
}

/// The blocked GEMM over rows `i0..i0+m` of the logical product, both
/// operands packed; `c` starts at row `i0`. K-slices run outer and
/// `MC`-row blocks inner, so every output sums its K-slices in the
/// same order whatever the band split.
#[allow(clippy::too_many_arguments)]
fn gemm_band(
    i0: usize,
    m: usize,
    n: usize,
    k: usize,
    a: PackedARef<'_>,
    b: PackedBRef<'_>,
    beta: f32,
    c: &mut [f32],
    ldc: usize,
    ep: Epilogue<'_>,
) {
    let mut pc = 0;
    while pc < k {
        let kc = KC.min(k - pc);
        // Accumulate after the first K-slice regardless of beta.
        let slice_beta = if pc == 0 { beta } else { 1.0 };
        let last = pc + kc == k;
        let panel = b.strips(0, pc, kc);
        let mut ic = 0;
        while ic < m {
            let mc = MC.min(m - ic);
            macro_tile(
                a.strips(i0 + ic, pc, kc),
                panel,
                mc,
                n,
                kc,
                slice_beta,
                &mut c[ic * ldc..],
                ldc,
                last,
                i0 + ic,
                ep,
            );
            ic += mc;
        }
        pc += kc;
    }
}

/// Packs the whole `m × k` logical matrix whose element `(i, p)` is
/// `at(i, p)` into `buf` (length ≥ the packed length) in the A layout
/// of [`Packed`], zero-padding the rows past `m` and each slice's odd
/// tail k-step.
fn pack_a_into<T: PackElem>(m: usize, k: usize, buf: &mut [T], at: impl Fn(usize, usize) -> T) {
    let m_pad = m.div_ceil(MR) * MR;
    let mut pc = 0;
    while pc < k {
        let kc = T::KC.min(k - pc);
        let kcs = kc.next_multiple_of(T::PAIR);
        let slice = &mut buf[m_pad * pc..][..m_pad * kcs];
        for (strip, dst) in slice.chunks_exact_mut(kcs * MR).enumerate() {
            for p in 0..kcs {
                let lane0 = (p / T::PAIR) * T::PAIR * MR + p % T::PAIR;
                for r in 0..MR {
                    let i = strip * MR + r;
                    dst[lane0 + r * T::PAIR] = if i < m && p < kc {
                        at(i, pc + p)
                    } else {
                        T::default()
                    };
                }
            }
        }
        pc += kc;
    }
}

/// Packs the whole `k × n` logical matrix `b` into `buf` (length ≥
/// [`packed_b_len`]) in the layout of [`PackedB`]: per K-slice,
/// `buf[strip][p][c]`, zero-padding the last strip.
fn pack_b_into(b: MatRef<'_>, k: usize, n: usize, buf: &mut [f32]) {
    let n_pad = n.div_ceil(NR) * NR;
    let strips = n_pad / NR;
    let mut pc = 0;
    while pc < k {
        let kc = KC.min(k - pc);
        let pb = &mut buf[n_pad * pc..];
        match b.trans {
            Trans::N => {
                for p in 0..kc {
                    let row = &b.data[(pc + p) * b.ld..][..n];
                    for strip in 0..strips {
                        let j0 = strip * NR;
                        let width = NR.min(n - j0);
                        let dst = &mut pb[strip * kc * NR + p * NR..][..NR];
                        dst[..width].copy_from_slice(&row[j0..j0 + width]);
                        dst[width..].fill(0.0);
                    }
                }
            }
            Trans::T => {
                for strip in 0..strips {
                    let j0 = strip * NR;
                    let width = NR.min(n - j0);
                    let base = strip * kc * NR;
                    for p in 0..kc {
                        let dst = &mut pb[base + p * NR..][..NR];
                        for (j, d) in dst[..width].iter_mut().enumerate() {
                            *d = b.data[(j0 + j) * b.ld + pc + p];
                        }
                        dst[width..].fill(0.0);
                    }
                }
            }
        }
        pc += kc;
    }
}

/// Runs the register tile over every MR×NR tile of an `mc × n` block
/// of `C` (rows start at `c[0]`). `row0` is the global row index of
/// `c[0]`; when `last` is set the epilogue is applied to each tile
/// before it is stored.
#[allow(clippy::too_many_arguments)]
fn macro_tile(
    pa: &[f32],
    pb: &[f32],
    mc: usize,
    n: usize,
    kc: usize,
    beta: f32,
    c: &mut [f32],
    ldc: usize,
    last: bool,
    row0: usize,
    ep: Epilogue<'_>,
) {
    let row_strips = mc.div_ceil(MR);
    let col_strips = n.div_ceil(NR);
    let apply_ep = last && ep.is_some();
    for rs in 0..row_strips {
        let pa_strip = &pa[rs * kc * MR..][..kc * MR];
        let rows = MR.min(mc - rs * MR);
        for cs in 0..col_strips {
            let pb_strip = &pb[cs * kc * NR..][..kc * NR];
            let cols = NR.min(n - cs * NR);
            if rows == MR && cols == NR {
                // Full tile: the kernel adds C, bias and ReLU in
                // registers and stores the rows itself.
                let tile = ep.tile(beta != 0.0, last, row0 + rs * MR, cs * NR);
                let dst = &mut c[rs * MR * ldc + cs * NR..];
                eml_simd::madd_tile_f32_into(pa_strip, pb_strip, kc, dst, ldc, tile);
                continue;
            }
            // Edge tiles: write-back masks the zero padding.
            let mut acc = [[0.0f32; NR]; MR];
            eml_simd::madd_tile_f32(pa_strip, pb_strip, kc, &mut acc);
            for r in 0..rows {
                let row = &mut c[(rs * MR + r) * ldc + cs * NR..][..cols];
                if beta == 0.0 {
                    row.copy_from_slice(&acc[r][..cols]);
                } else {
                    for (dst, &v) in row.iter_mut().zip(&acc[r][..cols]) {
                        *dst += v;
                    }
                }
                if apply_ep {
                    ep.apply(row, row0 + rs * MR + r, cs * NR);
                }
            }
        }
    }
}

/// The row kernel: `C = epilogue(A·B + beta·C)` for fewer than [`MR`]
/// rows against a packed B, one row at a time in 1×[`NR`] strips, so
/// it does not multiply the zero rows a padded A strip carries. Each
/// output follows the
/// edge-tile path's order exactly: per K-slice a sequential sum from
/// `0.0`, added to `C` after the first slice (or when `beta` is set),
/// and the epilogue once after the last slice.
#[allow(clippy::too_many_arguments)]
fn gemm_rows(
    m: usize,
    n: usize,
    k: usize,
    a: MatRef<'_>,
    b: PackedBRef<'_>,
    beta: f32,
    c: &mut [f32],
    ldc: usize,
    ep: Epilogue<'_>,
) {
    let mut a_row = [0.0f32; KC];
    for i in 0..m {
        let row = &mut c[i * ldc..][..n];
        let mut pc = 0;
        while pc < k {
            let kc = KC.min(k - pc);
            for (p, v) in a_row[..kc].iter_mut().enumerate() {
                *v = a.at(i, pc + p);
            }
            let panel = b.strips(0, pc, kc);
            let overwrite = pc == 0 && beta == 0.0;
            for (cs, seg) in row.chunks_mut(NR).enumerate() {
                let strip = &panel[cs * kc * NR..][..kc * NR];
                let mut acc = [0.0f32; NR];
                for (&av, bp) in a_row[..kc].iter().zip(strip.chunks_exact(NR)) {
                    for (x, &bv) in acc.iter_mut().zip(bp) {
                        *x += av * bv;
                    }
                }
                if overwrite {
                    seg.copy_from_slice(&acc[..seg.len()]);
                } else {
                    for (d, &v) in seg.iter_mut().zip(&acc) {
                        *d += v;
                    }
                }
            }
            pc += kc;
        }
        if ep.is_some() {
            ep.apply(row, i, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::int8::KC8;
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[allow(clippy::too_many_arguments)]
    fn naive(
        m: usize,
        n: usize,
        k: usize,
        a: MatRef<'_>,
        b: MatRef<'_>,
        beta: f32,
        c: &mut [f32],
        ldc: usize,
    ) {
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f64;
                for p in 0..k {
                    acc += f64::from(a.at(i, p)) * f64::from(b.at(p, j));
                }
                let prev = if beta == 0.0 {
                    0.0
                } else {
                    f64::from(c[i * ldc + j])
                };
                c[i * ldc + j] = (prev + acc) as f32;
            }
        }
    }

    fn random_vec(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    /// The `cols × rows` transpose of a row-major `rows × cols` matrix.
    fn transpose(data: &[f32], rows: usize, cols: usize) -> Vec<f32> {
        (0..cols * rows)
            .map(|i| data[(i % rows) * cols + i / rows])
            .collect()
    }

    fn check_case(m: usize, n: usize, k: usize, ta: Trans, tb: Trans, beta: f32) {
        let a_data = random_vec(m * k, 1 + m as u64 * 31 + k as u64);
        let b_data = random_vec(k * n, 2 + n as u64 * 17);
        let (a_ld, b_ld) = (
            if ta == Trans::N { k } else { m },
            if tb == Trans::N { n } else { k },
        );
        let a = MatRef {
            data: &a_data,
            ld: a_ld,
            trans: ta,
        };
        let b = MatRef {
            data: &b_data,
            ld: b_ld,
            trans: tb,
        };
        let mut c = random_vec(m * n, 3);
        let mut expect = c.clone();
        gemm(m, n, k, a, b, beta, &mut c, n, false);
        naive(m, n, k, a, b, beta, &mut expect, n);
        for (i, (&got, &want)) in c.iter().zip(&expect).enumerate() {
            assert!(
                (got - want).abs() < 1e-4,
                "({m}x{n}x{k} {ta:?}{tb:?} beta={beta}) c[{i}]: {got} vs {want}"
            );
        }
        // The same product with either or both operands pre-packed
        // must be *bit-identical* to the all-MatRef path: packing is a
        // layout change, not a numerical one.
        let pa = PackedA::pack(a, m, k);
        let pb = PackedB::pack(b, k, n);
        for (name, lhs, rhs) in [
            ("packed A", Lhs::Packed(pa.as_ref()), Rhs::Mat(b)),
            ("packed B", Lhs::Mat(a), Rhs::Packed(pb.as_ref())),
            (
                "packed AB",
                Lhs::Packed(pa.as_ref()),
                Rhs::Packed(pb.as_ref()),
            ),
        ] {
            let mut c2 = random_vec(m * n, 3);
            gemm_with(m, n, k, lhs, rhs, beta, &mut c2, n, false, Epilogue::none());
            assert!(
                c.iter().zip(&c2).all(|(x, y)| x.to_bits() == y.to_bits()),
                "({m}x{n}x{k} {ta:?}{tb:?} beta={beta}) {name} differs from MatRef path"
            );
        }
    }

    #[test]
    fn matches_naive_across_shapes_and_transposes() {
        for &(m, n, k) in &[
            (1, 1, 1),
            (3, 5, 7),
            (4, 16, 8),
            (5, 17, 9),
            (32, 64, 27),
            (65, 33, 300),
        ] {
            for &ta in &[Trans::N, Trans::T] {
                for &tb in &[Trans::N, Trans::T] {
                    check_case(m, n, k, ta, tb, 0.0);
                    check_case(m, n, k, ta, tb, 1.0);
                }
            }
        }
    }

    #[test]
    fn respects_leading_dimension_on_c() {
        // C wider than n: untouched columns must keep their values.
        let (m, n, k, ldc) = (3usize, 4usize, 5usize, 7usize);
        let a_data = random_vec(m * k, 4);
        let b_data = random_vec(k * n, 5);
        let mut c = vec![9.0f32; m * ldc];
        gemm(
            m,
            n,
            k,
            MatRef::new(&a_data, k),
            MatRef::new(&b_data, n),
            0.0,
            &mut c,
            ldc,
            false,
        );
        for row in c.chunks(ldc) {
            for &v in &row[n..] {
                assert_eq!(v, 9.0, "columns beyond n must not be written");
            }
        }
    }

    #[test]
    fn parallel_split_matches_serial() {
        let (m, n, k) = (256, 128, 96);
        let a_data = random_vec(m * k, 6);
        let b_data = random_vec(k * n, 7);
        let a = MatRef::new(&a_data, k);
        let b = MatRef::new(&b_data, n);
        let mut serial = vec![0.0f32; m * n];
        let mut par = vec![0.0f32; m * n];
        gemm(m, n, k, a, b, 0.0, &mut serial, n, false);
        gemm(m, n, k, a, b, 0.0, &mut par, n, true);
        assert_eq!(serial, par, "banding must not change row results");
    }

    #[test]
    fn parallel_split_with_packed_operands_matches_serial() {
        let (m, n, k) = (256, 128, 96);
        let a_data = random_vec(m * k, 8);
        let b_data = random_vec(k * n, 9);
        let a = MatRef::new(&a_data, k);
        let b = MatRef::new(&b_data, n);
        let pa = PackedA::pack(a, m, k);
        let pb = PackedB::pack(b, k, n);
        let mut serial = vec![0.0f32; m * n];
        let mut par = vec![0.0f32; m * n];
        gemm(m, n, k, a, b, 0.0, &mut serial, n, false);
        gemm_with(
            m,
            n,
            k,
            Lhs::Packed(pa.as_ref()),
            Rhs::Packed(pb.as_ref()),
            0.0,
            &mut par,
            n,
            true,
            Epilogue::none(),
        );
        assert_eq!(serial, par);
    }

    /// The banded parallel path must apply the epilogue exactly like
    /// the serial path — per band with global row offsets, once, after
    /// the last K-slice. This is the production path of a batch-1 conv
    /// forward on a multi-core host (fused bias, work above the
    /// parallel threshold), so it is pinned here with a forced worker
    /// count rather than left to whatever the test machine has; k is
    /// chosen to span several K-slices.
    #[test]
    fn parallel_split_applies_epilogue_like_serial() {
        let (m, n, k) = (96usize, 64usize, KC + 90);
        let a_data = random_vec(m * k, 20);
        let b_data = random_vec(k * n, 21);
        let row_bias = random_vec(m, 22);
        let a = MatRef::new(&a_data, k);
        let b = MatRef::new(&b_data, n);
        let b_t = transpose(&b_data, k, n);
        let pa = PackedA::pack(a, m, k);
        let pb = PackedB::pack(b, k, n);
        let ep = Epilogue::bias_row(&row_bias).with_relu();
        let mut serial = vec![0.0f32; m * n];
        gemm_with(
            m,
            n,
            k,
            Lhs::Packed(pa.as_ref()),
            Rhs::Packed(pb.as_ref()),
            0.0,
            &mut serial,
            n,
            false,
            ep,
        );
        for (workers, lhs, rhs) in [
            (2, Lhs::Packed(pa.as_ref()), Rhs::Packed(pb.as_ref())),
            (4, Lhs::Packed(pa.as_ref()), Rhs::Packed(pb.as_ref())),
            (4, Lhs::Mat(a), Rhs::Mat(b)),
            (4, Lhs::Mat(a), Rhs::Packed(pb.as_ref())),
            (3, Lhs::Packed(pa.as_ref()), Rhs::Mat(MatRef::t(&b_t, k))),
        ] {
            crate::workers::FORCE_WORKERS.with(|f| f.set(Some(workers)));
            let mut par = vec![0.0f32; m * n];
            gemm_with(m, n, k, lhs, rhs, 0.0, &mut par, n, true, ep);
            crate::workers::FORCE_WORKERS.with(|f| f.set(None));
            assert!(
                serial
                    .iter()
                    .zip(&par)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "workers={workers}: banded epilogue differs from serial"
            );
        }
    }

    #[test]
    fn k_zero_clears_or_keeps_c() {
        let mut c = vec![5.0f32; 6];
        gemm(
            2,
            3,
            0,
            MatRef::new(&[], 1),
            MatRef::new(&[], 1),
            1.0,
            &mut c,
            3,
            false,
        );
        assert!(c.iter().all(|&v| v == 5.0));
        gemm(
            2,
            3,
            0,
            MatRef::new(&[], 1),
            MatRef::new(&[], 1),
            0.0,
            &mut c,
            3,
            false,
        );
        assert!(c.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn epilogue_matches_separate_passes() {
        let (m, n, k) = (7usize, 21usize, 40usize);
        let a_data = random_vec(m * k, 10);
        let b_data = random_vec(k * n, 11);
        let row_bias = random_vec(m, 12);
        let col_bias = random_vec(n, 13);
        let a = MatRef::new(&a_data, k);
        let b = MatRef::new(&b_data, n);
        let mut plain = vec![0.0f32; m * n];
        gemm(m, n, k, a, b, 0.0, &mut plain, n, false);
        for (relu, bias) in [
            (false, Some(Bias::Row(&row_bias[..]))),
            (true, Some(Bias::Row(&row_bias[..]))),
            (false, Some(Bias::Col(&col_bias[..]))),
            (true, Some(Bias::Col(&col_bias[..]))),
            (true, None),
        ] {
            let mut ep = match bias {
                Some(Bias::Row(bv)) => Epilogue::bias_row(bv),
                Some(Bias::Col(bv)) => Epilogue::bias_col(bv),
                None => Epilogue::none(),
            };
            if relu {
                ep = ep.with_relu();
            }
            let mut fused = vec![0.0f32; m * n];
            gemm_with(
                m,
                n,
                k,
                Lhs::Mat(a),
                Rhs::Mat(b),
                0.0,
                &mut fused,
                n,
                false,
                ep,
            );
            // Separate passes over the plain product.
            let mut expect = plain.clone();
            for (i, row) in expect.chunks_mut(n).enumerate() {
                match bias {
                    Some(Bias::Row(bv)) => row.iter_mut().for_each(|v| *v += bv[i]),
                    Some(Bias::Col(bv)) => row.iter_mut().zip(bv).for_each(|(v, &bv)| *v += bv),
                    None => {}
                }
                if relu {
                    row.iter_mut().for_each(|v| *v = v.max(0.0));
                }
            }
            for (i, (&got, &want)) in fused.iter().zip(&expect).enumerate() {
                assert!(
                    got.to_bits() == want.to_bits(),
                    "relu={relu} c[{i}]: fused {got} vs separate {want}"
                );
            }
        }
    }

    #[test]
    fn epilogue_applies_on_k_zero() {
        let bias = [1.0f32, 2.0];
        let mut c = vec![5.0f32; 6];
        gemm_with(
            2,
            3,
            0,
            Lhs::Mat(MatRef::new(&[], 1)),
            Rhs::Mat(MatRef::new(&[], 1)),
            0.0,
            &mut c,
            3,
            false,
            Epilogue::bias_row(&bias),
        );
        assert_eq!(c, &[1.0, 1.0, 1.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn epilogue_applies_once_across_k_slices() {
        // k > KC forces multiple K-slices; the bias must be added
        // exactly once (after the last slice), not once per slice.
        let (m, n, k) = (5usize, 9usize, KC + 37);
        let a_data = random_vec(m * k, 14);
        let b_data = random_vec(k * n, 15);
        let bias = random_vec(m, 16);
        let a = MatRef::new(&a_data, k);
        let b = MatRef::new(&b_data, n);
        let mut plain = vec![0.0f32; m * n];
        gemm(m, n, k, a, b, 0.0, &mut plain, n, false);
        let mut fused = vec![0.0f32; m * n];
        gemm_with(
            m,
            n,
            k,
            Lhs::Mat(a),
            Rhs::Mat(b),
            0.0,
            &mut fused,
            n,
            false,
            Epilogue::bias_row(&bias),
        );
        for i in 0..m {
            for j in 0..n {
                let want = plain[i * n + j] + bias[i];
                let got = fused[i * n + j];
                assert!(
                    got.to_bits() == want.to_bits(),
                    "c[{i}][{j}]: {got} vs {want}"
                );
            }
        }
    }

    /// Checks `packed` element by element against the layout formula
    /// in [`Packed`]'s docs, and every [`PackedRef::strips`] window
    /// against the same offsets; `at(lane, p)` is the logical element
    /// of lane `lane` (a row of A, a column of B) at depth `p`.
    fn check_layout<T, S>(packed: &Packed<T, S>, at: impl Fn(usize, usize) -> T)
    where
        T: PackElem + PartialEq + std::fmt::Debug,
        S: Side,
    {
        let (lanes, depth) = S::lanes_depth(packed.rows, packed.cols);
        let (buf, view) = (packed.as_slice(), packed.as_ref());
        let (strip, pair) = (S::STRIP, T::PAIR);
        let lanes_pad = lanes.div_ceil(strip) * strip;
        let mut checked = 0;
        for pc in (0..depth).step_by(T::KC) {
            let kc = T::KC.min(depth - pc);
            let kcs = kc.next_multiple_of(pair);
            let slice = lanes_pad * pc;
            for st in 0..lanes_pad / strip {
                let start = slice + st * kcs * strip;
                let window = &buf[start..slice + lanes_pad * kcs];
                assert!(
                    view.strips(st * strip, pc, kc) == window,
                    "{packed:?} pc={pc} strip {st}"
                );
                for r in 0..strip {
                    let lane = st * strip + r;
                    for p in 0..kcs {
                        let at_doc = start + (p / pair) * pair * strip + r * pair + p % pair;
                        let want = if lane < lanes && p < kc {
                            at(lane, pc + p)
                        } else {
                            T::default()
                        };
                        assert_eq!(buf[at_doc], want, "{packed:?} lane {lane} k {}", pc + p);
                        checked += 1;
                    }
                }
            }
        }
        assert_eq!(
            checked,
            buf.len(),
            "{packed:?}: elements outside the layout"
        );
    }

    /// The four packed operands hold exactly the documented layout:
    /// `p·MR + r` (A) and `p·NR + c` (B) per `f32` strip,
    /// `(p/2)·2MR + r·2 + p%2` and `(p/2)·2NR + c·2 + p%2` per int8
    /// strip, zero lanes past `m`/`n`, a zero odd tail k-step, and
    /// K-slices of `KC` / `KC8` one after another. The shapes cover odd
    /// depths, padded strips and more than one K-slice; both stored
    /// and transposed sources are packed.
    #[test]
    fn packed_layouts_match_their_docs() {
        let value = |lane: usize, p: usize| (lane * 10_007 + p) as f32;
        // On the int8 grid with `inv_scale = 1`, and never zero, so a
        // misplaced element cannot pass for padding.
        let grid =
            |lane: usize, p: usize| ((lane * 37 + p * 11) % 127 + 1) as f32 * [1.0, -1.0][p % 2];
        let matrix = |rows: usize, cols: usize, f: &dyn Fn(usize, usize) -> f32| {
            let data: Vec<f32> = (0..rows * cols).map(|i| f(i / cols, i % cols)).collect();
            (transpose(&data, rows, cols), data)
        };
        for &(m, k) in &[(1, 1), (5, 7), (4, 16), (9, KC + 5), (3, 2 * KC)] {
            let (a_t, a) = matrix(m, k, &value);
            for src in [MatRef::new(&a, k), MatRef::t(&a_t, m)] {
                check_layout(&PackedA::pack(src, m, k), value);
            }
        }
        for &(k, n) in &[(1, 1), (7, 17), (16, 32), (KC + 5, 3), (2 * KC, 20)] {
            let (b_t, b) = matrix(k, n, &value);
            for src in [MatRef::new(&b, n), MatRef::t(&b_t, k)] {
                check_layout(&PackedB::pack(src, k, n), |j, p| value(p, j));
            }
        }
        let q = |v: f32| v as i16;
        for &(m, k) in &[(1, 1), (5, 7), (4, 16), (6, KC8 + 3), (2, 2 * KC8)] {
            let (a_t, a) = matrix(m, k, &grid);
            for src in [MatRef::new(&a, k), MatRef::t(&a_t, m)] {
                check_layout(&PackedA8::pack_quantized(src, m, k, 1.0), |i, p| {
                    q(grid(i, p))
                });
            }
        }
        for &(k, n) in &[(1, 1), (7, 17), (16, 32), (KC8 + 3, 18), (2 * KC8, 5)] {
            let (b_t, b) = matrix(k, n, &grid);
            for src in [MatRef::new(&b, n), MatRef::t(&b_t, k)] {
                check_layout(&PackedB8::pack_quantized(src, k, n, 1.0), |j, p| {
                    q(grid(p, j))
                });
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The row kernel (`Lhs::Mat` with fewer than MR rows against a
        /// packed B) is bit-identical to the register tiles over the
        /// same operand packed (`Lhs::Packed`): across one to three
        /// K-slices, ragged column strips, C accumulation, both bias
        /// orientations, ReLU and a transposed A. B's form is drawn
        /// too: a plain B, stored or transposed, skips the row kernel
        /// and is packed whole before the tiles run, which pins the
        /// whole-operand pack bit for bit against a pre-packed B. C is
        /// one column wider than the product, so a stray write differs
        /// too.
        #[test]
        fn row_kernel_matches_tile_path(
            seed in 0u64..10_000,
            m in 1usize..MR,
            strips in 0usize..3,
            tail in 1usize..NR,
            k in 1usize..=3 * KC,
            beta in proptest::bool::ANY,
            bias_kind in 0usize..3,
            relu in proptest::bool::ANY,
            trans in proptest::bool::ANY,
            b_form in 0usize..3,
        ) {
            let n = strips * NR + tail;
            let ldc = n + 1;
            let a_data = random_vec(m * k, seed);
            let b_data = random_vec(k * n, seed + 1);
            let bias = random_vec(m.max(n), seed + 2);
            let a = if trans {
                MatRef::t(&a_data, m)
            } else {
                MatRef::new(&a_data, k)
            };
            let pa = PackedA::pack(a, m, k);
            let b_t = transpose(&b_data, k, n);
            let pb = PackedB::pack(MatRef::new(&b_data, n), k, n);
            let mut ep = match bias_kind {
                1 => Epilogue::bias_row(&bias[..m]),
                2 => Epilogue::bias_col(&bias[..n]),
                _ => Epilogue::none(),
            };
            if relu {
                ep = ep.with_relu();
            }
            let beta = if beta { 1.0 } else { 0.0 };
            let c0 = random_vec(m * ldc, seed + 3);
            let mut rows = c0.clone();
            let rhs = match b_form {
                1 => Rhs::Mat(MatRef::new(&b_data, n)),
                2 => Rhs::Mat(MatRef::t(&b_t, k)),
                _ => Rhs::Packed(pb.as_ref()),
            };
            gemm_with(m, n, k, Lhs::Mat(a), rhs, beta, &mut rows, ldc, true, ep);
            let mut tiles = c0;
            let (lhs, rhs) = (Lhs::Packed(pa.as_ref()), Rhs::Packed(pb.as_ref()));
            gemm_with(m, n, k, lhs, rhs, beta, &mut tiles, ldc, true, ep);
            for (i, (x, y)) in rows.iter().zip(&tiles).enumerate() {
                prop_assert!(
                    x.to_bits() == y.to_bits(),
                    "{m}x{n}x{k} B form {b_form} c[{i}]: {x} vs tiles {y}"
                );
            }
        }
    }
}
