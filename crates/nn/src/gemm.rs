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
//! loop that follows reads nothing else. [`PackedA`]/[`PackedB`] hold
//! a whole matrix in panel layout, and [`gemm_with`] takes them
//! through [`Lhs`]/[`Rhs`] as they are. A plain [`MatRef`] operand
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

/// Buffer length of a packed `m × k` A operand (see [`PackedA`]).
pub fn packed_a_len(m: usize, k: usize) -> usize {
    m.div_ceil(MR) * MR * k
}

/// Buffer length of a packed `k × n` B operand (see [`PackedB`]).
pub fn packed_b_len(k: usize, n: usize) -> usize {
    n.div_ceil(NR) * NR * k
}

/// An owned, fully packed A (left-hand) operand: MR-tall row strips per
/// K-slice, zero-padded to a multiple of `MR` rows. K-slice `s` (rows
/// `s·KC..` of the logical matrix) lives at offset `m_pad · s · KC`;
/// within a slice, strip `st` occupies `kc·MR` elements.
#[derive(Clone)]
pub struct PackedA {
    buf: Vec<f32>,
    m: usize,
    k: usize,
}

impl std::fmt::Debug for PackedA {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PackedA({}x{})", self.m, self.k)
    }
}

impl PackedA {
    /// Packs the `m × k` logical matrix `a`.
    pub fn pack(a: MatRef<'_>, m: usize, k: usize) -> Self {
        let mut buf = vec![0.0f32; packed_a_len(m, k)];
        pack_a_into(a, m, k, &mut buf);
        Self { buf, m, k }
    }

    /// The packed buffer, for tests that compare layouts directly.
    #[cfg(test)]
    pub(crate) fn as_slice(&self) -> &[f32] {
        &self.buf
    }

    /// A borrowed view for [`gemm_with`].
    pub fn as_ref(&self) -> PackedARef<'_> {
        PackedARef {
            data: &self.buf,
            m: self.m,
            k: self.k,
        }
    }
}

/// A borrowed packed A operand (see [`PackedA`]).
#[derive(Debug, Clone, Copy)]
pub struct PackedARef<'a> {
    data: &'a [f32],
    m: usize,
    k: usize,
}

impl<'a> PackedARef<'a> {
    /// Wraps an externally built packed buffer (layout of [`PackedA`]).
    pub fn new(data: &'a [f32], m: usize, k: usize) -> Self {
        debug_assert!(data.len() >= packed_a_len(m, k));
        Self { data, m, k }
    }

    /// The strips of rows `i0..i0+mc` (with `i0 % MR == 0`) of K-slice
    /// `pc..pc+kc`, in exactly the layout `macro_tile` consumes.
    #[inline]
    fn block(&self, i0: usize, pc: usize, kc: usize) -> &'a [f32] {
        debug_assert_eq!(i0 % MR, 0);
        let m_pad = self.m.div_ceil(MR) * MR;
        &self.data[m_pad * pc + (i0 / MR) * kc * MR..]
    }
}

/// An owned, fully packed B (right-hand) operand: NR-wide column strips
/// per K-slice, zero-padded to a multiple of `NR` columns. K-slice `s`
/// lives at offset `n_pad · s · KC`; within a slice, strip `st`
/// occupies `kc·NR` elements.
#[derive(Clone)]
pub struct PackedB {
    buf: Vec<f32>,
    k: usize,
    n: usize,
}

impl std::fmt::Debug for PackedB {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PackedB({}x{})", self.k, self.n)
    }
}

impl PackedB {
    /// Packs the `k × n` logical matrix `b`.
    pub fn pack(b: MatRef<'_>, k: usize, n: usize) -> Self {
        let mut buf = vec![0.0f32; packed_b_len(k, n)];
        pack_b_into(b, k, n, &mut buf);
        Self { buf, k, n }
    }

    /// The packed buffer, for tests that compare layouts directly.
    #[cfg(test)]
    pub(crate) fn as_slice(&self) -> &[f32] {
        &self.buf
    }

    /// A borrowed view for [`gemm_with`].
    pub fn as_ref(&self) -> PackedBRef<'_> {
        PackedBRef {
            data: &self.buf,
            k: self.k,
            n: self.n,
        }
    }
}

/// A borrowed packed B operand (see [`PackedB`]). Also constructible
/// over an external buffer, e.g. one filled by
/// [`crate::im2col::im2col_packed`].
#[derive(Debug, Clone, Copy)]
pub struct PackedBRef<'a> {
    data: &'a [f32],
    k: usize,
    n: usize,
}

impl<'a> PackedBRef<'a> {
    /// Wraps an externally built packed buffer (layout of [`PackedB`]).
    pub fn new(data: &'a [f32], k: usize, n: usize) -> Self {
        debug_assert!(data.len() >= packed_b_len(k, n));
        Self { data, k, n }
    }

    /// The panel of K-slice `pc..pc+kc`.
    #[inline]
    fn panel(&self, pc: usize, kc: usize) -> &'a [f32] {
        let n_pad = self.n.div_ceil(NR) * NR;
        &self.data[n_pad * pc..][..n_pad * kc]
    }
}

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
        debug_assert!(p.m == m && p.k == k, "packed A is {}x{}", p.m, p.k);
    }
    if let Rhs::Packed(p) = &b {
        debug_assert!(p.k == k && p.n == n, "packed B is {}x{}", p.k, p.n);
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
            pack_a_into(mat, m, k, &mut a_buf);
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
        let panel = b.panel(pc, kc);
        let mut ic = 0;
        while ic < m {
            let mc = MC.min(m - ic);
            macro_tile(
                a.block(i0 + ic, pc, kc),
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

/// Packs the whole `m × k` logical matrix `a` into `buf` (length ≥
/// [`packed_a_len`]) in the layout of [`PackedA`]: per K-slice,
/// `buf[strip][p][r]`, zero-padding the last strip.
fn pack_a_into(a: MatRef<'_>, m: usize, k: usize, buf: &mut [f32]) {
    let m_pad = m.div_ceil(MR) * MR;
    let mut pc = 0;
    while pc < k {
        let kc = KC.min(k - pc);
        let slice = &mut buf[m_pad * pc..];
        for strip in 0..m_pad / MR {
            let dst = &mut slice[strip * kc * MR..][..kc * MR];
            for p in 0..kc {
                for r in 0..MR {
                    let i = strip * MR + r;
                    dst[p * MR + r] = if i < m { a.at(i, pc + p) } else { 0.0 };
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
            let panel = b.panel(pc, kc);
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
