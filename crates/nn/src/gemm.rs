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
//!        N                 for pc in K step KC:        ┌── packed B panel
//!   ┌─────────┐              pack B[pc..pc+KC][0..N]   │   KC × N, NR-wide
//!   │    B    │ K            for ic in M step MC:      │   column strips
//!   └─────────┘                pack A[ic..+MC][pc..]   ├── packed A block
//! M ┌──┐┌─────────┐            for each MR×NR tile:    │   MC × KC, MR-tall
//!   │A ││    C    │              micro-kernel          │   row strips
//!   └──┘└─────────┘                                    └── both zero-padded
//! ```
//!
//! Blocking parameters: `MR×NR = 4×16` register tile (8 accumulator
//! vectors of 8 `f32` on AVX2-class hardware), `MC = 64` rows,
//! `KC = 256` — an A block of 64 KiB and a B panel that stays resident
//! in L1/L2 for the matrix sizes this crate meets. The tile itself
//! runs through [`eml_simd::madd_tile_f32`]: a runtime-dispatched AVX2
//! kernel where the CPU has it (the baseline x86-64 target only
//! auto-vectorises 4-wide), with the original safe scalar formulation
//! as fallback and oracle — every tier issues the identical
//! multiply/add sequence, so tier selection never changes results. Panels are padded to multiples of `MR`/`NR`
//! with zeros so the micro-kernel has no edge cases; the write-back
//! masks the padding.
//!
//! # Pre-packed operands
//!
//! Packing is where small products spend most of their time, so either
//! operand can be supplied **already packed**: [`PackedA`]/[`PackedB`]
//! hold a whole matrix in panel layout and [`gemm_with`] consumes them
//! through [`Lhs`]/[`Rhs`] without touching the pack buffers. The
//! layers exploit this twice — weight matrices are packed once per
//! weight version and cached (invalidated on update/width/precision
//! changes), and [`crate::im2col::im2col_packed`] lowers convolution
//! inputs *directly* into packed-B layout, eliminating the separate
//! `pack_b` pass from the convolution hot path entirely.
//!
//! # Fused epilogue
//!
//! [`Epilogue`] folds the per-row or per-column bias add (and
//! optionally a ReLU) into the final write-back of the last K-slice, so
//! `Out = W·im2col(x) + b` is one pass over the output instead of two.
//! The fused result is bit-identical to the separate passes: the write
//! back performs the same `acc` store followed by the same `+ bias` add
//! the standalone pass would.
//!
//! Pack buffers for [`MatRef`] operands are thread-local and only ever
//! grow. Under the pooled `rayon` stand-in worker threads are
//! persistent, so steady-state calls — serial *and* parallel — do no
//! heap allocation beyond what the caller passes in.

use std::cell::RefCell;

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
        let m_pad = m.div_ceil(MR) * MR;
        let mut buf = vec![0.0f32; packed_a_len(m, k)];
        let mut pc = 0;
        while pc < k {
            let kc = KC.min(k - pc);
            pack_a(a, 0, m, pc, kc, &mut buf[m_pad * pc..]);
            pc += kc;
        }
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
        let n_pad = n.div_ceil(NR) * NR;
        let mut buf = vec![0.0f32; packed_b_len(k, n)];
        let mut pc = 0;
        while pc < k {
            let kc = KC.min(k - pc);
            pack_b(b, pc, kc, n, &mut buf[n_pad * pc..]);
            pc += kc;
        }
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
    /// A plain matrix view; packed internally per block.
    Mat(MatRef<'a>),
    /// An already packed operand; used as-is.
    Packed(PackedARef<'a>),
}

/// The right-hand operand of [`gemm_with`].
#[derive(Debug, Clone, Copy)]
pub enum Rhs<'a> {
    /// A plain matrix view; packed internally per K-slice.
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

    /// [`Epilogue::apply`] on one full register-tile row; the fixed
    /// width lets the compiler vectorise the adds.
    #[inline]
    fn apply_tile_row(&self, seg: &mut [f32; NR], row: usize, col0: usize) {
        match self.bias {
            Some(Bias::Row(b)) => {
                let bv = b[row];
                for v in seg.iter_mut() {
                    *v += bv;
                }
            }
            Some(Bias::Col(b)) => {
                let b: &[f32; NR] = b[col0..col0 + NR].try_into().expect("NR columns");
                for (v, &bv) in seg.iter_mut().zip(b) {
                    *v += bv;
                }
            }
            None => {}
        }
        if self.relu {
            for v in seg.iter_mut() {
                *v = v.max(0.0);
            }
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
                *v = v.max(0.0);
            }
        }
    }
}

thread_local! {
    /// Per-thread (packed A, packed B) buffers; grown once, then reused.
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
/// Packed operands skip the internal pack step entirely — with both
/// operands packed the hot loop is the micro-kernel plus the masked
/// write-back and nothing else.
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
    let workers = crate::workers::worker_count();
    if parallel && workers > 1 && m * n * k >= PAR_MIN_WORK && m >= 2 * MR {
        gemm_parallel(m, n, k, a, b, beta, c, ldc, workers, ep);
    } else {
        gemm_serial(0, m, n, k, a, b, beta, c, ldc, ep);
    }
}

/// Parallel blocked GEMM: per K-slice, the calling thread provides the
/// B panel (packing it first unless pre-packed), then `M` bands fan out
/// across workers, each packing (or slicing) its own A blocks and
/// writing a disjoint band of `C`.
#[allow(clippy::too_many_arguments)]
fn gemm_parallel(
    m: usize,
    n: usize,
    k: usize,
    a: Lhs<'_>,
    b: Rhs<'_>,
    beta: f32,
    c: &mut [f32],
    ldc: usize,
    workers: usize,
    ep: Epilogue<'_>,
) {
    // Band height: even split over workers, rounded up to MR.
    let band = m.div_ceil(workers).div_ceil(MR) * MR;
    // Take the B buffer *out* of the thread-local rather than holding a
    // RefCell borrow across the scope: with a work-stealing runtime the
    // calling thread may execute one of its own `band_tiles` tasks,
    // which borrows the same thread-local cell.
    let n_pad = n.div_ceil(NR) * NR;
    let mut pb = match b {
        Rhs::Mat(_) => {
            let mut pb = PACK_BUFS.with(|bufs| std::mem::take(&mut bufs.borrow_mut().1));
            pb.resize((KC * n_pad).max(pb.len()), 0.0);
            pb
        }
        Rhs::Packed(_) => Vec::new(),
    };

    let mut pc = 0;
    while pc < k {
        let kc = KC.min(k - pc);
        let pb_shared: &[f32] = match b {
            Rhs::Packed(p) => p.panel(pc, kc),
            Rhs::Mat(mat) => {
                pack_b(mat, pc, kc, n, &mut pb);
                &pb
            }
        };
        // Accumulate after the first K-slice regardless of beta.
        let slice_beta = if pc == 0 { beta } else { 1.0 };
        let last = pc + kc == k;
        rayon::scope(|s| {
            let mut rest = &mut c[..];
            let mut i0 = 0;
            while i0 < m {
                let rows = band.min(m - i0);
                let split = (rows * ldc).min(rest.len());
                let (band_c, tail) = rest.split_at_mut(split);
                s.spawn(move |_| {
                    band_tiles(
                        i0, rows, n, pc, kc, a, pb_shared, slice_beta, band_c, ldc, last, ep,
                    );
                });
                rest = tail;
                i0 += rows;
            }
        });
        pc += kc;
    }
    if let Rhs::Mat(_) = b {
        PACK_BUFS.with(|bufs| bufs.borrow_mut().1 = pb);
    }
}

/// One worker's share of a K-slice: packs (or slices) its own A blocks
/// against the shared B panel.
#[allow(clippy::too_many_arguments)]
fn band_tiles(
    i0: usize,
    m: usize,
    n: usize,
    pc: usize,
    kc: usize,
    a: Lhs<'_>,
    pb: &[f32],
    beta: f32,
    c: &mut [f32],
    ldc: usize,
    last: bool,
    ep: Epilogue<'_>,
) {
    match a {
        Lhs::Packed(p) => {
            let mut ic = 0;
            while ic < m {
                let mc = MC.min(m - ic);
                macro_tile(
                    p.block(i0 + ic, pc, kc),
                    pb,
                    mc,
                    n,
                    kc,
                    beta,
                    &mut c[ic * ldc..],
                    ldc,
                    last,
                    i0 + ic,
                    ep,
                );
                ic += mc;
            }
        }
        Lhs::Mat(mat) => PACK_BUFS.with(|bufs| {
            let mut bufs = bufs.borrow_mut();
            let (pa, _) = &mut *bufs;
            pa.resize((MC * KC).max(pa.len()), 0.0);
            let mut ic = 0;
            while ic < m {
                let mc = MC.min(m - ic);
                pack_a(mat, i0 + ic, mc, pc, kc, pa);
                macro_tile(
                    pa,
                    pb,
                    mc,
                    n,
                    kc,
                    beta,
                    &mut c[ic * ldc..],
                    ldc,
                    last,
                    i0 + ic,
                    ep,
                );
                ic += mc;
            }
        }),
    }
}

/// The single-threaded blocked GEMM over rows `i0..i0+m` of the logical
/// product; `c` starts at row `i0`.
#[allow(clippy::too_many_arguments)]
fn gemm_serial(
    i0: usize,
    m: usize,
    n: usize,
    k: usize,
    a: Lhs<'_>,
    b: Rhs<'_>,
    beta: f32,
    c: &mut [f32],
    ldc: usize,
    ep: Epilogue<'_>,
) {
    // Fast path: both operands pre-packed — no thread-local traffic.
    if let (Lhs::Packed(pa), Rhs::Packed(pb)) = (&a, &b) {
        let mut pc = 0;
        while pc < k {
            let kc = KC.min(k - pc);
            let slice_beta = if pc == 0 { beta } else { 1.0 };
            let last = pc + kc == k;
            let panel = pb.panel(pc, kc);
            let mut ic = 0;
            while ic < m {
                let mc = MC.min(m - ic);
                macro_tile(
                    pa.block(i0 + ic, pc, kc),
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
        return;
    }
    PACK_BUFS.with(|bufs| {
        let mut bufs = bufs.borrow_mut();
        let (pa_buf, pb_buf) = &mut *bufs;
        let n_pad = n.div_ceil(NR) * NR;
        if matches!(a, Lhs::Mat(_)) {
            pa_buf.resize((MC * KC).max(pa_buf.len()), 0.0);
        }
        if matches!(b, Rhs::Mat(_)) {
            pb_buf.resize((KC * n_pad).max(pb_buf.len()), 0.0);
        }

        let mut pc = 0;
        while pc < k {
            let kc = KC.min(k - pc);
            let panel: &[f32] = match b {
                Rhs::Packed(p) => p.panel(pc, kc),
                Rhs::Mat(mat) => {
                    pack_b(mat, pc, kc, n, pb_buf);
                    pb_buf
                }
            };
            // Accumulate after the first K-slice regardless of beta.
            let slice_beta = if pc == 0 { beta } else { 1.0 };
            let last = pc + kc == k;
            let mut ic = 0;
            while ic < m {
                let mc = MC.min(m - ic);
                let block: &[f32] = match a {
                    Lhs::Packed(p) => p.block(i0 + ic, pc, kc),
                    Lhs::Mat(mat) => {
                        pack_a(mat, i0 + ic, mc, pc, kc, pa_buf);
                        pa_buf
                    }
                };
                macro_tile(
                    block,
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
    });
}

/// Packs `A[i0..i0+mc][pc..pc+kc]` into MR-tall row strips:
/// `pa[strip][p][r]`, zero-padding the last strip.
fn pack_a(a: MatRef<'_>, i0: usize, mc: usize, pc: usize, kc: usize, pa: &mut [f32]) {
    let strips = mc.div_ceil(MR);
    for strip in 0..strips {
        let base = strip * kc * MR;
        for p in 0..kc {
            for r in 0..MR {
                let i = strip * MR + r;
                pa[base + p * MR + r] = if i < mc { a.at(i0 + i, pc + p) } else { 0.0 };
            }
        }
    }
}

/// Packs `B[pc..pc+kc][0..n]` into NR-wide column strips:
/// `pb[strip][p][c]`, zero-padding the last strip.
fn pack_b(b: MatRef<'_>, pc: usize, kc: usize, n: usize, pb: &mut [f32]) {
    let strips = n.div_ceil(NR);
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
}

/// Runs the micro-kernel over every MR×NR tile of an `mc × n` block of
/// `C` (rows start at `c[0]`). `row0` is the global row index of
/// `c[0]`; when `last` is set the epilogue is applied to each row
/// segment right after its write-back.
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
            let mut acc = micro_kernel(pa_strip, pb_strip, kc);
            if rows == MR && cols == NR {
                // Full-tile fast path: fixed-size rows, so the copies
                // and adds compile to straight vector code instead of
                // length-dispatched `memmove`s.
                for (r, vals) in acc.iter_mut().enumerate() {
                    let dst: &mut [f32; NR] = (&mut c[(rs * MR + r) * ldc + cs * NR..][..NR])
                        .try_into()
                        .expect("NR-wide row");
                    if beta != 0.0 {
                        for (v, &d) in vals.iter_mut().zip(dst.iter()) {
                            *v += d;
                        }
                    }
                    if apply_ep {
                        ep.apply_tile_row(vals, row0 + rs * MR + r, cs * NR);
                    }
                    *dst = *vals;
                }
                continue;
            }
            // Edge tiles: write-back masks the zero padding.
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

/// The register-tiled core: one MR×NR tile of `A_strip · B_strip`,
/// dispatched through [`eml_simd::madd_tile_f32`] — the runtime-picked
/// AVX2 tier on CPUs that have it, otherwise the scalar form that is
/// this kernel's original safe-Rust formulation (the baseline x86-64
/// target auto-vectorises it 4-wide). Every tier issues the identical
/// multiply/add sequence, so the tile is bit-identical across tiers.
#[inline]
fn micro_kernel(pa_strip: &[f32], pb_strip: &[f32], kc: usize) -> [[f32; NR]; MR] {
    let mut acc = [[0.0f32; NR]; MR];
    eml_simd::madd_tile_f32(pa_strip, pb_strip, kc, &mut acc);
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
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
}
