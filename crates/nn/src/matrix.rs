//! A minimal row-major `f32` matrix with the handful of operations a dense
//! MLP needs: GEMM (plain, and with either operand transposed), row-vector
//! broadcast addition, and element-wise maps.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Parameters whose shapes do not fit together: the error of the
/// validated constructors [`Matrix::try_from_vec`],
/// [`Mlp::from_layers`](crate::Mlp::from_layers) and
/// [`StandardScaler::from_parts`](crate::StandardScaler::from_parts).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError(pub(crate) String);

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ShapeError {}

/// Row-major `f32` matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a zero-filled matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be nonzero");
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols` or either dimension is zero.
    #[must_use]
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Matrix {
        Matrix::try_from_vec(rows, cols, data).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Matrix::from_vec`] for untrusted shapes: returns an error where
    /// `from_vec` panics.
    ///
    /// # Errors
    ///
    /// [`ShapeError`] if either dimension is zero or
    /// `data.len() != rows * cols`.
    pub fn try_from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Matrix, ShapeError> {
        if rows == 0 || cols == 0 {
            return Err(ShapeError("matrix dimensions must be nonzero".to_owned()));
        }
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(ShapeError(format!(
                "data length {} does not match {rows}x{cols}",
                data.len()
            )));
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix by evaluating `f(row, col)`.
    #[must_use]
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Matrix {
        let mut m = Matrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.data[r * cols + c] = f(r, c);
            }
        }
        m
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of the row-major backing storage.
    #[must_use]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the row-major backing storage.
    #[must_use]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[must_use]
    pub fn get(&self, row: usize, col: usize) -> f32 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col]
    }

    /// Element setter.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&mut self, row: usize, col: usize, value: f32) {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col] = value;
    }

    /// Borrow of one row.
    ///
    /// # Panics
    ///
    /// Panics if `row >= rows`.
    #[must_use]
    pub fn row(&self, row: usize) -> &[f32] {
        assert!(row < self.rows, "row index out of bounds");
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Mutable borrow of one row.
    ///
    /// # Panics
    ///
    /// Panics if `row >= rows`.
    #[must_use]
    pub fn row_mut(&mut self, row: usize) -> &mut [f32] {
        assert!(row < self.rows, "row index out of bounds");
        let cols = self.cols;
        &mut self.data[row * cols..(row + 1) * cols]
    }

    /// `self · other`, via the GEMM in [`gemm`].
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.rows`.
    #[must_use]
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        matmul_acc(&mut out.data, &self.data, self.rows, other);
        out
    }

    /// `selfᵀ · other` without materializing the transpose. Used for weight
    /// gradients (`Xᵀ · dY`).
    ///
    /// # Panics
    ///
    /// Panics if `self.rows != other.rows`.
    #[must_use]
    pub fn t_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "t_matmul shape mismatch: ({}x{})ᵀ · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.cols, other.cols);
        gemm::run(
            &mut out.data,
            gemm::Operand::transposed(&self.data, self.cols),
            gemm::Operand::plain(&other.data, other.cols),
            gemm::Shape {
                m: self.cols,
                n: other.cols,
                k: self.rows,
            },
        );
        out
    }

    /// `self · otherᵀ` without materializing the transpose. Used for input
    /// gradients (`dY · Wᵀ`).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.cols`.
    #[must_use]
    pub fn matmul_t(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_t shape mismatch: {}x{} · ({}x{})ᵀ",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.rows);
        gemm::run(
            &mut out.data,
            gemm::Operand::plain(&self.data, self.cols),
            gemm::Operand::transposed(&other.data, other.cols),
            gemm::Shape {
                m: self.rows,
                n: other.rows,
                k: self.cols,
            },
        );
        out
    }

    /// Textbook ikj GEMM kept as the correctness oracle for tests and the
    /// performance baseline for benches. Unlike the pre-optimization
    /// implementation it never skips zero multiplicands, so NaN and ±inf
    /// in the right operand propagate per IEEE semantics.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.rows`.
    #[must_use]
    pub fn matmul_reference(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            let a_row = &self.data[i * self.cols..(i + 1) * self.cols];
            let out_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
            for (k, &a_ik) in a_row.iter().enumerate() {
                let b_row = &other.data[k * other.cols..(k + 1) * other.cols];
                for (o, &b_kj) in out_row.iter_mut().zip(b_row) {
                    *o += a_ik * b_kj;
                }
            }
        }
        out
    }

    /// Adds `bias` (length = `cols`) to every row.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != cols`.
    pub fn add_row_broadcast(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "bias length mismatch");
        for row in self.data.chunks_exact_mut(self.cols) {
            for (v, &b) in row.iter_mut().zip(bias) {
                *v += b;
            }
        }
    }

    /// Sums each column into a vector of length `cols` (used for bias
    /// gradients).
    #[must_use]
    pub fn column_sums(&self) -> Vec<f32> {
        let mut sums = vec![0.0f32; self.cols];
        for row in self.data.chunks_exact(self.cols) {
            for (s, &v) in sums.iter_mut().zip(row) {
                *s += v;
            }
        }
        sums
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Frobenius norm.
    #[must_use]
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }
}

/// `out += a · b`, where `a` is `rows × b.rows()` and `out` is
/// `rows × b.cols()`, both row-major: [`Matrix::matmul`]'s product into a
/// buffer the caller owns (and has zeroed, for the plain product).
///
/// # Panics
///
/// Panics if `a` or `out` has the wrong length.
pub(crate) fn matmul_acc(out: &mut [f32], a: &[f32], rows: usize, b: &Matrix) {
    assert!(
        a.len() == rows * b.rows && out.len() == rows * b.cols,
        "matmul_acc shape mismatch: {} and {} floats for {rows} rows · {}x{}",
        a.len(),
        out.len(),
        b.rows,
        b.cols
    );
    gemm::run(
        out,
        gemm::Operand::plain(a, b.rows),
        gemm::Operand::plain(&b.data, b.cols),
        gemm::Shape {
            m: rows,
            n: b.cols,
            k: b.rows,
        },
    );
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)
    }
}

/// Cache-blocked GEMM shared by [`Matrix::matmul`], [`Matrix::t_matmul`]
/// and [`Matrix::matmul_t`].
///
/// The computation follows the classic three-level blocking scheme: the
/// output is tiled into MC×NC panels, the reduction dimension into KC
/// slabs. For each slab the A block is packed into MR×kc micro-panels
/// (packing absorbs a transposed A). A plain row-major B is read in place:
/// the micro-kernel walks B's rows with stride `ldb`, so the constant
/// weights of an inference `x·W` are never copied. Only a transposed B and
/// the ragged last NR columns of a plain one are packed into kc×NR
/// micro-panels. Both pack buffers are sized to the blocks the problem
/// actually has, so a few-row product does work proportional to its
/// shape. The register microkernel accumulates an MR×NR tile of C across a
/// full slab without touching C memory; the tile is then added to C. How
/// B is read does not change the arithmetic: every output element is the
/// same FMA chain in the same slab order either way. Large products are
/// additionally split across threads by output row blocks; small ones
/// stay serial because thread spawn costs more than the multiply.
///
/// A product with fewer than 2·MR rows, a plain A and a plain B (every
/// inference `x·W` the MLP runs, at a few rows) skips all of that on
/// AVX2+FMA hosts: [`few_rows`] broadcasts straight from A's rows and
/// reads B's rows in place, R rows × 16 to 32 columns per register tile,
/// with no packing and no padding to MR rows. From MR rows up the product
/// runs as two few-row passes over disjoint row blocks, the first taking
/// the larger half: one more row costs one more row's work, not the
/// packed path's packing and padding. Each output element is still
/// one FMA chain from zero over the slab's `p` in order, added to C once
/// per KC slab, so the result is the 6×16 kernel's bit for bit.
mod gemm {
    /// Micro-tile rows held in registers (6×16 fills the 16 AVX2 `ymm`
    /// registers: 12 accumulators + 2 B vectors + 1 broadcast).
    const MR: usize = 6;
    /// Micro-tile columns held in registers (two 8-lane vectors).
    const NR: usize = 16;
    /// Row-block size of the packed A block (L2-resident: MC·KC floats).
    const MC: usize = 96;
    /// Reduction-slab size (packed panels stay cache-resident).
    const KC: usize = 256;
    /// Most rows a plain product runs on the few-row kernel: two passes
    /// of at most MR rows each.
    const FEW_ROWS_MAX: usize = 2 * MR - 1;
    /// Column-panel size of one B block.
    const NC: usize = 512;
    /// Below this many FLOPs (2·m·n·k) the product stays single-threaded:
    /// spawning scoped threads costs more than the whole multiply.
    const PARALLEL_FLOP_THRESHOLD: f64 = 2.0e7;

    /// Problem dimensions: C is m×n, the reduction has length k.
    #[derive(Debug, Clone, Copy)]
    pub struct Shape {
        pub m: usize,
        pub n: usize,
        pub k: usize,
    }

    /// A row-major operand, optionally consumed transposed (packing
    /// absorbs the transpose, so no materialization happens).
    #[derive(Debug, Clone, Copy)]
    pub struct Operand<'a> {
        data: &'a [f32],
        stride: usize,
        transposed: bool,
    }

    impl<'a> Operand<'a> {
        /// Operand read as stored.
        pub fn plain(data: &'a [f32], stride: usize) -> Operand<'a> {
            Operand {
                data,
                stride,
                transposed: false,
            }
        }

        /// Operand read transposed: logical (i, j) is stored (j, i).
        pub fn transposed(data: &'a [f32], stride: usize) -> Operand<'a> {
            Operand {
                data,
                stride,
                transposed: true,
            }
        }

        /// The same storage read with the opposite orientation.
        fn flipped(self) -> Operand<'a> {
            Operand {
                transposed: !self.transposed,
                ..self
            }
        }
    }

    /// Cached handles for the `nn.gemm.dispatch.*` path counters
    /// (scalar / AVX2 / threaded), bumped once per [`run`] call.
    struct DispatchCounters {
        scalar: std::sync::Arc<neusight_obs::Counter>,
        avx2: std::sync::Arc<neusight_obs::Counter>,
        threaded: std::sync::Arc<neusight_obs::Counter>,
    }

    fn dispatch_counters() -> &'static DispatchCounters {
        static COUNTERS: std::sync::OnceLock<DispatchCounters> = std::sync::OnceLock::new();
        COUNTERS.get_or_init(|| DispatchCounters {
            scalar: neusight_obs::metrics::counter("nn.gemm.dispatch.scalar"),
            avx2: neusight_obs::metrics::counter("nn.gemm.dispatch.avx2"),
            threaded: neusight_obs::metrics::counter("nn.gemm.dispatch.threaded"),
        })
    }

    /// Whether the AVX2+FMA micro-kernel will be selected on this host.
    fn simd_kernel_available() -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }

    /// Computes `out += a · b` for zero-initialized `out` (row-major m×n),
    /// splitting row blocks across threads when the product is large
    /// enough to amortize the spawns.
    pub fn run(out: &mut [f32], a: Operand<'_>, b: Operand<'_>, shape: Shape) {
        let Shape { m, n, k } = shape;
        debug_assert_eq!(out.len(), m * n);
        let threads = worker_count(shape);
        if neusight_obs::enabled() {
            let counters = dispatch_counters();
            if threads > 1 {
                counters.threaded.inc();
            } else if simd_kernel_available() {
                counters.avx2.inc();
            } else {
                counters.scalar.inc();
            }
        }
        #[cfg(target_arch = "x86_64")]
        if m <= FEW_ROWS_MAX && !a.transposed && !b.transposed && simd_kernel_available() {
            if m < MR {
                few_rows(out, a, b, shape);
            } else {
                let top = m.div_ceil(2);
                let (top_out, bottom_out) = out.split_at_mut(top * n);
                few_rows(top_out, a, b, Shape { m: top, n, k });
                let bottom_a = Operand::plain(&a.data[top * a.stride..], a.stride);
                few_rows(bottom_out, bottom_a, b, Shape { m: m - top, n, k });
            }
            return;
        }
        if threads <= 1 {
            serial(out, a, b, shape, 0);
            return;
        }
        // Split the output into contiguous row blocks, one per worker; the
        // blocks are disjoint so each thread owns its slice of C.
        let rows_per = m.div_ceil(threads);
        std::thread::scope(|scope| {
            let mut rest = out;
            let mut row0 = 0;
            while row0 < m {
                let rows = rows_per.min(m - row0);
                let (block, tail) = rest.split_at_mut(rows * n);
                rest = tail;
                let start = row0;
                scope.spawn(move || {
                    serial(block, a, b, Shape { m: rows, n, k }, start);
                });
                row0 += rows;
            }
        });
    }

    /// Number of row-block workers for this problem size.
    fn worker_count(shape: Shape) -> usize {
        let flops = 2.0 * shape.m as f64 * shape.n as f64 * shape.k as f64;
        if flops < PARALLEL_FLOP_THRESHOLD {
            return 1;
        }
        let available = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        // No point splitting finer than one MR-row band per thread.
        available.min(shape.m.div_ceil(MR))
    }

    /// Blocked single-threaded GEMM over rows `[row_offset, row_offset+m)`
    /// of the logical A operand, writing a zero-based m×n `out` slice.
    fn serial(out: &mut [f32], a: Operand<'_>, b: Operand<'_>, shape: Shape, row_offset: usize) {
        let Shape { m, n, k } = shape;
        let kc_max = KC.min(k);
        let mut packed_a = vec![0.0f32; MC.min(m).next_multiple_of(MR) * kc_max];
        // A plain B is read in place except for its ragged last panel (NC
        // is a multiple of NR, so only the final column block has one); a
        // transposed B is packed whole, one block at a time.
        let packed_b_panels = if b.transposed {
            NC.min(n).div_ceil(NR)
        } else {
            usize::from(n % NR != 0)
        };
        let mut packed_b = vec![0.0f32; packed_b_panels * NR * kc_max];
        let mut j0 = 0;
        while j0 < n {
            let nc = NC.min(n - j0);
            let in_place = if b.transposed { 0 } else { nc / NR };
            let mut k0 = 0;
            while k0 < k {
                let kc = KC.min(k - k0);
                let jp = in_place * NR;
                pack(&mut packed_b, NR, b, k0, j0 + jp, kc, nc - jp);
                let block_b = BlockB {
                    b,
                    packed: &packed_b,
                    k0,
                    j0,
                    kc,
                    in_place,
                };
                let mut i0 = 0;
                while i0 < m {
                    let mc = MC.min(m - i0);
                    pack(&mut packed_a, MR, a.flipped(), k0, row_offset + i0, kc, mc);
                    multiply_block(out, &packed_a, &block_b, i0, mc, nc, n);
                    i0 += MC;
                }
                k0 += KC;
            }
            j0 += NC;
        }
    }

    /// Packs the kc×`width` block at logical (k0, c0) of `src` into
    /// consecutive k-major micro-panels of `r` columns (panel stride
    /// `kc·r`), zero-padding the last one to `r`. B is packed as stored; A
    /// is packed through its flipped view, so its rows become panel
    /// columns.
    fn pack(
        packed: &mut [f32],
        r: usize,
        src: Operand<'_>,
        k0: usize,
        c0: usize,
        kc: usize,
        width: usize,
    ) {
        let panels = packed.chunks_exact_mut(kc * r).take(width.div_ceil(r));
        for (t, panel) in panels.enumerate() {
            let cbase = c0 + t * r;
            let cols = r.min(width - t * r);
            if src.transposed {
                // Logical column c is stored row c: read each contiguously.
                for c in 0..cols {
                    let stored = &src.data[(cbase + c) * src.stride + k0..][..kc];
                    for (dst, &v) in panel[c..].iter_mut().step_by(r).zip(stored) {
                        *dst = v;
                    }
                }
                if cols < r {
                    for dst in panel.chunks_exact_mut(r) {
                        dst[cols..].fill(0.0);
                    }
                }
            } else {
                for (p, dst) in panel.chunks_exact_mut(r).enumerate() {
                    let row = (k0 + p) * src.stride + cbase;
                    dst[..cols].copy_from_slice(&src.data[row..row + cols]);
                    dst[cols..].fill(0.0);
                }
            }
        }
    }

    /// One kc×nc block of B as the micro-kernel reads it: the first
    /// `in_place` NR-wide panels straight from B's rows, the rest from
    /// `packed` (panel `in_place + t` at `t·kc·NR`).
    struct BlockB<'a> {
        b: Operand<'a>,
        packed: &'a [f32],
        k0: usize,
        j0: usize,
        kc: usize,
        in_place: usize,
    }

    impl BlockB<'_> {
        /// Panel `t` of the block (columns `[t·NR, t·NR+NR)`) and its row
        /// stride, trimmed to the `(kc-1)·stride + NR` floats it spans.
        fn panel(&self, t: usize) -> (&[f32], usize) {
            if t < self.in_place {
                let ldb = self.b.stride;
                let start = self.k0 * ldb + self.j0 + t * NR;
                (&self.b.data[start..][..(self.kc - 1) * ldb + NR], ldb)
            } else {
                let start = (t - self.in_place) * self.kc * NR;
                (&self.packed[start..][..self.kc * NR], NR)
            }
        }
    }

    /// Multiplies the packed mc×kc A block by the kc×nc B block,
    /// accumulating into the (i0, j0) tile of `out` (row stride `n`).
    fn multiply_block(
        out: &mut [f32],
        packed_a: &[f32],
        block_b: &BlockB<'_>,
        i0: usize,
        mc: usize,
        nc: usize,
        n: usize,
    ) {
        let kc = block_b.kc;
        // B panel outer, A panel inner: one B panel stays in L1 while the
        // packed A block streams past it.
        for (tb, jbase) in (0..nc).step_by(NR).enumerate() {
            let (b_panel, ldb) = block_b.panel(tb);
            let width = NR.min(nc - jbase);
            for (ta, ibase) in (0..mc).step_by(MR).enumerate() {
                let a_panel = &packed_a[ta * MR * kc..][..kc * MR];
                let height = MR.min(mc - ibase);
                let mut acc = [[0.0f32; NR]; MR];
                micro_kernel(a_panel, b_panel, ldb, kc, &mut acc);
                for mi in 0..height {
                    let row = &mut out[(i0 + ibase + mi) * n + block_b.j0 + jbase..][..width];
                    for (o, v) in row.iter_mut().zip(&acc[mi][..width]) {
                        *o += v;
                    }
                }
            }
        }
    }

    /// Rank-kc update of one MR×NR register tile from a packed A
    /// micro-panel and a B panel whose rows are `ldb` floats apart,
    /// dispatching to the FMA kernel where the CPU supports it.
    #[inline]
    fn micro_kernel(
        a_panel: &[f32],
        b_panel: &[f32],
        ldb: usize,
        kc: usize,
        acc: &mut [[f32; NR]; MR],
    ) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            // SAFETY: AVX2 and FMA were just detected, and the kernel
            // asserts its reads stay inside the slices: `kc·MR` floats of
            // `a_panel` and `(kc-1)·ldb + NR` of `b_panel`.
            unsafe { micro_kernel_avx2(a_panel, b_panel, ldb, kc, acc) };
            return;
        }
        micro_kernel_generic(a_panel, b_panel, ldb, kc, acc);
    }

    /// Portable micro-kernel; the autovectorizer handles the NR lanes.
    #[cfg_attr(target_arch = "x86_64", allow(dead_code))]
    fn micro_kernel_generic(
        a_panel: &[f32],
        b_panel: &[f32],
        ldb: usize,
        kc: usize,
        acc: &mut [[f32; NR]; MR],
    ) {
        for p in 0..kc {
            let b_row: &[f32; NR] = b_panel[p * ldb..p * ldb + NR].try_into().unwrap();
            let a_col: &[f32; MR] = a_panel[p * MR..p * MR + MR].try_into().unwrap();
            for mi in 0..MR {
                let a_val = a_col[mi];
                for nj in 0..NR {
                    acc[mi][nj] += a_val * b_row[nj];
                }
            }
        }
    }

    /// AVX2+FMA micro-kernel: the 6×16 tile lives in 12 `ymm` accumulators,
    /// each reduction step is two B-row loads, six broadcasts and twelve
    /// fused multiply-adds.
    ///
    /// Each output element is still one sequential chain over `p`, so
    /// results do not depend on the element's position in the tile (the
    /// basis of the batched-prediction bitwise guarantees) — though FMA
    /// rounding differs from the generic kernel's separate multiply+add.
    ///
    /// # Panics
    ///
    /// Panics unless `kc > 0`, `a_panel` holds `kc·MR` floats and
    /// `b_panel` holds `(kc-1)·ldb + NR`: the pointer reads below stay
    /// inside the slices because of this check, in release builds too.
    ///
    /// # Safety
    ///
    /// Caller must ensure the CPU supports AVX2 and FMA.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn micro_kernel_avx2(
        a_panel: &[f32],
        b_panel: &[f32],
        ldb: usize,
        kc: usize,
        acc: &mut [[f32; NR]; MR],
    ) {
        use std::arch::x86_64::{
            _mm256_broadcast_ss, _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_setzero_ps,
            _mm256_storeu_ps,
        };
        assert!(
            kc > 0 && a_panel.len() >= kc * MR && b_panel.len() >= (kc - 1) * ldb + NR,
            "micro-kernel panels too short for kc={kc}, ldb={ldb}"
        );
        let mut acc_v = [[_mm256_setzero_ps(); 2]; MR];
        let a_ptr = a_panel.as_ptr();
        let b_ptr = b_panel.as_ptr();
        for p in 0..kc {
            let b0 = _mm256_loadu_ps(b_ptr.add(p * ldb));
            let b1 = _mm256_loadu_ps(b_ptr.add(p * ldb + 8));
            for (mi, av) in acc_v.iter_mut().enumerate() {
                let a_val = _mm256_broadcast_ss(&*a_ptr.add(p * MR + mi));
                av[0] = _mm256_fmadd_ps(a_val, b0, av[0]);
                av[1] = _mm256_fmadd_ps(a_val, b1, av[1]);
            }
        }
        for (av, row) in acc_v.iter().zip(acc.iter_mut()) {
            _mm256_storeu_ps(row.as_mut_ptr(), av[0]);
            _mm256_storeu_ps(row.as_mut_ptr().add(8), av[1]);
        }
    }

    /// `out += a · b` for at most MR rows of a plain A and a plain B, one
    /// KC slab at a time, on the AVX2+FMA few-row kernel. Each tile is as
    /// wide as lets its accumulators, B vectors and A broadcast share the
    /// 16 `ymm` registers without spilling: one or two rows take 32
    /// columns, three rows 24, four to six rows 16. All rows share each
    /// B load, so B is read once per slab.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < m <= MR` and the host has AVX2 and FMA.
    #[cfg(target_arch = "x86_64")]
    fn few_rows(out: &mut [f32], a: Operand<'_>, b: Operand<'_>, shape: Shape) {
        assert!(
            simd_kernel_available(),
            "the few-row kernel needs AVX2 and FMA"
        );
        let mut k0 = 0;
        while k0 < shape.k {
            let kc = KC.min(shape.k - k0);
            let slab = Slab {
                k0,
                kc,
                lda: a.stride,
                ldb: b.stride,
                n: shape.n,
            };
            // SAFETY: AVX2 and FMA were just checked, and the kernel
            // asserts its slices cover the rows and columns it reads.
            unsafe {
                match shape.m {
                    1 => few_rows_avx2::<1, 4>(out, a.data, b.data, slab),
                    2 => few_rows_avx2::<2, 4>(out, a.data, b.data, slab),
                    3 => few_rows_avx2::<3, 3>(out, a.data, b.data, slab),
                    4 => few_rows_avx2::<4, 2>(out, a.data, b.data, slab),
                    5 => few_rows_avx2::<5, 2>(out, a.data, b.data, slab),
                    6 => few_rows_avx2::<6, 2>(out, a.data, b.data, slab),
                    m => panic!("the few-row kernel takes 1 to {MR} rows, not {m}"),
                }
            }
            k0 += KC;
        }
    }

    /// One KC slab of a few-row product: reduction rows `[k0, k0 + kc)`,
    /// A's and B's row strides, and the output width `n` (C's stride).
    #[cfg(target_arch = "x86_64")]
    #[derive(Clone, Copy)]
    struct Slab {
        k0: usize,
        kc: usize,
        lda: usize,
        ldb: usize,
        n: usize,
    }

    /// The few-row kernel over one slab: R rows of C, swept in tiles of
    /// V 8-lane vectors, then single vectors, the last one masked.
    ///
    /// # Panics
    ///
    /// Panics unless `kc > 0`, `n > 0`, `out` holds R rows of `n`, `a`
    /// holds columns `[k0, k0 + kc)` of R rows `lda` apart and `b` holds
    /// `n` columns of rows `[k0, k0 + kc)`, `ldb` apart: the pointer
    /// reads below stay inside the slices because of this check.
    ///
    /// # Safety
    ///
    /// Caller must ensure the CPU supports AVX2 and FMA.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn few_rows_avx2<const R: usize, const V: usize>(
        out: &mut [f32],
        a: &[f32],
        b: &[f32],
        slab: Slab,
    ) {
        use std::arch::x86_64::{_mm256_cmpgt_epi32, _mm256_set1_epi32, _mm256_setr_epi32};
        let Slab {
            k0,
            kc,
            lda,
            ldb,
            n,
        } = slab;
        assert!(
            kc > 0
                && n > 0
                && out.len() >= R * n
                && a.len() >= (R - 1) * lda + k0 + kc
                && b.len() >= (k0 + kc - 1) * ldb + n,
            "few-row operands too short for {R} rows, k0={k0}, kc={kc}, n={n}"
        );
        let a_ptr = a.as_ptr().add(k0);
        let b_ptr = b.as_ptr().add(k0 * ldb);
        let c_ptr = out.as_mut_ptr();
        let all = _mm256_set1_epi32(-1);
        let mut j = 0;
        while j + 8 * V <= n {
            few_rows_tile::<R, V, false>(a_ptr, lda, b_ptr.add(j), ldb, kc, c_ptr.add(j), n, all);
            j += 8 * V;
        }
        while j + 8 <= n {
            few_rows_tile::<R, 1, false>(a_ptr, lda, b_ptr.add(j), ldb, kc, c_ptr.add(j), n, all);
            j += 8;
        }
        if j < n {
            // Lane i is live while i < n - j (at most 7 lanes).
            let live = _mm256_set1_epi32(i32::try_from(n - j).expect("fewer than 8 lanes"));
            let mask = _mm256_cmpgt_epi32(live, _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
            few_rows_tile::<R, 1, true>(a_ptr, lda, b_ptr.add(j), ldb, kc, c_ptr.add(j), n, mask);
        }
    }

    /// One R × 8·V register tile: `c[i][..] += Σ_p a[i][p] · b[p][..]` with
    /// each element one FMA chain over `p` from zero. With `MASKED`, the
    /// last vector reads and writes only the lanes `mask` selects.
    ///
    /// # Safety
    ///
    /// AVX2 and FMA must be available, and `a` (R rows, `lda` apart,
    /// `kc` floats each), `b` (`kc` rows `ldb` apart, 8·V floats each, or
    /// the masked lanes of the last vector) and `c` (R rows `ldc` apart,
    /// as wide as `b`'s rows) must be valid.
    #[cfg(target_arch = "x86_64")]
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn few_rows_tile<const R: usize, const V: usize, const MASKED: bool>(
        a: *const f32,
        lda: usize,
        b: *const f32,
        ldb: usize,
        kc: usize,
        c: *mut f32,
        ldc: usize,
        mask: std::arch::x86_64::__m256i,
    ) {
        use std::arch::x86_64::{
            _mm256_add_ps, _mm256_broadcast_ss, _mm256_fmadd_ps, _mm256_loadu_ps,
            _mm256_maskload_ps, _mm256_maskstore_ps, _mm256_setzero_ps, _mm256_storeu_ps,
        };
        let masked = |v: usize| MASKED && v + 1 == V;
        let mut acc = [[_mm256_setzero_ps(); V]; R];
        for p in 0..kc {
            let row = b.add(p * ldb);
            let mut b_v = [_mm256_setzero_ps(); V];
            for (v, bv) in b_v.iter_mut().enumerate() {
                *bv = if masked(v) {
                    _mm256_maskload_ps(row.add(8 * v), mask)
                } else {
                    _mm256_loadu_ps(row.add(8 * v))
                };
            }
            for (i, acc_i) in acc.iter_mut().enumerate() {
                let a_val = _mm256_broadcast_ss(&*a.add(i * lda + p));
                for (av, &bv) in acc_i.iter_mut().zip(&b_v) {
                    *av = _mm256_fmadd_ps(a_val, bv, *av);
                }
            }
        }
        for (i, acc_i) in acc.iter().enumerate() {
            let row = c.add(i * ldc);
            for (v, &av) in acc_i.iter().enumerate() {
                let dst = row.add(8 * v);
                if masked(v) {
                    let sum = _mm256_add_ps(_mm256_maskload_ps(dst, mask), av);
                    _mm256_maskstore_ps(dst, mask, sum);
                } else {
                    _mm256_storeu_ps(dst, _mm256_add_ps(_mm256_loadu_ps(dst), av));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn a23() -> Matrix {
        Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    }

    fn b32() -> Matrix {
        Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0])
    }

    #[test]
    fn matmul_known_result() {
        let c = a23().matmul(&b32());
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn t_matmul_equals_explicit_transpose() {
        // (2x3)ᵀ · (2x2) = 3x2
        let a = a23();
        let d = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let got = a.t_matmul(&d);
        let a_t = Matrix::from_fn(3, 2, |r, c| a.get(c, r));
        let expected = a_t.matmul(&d);
        assert_eq!(got, expected);
    }

    #[test]
    fn matmul_t_equals_explicit_transpose() {
        // (2x3) · (4x3)ᵀ = 2x4
        let a = a23();
        let b = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f32);
        let got = a.matmul_t(&b);
        let b_t = Matrix::from_fn(3, 4, |r, c| b.get(c, r));
        let expected = a.matmul(&b_t);
        assert_eq!(got, expected);
    }

    #[test]
    fn broadcast_and_column_sums() {
        let mut m = Matrix::zeros(3, 2);
        m.add_row_broadcast(&[1.0, -2.0]);
        assert_eq!(m.as_slice(), &[1.0, -2.0, 1.0, -2.0, 1.0, -2.0]);
        assert_eq!(m.column_sums(), vec![3.0, -6.0]);
    }

    #[test]
    fn map_and_norm() {
        let mut m = Matrix::from_vec(1, 3, vec![3.0, -4.0, 0.0]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-6);
        m.map_inplace(|v| v.max(0.0));
        assert_eq!(m.as_slice(), &[3.0, 0.0, 0.0]);
    }

    #[test]
    fn row_accessors() {
        let mut m = a23();
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        m.row_mut(0)[2] = 99.0;
        assert_eq!(m.get(0, 2), 99.0);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let _ = a23().matmul(&a23());
    }

    /// Regression: the old ikj loop skipped `a_ik == 0.0` as a sparsity
    /// shortcut, which silently swallowed NaN/inf in the other operand
    /// (IEEE requires `0.0 * NaN = NaN`). Every product path must
    /// propagate non-finite values.
    #[test]
    fn zero_times_nan_propagates() {
        let a = Matrix::from_vec(2, 2, vec![0.0, 0.0, 1.0, 0.0]);
        let b = Matrix::from_vec(2, 2, vec![f32::NAN, 1.0, 2.0, f32::INFINITY]);
        let c = a.matmul(&b);
        assert!(c.get(0, 0).is_nan(), "0·NaN must stay NaN");
        assert!(c.get(0, 1).is_nan(), "0·inf must become NaN, not 0");
        assert!(c.get(1, 0).is_nan());
        let r = a.matmul_reference(&b);
        assert!(r.get(0, 0).is_nan() && r.get(1, 0).is_nan());
        // Transposed variants share the same microkernel; spot-check one.
        let ct = a.t_matmul(&b);
        assert!(ct.get(0, 0).is_nan());
        let cmt = a.matmul_t(&b);
        assert!(cmt.get(0, 0).is_nan());
    }

    /// The blocked kernel must agree with the textbook reference on shapes
    /// straddling every edge of the tiling: the MR=6 × NR=16 micro-tile,
    /// the MC=96 row block, the KC=256 slab and the NC=512 column block.
    /// `t_matmul` and `matmul_t` run on explicit transposes of the same
    /// operands, covering the packed A and B paths next to `matmul`'s
    /// in-place B; all three run the same FMA chains, so they agree
    /// bitwise.
    #[test]
    fn blocked_gemm_matches_reference_on_tiling_edges() {
        let (ms, ns, ks) = (
            [5, 6, 7, 95, 96, 97],
            [15, 16, 17, 511, 512, 513],
            [255, 256, 257],
        );
        let edges = ms.into_iter().flat_map(|m| {
            ns.into_iter()
                .flat_map(move |n| ks.into_iter().map(move |k| (m, k, n)))
        });
        let others = [
            (1, 1, 1),
            (3, 7, 5),
            (4, 8, 16),
            (5, 9, 17),
            (63, 65, 255),
            (64, 512, 256),
            (65, 513, 257),
            (130, 70, 300),
        ];
        for (m, k, n) in others.into_iter().chain(edges) {
            let a = Matrix::from_fn(m, k, |r, c| ((r * 31 + c * 17) % 13) as f32 * 0.25 - 1.5);
            let b = Matrix::from_fn(k, n, |r, c| ((r * 7 + c * 3) % 11) as f32 * 0.125 - 0.625);
            let fast = a.matmul(&b);
            let slow = a.matmul_reference(&b);
            for (i, (x, y)) in fast.as_slice().iter().zip(slow.as_slice()).enumerate() {
                let scale = y.abs().max(1.0);
                assert!(
                    (x - y).abs() <= 1e-4 * scale,
                    "({m}x{k})·({k}x{n}) diverged at {i}: {x} vs {y}"
                );
            }
            let a_t = Matrix::from_fn(k, m, |r, c| a.get(c, r));
            let b_t = Matrix::from_fn(n, k, |r, c| b.get(c, r));
            for (name, other) in [
                ("t_matmul", a_t.t_matmul(&b)),
                ("matmul_t", a.matmul_t(&b_t)),
            ] {
                let same = other
                    .as_slice()
                    .iter()
                    .zip(fast.as_slice())
                    .all(|(x, y)| x.to_bits() == y.to_bits());
                assert!(same, "({m}x{k})·({k}x{n}): {name} differs from matmul");
            }
        }
    }

    /// The few-row kernel on its edges: every row count it takes (one
    /// pass below MR rows, two passes from MR to 2·MR − 1), widths around
    /// its 8-lane vectors and 16- to 32-column tiles, depths around the
    /// KC slab. It must match the packed 6×16 path (`matmul_t`
    /// on the explicit transpose) bitwise, and the reference within
    /// rounding.
    #[test]
    fn few_row_gemm_matches_packed_and_reference_on_edges() {
        for m in 1..=11 {
            for n in [1, 2, 7, 8, 9, 16, 24, 31, 32, 33, 130] {
                for k in [255, 256, 257] {
                    let a =
                        Matrix::from_fn(m, k, |r, c| ((r * 29 + c * 13) % 17) as f32 * 0.2 - 1.7);
                    let b =
                        Matrix::from_fn(k, n, |r, c| ((r * 5 + c * 11) % 19) as f32 * 0.1 - 0.9);
                    let fast = a.matmul(&b);
                    let b_t = Matrix::from_fn(n, k, |r, c| b.get(c, r));
                    let packed = a.matmul_t(&b_t);
                    let slow = a.matmul_reference(&b);
                    for (i, ((x, p), y)) in fast
                        .as_slice()
                        .iter()
                        .zip(packed.as_slice())
                        .zip(slow.as_slice())
                        .enumerate()
                    {
                        assert_eq!(
                            x.to_bits(),
                            p.to_bits(),
                            "({m}x{k})·({k}x{n}) at {i}: {x} vs packed {p}"
                        );
                        assert!(
                            (x - y).abs() <= 1e-4 * y.abs().max(1.0),
                            "({m}x{k})·({k}x{n}) diverged at {i}: {x} vs {y}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn try_from_vec_rejects_what_from_vec_panics_on() {
        assert!(Matrix::try_from_vec(2, 2, vec![1.0]).is_err());
        assert!(Matrix::try_from_vec(0, 2, Vec::new()).is_err());
        assert!(Matrix::try_from_vec(usize::MAX, 2, vec![1.0]).is_err());
        let m = Matrix::try_from_vec(1, 2, vec![1.0, 2.0]).unwrap();
        assert_eq!(m, Matrix::from_vec(1, 2, vec![1.0, 2.0]));
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_length_mismatch_panics() {
        let _ = Matrix::from_vec(2, 2, vec![1.0]);
    }

    proptest! {
        /// Matmul is associative-with-identity: A·I = A.
        #[test]
        fn matmul_identity(rows in 1usize..8, cols in 1usize..8, seed in 0u64..1000) {
            let mut state = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let mut next = || {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                ((state >> 33) as f32 / 2_147_483_648.0) - 0.5
            };
            let a = Matrix::from_fn(rows, cols, |_, _| next());
            let eye = Matrix::from_fn(cols, cols, |r, c| if r == c { 1.0 } else { 0.0 });
            let prod = a.matmul(&eye);
            for (x, y) in a.as_slice().iter().zip(prod.as_slice()) {
                prop_assert!((x - y).abs() < 1e-5);
            }
        }

        /// (A·B)ᵀ = Bᵀ·Aᵀ, exercised via t_matmul/matmul_t consistency.
        #[test]
        fn transpose_product_identity(m in 1usize..6, k in 1usize..6, n in 1usize..6) {
            let a = Matrix::from_fn(m, k, |r, c| (r + 2 * c) as f32 * 0.25 - 0.5);
            let b = Matrix::from_fn(k, n, |r, c| (2 * r + c) as f32 * 0.125 - 0.25);
            let ab = a.matmul(&b);
            // matmul_t(B_T-shaped) route: A · (Bᵀ)ᵀ where we pass B as the
            // "other" of t_matmul from the left.
            let ab2 = {
                // (Aᵀ)ᵀ·B via t_matmul of explicit transpose.
                let a_t = Matrix::from_fn(k, m, |r, c| a.get(c, r));
                a_t.t_matmul(&b)
            };
            for (x, y) in ab.as_slice().iter().zip(ab2.as_slice()) {
                prop_assert!((x - y).abs() < 1e-4);
            }
        }

        /// Reading a plain B in place and packing a transposed one give
        /// bit-identical products, across ragged NR panels and more than
        /// one KC slab.
        #[test]
        fn in_place_b_matches_packed_b_bitwise(
            m in 1usize..14, k in 1usize..600, n in 1usize..70, seed in 0u64..1000,
        ) {
            let mut state = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let mut next = || {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                ((state >> 33) as f32 / 2_147_483_648.0) - 0.5
            };
            let a = Matrix::from_fn(m, k, |_, _| next());
            let b = Matrix::from_fn(k, n, |_, _| next());
            let b_t = Matrix::from_fn(n, k, |r, c| b.get(c, r));
            let in_place = a.matmul(&b);
            let packed = a.matmul_t(&b_t);
            for (x, y) in in_place.as_slice().iter().zip(packed.as_slice()) {
                prop_assert!(x.to_bits() == y.to_bits(), "in place {x} vs packed {y}");
            }
        }

        /// The blocked kernel agrees with the textbook reference (and so do
        /// both transposed variants) on arbitrary shapes and data.
        #[test]
        fn blocked_gemm_matches_reference(
            m in 1usize..40, k in 1usize..40, n in 1usize..40, seed in 0u64..1000,
        ) {
            let mut state = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let mut next = || {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                ((state >> 33) as f32 / 2_147_483_648.0) - 0.5
            };
            let a = Matrix::from_fn(m, k, |_, _| next());
            let b = Matrix::from_fn(k, n, |_, _| next());
            let fast = a.matmul(&b);
            let slow = a.matmul_reference(&b);
            for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
                prop_assert!((x - y).abs() < 1e-4, "matmul {x} vs {y}");
            }
            // Transposed variants against explicit transposes.
            let a_t = Matrix::from_fn(k, m, |r, c| a.get(c, r));
            let via_t = a_t.t_matmul(&b);
            for (x, y) in via_t.as_slice().iter().zip(slow.as_slice()) {
                prop_assert!((x - y).abs() < 1e-4, "t_matmul {x} vs {y}");
            }
            let b_t = Matrix::from_fn(n, k, |r, c| b.get(c, r));
            let via_mt = a.matmul_t(&b_t);
            for (x, y) in via_mt.as_slice().iter().zip(slow.as_slice()) {
                prop_assert!((x - y).abs() < 1e-4, "matmul_t {x} vs {y}");
            }
        }
    }
}
