//! Deep learning kernel (operator) descriptors with FLOPs and memory-traffic
//! accounting.
//!
//! A [`OpDesc`] describes one tensor operator that executes atomically on the
//! device — the unit the NeuSight paper calls a *DNN kernel* (§2.2): batched
//! matrix multiplication, fully-connected layers, element-wise operators,
//! softmax, layer normalization, embedding lookups, and fused chains of
//! these. The descriptor knows its floating point operation count, its
//! *logical* memory traffic (operands read once, results written once — what
//! a perfectly cached kernel would move), its output dimensions for tiling,
//! and which of NeuSight's five predictor families it belongs to.

use crate::dtype::DType;
use crate::error::GpuError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Kind of element-wise operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum EwKind {
    /// Element-wise addition (binary).
    Add,
    /// Element-wise subtraction (binary).
    Sub,
    /// Element-wise multiplication (binary).
    Mul,
    /// Element-wise division (binary).
    Div,
    /// Rectified linear unit (unary).
    Relu,
    /// Gaussian error linear unit (unary, transcendental).
    Gelu,
    /// Hyperbolic tangent (unary, transcendental).
    Tanh,
    /// Logistic sigmoid (unary, transcendental).
    Sigmoid,
    /// Exponential (unary, transcendental).
    Exp,
    /// Multiplication by a scalar (unary).
    Scale,
    /// Dropout mask application (unary; mask read counts as a side input).
    Dropout,
}

impl EwKind {
    /// Number of tensor inputs the operator reads.
    #[must_use]
    pub const fn num_inputs(self) -> u64 {
        match self {
            EwKind::Add | EwKind::Sub | EwKind::Mul | EwKind::Div | EwKind::Dropout => 2,
            EwKind::Relu
            | EwKind::Gelu
            | EwKind::Tanh
            | EwKind::Sigmoid
            | EwKind::Exp
            | EwKind::Scale => 1,
        }
    }

    /// Approximate floating point operations per output element, following
    /// the usual device-library instruction counts (transcendentals expand
    /// to polynomial approximations).
    #[must_use]
    pub const fn flops_per_element(self) -> u64 {
        match self {
            EwKind::Add | EwKind::Sub | EwKind::Mul | EwKind::Scale => 1,
            EwKind::Div | EwKind::Relu | EwKind::Dropout => 2,
            EwKind::Exp => 4,
            EwKind::Sigmoid => 5,
            EwKind::Tanh => 6,
            EwKind::Gelu => 9,
        }
    }

    /// Short lowercase name, e.g. `"gelu"`.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            EwKind::Add => "add",
            EwKind::Sub => "sub",
            EwKind::Mul => "mul",
            EwKind::Div => "div",
            EwKind::Relu => "relu",
            EwKind::Gelu => "gelu",
            EwKind::Tanh => "tanh",
            EwKind::Sigmoid => "sigmoid",
            EwKind::Exp => "exp",
            EwKind::Scale => "scale",
            EwKind::Dropout => "dropout",
        }
    }

    /// All element-wise kinds, for dataset sweeps.
    #[must_use]
    pub const fn all() -> [EwKind; 11] {
        [
            EwKind::Add,
            EwKind::Sub,
            EwKind::Mul,
            EwKind::Div,
            EwKind::Relu,
            EwKind::Gelu,
            EwKind::Tanh,
            EwKind::Sigmoid,
            EwKind::Exp,
            EwKind::Scale,
            EwKind::Dropout,
        ]
    }
}

impl fmt::Display for EwKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The predictor family an operator is routed to (NeuSight trains five
/// MLPs, §4.3, plus a memory-bound fallback for everything else).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpClass {
    /// Batched matrix multiplication.
    Bmm,
    /// Fully-connected (unbatched GEMM with bias).
    FullyConnected,
    /// Element-wise (vector) operators.
    Elementwise,
    /// Row-wise softmax.
    Softmax,
    /// Layer normalization.
    LayerNorm,
    /// Anything else: treated as memory-bound (e.g. embedding lookups).
    MemoryBound,
}

impl OpClass {
    /// Every class, in declaration order: `class as usize` indexes it.
    pub const ALL: [OpClass; 6] = [
        OpClass::Bmm,
        OpClass::FullyConnected,
        OpClass::Elementwise,
        OpClass::Softmax,
        OpClass::LayerNorm,
        OpClass::MemoryBound,
    ];

    /// All classes that have a dedicated trained predictor.
    #[must_use]
    pub const fn trained() -> [OpClass; 5] {
        [
            OpClass::Bmm,
            OpClass::FullyConnected,
            OpClass::Elementwise,
            OpClass::Softmax,
            OpClass::LayerNorm,
        ]
    }

    /// Short name used in reports and artifact file names.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            OpClass::Bmm => "bmm",
            OpClass::FullyConnected => "fc",
            OpClass::Elementwise => "elementwise",
            OpClass::Softmax => "softmax",
            OpClass::LayerNorm => "layernorm",
            OpClass::MemoryBound => "memory_bound",
        }
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A chain of operators fused into a single kernel (§4.4).
///
/// Fusion eliminates the off-chip round trip of intermediate results: the
/// fused kernel reads the first operator's inputs, keeps intermediates in
/// registers/shared memory, and writes only the last operator's output
/// (plus any *side* inputs the later operators read, e.g. the second
/// operand of a residual add or layer-norm parameters).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FusedOp {
    ops: Vec<OpDesc>,
}

impl FusedOp {
    /// Fuses a chain of operators. The first operator determines the tile
    /// shape and predictor family used for the fused kernel.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::InvalidFusion`] if fewer than two operators are
    /// given, if any member is itself a fused operator (no nesting), or if
    /// consecutive operators have mismatched element counts (a fused chain
    /// must stream one value per element through the whole chain).
    pub fn new(ops: Vec<OpDesc>) -> Result<FusedOp, GpuError> {
        if ops.len() < 2 {
            return Err(GpuError::InvalidFusion(
                "fusion requires at least two operators".to_owned(),
            ));
        }
        for op in &ops {
            if matches!(op, OpDesc::Fused(_)) {
                return Err(GpuError::InvalidFusion(
                    "nested fusion is not supported".to_owned(),
                ));
            }
        }
        for pair in ops.windows(2) {
            let produced = pair[0].output_numel();
            let consumed = pair[1].output_numel();
            if produced != consumed {
                return Err(GpuError::InvalidFusion(format!(
                    "cannot fuse `{}` ({} elements) into `{}` ({} elements)",
                    pair[0], produced, pair[1], consumed
                )));
            }
        }
        Ok(FusedOp { ops })
    }

    /// The fused member operators, in execution order.
    #[must_use]
    pub fn ops(&self) -> &[OpDesc] {
        &self.ops
    }

    /// The first operator in the chain (determines tiling and predictor).
    #[must_use]
    pub fn head(&self) -> &OpDesc {
        &self.ops[0]
    }
}

/// Description of a single deep learning kernel.
///
/// Dimensions follow the conventions of the paper's data collection (§6.1);
/// all dimensions must be at least 1.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum OpDesc {
    /// Batched matrix multiplication: `batch` independent `(m×k)·(k×n)`
    /// products.
    Bmm {
        /// Number of independent matrix products.
        batch: u64,
        /// Rows of the left operand and the output.
        m: u64,
        /// Columns of the right operand and the output.
        n: u64,
        /// Contraction dimension.
        k: u64,
    },
    /// Fully-connected layer: `(batch×in)·(in×out)` GEMM plus bias add.
    Fc {
        /// Number of input rows (batch × sequence for transformers).
        batch: u64,
        /// Input feature dimension.
        in_features: u64,
        /// Output feature dimension.
        out_features: u64,
    },
    /// 2-D convolution, executed as an implicit GEMM (the CUTLASS/cuDNN
    /// lowering): `M = batch·out_h·out_w`, `N = out_channels`,
    /// `K = in_channels·kernel²`.
    Conv2d {
        /// Batch size.
        batch: u64,
        /// Input channels.
        in_channels: u64,
        /// Output channels.
        out_channels: u64,
        /// Input height (width is assumed equal).
        in_hw: u64,
        /// Square kernel extent.
        kernel: u64,
        /// Stride.
        stride: u64,
        /// Symmetric zero padding.
        padding: u64,
    },
    /// Element-wise operator over a flat tensor.
    Elementwise {
        /// Kind of the point-wise function.
        kind: EwKind,
        /// Total number of elements.
        numel: u64,
    },
    /// Row-wise softmax over a `(rows × dim)` tensor.
    Softmax {
        /// Number of independent rows.
        rows: u64,
        /// Reduction dimension.
        dim: u64,
    },
    /// Layer normalization over the last dimension of a `(rows × dim)`
    /// tensor, with learned scale and shift parameters.
    LayerNorm {
        /// Number of independent rows.
        rows: u64,
        /// Normalized dimension.
        dim: u64,
    },
    /// Embedding table lookup (gather): `tokens` rows of width `dim` from a
    /// `(vocab × dim)` table.
    Embedding {
        /// Number of indices gathered.
        tokens: u64,
        /// Embedding width.
        dim: u64,
        /// Table height (vocabulary size).
        vocab: u64,
    },
    /// A fused chain of operators executing as one kernel.
    Fused(FusedOp),
}

/// Validates that a dimension is nonzero, panicking with context otherwise.
fn check_dim(value: u64, context: &'static str, name: &str) {
    assert!(
        value > 0,
        "{context}: dimension `{name}` must be at least 1"
    );
}

/// Output spatial extent of a convolution.
#[must_use]
pub fn conv_out_hw(in_hw: u64, kernel: u64, stride: u64, padding: u64) -> u64 {
    (in_hw + 2 * padding - kernel) / stride + 1
}

impl OpDesc {
    /// Creates a batched matrix multiplication descriptor.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    #[must_use]
    pub fn bmm(batch: u64, m: u64, n: u64, k: u64) -> OpDesc {
        check_dim(batch, "bmm", "batch");
        check_dim(m, "bmm", "m");
        check_dim(n, "bmm", "n");
        check_dim(k, "bmm", "k");
        OpDesc::Bmm { batch, m, n, k }
    }

    /// Creates a fully-connected layer descriptor.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    #[must_use]
    pub fn fc(batch: u64, in_features: u64, out_features: u64) -> OpDesc {
        check_dim(batch, "fc", "batch");
        check_dim(in_features, "fc", "in_features");
        check_dim(out_features, "fc", "out_features");
        OpDesc::Fc {
            batch,
            in_features,
            out_features,
        }
    }

    /// Creates a 2-D convolution descriptor (square input and kernel,
    /// symmetric padding).
    ///
    /// # Panics
    ///
    /// Panics if any of batch/channels/size/kernel/stride is zero, or if
    /// the kernel (after padding) does not fit in the input.
    #[must_use]
    pub fn conv2d(
        batch: u64,
        in_channels: u64,
        out_channels: u64,
        in_hw: u64,
        kernel: u64,
        stride: u64,
        padding: u64,
    ) -> OpDesc {
        check_dim(batch, "conv2d", "batch");
        check_dim(in_channels, "conv2d", "in_channels");
        check_dim(out_channels, "conv2d", "out_channels");
        check_dim(in_hw, "conv2d", "in_hw");
        check_dim(kernel, "conv2d", "kernel");
        check_dim(stride, "conv2d", "stride");
        assert!(
            in_hw + 2 * padding >= kernel,
            "conv2d: kernel does not fit the padded input"
        );
        OpDesc::Conv2d {
            batch,
            in_channels,
            out_channels,
            in_hw,
            kernel,
            stride,
            padding,
        }
    }

    /// Creates an element-wise operator descriptor.
    ///
    /// # Panics
    ///
    /// Panics if `numel` is zero.
    #[must_use]
    pub fn elementwise(kind: EwKind, numel: u64) -> OpDesc {
        check_dim(numel, "elementwise", "numel");
        OpDesc::Elementwise { kind, numel }
    }

    /// Creates a softmax descriptor.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    #[must_use]
    pub fn softmax(rows: u64, dim: u64) -> OpDesc {
        check_dim(rows, "softmax", "rows");
        check_dim(dim, "softmax", "dim");
        OpDesc::Softmax { rows, dim }
    }

    /// Creates a layer-normalization descriptor.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    #[must_use]
    pub fn layer_norm(rows: u64, dim: u64) -> OpDesc {
        check_dim(rows, "layer_norm", "rows");
        check_dim(dim, "layer_norm", "dim");
        OpDesc::LayerNorm { rows, dim }
    }

    /// Creates an embedding-lookup descriptor.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    #[must_use]
    pub fn embedding(tokens: u64, dim: u64, vocab: u64) -> OpDesc {
        check_dim(tokens, "embedding", "tokens");
        check_dim(dim, "embedding", "dim");
        check_dim(vocab, "embedding", "vocab");
        OpDesc::Embedding { tokens, dim, vocab }
    }

    /// Fuses a chain of operators into a single kernel descriptor.
    ///
    /// # Errors
    ///
    /// See [`FusedOp::new`].
    pub fn fused(ops: Vec<OpDesc>) -> Result<OpDesc, GpuError> {
        FusedOp::new(ops).map(OpDesc::Fused)
    }

    /// The predictor family this kernel is routed to.
    #[must_use]
    pub fn op_class(&self) -> OpClass {
        match self {
            OpDesc::Bmm { .. } => OpClass::Bmm,
            OpDesc::Fc { .. } => OpClass::FullyConnected,
            // Implicit-GEMM lowering: the fully-connected predictor serves
            // convolutions, as CUTLASS serves both with the same kernels.
            OpDesc::Conv2d { .. } => OpClass::FullyConnected,
            OpDesc::Elementwise { .. } => OpClass::Elementwise,
            OpDesc::Softmax { .. } => OpClass::Softmax,
            OpDesc::LayerNorm { .. } => OpClass::LayerNorm,
            OpDesc::Embedding { .. } => OpClass::MemoryBound,
            // §4.4: a fused kernel uses the predictor of its first operator.
            OpDesc::Fused(fused) => fused.head().op_class(),
        }
    }

    /// Total floating point operations performed by the kernel.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn flops(&self) -> f64 {
        match *self {
            OpDesc::Bmm { batch, m, n, k } => 2.0 * (batch * m * n * k) as f64,
            OpDesc::Fc {
                batch,
                in_features,
                out_features,
            } => (2 * batch * in_features * out_features + batch * out_features) as f64,
            OpDesc::Conv2d {
                batch,
                in_channels,
                out_channels,
                in_hw,
                kernel,
                stride,
                padding,
            } => {
                let out = conv_out_hw(in_hw, kernel, stride, padding);
                let m = batch * out * out;
                let k = in_channels * kernel * kernel;
                (2 * m * out_channels * k + m * out_channels) as f64
            }
            OpDesc::Elementwise { kind, numel } => (kind.flops_per_element() * numel) as f64,
            // max, subtract, exp, sum, divide: ~5 ops per element.
            OpDesc::Softmax { rows, dim } => 5.0 * (rows * dim) as f64,
            // mean, variance, normalize, scale, shift: ~8 ops per element.
            OpDesc::LayerNorm { rows, dim } => 8.0 * (rows * dim) as f64,
            // Pure gather: no arithmetic.
            OpDesc::Embedding { .. } => 0.0,
            OpDesc::Fused(ref fused) => fused.ops().iter().map(OpDesc::flops).sum(),
        }
    }

    /// Bytes of the output tensor.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn output_bytes(&self, dtype: DType) -> f64 {
        (self.output_numel() * dtype.size_bytes()) as f64
    }

    /// Bytes read from off-chip memory by a perfectly cached kernel: every
    /// input operand exactly once.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn input_bytes(&self, dtype: DType) -> f64 {
        let s = dtype.size_bytes();
        match *self {
            OpDesc::Bmm { batch, m, n, k } => (batch * (m * k + k * n) * s) as f64,
            OpDesc::Fc {
                batch,
                in_features,
                out_features,
            } => ((batch * in_features + in_features * out_features + out_features) * s) as f64,
            OpDesc::Conv2d {
                batch,
                in_channels,
                out_channels,
                in_hw,
                kernel,
                ..
            } => {
                let weights = out_channels * in_channels * kernel * kernel + out_channels;
                ((batch * in_channels * in_hw * in_hw + weights) * s) as f64
            }
            OpDesc::Elementwise { kind, numel } => (kind.num_inputs() * numel * s) as f64,
            OpDesc::Softmax { rows, dim } => (rows * dim * s) as f64,
            OpDesc::LayerNorm { rows, dim } => ((rows * dim + 2 * dim) * s) as f64,
            OpDesc::Embedding { tokens, dim, .. } => {
                // Index reads (i64) plus the gathered table rows.
                (tokens * DType::I64.size_bytes() + tokens * dim * s) as f64
            }
            OpDesc::Fused(ref fused) => {
                // First op reads its full inputs; later ops only bring in
                // their side inputs (the streaming operand comes from
                // registers).
                let mut bytes = fused.head().input_bytes(dtype);
                for op in &fused.ops()[1..] {
                    bytes += op.side_input_bytes(dtype);
                }
                bytes
            }
        }
    }

    /// Total logical off-chip traffic: inputs read once plus output written
    /// once. This is the `mem_k` of the paper's roofline formulation
    /// (Eq. 1) and the `MemoryPerTile` numerator of Table 2 when divided
    /// across tiles.
    #[must_use]
    pub fn memory_bytes(&self, dtype: DType) -> f64 {
        match self {
            // A fused chain writes only its final output.
            OpDesc::Fused(fused) => {
                self.input_bytes(dtype) + fused.ops().last().expect("nonempty").output_bytes(dtype)
            }
            _ => self.input_bytes(dtype) + self.output_bytes(dtype),
        }
    }

    /// Bytes of inputs that do *not* arrive from an upstream fused
    /// producer: everything except the primary streaming operand.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn side_input_bytes(&self, dtype: DType) -> f64 {
        let s = dtype.size_bytes();
        match *self {
            // For matmuls fused after a producer, the weight operand is the
            // side input.
            OpDesc::Bmm { batch, n, k, .. } => (batch * k * n * s) as f64,
            OpDesc::Fc {
                in_features,
                out_features,
                ..
            } => ((in_features * out_features + out_features) * s) as f64,
            OpDesc::Conv2d {
                in_channels,
                out_channels,
                kernel,
                ..
            } => ((out_channels * in_channels * kernel * kernel + out_channels) * s) as f64,
            OpDesc::Elementwise { kind, numel } => ((kind.num_inputs() - 1) * numel * s) as f64,
            OpDesc::Softmax { .. } => 0.0,
            OpDesc::LayerNorm { dim, .. } => (2 * dim * s) as f64,
            OpDesc::Embedding { tokens, .. } => (tokens * DType::I64.size_bytes()) as f64,
            OpDesc::Fused(_) => 0.0,
        }
    }

    /// Number of elements in the output tensor.
    #[must_use]
    pub fn output_numel(&self) -> u64 {
        match *self {
            OpDesc::Bmm { batch, m, n, .. } => batch * m * n,
            OpDesc::Fc {
                batch,
                out_features,
                ..
            } => batch * out_features,
            OpDesc::Conv2d {
                batch,
                out_channels,
                in_hw,
                kernel,
                stride,
                padding,
                ..
            } => {
                let out = conv_out_hw(in_hw, kernel, stride, padding);
                batch * out * out * out_channels
            }
            OpDesc::Elementwise { numel, .. } => numel,
            OpDesc::Softmax { rows, dim } | OpDesc::LayerNorm { rows, dim } => rows * dim,
            OpDesc::Embedding { tokens, dim, .. } => tokens * dim,
            OpDesc::Fused(ref fused) => fused.ops().last().expect("nonempty").output_numel(),
        }
    }

    /// Output dimensions used for tile decomposition (Eq. 2). For fused
    /// kernels this is the *first* operator's output, matching the paper's
    /// use of the first operator's tile metadata (§4.4).
    #[must_use]
    pub fn output_dims(&self) -> Vec<u64> {
        match *self {
            OpDesc::Bmm { batch, m, n, .. } => vec![batch, m, n],
            OpDesc::Fc {
                batch,
                out_features,
                ..
            } => vec![batch, out_features],
            OpDesc::Conv2d {
                batch,
                out_channels,
                in_hw,
                kernel,
                stride,
                padding,
                ..
            } => {
                let out = conv_out_hw(in_hw, kernel, stride, padding);
                vec![batch * out * out, out_channels]
            }
            OpDesc::Elementwise { numel, .. } => vec![numel],
            OpDesc::Softmax { rows, dim } | OpDesc::LayerNorm { rows, dim } => vec![rows, dim],
            OpDesc::Embedding { tokens, dim, .. } => vec![tokens, dim],
            OpDesc::Fused(ref fused) => fused.head().output_dims(),
        }
    }

    /// Arithmetic intensity `K = flops / memory_bytes` in FLOP/byte
    /// (Eq. 1).
    #[must_use]
    pub fn arithmetic_intensity(&self, dtype: DType) -> f64 {
        let mem = self.memory_bytes(dtype);
        if mem == 0.0 {
            0.0
        } else {
            self.flops() / mem
        }
    }

    /// Whether the kernel is memory-bound on the given GPU (intensity below
    /// the ridge point).
    #[must_use]
    pub fn is_memory_bound(&self, dtype: DType, spec: &crate::GpuSpec) -> bool {
        self.arithmetic_intensity(dtype) < spec.ridge_intensity()
    }
}

impl fmt::Display for OpDesc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            OpDesc::Bmm { batch, m, n, k } => write!(f, "bmm[{batch}x({m}x{k})({k}x{n})]"),
            OpDesc::Fc {
                batch,
                in_features,
                out_features,
            } => write!(f, "fc[{batch}x{in_features}->{out_features}]"),
            OpDesc::Conv2d {
                batch,
                in_channels,
                out_channels,
                in_hw,
                kernel,
                stride,
                padding,
            } => write!(
                f,
                "conv2d[{batch}x{in_channels}x{in_hw}x{in_hw} -> {out_channels}, k{kernel} s{stride} p{padding}]"
            ),
            OpDesc::Elementwise { kind, numel } => write!(f, "{kind}[{numel}]"),
            OpDesc::Softmax { rows, dim } => write!(f, "softmax[{rows}x{dim}]"),
            OpDesc::LayerNorm { rows, dim } => write!(f, "layernorm[{rows}x{dim}]"),
            OpDesc::Embedding { tokens, dim, vocab } => {
                write!(f, "embedding[{tokens}x{dim} of {vocab}]")
            }
            OpDesc::Fused(ref fused) => {
                write!(f, "fused(")?;
                for (i, op) in fused.ops().iter().enumerate() {
                    if i > 0 {
                        write!(f, "+")?;
                    }
                    write!(f, "{op}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    #[test]
    fn bmm_flops_and_memory() {
        let op = OpDesc::bmm(2, 4, 8, 16);
        assert!((op.flops() - 2.0 * 2.0 * 4.0 * 8.0 * 16.0).abs() < 1e-9);
        // inputs: 2*(4*16 + 16*8) * 4 bytes; output 2*4*8*4 bytes
        assert!((op.input_bytes(DType::F32) - (2 * (64 + 128) * 4) as f64).abs() < 1e-9);
        assert!((op.output_bytes(DType::F32) - (2 * 32 * 4) as f64).abs() < 1e-9);
    }

    #[test]
    fn fc_includes_bias() {
        let op = OpDesc::fc(8, 16, 32);
        assert!((op.flops() - (2.0 * 8.0 * 16.0 * 32.0 + 8.0 * 32.0)).abs() < 1e-9);
        let expected_in = (8 * 16 + 16 * 32 + 32) * 4;
        assert!((op.input_bytes(DType::F32) - expected_in as f64).abs() < 1e-9);
    }

    #[test]
    fn elementwise_binary_reads_two_operands() {
        let add = OpDesc::elementwise(EwKind::Add, 1000);
        assert!((add.input_bytes(DType::F32) - 8000.0).abs() < 1e-9);
        let relu = OpDesc::elementwise(EwKind::Relu, 1000);
        assert!((relu.input_bytes(DType::F32) - 4000.0).abs() < 1e-9);
    }

    #[test]
    fn softmax_and_layernorm_traffic() {
        let sm = OpDesc::softmax(128, 512);
        assert!((sm.memory_bytes(DType::F32) - 2.0 * 128.0 * 512.0 * 4.0).abs() < 1e-9);
        let ln = OpDesc::layer_norm(128, 512);
        let expected = (128 * 512 + 2 * 512 + 128 * 512) * 4;
        assert!((ln.memory_bytes(DType::F32) - expected as f64).abs() < 1e-9);
    }

    #[test]
    fn embedding_has_no_flops_and_is_memory_bound() {
        let op = OpDesc::embedding(1024, 768, 50257);
        assert_eq!(op.flops(), 0.0);
        assert_eq!(op.op_class(), OpClass::MemoryBound);
        let spec = catalog::gpu("V100").unwrap();
        assert!(op.is_memory_bound(DType::F32, &spec));
    }

    #[test]
    fn half_precision_halves_traffic() {
        let op = OpDesc::bmm(1, 256, 256, 256);
        let full = op.memory_bytes(DType::F32);
        let half = op.memory_bytes(DType::F16);
        assert!((full / half - 2.0).abs() < 1e-9);
    }

    #[test]
    fn intensity_grows_with_k() {
        let small = OpDesc::bmm(1, 256, 256, 64);
        let large = OpDesc::bmm(1, 256, 256, 1024);
        assert!(large.arithmetic_intensity(DType::F32) > small.arithmetic_intensity(DType::F32));
    }

    #[test]
    fn large_gemm_is_compute_bound_on_v100() {
        let spec = catalog::gpu("V100").unwrap();
        let op = OpDesc::bmm(1, 4096, 4096, 4096);
        assert!(!op.is_memory_bound(DType::F32, &spec));
        let ew = OpDesc::elementwise(EwKind::Add, 1 << 20);
        assert!(ew.is_memory_bound(DType::F32, &spec));
    }

    #[test]
    fn fusion_discards_intermediate_traffic() {
        // Residual add fused with layer norm (the paper's GPT-2 example).
        let rows = 1024;
        let dim = 1280;
        let add = OpDesc::elementwise(EwKind::Add, rows * dim);
        let ln = OpDesc::layer_norm(rows, dim);
        let separate = add.memory_bytes(DType::F32) + ln.memory_bytes(DType::F32);
        let fused = OpDesc::fused(vec![add.clone(), ln.clone()]).unwrap();
        let fused_bytes = fused.memory_bytes(DType::F32);
        // Fusing removes one write + one read of the intermediate tensor.
        let saved = 2.0 * (rows * dim * 4) as f64;
        assert!((separate - fused_bytes - saved).abs() < 1e-6);
        // FLOPs are accumulated, not reduced.
        assert!((fused.flops() - (add.flops() + ln.flops())).abs() < 1e-9);
    }

    #[test]
    fn fusion_uses_head_class_and_dims() {
        let fc = OpDesc::fc(512, 1024, 4096);
        let gelu = OpDesc::elementwise(EwKind::Gelu, 512 * 4096);
        let fused = OpDesc::fused(vec![fc.clone(), gelu]).unwrap();
        assert_eq!(fused.op_class(), OpClass::FullyConnected);
        assert_eq!(fused.output_dims(), fc.output_dims());
    }

    #[test]
    fn fusion_rejects_mismatched_chains() {
        let a = OpDesc::elementwise(EwKind::Add, 100);
        let b = OpDesc::layer_norm(10, 20);
        assert!(OpDesc::fused(vec![a, b]).is_err());
    }

    #[test]
    fn fusion_rejects_singletons_and_nesting() {
        let a = OpDesc::elementwise(EwKind::Add, 100);
        assert!(OpDesc::fused(vec![a.clone()]).is_err());
        let inner = OpDesc::fused(vec![a.clone(), OpDesc::elementwise(EwKind::Relu, 100)]).unwrap();
        assert!(OpDesc::fused(vec![inner, a]).is_err());
    }

    #[test]
    #[should_panic(expected = "dimension `m` must be at least 1")]
    fn zero_dimension_panics() {
        let _ = OpDesc::bmm(1, 0, 4, 4);
    }

    #[test]
    fn display_formats() {
        assert_eq!(OpDesc::bmm(2, 3, 4, 5).to_string(), "bmm[2x(3x5)(5x4)]");
        assert_eq!(
            OpDesc::elementwise(EwKind::Gelu, 64).to_string(),
            "gelu[64]"
        );
        let fused = OpDesc::fused(vec![
            OpDesc::elementwise(EwKind::Add, 200),
            OpDesc::layer_norm(10, 20),
        ])
        .unwrap();
        assert!(fused.to_string().starts_with("fused(add[200]+layernorm"));
    }

    #[test]
    fn serde_round_trip() {
        let ops = vec![
            OpDesc::bmm(4, 128, 128, 64),
            OpDesc::softmax(512, 512),
            OpDesc::fused(vec![
                OpDesc::elementwise(EwKind::Add, 100),
                OpDesc::elementwise(EwKind::Relu, 100),
            ])
            .unwrap(),
        ];
        for op in ops {
            let json = serde_json::to_string(&op).unwrap();
            let back: OpDesc = serde_json::from_str(&json).unwrap();
            assert_eq!(op, back);
        }
    }

    #[test]
    fn trained_classes_are_five() {
        assert_eq!(OpClass::trained().len(), 5);
    }

    #[test]
    fn all_classes_index_by_discriminant() {
        for (i, class) in OpClass::ALL.into_iter().enumerate() {
            assert_eq!(class as usize, i);
        }
        assert!(OpClass::trained().iter().all(|c| OpClass::ALL.contains(c)));
    }

    #[test]
    fn conv2d_implicit_gemm_accounting() {
        // 3x3/1 conv, 56x56, 64 -> 64 channels, batch 2.
        let op = OpDesc::conv2d(2, 64, 64, 56, 3, 1, 1);
        let out_hw = super::conv_out_hw(56, 3, 1, 1);
        assert_eq!(out_hw, 56);
        let m = 2 * 56 * 56;
        let k = 64 * 9;
        assert!((op.flops() - (2 * m * 64 * k + m * 64) as f64).abs() < 1e-6);
        assert_eq!(op.output_numel(), m * 64);
        assert_eq!(op.output_dims(), vec![m, 64]);
        assert_eq!(op.op_class(), OpClass::FullyConnected);
        // Inputs: activations + weights + bias.
        let expected_in = (2 * 64 * 56 * 56 + 64 * 64 * 9 + 64) * 4;
        assert!((op.input_bytes(DType::F32) - expected_in as f64).abs() < 1e-6);
    }

    #[test]
    fn conv2d_strided_output() {
        let op = OpDesc::conv2d(1, 3, 64, 224, 7, 2, 3);
        assert_eq!(super::conv_out_hw(224, 7, 2, 3), 112);
        assert_eq!(op.output_dims(), vec![112 * 112, 64]);
    }

    #[test]
    fn conv2d_display_and_serde() {
        let op = OpDesc::conv2d(8, 256, 512, 14, 3, 2, 1);
        assert_eq!(op.to_string(), "conv2d[8x256x14x14 -> 512, k3 s2 p1]");
        let json = serde_json::to_string(&op).unwrap();
        let back: OpDesc = serde_json::from_str(&json).unwrap();
        assert_eq!(op, back);
    }

    #[test]
    #[should_panic(expected = "kernel does not fit")]
    fn conv2d_oversized_kernel_panics() {
        let _ = OpDesc::conv2d(1, 3, 8, 4, 7, 1, 0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_unfused() -> impl Strategy<Value = OpDesc> {
            prop_oneof![
                (1u64..64, 1u64..4096, 1u64..4096, 1u64..4096)
                    .prop_map(|(b, m, n, k)| OpDesc::bmm(b, m, n, k)),
                (1u64..16384, 1u64..16384, 1u64..16384).prop_map(|(b, i, o)| OpDesc::fc(b, i, o)),
                (1u64..(1 << 26)).prop_map(|n| OpDesc::elementwise(EwKind::Mul, n)),
                (1u64..131_072, 1u64..8192).prop_map(|(r, d)| OpDesc::softmax(r, d)),
                (1u64..131_072, 1u64..8192).prop_map(|(r, d)| OpDesc::layer_norm(r, d)),
                (1u64..65536, 1u64..4096, 1u64..100_000)
                    .prop_map(|(t, d, v)| OpDesc::embedding(t, d, v)),
                (1u64..64, 1u64..512, 1u64..512, 8u64..128, 1u64..5, 1u64..3).prop_map(
                    |(b, ic, oc, hw, k, s)| {
                        let k = k.min(hw);
                        OpDesc::conv2d(b, ic, oc, hw, k, s, k / 2)
                    }
                ),
            ]
        }

        proptest! {
            /// Total traffic decomposes exactly into inputs + outputs for
            /// unfused kernels.
            #[test]
            fn memory_is_input_plus_output(op in arb_unfused()) {
                let total = op.memory_bytes(DType::F32);
                let parts = op.input_bytes(DType::F32) + op.output_bytes(DType::F32);
                prop_assert!((total - parts).abs() < 1e-6 * total.max(1.0));
            }

            /// Side inputs never exceed total inputs.
            #[test]
            fn side_inputs_bounded(op in arb_unfused()) {
                prop_assert!(
                    op.side_input_bytes(DType::F32) <= op.input_bytes(DType::F32) + 1e-6
                );
            }

            /// FLOPs, traffic and element counts are finite and
            /// non-negative; output dims multiply to the element count for
            /// the non-fused families.
            #[test]
            fn accounting_is_consistent(op in arb_unfused()) {
                prop_assert!(op.flops() >= 0.0 && op.flops().is_finite());
                prop_assert!(op.memory_bytes(DType::F32) > 0.0);
                let dims_product: u64 = op.output_dims().iter().product();
                prop_assert_eq!(dims_product, op.output_numel());
            }

            /// Fusing a valid chain never increases traffic and exactly
            /// preserves FLOPs.
            #[test]
            fn fusion_conserves_flops_and_saves_traffic(
                numel in 1u64..(1 << 22), kind in prop::sample::select(EwKind::all().to_vec()),
            ) {
                let a = OpDesc::elementwise(kind, numel);
                let b = OpDesc::elementwise(EwKind::Relu, numel);
                let fused = OpDesc::fused(vec![a.clone(), b.clone()]).unwrap();
                let sum_flops = a.flops() + b.flops();
                prop_assert!((fused.flops() - sum_flops).abs() < 1e-9 * sum_flops.max(1.0));
                prop_assert!(
                    fused.memory_bytes(DType::F32)
                        <= a.memory_bytes(DType::F32) + b.memory_bytes(DType::F32)
                );
            }

            /// Half precision halves traffic for float-only kernels.
            #[test]
            fn dtype_scales_traffic(op in arb_unfused()) {
                prop_assume!(!matches!(op, OpDesc::Embedding { .. })); // index bytes are dtype-independent
                let full = op.memory_bytes(DType::F32);
                let half = op.memory_bytes(DType::F16);
                prop_assert!((full / half - 2.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn conv2d_fuses_with_pointwise() {
        let conv = OpDesc::conv2d(2, 64, 64, 56, 3, 1, 1);
        let relu = OpDesc::elementwise(EwKind::Relu, conv.output_numel());
        let fused = OpDesc::fused(vec![conv.clone(), relu]).unwrap();
        assert_eq!(fused.op_class(), OpClass::FullyConnected);
        assert!(
            fused.memory_bytes(DType::F32)
                < conv.memory_bytes(DType::F32) + 2.0 * conv.output_bytes(DType::F32)
        );
    }
}
