//! Backward-graph derivation: expands a forward graph with the gradient
//! kernels a training iteration executes.
//!
//! The expansion follows the standard autograd lowering that PyTorch
//! performs, at the granularity NeuSight predicts:
//!
//! | forward kernel | backward kernels |
//! |---|---|
//! | `FC(b, i, o)` | `FC(b, o, i)` for *dX*, `BMM(1, i, o, b)` for *dW*, a reduction for *db* |
//! | `BMM(b, m, n, k)` | `BMM(b, m, k, n)` for *dA*, `BMM(b, k, n, m)` for *dB* |
//! | element-wise | one element-wise multiply of the same size |
//! | `Softmax(r, d)` | a softmax-shaped fused reduction of the same size |
//! | `LayerNorm(r, d)` | a layer-norm-shaped reduction plus an element-wise pass |
//! | `Embedding` | a scatter-add of the same traffic |
//!
//! Fused forward kernels expand into the backward kernels of their members
//! (backward fusion support in compilers is far narrower than forward, so
//! we conservatively leave backward unfused).

use crate::ir::{Graph, KernelId, NodeId, Phase};
use neusight_gpu::{EwKind, OpDesc};

/// Gradient kernels for one forward kernel, in execution order.
#[must_use]
pub fn backward_ops(op: &OpDesc) -> Vec<OpDesc> {
    match *op {
        OpDesc::Fc {
            batch,
            in_features,
            out_features,
        } => vec![
            // dX = dY · Wᵀ
            OpDesc::fc(batch, out_features, in_features),
            // dW = Xᵀ · dY  — a single (in × batch)·(batch × out) GEMM.
            OpDesc::bmm(1, in_features, out_features, batch),
            // db = column-reduce dY.
            OpDesc::elementwise(EwKind::Add, batch * out_features),
        ],
        OpDesc::Bmm { batch, m, n, k } => {
            vec![OpDesc::bmm(batch, m, k, n), OpDesc::bmm(batch, k, n, m)]
        }
        OpDesc::Conv2d {
            batch,
            in_channels,
            out_channels,
            in_hw,
            kernel,
            stride,
            padding,
        } => {
            let out = neusight_gpu::ops::conv_out_hw(in_hw, kernel, stride, padding);
            let m = batch * out * out;
            let k = in_channels * kernel * kernel;
            vec![
                // dX: transposed convolution — same implicit-GEMM cost
                // with in/out channels swapped.
                OpDesc::bmm(1, m, k, out_channels),
                // dW: Kᵀ·dY gemm.
                OpDesc::bmm(1, k, out_channels, m),
                // db: reduce dY over the M dimension.
                OpDesc::elementwise(EwKind::Add, m * out_channels),
            ]
        }
        OpDesc::Elementwise { numel, .. } => {
            vec![OpDesc::elementwise(EwKind::Mul, numel)]
        }
        OpDesc::Softmax { rows, dim } => vec![OpDesc::softmax(rows, dim)],
        OpDesc::LayerNorm { rows, dim } => vec![
            OpDesc::layer_norm(rows, dim),
            OpDesc::elementwise(EwKind::Mul, rows * dim),
        ],
        OpDesc::Embedding { tokens, dim, vocab } => {
            vec![OpDesc::embedding(tokens, dim, vocab)]
        }
        OpDesc::Fused(ref fused) => fused.ops().iter().rev().flat_map(backward_ops).collect(),
    }
}

/// Appends the backward pass to a forward graph in place: walks forward
/// nodes in reverse execution order and emits each node's gradient kernels
/// in [`Phase::Backward`], chained sequentially (per-device execution is
/// sequential, §2.2). Gradient kernels are derived once per distinct
/// forward kernel and interned when first used, so the kernel table stays
/// in first-seen node order.
///
/// # Panics
///
/// Panics if the graph already contains backward-phase nodes.
pub fn append_backward(graph: &mut Graph) {
    assert!(
        graph.phase_nodes(Phase::Backward).next().is_none(),
        "graph already has a backward pass"
    );
    let mut grads: Vec<Option<Vec<KernelId>>> = vec![None; graph.kernels().len()];
    let mut prev = graph.len().checked_sub(1).map(NodeId);
    for fwd_id in (0..graph.len()).rev().map(NodeId) {
        let fwd = graph.node(fwd_id);
        let (name, kernel) = (fwd.name.clone(), fwd.kernel);
        if grads[kernel.0].is_none() {
            let ops = backward_ops(graph.kernel(kernel));
            grads[kernel.0] = Some(ops.iter().map(|op| graph.intern(op)).collect());
        }
        for (i, &grad) in grads[kernel.0].iter().flatten().enumerate() {
            let chained = [fwd_id, prev.unwrap_or(fwd_id)];
            let inputs = &chained[..if chained[1] == fwd_id { 1 } else { 2 }];
            let op = graph.kernel(grad).clone();
            prev = Some(graph.push(name.grad(i), op, grad, inputs, Phase::Backward));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neusight_gpu::DType;

    #[test]
    fn fc_backward_flops_double_forward() {
        let fwd = OpDesc::fc(512, 1024, 4096);
        let bwd = backward_ops(&fwd);
        assert_eq!(bwd.len(), 3);
        let fwd_flops = fwd.flops();
        let bwd_flops: f64 = bwd.iter().map(OpDesc::flops).sum();
        let ratio = bwd_flops / fwd_flops;
        assert!((1.9..2.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn bmm_backward_flops_double_forward() {
        let fwd = OpDesc::bmm(16, 512, 512, 64);
        let bwd = backward_ops(&fwd);
        assert_eq!(bwd.len(), 2);
        let ratio = bwd.iter().map(OpDesc::flops).sum::<f64>() / fwd.flops();
        assert!((1.99..2.01).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn pointwise_backward_is_same_size() {
        let fwd = OpDesc::elementwise(EwKind::Gelu, 4096);
        let bwd = backward_ops(&fwd);
        assert_eq!(bwd.len(), 1);
        assert_eq!(bwd[0].output_numel(), 4096);
    }

    #[test]
    fn fused_backward_unrolls_members() {
        let fused = OpDesc::fused(vec![
            OpDesc::elementwise(EwKind::Add, 100),
            OpDesc::layer_norm(10, 10),
        ])
        .unwrap();
        let bwd = backward_ops(&fused);
        // LN backward (2 kernels) then add backward (1 kernel).
        assert_eq!(bwd.len(), 3);
        assert!(matches!(bwd[0], OpDesc::LayerNorm { .. }));
    }

    #[test]
    fn append_backward_preserves_validity() {
        let mut g = Graph::new("t");
        let a = g.add("fc", OpDesc::fc(8, 16, 16), &[]);
        let _ = g.add("act", OpDesc::elementwise(EwKind::Relu, 128), &[a]);
        append_backward(&mut g);
        assert!(g.validate().is_ok());
        assert_eq!(g.phase_nodes(Phase::Backward).count(), 4);
        // Backward traffic exists.
        assert!(g.total_memory_bytes(DType::F32) > 0.0);
    }

    #[test]
    #[should_panic(expected = "already has a backward pass")]
    fn double_backward_panics() {
        let mut g = Graph::new("t");
        let _ = g.add("fc", OpDesc::fc(2, 2, 2), &[]);
        append_backward(&mut g);
        append_backward(&mut g);
    }
}
