//! Convolutional model zoo: ResNet-50 and VGG-16 lowered to kernel
//! graphs.
//!
//! The paper motivates NeuSight partly against cycle-accurate simulators
//! ("Accel-Sim takes up to 18 hours to simulate ResNet-50 at batch 256",
//! §1); this module provides that exact workload. Convolutions lower to
//! implicit GEMM ([`OpDesc::Conv2d`]); batch norm is modeled as a
//! layer-norm-shaped reduction over the spatial positions; max/avg pooling
//! as a bandwidth-bound element-wise pass over the input.

use crate::ir::{Graph, NodeId, NodeName, Scope};
use neusight_gpu::{ops::conv_out_hw, EwKind, OpDesc};

/// A convolution + batch-norm + ReLU block, its nodes named by `names`
/// (conv, bn, relu); returns the output node and the output spatial
/// extent.
#[allow(clippy::too_many_arguments)]
fn conv_bn_relu(
    g: &mut Graph,
    names: [NodeName; 3],
    input: NodeId,
    batch: u64,
    in_c: u64,
    out_c: u64,
    in_hw: u64,
    kernel: u64,
    stride: u64,
    relu: bool,
) -> (NodeId, u64) {
    let [conv_name, bn_name, relu_name] = names;
    let padding = kernel / 2;
    let conv = g.add(
        conv_name,
        OpDesc::conv2d(batch, in_c, out_c, in_hw, kernel, stride, padding),
        &[input],
    );
    let out_hw = conv_out_hw(in_hw, kernel, stride, padding);
    let positions = batch * out_hw * out_hw;
    // Batch norm reduces over positions per channel: layer-norm-shaped work.
    let bn = g.add(bn_name, OpDesc::layer_norm(positions, out_c), &[conv]);
    let out = if relu {
        g.add(
            relu_name,
            OpDesc::elementwise(EwKind::Relu, positions * out_c),
            &[bn],
        )
    } else {
        bn
    };
    (out, out_hw)
}

/// Max/avg pooling as a bandwidth-bound pass over the input tensor.
fn pool(g: &mut Graph, name: NodeName, input: NodeId, numel_in: u64) -> NodeId {
    g.add(name, OpDesc::elementwise(EwKind::Scale, numel_in), &[input])
}

/// A ResNet bottleneck block (1×1 reduce, 3×3, 1×1 expand, residual add),
/// named `stage{stage}.block{block}`; returns the output node and spatial
/// extent.
#[allow(clippy::too_many_arguments)]
fn bottleneck(
    g: &mut Graph,
    (stage, block): (u64, u64),
    input: NodeId,
    batch: u64,
    in_c: u64,
    mid_c: u64,
    out_c: u64,
    in_hw: u64,
    stride: u64,
) -> (NodeId, u64) {
    let name = |suffix| NodeName::scoped(Scope::Block, stage, block, suffix);
    let (a, hw1) = conv_bn_relu(
        g,
        ["a.conv", "a.bn", "a.relu"].map(name),
        input,
        batch,
        in_c,
        mid_c,
        in_hw,
        1,
        stride,
        true,
    );
    let (b, hw2) = conv_bn_relu(
        g,
        ["b.conv", "b.bn", "b.relu"].map(name),
        a,
        batch,
        mid_c,
        mid_c,
        hw1,
        3,
        1,
        true,
    );
    let (c, hw3) = conv_bn_relu(
        g,
        ["c.conv", "c.bn", "c.relu"].map(name),
        b,
        batch,
        mid_c,
        out_c,
        hw2,
        1,
        1,
        false,
    );
    // Projection shortcut when the shape changes.
    let shortcut = if in_c != out_c || stride != 1 {
        let (s, _) = conv_bn_relu(
            g,
            ["proj.conv", "proj.bn", "proj.relu"].map(name),
            input,
            batch,
            in_c,
            out_c,
            in_hw,
            1,
            stride,
            false,
        );
        s
    } else {
        input
    };
    let add = g.add(
        name("residual"),
        OpDesc::elementwise(EwKind::Add, batch * hw3 * hw3 * out_c),
        &[c, shortcut],
    );
    let relu = g.add(
        name("relu"),
        OpDesc::elementwise(EwKind::Relu, batch * hw3 * hw3 * out_c),
        &[add],
    );
    (relu, hw3)
}

/// ResNet-50 inference at 224×224, lowered to kernels.
///
/// # Panics
///
/// Panics if `batch_size` is zero.
#[must_use]
pub fn resnet50_inference(batch_size: u64) -> Graph {
    assert!(batch_size > 0, "batch size must be at least 1");
    let mut g = Graph::new(format!("ResNet50-infer-b{batch_size}"));
    let b = batch_size;

    // Stem: 7×7/2 conv + 3×3/2 max pool.
    let stem_in = g.add(
        "stem.input",
        OpDesc::elementwise(EwKind::Scale, b * 3 * 224 * 224),
        &[],
    );
    let stem_names = ["stem.conv", "stem.bn", "stem.relu"].map(NodeName::from);
    let (stem, hw) = conv_bn_relu(&mut g, stem_names, stem_in, b, 3, 64, 224, 7, 2, true);
    let pooled = pool(&mut g, "stem.maxpool".into(), stem, b * 64 * hw * hw);
    let hw = hw / 2; // 56

    // The four stages: (mid, out, blocks, first stride).
    let stages: [(u64, u64, u64, u64); 4] = [
        (64, 256, 3, 1),
        (128, 512, 4, 2),
        (256, 1024, 6, 2),
        (512, 2048, 3, 2),
    ];
    let mut x = pooled;
    let mut in_c = 64;
    let mut cur_hw = hw;
    for (stage, (mid, out, blocks, first_stride)) in (1..).zip(stages) {
        for block in 0..blocks {
            let stride = if block == 0 { first_stride } else { 1 };
            let (next, next_hw) =
                bottleneck(&mut g, (stage, block), x, b, in_c, mid, out, cur_hw, stride);
            x = next;
            cur_hw = next_hw;
            in_c = out;
        }
    }

    // Global average pool + classifier.
    let gap = pool(
        &mut g,
        "global_avg_pool".into(),
        x,
        b * in_c * cur_hw * cur_hw,
    );
    let _ = g.add("classifier", OpDesc::fc(b, in_c, 1000), &[gap]);
    g
}

/// ResNet-50 training iteration (forward + backward).
///
/// # Panics
///
/// Panics if `batch_size` is zero.
#[must_use]
pub fn resnet50_training(batch_size: u64) -> Graph {
    let mut g = resnet50_inference(batch_size);
    crate::backward::append_backward(&mut g);
    g
}

/// VGG-16 inference at 224×224 (conv backbone + the three FC layers).
///
/// # Panics
///
/// Panics if `batch_size` is zero.
#[must_use]
pub fn vgg16_inference(batch_size: u64) -> Graph {
    assert!(batch_size > 0, "batch size must be at least 1");
    let mut g = Graph::new(format!("VGG16-infer-b{batch_size}"));
    let b = batch_size;
    let input = g.add(
        "input",
        OpDesc::elementwise(EwKind::Scale, b * 3 * 224 * 224),
        &[],
    );
    // (channels, convs per stage)
    let stages: [(u64, u64); 5] = [(64, 2), (128, 2), (256, 3), (512, 3), (512, 3)];
    let mut x = input;
    let mut in_c = 3;
    let mut hw = 224;
    for (stage, (channels, convs)) in (1..).zip(stages) {
        for conv in 0..convs {
            let (next, next_hw) = conv_bn_relu(
                &mut g,
                ["conv", "bn", "relu"]
                    .map(|suffix| NodeName::scoped(Scope::Conv, stage, conv, suffix)),
                x,
                b,
                in_c,
                channels,
                hw,
                3,
                1,
                true,
            );
            x = next;
            hw = next_hw;
            in_c = channels;
        }
        x = pool(
            &mut g,
            NodeName::scoped(Scope::Stage, stage, 0, "pool"),
            x,
            b * in_c * hw * hw,
        );
        hw /= 2;
    }
    let fc1 = g.add("fc1", OpDesc::fc(b, in_c * hw * hw, 4096), &[x]);
    let r1 = g.add(
        "fc1.relu",
        OpDesc::elementwise(EwKind::Relu, b * 4096),
        &[fc1],
    );
    let fc2 = g.add("fc2", OpDesc::fc(b, 4096, 4096), &[r1]);
    let r2 = g.add(
        "fc2.relu",
        OpDesc::elementwise(EwKind::Relu, b * 4096),
        &[fc2],
    );
    let _ = g.add("fc3", OpDesc::fc(b, 4096, 1000), &[r2]);
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use neusight_gpu::{DType, OpClass};

    #[test]
    fn resnet50_structure() {
        let g = resnet50_inference(8);
        assert!(g.validate().is_ok());
        // 53 convolutions: 1 stem + 16 blocks × 3 + 4 projections.
        let convs = g
            .iter()
            .filter(|n| matches!(n.op, OpDesc::Conv2d { .. }))
            .count();
        assert_eq!(convs, 53);
        assert!(g.iter().any(|n| n.name() == "classifier"));
    }

    #[test]
    fn resnet50_flops_match_published_scale() {
        // ResNet-50 forward ≈ 4.1 GMACs ≈ 8.2 GFLOPs per image.
        let g = resnet50_inference(1);
        let gflops = g.total_flops() / 1e9;
        assert!((7.0..9.5).contains(&gflops), "gflops {gflops}");
        // Linear in batch.
        let g8 = resnet50_inference(8);
        let ratio = g8.total_flops() / g.total_flops();
        assert!((7.9..8.1).contains(&ratio));
    }

    #[test]
    fn vgg16_flops_match_published_scale() {
        // VGG-16 forward ≈ 15.5 GMACs ≈ 31 GFLOPs per image.
        let g = vgg16_inference(1);
        let gflops = g.total_flops() / 1e9;
        assert!((28.0..36.0).contains(&gflops), "gflops {gflops}");
    }

    #[test]
    fn training_graph_doubles_conv_work() {
        let infer = resnet50_inference(2);
        let train = resnet50_training(2);
        let ratio = train.total_flops() / infer.total_flops();
        assert!((2.3..3.3).contains(&ratio), "ratio {ratio}");
        assert!(train.validate().is_ok());
    }

    #[test]
    fn spatial_dims_shrink_correctly() {
        let g = resnet50_inference(1);
        // The last stage's convs operate at 7x7: implicit-GEMM M = 49.
        let last = g
            .iter()
            .rfind(|n| n.name().starts_with("stage4.block2") && n.name().ends_with(".conv"))
            .expect("stage4 exists");
        if let OpDesc::Conv2d { in_hw, .. } = last.op {
            assert_eq!(in_hw, 7);
        } else {
            panic!("not a conv");
        }
    }

    #[test]
    fn convs_route_to_fc_family() {
        let g = resnet50_inference(1);
        for node in g.iter() {
            if matches!(node.op, OpDesc::Conv2d { .. }) {
                assert_eq!(node.op.op_class(), OpClass::FullyConnected);
                assert!(node.op.flops() > 0.0);
                assert!(node.op.memory_bytes(DType::F32) > 0.0);
            }
        }
    }
}
