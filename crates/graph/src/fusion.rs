//! Operator-fusion pass, mimicking `torch.compile`'s kernel fusion
//! (§4.4 and Table 5 of the paper).
//!
//! The pass greedily merges a producer with a chain of point-wise /
//! reduction followers when the producer is each follower's only consumer
//! path. The fused kernel keeps intermediates on-chip: its FLOPs are the
//! sum of the members', but the intermediate tensors' off-chip round trips
//! disappear (see [`neusight_gpu::FusedOp`]).

use crate::ir::{Graph, NodeId};
use neusight_gpu::{FusedOp, OpClass, OpDesc};

/// Maximum number of kernels merged into one fused kernel.
const MAX_CHAIN: usize = 4;

/// Whether a node class may *start* a fusion chain.
fn can_lead(class: OpClass) -> bool {
    matches!(
        class,
        OpClass::Bmm | OpClass::FullyConnected | OpClass::Elementwise
    )
}

/// Whether a node class may be absorbed *into* a chain.
fn can_follow(class: OpClass) -> bool {
    matches!(
        class,
        OpClass::Elementwise | OpClass::Softmax | OpClass::LayerNorm
    )
}

/// Applies the fusion pass, returning a new graph (the input is untouched).
///
/// Fusion preserves execution semantics: a follower is absorbed only when
/// (1) it is the sole consumer of the chain tail, (2) its other inputs all
/// precede the chain head (so the merged node stays topologically valid),
/// (3) the chain passes [`FusedOp::new`]'s element-flow validation, and
/// (4) both nodes are in the same phase.
#[must_use]
pub fn fuse_graph(graph: &Graph) -> Graph {
    let _span = neusight_obs::span!("fuse_graph", nodes = graph.len());
    let consumers = graph.consumer_counts();
    // First consumer (in execution order) of each node, if any.
    let mut first_consumer: Vec<Option<NodeId>> = vec![None; graph.len()];
    for node in graph.iter() {
        for input in graph.inputs(node.id) {
            if first_consumer[input.0].is_none() {
                first_consumer[input.0] = Some(node.id);
            }
        }
    }

    // Greedily assemble chains.
    let mut absorbed = vec![false; graph.len()];
    let mut chains: Vec<Vec<NodeId>> = Vec::new();
    for node in graph.iter() {
        if absorbed[node.id.0] {
            continue;
        }
        let mut chain = vec![node.id];
        if can_lead(node.op.op_class()) && !matches!(node.op, OpDesc::Fused(_)) {
            let mut tail = node.id;
            while chain.len() < MAX_CHAIN {
                let Some(next_id) = first_consumer[tail.0] else {
                    break;
                };
                // A point-wise follower requires a sole consumer; a
                // reduction follower (layer norm / softmax) may absorb a
                // multi-consumer producer — the fused kernel materializes
                // the intermediate for the remaining consumers, mirroring
                // torch.compile's pointwise-into-reduction fusion (this is
                // what fuses the paper's residual-add + layer-norm pair).
                let next = graph.node(next_id);
                let next_class = next.op.op_class();
                if consumers[tail.0] > 1
                    && !matches!(next_class, OpClass::LayerNorm | OpClass::Softmax)
                {
                    break;
                }
                if next.phase != node.phase
                    || !can_follow(next_class)
                    || matches!(next.op, OpDesc::Fused(_))
                {
                    break;
                }
                // Other inputs must precede the chain head.
                if graph
                    .inputs(next_id)
                    .iter()
                    .any(|&i| i != tail && i.0 >= node.id.0)
                {
                    break;
                }
                // Element-flow compatibility.
                let candidate: Vec<OpDesc> = chain
                    .iter()
                    .chain(std::iter::once(&next_id))
                    .map(|&id| graph.node(id).op.clone())
                    .collect();
                if FusedOp::new(candidate).is_err() {
                    break;
                }
                chain.push(next_id);
                absorbed[next_id.0] = true;
                tail = next_id;
            }
        }
        chains.push(chain);
    }

    if neusight_obs::enabled() {
        let fused_chains = chains.iter().filter(|c| c.len() > 1).count() as u64;
        neusight_obs::metrics::counter("graph.fusion.chains").add(fused_chains);
        neusight_obs::metrics::counter("graph.fusion.absorbed_nodes")
            .add(absorbed.iter().filter(|&&a| a).count() as u64);
    }

    // Rebuild the graph with one node per chain.
    let mut fused = Graph::new(format!("{}-fused", graph.name()));
    let mut remap: Vec<Option<NodeId>> = vec![None; graph.len()];
    for chain in &chains {
        let head = graph.node(chain[0]);
        let op = if chain.len() == 1 {
            head.op.clone()
        } else {
            OpDesc::fused(chain.iter().map(|&id| graph.node(id).op.clone()).collect())
                .expect("chain pre-validated")
        };
        let name = if chain.len() == 1 {
            head.name.clone()
        } else {
            let names: Vec<String> = chain.iter().map(|&id| graph.node(id).name()).collect();
            format!("fused({})", names.join("+")).into()
        };
        // External inputs: every member input that is outside the chain.
        let mut inputs: Vec<NodeId> = Vec::new();
        for &member in chain {
            for &input in graph.inputs(member) {
                if chain.contains(&input) {
                    continue;
                }
                let mapped = remap[input.0].expect("inputs precede (topological order)");
                if !inputs.contains(&mapped) {
                    inputs.push(mapped);
                }
            }
        }
        let new_id = fused.add_in_phase(name, op, &inputs, head.phase);
        for &member in chain {
            remap[member.0] = Some(new_id);
        }
    }
    fused
}

/// Number of fused (multi-kernel) nodes in a graph.
#[must_use]
pub fn fused_node_count(graph: &Graph) -> usize {
    graph
        .iter()
        .filter(|n| matches!(n.op, OpDesc::Fused(_)))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config;
    use crate::transformer::{inference_graph, training_graph};
    use neusight_gpu::{DType, EwKind};

    #[test]
    fn fuses_linear_chain() {
        let mut g = Graph::new("chain");
        let a = g.add("fc", OpDesc::fc(8, 16, 32), &[]);
        let b = g.add("gelu", OpDesc::elementwise(EwKind::Gelu, 8 * 32), &[a]);
        let _ = g.add("scale", OpDesc::elementwise(EwKind::Scale, 8 * 32), &[b]);
        let fused = fuse_graph(&g);
        assert_eq!(fused.len(), 1);
        assert_eq!(fused_node_count(&fused), 1);
        assert!(fused.validate().is_ok());
    }

    #[test]
    fn multi_consumer_blocks_fusion() {
        let mut g = Graph::new("branch");
        let a = g.add("fc", OpDesc::fc(8, 16, 32), &[]);
        let _ = g.add("u1", OpDesc::elementwise(EwKind::Relu, 256), &[a]);
        let _ = g.add("u2", OpDesc::elementwise(EwKind::Gelu, 256), &[a]);
        let fused = fuse_graph(&g);
        // `fc` has two consumers: nothing fuses into it.
        assert_eq!(fused.len(), 3);
        assert_eq!(fused_node_count(&fused), 0);
    }

    #[test]
    fn fusion_preserves_flops_and_reduces_traffic() {
        let g = inference_graph(&config::gpt2_large(), 4);
        let fused = fuse_graph(&g);
        assert!(fused.validate().is_ok());
        assert!(fused.len() < g.len(), "{} !< {}", fused.len(), g.len());
        assert!(
            (fused.total_flops() - g.total_flops()).abs() / g.total_flops() < 1e-12,
            "fusion must not change FLOPs"
        );
        assert!(fused.total_memory_bytes(DType::F32) < g.total_memory_bytes(DType::F32));
    }

    #[test]
    fn residual_plus_layernorm_fuses() {
        // The paper's §4.4 example: residual add + subsequent layer norm.
        let g = inference_graph(&config::gpt2_large(), 4);
        let fused = fuse_graph(&g);
        let has_add_ln = fused
            .iter()
            .any(|n| n.name().contains("attn.residual") && n.name().contains("ffn.norm"));
        assert!(has_add_ln, "expected residual+norm fusion");
    }

    #[test]
    fn fusion_works_on_training_graphs() {
        let g = training_graph(&config::bert_large(), 2);
        let fused = fuse_graph(&g);
        assert!(fused.validate().is_ok());
        assert!(fused.len() < g.len());
        assert!(fused_node_count(&fused) > 0);
    }

    #[test]
    fn chain_length_is_capped() {
        let mut g = Graph::new("long");
        let mut prev = g.add("e0", OpDesc::elementwise(EwKind::Relu, 64), &[]);
        for i in 1..10 {
            prev = g.add(
                format!("e{i}"),
                OpDesc::elementwise(EwKind::Relu, 64),
                &[prev],
            );
        }
        let fused = fuse_graph(&g);
        for node in fused.iter() {
            if let OpDesc::Fused(f) = &node.op {
                assert!(f.ops().len() <= MAX_CHAIN);
            }
        }
        // 10 point-wise kernels collapse into ceil(10/4) = 3 fused nodes.
        assert_eq!(fused.len(), 3);
    }

    #[test]
    fn idempotent_on_already_fused() {
        let g = inference_graph(&config::bert_large(), 2);
        let once = fuse_graph(&g);
        let twice = fuse_graph(&once);
        assert_eq!(once.len(), twice.len());
    }
}
