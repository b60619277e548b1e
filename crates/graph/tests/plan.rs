//! A graph's [`KernelPlan`] is what a forecast reads of it: the kernel
//! table and each node's kernel id and phase in execution order. These
//! checks hold the plan (borrowed and owned) to a walk over the graph's
//! nodes for every zoo workload, plain and fused, and for random graphs
//! whose phases interleave.

use neusight_gpu::{EwKind, OpDesc};
use neusight_graph::{
    fuse_graph, workload_graph, workload_names, Graph, KernelId, KernelPlan, Phase,
};
use proptest::prelude::*;

/// Asserts `plan` says what a node walk over `graph` says.
fn assert_plan_matches_node_walk(graph: &Graph, plan: &KernelPlan) {
    let name = graph.name();
    assert_eq!(plan.len(), graph.len(), "{name}: node count");
    assert_eq!(plan.is_empty(), graph.is_empty(), "{name}");
    assert_eq!(plan.kernels(), graph.kernels(), "{name}: kernel table");
    assert_eq!(plan.nodes().len(), graph.len(), "{name}: exact size");
    for (node, (kernel, phase)) in graph.iter().zip(plan.nodes()) {
        assert_eq!(kernel, node.kernel, "{name}: kernel of {}", node.id);
        assert_eq!(phase, node.phase, "{name}: phase of {}", node.id);
        assert_eq!(
            &plan.kernels()[kernel.0],
            &node.op,
            "{name}: op of {}",
            node.id
        );
    }
}

#[test]
fn every_zoo_plan_matches_its_node_walk() {
    for name in workload_names() {
        for batch in [1, 4] {
            for training in [false, true] {
                let plain = workload_graph(&name, batch, training).expect("zoo name resolves");
                let fused = fuse_graph(&plain);
                for graph in [plain, fused] {
                    assert_plan_matches_node_walk(&graph, graph.plan());
                    let owned = graph.clone().into_plan();
                    assert_eq!(&owned, graph.plan(), "{}", graph.name());
                    assert_plan_matches_node_walk(&graph, &owned);
                }
            }
        }
    }
}

/// One of a handful of ops, so random graphs repeat kernels.
fn op(choice: u8) -> OpDesc {
    match choice {
        0 => OpDesc::fc(8, 64, 64),
        1 => OpDesc::fc(8, 64, 128),
        2 => OpDesc::elementwise(EwKind::Gelu, 512),
        _ => OpDesc::elementwise(EwKind::Add, 512),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Nodes added with `add_in_phase` in any interleaving of phases and
    /// repeated ops, none included: the plan keeps each node's kernel and
    /// phase in node order and the table in first-seen order.
    #[test]
    fn interleaved_phases_keep_node_order(
        steps in prop::collection::vec((0u8..4, 0u8..2), 0..40),
    ) {
        let mut graph = Graph::new("interleaved");
        let mut first_seen: Vec<OpDesc> = Vec::new();
        let mut expected: Vec<(KernelId, Phase)> = Vec::new();
        for (i, &(choice, backward)) in steps.iter().enumerate() {
            let op = op(choice);
            let phase = if backward == 1 { Phase::Backward } else { Phase::Forward };
            let kernel = match first_seen.iter().position(|k| k == &op) {
                Some(k) => k,
                None => {
                    first_seen.push(op.clone());
                    first_seen.len() - 1
                }
            };
            expected.push((KernelId(kernel), phase));
            let _ = graph.add_in_phase(format!("n{i}"), op, &[], phase);
        }
        let plan = graph.clone().into_plan();
        prop_assert_eq!(plan.len(), steps.len());
        prop_assert_eq!(plan.nodes().collect::<Vec<_>>(), expected);
        prop_assert_eq!(plan.kernels(), &first_seen[..]);
        prop_assert_eq!(&plan, graph.plan());
    }
}
