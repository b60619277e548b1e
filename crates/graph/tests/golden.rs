//! Golden renderings of every workload graph: node names, inputs, ops and
//! order must render byte-identically to the recorded hashes, so a change
//! to how the graph stores nodes cannot silently change what it describes.

use neusight_gpu::OpDesc;
use neusight_graph::{dot::to_dot, fuse_graph, workload_graph, workload_names, Graph};
use std::collections::HashSet;

/// FNV-1a, 64-bit, folded over successive byte strings.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Every `workload_names()` graph at batch 4, inference and training,
/// each followed by its fused form.
fn golden_graphs() -> Vec<Graph> {
    let mut graphs = Vec::new();
    for name in workload_names() {
        for training in [false, true] {
            let graph = workload_graph(&name, 4, training).expect("zoo name resolves");
            let fused = fuse_graph(&graph);
            graphs.push(graph);
            graphs.push(fused);
        }
    }
    graphs
}

#[test]
fn dot_and_display_render_byte_identically() {
    let (mut dot, mut display) = (FNV_OFFSET, FNV_OFFSET);
    for graph in golden_graphs() {
        dot = fnv1a(dot, to_dot(&graph).as_bytes());
        display = fnv1a(display, graph.to_string().as_bytes());
    }
    assert_eq!(
        (dot, display),
        (0x7922_744d_13a1_14b7, 0x155a_9ce7_8a83_b683),
        "DOT / Display rendering changed"
    );
}

#[test]
fn kernel_table_holds_each_distinct_op_once_in_first_seen_order() {
    for graph in golden_graphs() {
        let mut first_seen: Vec<&OpDesc> = Vec::new();
        for node in graph.iter() {
            assert_eq!(graph.kernel(node.kernel), &node.op, "{}", graph.name());
            if !first_seen.contains(&&node.op) {
                first_seen.push(&node.op);
            }
        }
        let table: Vec<&OpDesc> = graph.kernels().iter().collect();
        assert_eq!(table, first_seen, "{}", graph.name());
        let distinct: HashSet<&OpDesc> = graph.iter().map(|n| &n.op).collect();
        assert_eq!(distinct.len(), graph.kernels().len(), "{}", graph.name());
    }
}
