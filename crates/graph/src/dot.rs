//! Graphviz (DOT) export of dataflow graphs, for debugging lowering and
//! fusion passes — `dot -Tsvg graph.dot -o graph.svg` renders them.

use crate::ir::{Graph, Phase};
use neusight_gpu::OpDesc;
use std::fmt::Write as _;

/// Renders a graph in DOT syntax. Forward nodes are drawn as boxes,
/// backward nodes as dashed boxes; fused kernels are shaded.
#[must_use]
pub fn to_dot(graph: &Graph) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{}\" {{", escape(graph.name()));
    let _ = writeln!(out, "  rankdir=TB;");
    let _ = writeln!(out, "  node [shape=box, fontsize=10];");
    for node in graph.iter() {
        let mut attrs = vec![format!(
            "label=\"{}\\n{}\"",
            escape(&node.name()),
            escape(&node.op.to_string())
        )];
        if node.phase == Phase::Backward {
            attrs.push("style=dashed".to_owned());
        }
        if matches!(node.op, OpDesc::Fused(_)) {
            attrs.push("style=filled".to_owned());
            attrs.push("fillcolor=lightgray".to_owned());
        }
        let _ = writeln!(out, "  n{} [{}];", node.id.0, attrs.join(", "));
        for input in graph.inputs(node.id) {
            let _ = writeln!(out, "  n{} -> n{};", input.0, node.id.0);
        }
    }
    let _ = writeln!(out, "}}");
    out
}

fn escape(text: &str) -> String {
    text.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config;
    use crate::transformer::inference_graph;
    use neusight_gpu::EwKind;

    #[test]
    fn dot_contains_every_node_and_edge() {
        let mut g = Graph::new("tiny");
        let a = g.add("fc", OpDesc::fc(2, 4, 4), &[]);
        let b = g.add("act", OpDesc::elementwise(EwKind::Relu, 8), &[a]);
        let _ = g.add("out", OpDesc::elementwise(EwKind::Scale, 8), &[b]);
        let dot = to_dot(&g);
        assert!(dot.starts_with("digraph \"tiny\""));
        assert_eq!(dot.matches("label=").count(), 3);
        assert_eq!(dot.matches(" -> n").count(), 2); // op labels also contain "->"
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn backward_nodes_are_dashed_and_fused_shaded() {
        let mut g = Graph::new("styles");
        let a = g.add("fc", OpDesc::fc(2, 4, 4), &[]);
        let _ = g.add_in_phase("fc.grad", OpDesc::fc(2, 4, 4), &[a], Phase::Backward);
        let fused = OpDesc::fused(vec![
            OpDesc::elementwise(EwKind::Add, 8),
            OpDesc::elementwise(EwKind::Relu, 8),
        ])
        .unwrap();
        let _ = g.add("fused", fused, &[a]);
        let dot = to_dot(&g);
        assert!(dot.contains("style=dashed"));
        assert!(dot.contains("fillcolor=lightgray"));
    }

    #[test]
    fn full_model_export_is_well_formed() {
        let mut cfg = config::bert_large();
        cfg.num_layers = 2;
        let dot = to_dot(&inference_graph(&cfg, 1));
        // Every line inside the body is a node, an edge, or a setting.
        for line in dot.lines().skip(1) {
            let t = line.trim();
            assert!(
                t.is_empty()
                    || t == "}"
                    || t.starts_with("rankdir")
                    || t.starts_with("node ")
                    || t.starts_with('n'),
                "unexpected line: {t}"
            );
        }
    }

    #[test]
    fn names_with_quotes_are_escaped() {
        let mut g = Graph::new("quo\"ted");
        let _ = g.add("we\"ird", OpDesc::fc(1, 1, 1), &[]);
        let dot = to_dot(&g);
        assert!(dot.contains("quo\\\"ted"));
        assert!(dot.contains("we\\\"ird"));
    }
}
