//! Dataflow-graph intermediate representation.
//!
//! This plays the role of `torch.fx` in the paper's workflow (§5): a model
//! is lowered to a graph of kernel-level operator nodes; NeuSight annotates
//! each node with a latency prediction and aggregates along the dataflow.
//!
//! The graph is append-only and topologically ordered by construction:
//! every node's inputs must already exist when the node is added, so
//! iterating nodes in id order is a valid execution schedule (GPUs execute
//! kernels sequentially per device, §2.2).

use neusight_gpu::{DType, GpuError, OpClass, OpDesc};
use serde::value::Value;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Identifier of a node inside one [`Graph`] (its position in execution
/// order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// Identifier of a distinct kernel in a [`Graph`]'s kernel table (its
/// position in first-seen node order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct KernelId(pub usize);

/// Which pass of an iteration a node belongs to. Pipeline-parallel
/// scheduling needs forward and backward latencies separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Phase {
    /// Forward pass (inference graphs are all-forward).
    #[default]
    Forward,
    /// Backward (gradient) pass of a training iteration.
    Backward,
}

/// A node name, kept as the static parts and indices the zoo's builders
/// compose it from and rendered on demand: a training graph names ~1000
/// nodes from a handful of parts, so only free-form names (fusion,
/// hand-built graphs) own a string.
#[derive(Debug, Clone)]
pub struct NodeName {
    base: BaseName,
    /// Backward nodes render as `{base}.grad{i}`.
    grad: Option<u32>,
}

#[derive(Debug, Clone)]
enum BaseName {
    Static(&'static str),
    Owned(Arc<str>),
    /// `{scope}.{suffix}`, the scope carrying indices `i` and `j`.
    Scoped(Scope, u32, u32, &'static str),
}

/// The indexed scopes the zoo's builders name nodes in.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Scope {
    /// `layer{i}`: a transformer block.
    Layer,
    /// `layer{i}.moe.expert{j}`: one expert of a mixture-of-experts block.
    Expert,
    /// `stage{i}`: a CNN stage.
    Stage,
    /// `stage{i}.block{j}`: a ResNet bottleneck block.
    Block,
    /// `stage{i}.conv{j}`: a VGG convolution.
    Conv,
}

impl NodeName {
    /// `{scope}.{suffix}`, e.g. `layer3.attn.qkv` or `stage1.block2.a.conv`;
    /// scopes with one index ignore `j`.
    #[must_use]
    pub(crate) fn scoped(scope: Scope, i: u64, j: u64, suffix: &'static str) -> NodeName {
        let index = |x: u64| u32::try_from(x).expect("name index fits in u32");
        BaseName::Scoped(scope, index(i), index(j), suffix).into()
    }

    /// The name of this forward node's `index`-th gradient kernel:
    /// `{self}.grad{index}`.
    #[must_use]
    pub(crate) fn grad(&self, index: usize) -> NodeName {
        debug_assert!(self.grad.is_none(), "only forward nodes have gradients");
        let grad = Some(u32::try_from(index).expect("gradient index fits in u32"));
        NodeName {
            grad,
            ..self.clone()
        }
    }
}

impl From<BaseName> for NodeName {
    fn from(base: BaseName) -> NodeName {
        NodeName { base, grad: None }
    }
}

impl From<&'static str> for NodeName {
    fn from(name: &'static str) -> NodeName {
        BaseName::Static(name).into()
    }
}

impl From<String> for NodeName {
    fn from(name: String) -> NodeName {
        BaseName::Owned(name.into()).into()
    }
}

impl fmt::Display for NodeName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.base {
            BaseName::Static(name) => f.write_str(name)?,
            BaseName::Owned(name) => f.write_str(name)?,
            BaseName::Scoped(scope, i, j, suffix) => match scope {
                Scope::Layer => write!(f, "layer{i}.{suffix}")?,
                Scope::Expert => write!(f, "layer{i}.moe.expert{j}.{suffix}")?,
                Scope::Stage => write!(f, "stage{i}.{suffix}")?,
                Scope::Block => write!(f, "stage{i}.block{j}.{suffix}")?,
                Scope::Conv => write!(f, "stage{i}.conv{j}.{suffix}")?,
            },
        }
        self.grad.map_or(Ok(()), |i| write!(f, ".grad{i}"))
    }
}

/// Names are equal when they render the same, however they are stored.
impl PartialEq for NodeName {
    fn eq(&self, other: &NodeName) -> bool {
        self.to_string() == other.to_string()
    }
}

impl Serialize for NodeName {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for NodeName {
    fn from_value(v: &Value) -> Result<NodeName, serde::Error> {
        String::from_value(v).map(NodeName::from)
    }
}

/// One kernel-level operation in the dataflow graph. Its inputs live in
/// the graph's flat input list ([`Graph::inputs`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// Position in execution order.
    pub id: NodeId,
    pub(crate) name: NodeName,
    /// The kernel this node executes.
    pub op: OpDesc,
    /// The entry of [`Graph::kernels`] equal to `op`.
    pub kernel: KernelId,
    /// Forward or backward pass.
    pub phase: Phase,
    inputs: (u32, u32),
}

impl Node {
    /// Human-readable name, e.g. `"layer3.attn.qkv"`.
    #[must_use]
    pub fn name(&self) -> String {
        self.name.to_string()
    }
}

/// What a forecast reads of a [`Graph`]: the kernel table, and each node's
/// kernel id and phase in execution order. A per-kernel predictor
/// predicts each table entry once and sums the nodes' latencies in order,
/// so a plan answers every forecast its graph does at about 5 bytes a
/// node plus the table, without names, inputs or per-node op copies.
///
/// ```
/// use neusight_graph::{Graph, KernelId, Phase};
/// use neusight_gpu::OpDesc;
///
/// let mut g = Graph::new("tiny");
/// let a = g.add("fc", OpDesc::fc(32, 128, 128), &[]);
/// let _ = g.add_in_phase("fc.grad0", OpDesc::fc(32, 128, 128), &[a], Phase::Backward);
/// let plan = g.into_plan();
/// assert_eq!(plan.len(), 2);
/// assert_eq!(plan.kernels().len(), 1);
/// let nodes: Vec<_> = plan.nodes().collect();
/// assert_eq!(nodes, [(KernelId(0), Phase::Forward), (KernelId(0), Phase::Backward)]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct KernelPlan {
    kernels: Vec<OpDesc>,
    /// Each node's entry of `kernels`, in execution order.
    node_kernels: Vec<u32>,
    /// Each node's phase, in execution order.
    phases: Vec<Phase>,
}

impl KernelPlan {
    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.node_kernels.len()
    }

    /// Whether the plan has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.node_kernels.is_empty()
    }

    /// The distinct kernels, in the order nodes first use them.
    #[must_use]
    pub fn kernels(&self) -> &[OpDesc] {
        &self.kernels
    }

    /// Each node's kernel and phase, in execution order.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = (KernelId, Phase)> + '_ {
        self.node_kernels
            .iter()
            .zip(&self.phases)
            .map(|(&kernel, &phase)| (KernelId(kernel as usize), phase))
    }

    fn push(&mut self, kernel: KernelId, phase: Phase) {
        let kernel = u32::try_from(kernel.0).expect("kernel table fits in u32");
        self.node_kernels.push(kernel);
        self.phases.push(phase);
    }
}

/// A topologically ordered dataflow graph of kernel nodes, with a kernel
/// table holding each distinct [`OpDesc`] once. Its kernel table and
/// per-node kernel ids and phases form its [`KernelPlan`].
///
/// ```
/// use neusight_graph::{Graph, KernelId, Phase};
/// use neusight_gpu::{EwKind, OpDesc};
///
/// let mut g = Graph::new("tiny");
/// let a = g.add("fc1", OpDesc::fc(32, 128, 128), &[]);
/// let b = g.add("act", OpDesc::elementwise(EwKind::Relu, 32 * 128), &[a]);
/// let c = g.add("fc2", OpDesc::fc(32, 128, 128), &[b]);
/// assert_eq!(g.len(), 3);
/// assert!(g.inputs(b).contains(&a));
/// assert_eq!(g.kernels().len(), 2);
/// assert_eq!(g.node(c).kernel, KernelId(0));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Graph {
    name: String,
    plan: KernelPlan,
    /// Kernel-table ids in op order, for interning by binary search.
    sorted: Vec<KernelId>,
    nodes: Vec<Node>,
    inputs: Vec<NodeId>,
}

impl Graph {
    /// Creates an empty graph.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Graph {
        Graph {
            name: name.into(),
            ..Graph::default()
        }
    }

    /// Graph name (model + workload).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a forward-phase node.
    ///
    /// # Panics
    ///
    /// Panics if any input id does not refer to an existing node.
    pub fn add(&mut self, name: impl Into<NodeName>, op: OpDesc, inputs: &[NodeId]) -> NodeId {
        self.add_in_phase(name, op, inputs, Phase::Forward)
    }

    /// Appends a node in an explicit phase.
    ///
    /// # Panics
    ///
    /// Panics if any input id does not refer to an existing node.
    pub fn add_in_phase(
        &mut self,
        name: impl Into<NodeName>,
        op: OpDesc,
        inputs: &[NodeId],
        phase: Phase,
    ) -> NodeId {
        let kernel = self.intern(&op);
        self.push(name.into(), op, kernel, inputs, phase)
    }

    /// The kernel-table entry equal to `op`, appended if it is new.
    pub(crate) fn intern(&mut self, op: &OpDesc) -> KernelId {
        let kernels = &mut self.plan.kernels;
        match self.sorted.binary_search_by(|k| kernels[k.0].cmp(op)) {
            Ok(i) => self.sorted[i],
            Err(i) => {
                let kernel = KernelId(kernels.len());
                kernels.push(op.clone());
                self.sorted.insert(i, kernel);
                kernel
            }
        }
    }

    /// Appends a node whose op is already interned as `kernel`.
    pub(crate) fn push(
        &mut self,
        name: NodeName,
        op: OpDesc,
        kernel: KernelId,
        inputs: &[NodeId],
        phase: Phase,
    ) -> NodeId {
        for input in inputs {
            assert!(
                input.0 < self.nodes.len(),
                "input {input} does not exist yet (graph is append-only)"
            );
        }
        let offset = |len: usize| u32::try_from(len).expect("graph inputs fit in u32");
        let id = NodeId(self.nodes.len());
        let start = offset(self.inputs.len());
        self.inputs.extend_from_slice(inputs);
        let inputs = (start, offset(self.inputs.len()));
        self.plan.push(kernel, phase);
        self.nodes.push(Node {
            id,
            name,
            op,
            kernel,
            phase,
            inputs,
        });
        id
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Borrow of a node.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Dataflow predecessors of a node.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn inputs(&self, id: NodeId) -> &[NodeId] {
        let (start, end) = self.nodes[id.0].inputs;
        &self.inputs[start as usize..end as usize]
    }

    /// The distinct kernels, in the order nodes first use them.
    #[must_use]
    pub fn kernels(&self) -> &[OpDesc] {
        self.plan.kernels()
    }

    /// Borrow of a kernel-table entry.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn kernel(&self, id: KernelId) -> &OpDesc {
        &self.plan.kernels[id.0]
    }

    /// The graph's kernel table and per-node kernel ids and phases.
    #[must_use]
    pub fn plan(&self) -> &KernelPlan {
        &self.plan
    }

    /// The graph's [`KernelPlan`], dropping names, inputs and the
    /// per-node op copies. The plan's buffers are trimmed to their
    /// length, since a plan is kept for as long as it is served.
    #[must_use]
    pub fn into_plan(self) -> KernelPlan {
        let mut plan = self.plan;
        plan.kernels.shrink_to_fit();
        plan.node_kernels.shrink_to_fit();
        plan.phases.shrink_to_fit();
        plan
    }

    /// Iterates nodes in execution order.
    pub fn iter(&self) -> std::slice::Iter<'_, Node> {
        self.nodes.iter()
    }

    /// All nodes in execution order.
    #[must_use]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Ids of nodes that no other node consumes (graph outputs).
    #[must_use]
    pub fn sinks(&self) -> Vec<NodeId> {
        self.consumer_counts()
            .iter()
            .enumerate()
            .filter(|&(_, &count)| count == 0)
            .map(|(i, _)| NodeId(i))
            .collect()
    }

    /// Number of consumers of each node.
    #[must_use]
    pub fn consumer_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.nodes.len()];
        for input in &self.inputs {
            counts[input.0] += 1;
        }
        counts
    }

    /// Validates topological ordering (inputs precede consumers).
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::InvalidDimension`] describing the first
    /// violation. Graphs built through [`Graph::add`] always validate.
    pub fn validate(&self) -> Result<(), GpuError> {
        for node in &self.nodes {
            for input in self.inputs(node.id) {
                if input.0 >= node.id.0 {
                    return Err(GpuError::InvalidDimension {
                        context: "graph topology",
                        detail: format!("node {} consumes non-preceding {input}", node.id),
                    });
                }
            }
        }
        Ok(())
    }

    /// Total FLOPs across all nodes.
    #[must_use]
    pub fn total_flops(&self) -> f64 {
        self.nodes.iter().map(|n| n.op.flops()).sum()
    }

    /// Total logical memory traffic across all nodes.
    #[must_use]
    pub fn total_memory_bytes(&self, dtype: DType) -> f64 {
        self.nodes.iter().map(|n| n.op.memory_bytes(dtype)).sum()
    }

    /// Nodes belonging to the given phase.
    pub fn phase_nodes(&self, phase: Phase) -> impl Iterator<Item = &Node> {
        self.nodes.iter().filter(move |n| n.phase == phase)
    }
}

impl<'a> IntoIterator for &'a Graph {
    type Item = &'a Node;
    type IntoIter = std::slice::Iter<'a, Node>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "graph `{}` ({} nodes):", self.name, self.nodes.len())?;
        for node in &self.nodes {
            write!(f, "  {} = {} [{}]", node.id, node.op, node.name)?;
            for (i, input) in self.inputs(node.id).iter().enumerate() {
                write!(f, "{}{input}", if i == 0 { " <- " } else { ", " })?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Convenience: counts nodes of a class in a graph.
#[must_use]
pub fn count_class(graph: &Graph, class: OpClass) -> usize {
    graph.iter().filter(|n| n.op.op_class() == class).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use neusight_gpu::EwKind;

    fn diamond() -> Graph {
        let mut g = Graph::new("diamond");
        let a = g.add("src", OpDesc::fc(4, 8, 8), &[]);
        let b = g.add("left", OpDesc::elementwise(EwKind::Relu, 32), &[a]);
        let c = g.add("right", OpDesc::elementwise(EwKind::Gelu, 32), &[a]);
        let _ = g.add("join", OpDesc::elementwise(EwKind::Add, 32), &[b, c]);
        g
    }

    #[test]
    fn append_only_topological() {
        let g = diamond();
        assert!(g.validate().is_ok());
        assert_eq!(g.len(), 4);
        assert_eq!(g.sinks(), vec![NodeId(3)]);
    }

    #[test]
    fn consumer_counts() {
        let g = diamond();
        assert_eq!(g.consumer_counts(), vec![2, 1, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "does not exist yet")]
    fn forward_reference_panics() {
        let mut g = Graph::new("bad");
        let _ = g.add("x", OpDesc::fc(1, 1, 1), &[NodeId(5)]);
    }

    #[test]
    fn totals_accumulate() {
        let g = diamond();
        let expected: f64 = g.iter().map(|n| n.op.flops()).sum();
        assert!((g.total_flops() - expected).abs() < 1e-9);
        assert!(g.total_memory_bytes(DType::F32) > 0.0);
    }

    #[test]
    fn phases_filter() {
        let mut g = Graph::new("phased");
        let a = g.add("f", OpDesc::fc(2, 2, 2), &[]);
        let _ = g.add_in_phase("b", OpDesc::fc(2, 2, 2), &[a], Phase::Backward);
        assert_eq!(g.phase_nodes(Phase::Forward).count(), 1);
        assert_eq!(g.phase_nodes(Phase::Backward).count(), 1);
    }

    #[test]
    fn display_lists_nodes() {
        let text = diamond().to_string();
        assert!(text.contains("%0"));
        assert!(text.contains("join"));
        assert!(text.contains("<-"));
    }

    #[test]
    fn serde_round_trip() {
        let g = diamond();
        let json = serde_json::to_string(&g).unwrap();
        let mut back: Graph = serde_json::from_str(&json).unwrap();
        assert_eq!(g, back);
        // The kernel index survives the round trip: a known op reuses its entry.
        let _ = back.add("again", OpDesc::fc(4, 8, 8), &[]);
        assert_eq!(back.kernels().len(), g.kernels().len());
    }

    #[test]
    fn count_class_helper() {
        let g = diamond();
        assert_eq!(count_class(&g, OpClass::Elementwise), 3);
        assert_eq!(count_class(&g, OpClass::Bmm), 0);
    }
}
