//! Prior-work baselines the paper compares NeuSight against (§6.1):
//!
//! - [`roofline::RooflineBaseline`] — the classic analytical bound used as
//!   a latency estimate (always optimistic).
//! - [`habitat::HabitatBaseline`] — Habitat-style prediction (ATC'21):
//!   per-family MLPs regress latency *directly* from raw GPU + shape
//!   features (kernel-varying ops), and measured reference latencies are
//!   scaled by bandwidth ratios (kernel-alike ops).
//! - [`li::LiBaseline`] — Li et al. (MICRO'23): per-GPU linear regression
//!   of latency on FLOPs, extrapolated to unseen GPUs through a linear
//!   bandwidth→achieved-FLOPS fit.
//! - [`bigmodels`] — the larger predictors of Table 1 (deeper MLPs and a
//!   small transformer) showing that scale alone does not fix
//!   out-of-distribution failure.
//!
//! All baselines implement [`OpLatencyPredictor`], the uniform interface
//! the evaluation harness drives; [`neusight_core::NeuSight`] implements
//! it too.

pub mod bigmodels;
pub mod habitat;
pub mod li;
pub mod roofline;

use neusight_graph::{Graph, KernelPlan, Phase};

pub use habitat::HabitatBaseline;
pub use li::LiBaseline;
pub use roofline::RooflineBaseline;

/// A model that predicts the latency of a single kernel on a GPU.
pub trait OpLatencyPredictor {
    /// Short display name for tables, e.g. `"Habitat"`.
    fn name(&self) -> &str;

    /// Predicted latency of one kernel, seconds.
    fn predict_op(&self, op: &neusight_gpu::OpDesc, spec: &neusight_gpu::GpuSpec) -> f64;

    /// Predicted per-device latency of a graph: the sum of its kernels
    /// (sequential device execution), split by phase.
    fn predict_graph(&self, graph: &Graph, spec: &neusight_gpu::GpuSpec) -> GraphLatency {
        self.predict_graph_by_kernel(graph.plan(), spec).0
    }

    /// [`OpLatencyPredictor::predict_graph`] over a graph's
    /// [`KernelPlan`], plus the latency of each kernel-table entry
    /// (indexed by [`KernelId`](neusight_graph::KernelId)): each distinct
    /// kernel is predicted once, and the phase sums add the nodes'
    /// latencies in execution order.
    fn predict_graph_by_kernel(
        &self,
        plan: &KernelPlan,
        spec: &neusight_gpu::GpuSpec,
    ) -> (GraphLatency, Vec<f64>) {
        let _span = neusight_obs::span!(
            "baseline_predict_graph",
            baseline = self.name(),
            gpu = spec.name(),
            nodes = plan.len()
        );
        let kernel_s: Vec<f64> = plan
            .kernels()
            .iter()
            .map(|op| self.predict_op(op, spec))
            .collect();
        let (mut forward_s, mut backward_s) = (0.0, 0.0);
        for (kernel, phase) in plan.nodes() {
            match phase {
                Phase::Forward => forward_s += kernel_s[kernel.0],
                Phase::Backward => backward_s += kernel_s[kernel.0],
            }
        }
        let total_s = forward_s + backward_s;
        (
            GraphLatency {
                total_s,
                forward_s,
                backward_s,
            },
            kernel_s,
        )
    }
}

/// Phase-split graph latency returned by [`OpLatencyPredictor::predict_graph`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphLatency {
    /// Total latency, seconds.
    pub total_s: f64,
    /// Forward-pass portion, seconds.
    pub forward_s: f64,
    /// Backward-pass portion, seconds.
    pub backward_s: f64,
}

impl OpLatencyPredictor for neusight_core::NeuSight {
    fn name(&self) -> &str {
        "NeuSight"
    }

    fn predict_op(&self, op: &neusight_gpu::OpDesc, spec: &neusight_gpu::GpuSpec) -> f64 {
        // Launch planning only fails on rank-mismatched tiles, which the
        // clamped tile database cannot produce.
        neusight_core::NeuSight::predict_op(self, op, spec)
            .expect("database tiles always cover the output")
    }

    /// Routes through the batched + memoized graph predictor instead of the
    /// default per-node loop, so every trait consumer (evaluation harness,
    /// `neusight-dist` plan evaluators) gets the fast path for free.
    fn predict_graph(&self, graph: &Graph, spec: &neusight_gpu::GpuSpec) -> GraphLatency {
        let pred = neusight_core::NeuSight::predict_graph(self, graph, spec)
            .expect("database tiles always cover the output");
        GraphLatency {
            total_s: pred.total_s,
            forward_s: pred.forward_s,
            backward_s: pred.backward_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neusight_gpu::{catalog, OpDesc};
    use neusight_graph::{config, inference_graph};

    struct Constant;
    impl OpLatencyPredictor for Constant {
        fn name(&self) -> &str {
            "Constant"
        }
        fn predict_op(&self, _: &OpDesc, _: &neusight_gpu::GpuSpec) -> f64 {
            1e-3
        }
    }

    #[test]
    #[allow(clippy::cast_precision_loss)]
    fn default_graph_prediction_sums_nodes() {
        let spec = catalog::gpu("V100").unwrap();
        let graph = inference_graph(&config::bert_large(), 1);
        let lat = Constant.predict_graph(&graph, &spec);
        let expected = graph.len() as f64 * 1e-3;
        assert!((lat.total_s - expected).abs() < 1e-12);
        assert_eq!(lat.backward_s, 0.0);
    }
}
