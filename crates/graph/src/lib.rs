//! DNN dataflow graphs for NeuSight-rs: the substrate that plays the role
//! of PyTorch + `torch.fx` in the paper's workflow.
//!
//! - [`ir`]: an append-only, topologically ordered graph of kernel nodes.
//! - [`config`]: the workload zoo of Table 4 (BERT, GPT-2, GPT-3, OPT,
//!   Switch Transformer).
//! - [`transformer`]: lowering a [`ModelConfig`] to kernel graphs for
//!   inference (time-to-first-token) and training (forward + backward).
//! - [`cnn`]: convolutional workloads (ResNet-50, VGG-16) via implicit-GEMM
//!   convolutions.
//! - [`backward`]: autograd-style backward-kernel derivation.
//! - [`fusion`]: a `torch.compile`-style operator fusion pass (§4.4).
//!
//! # Example
//!
//! ```
//! use neusight_graph::{config, transformer};
//!
//! let cfg = config::gpt2_large();
//! let graph = transformer::inference_graph(&cfg, 4);
//! assert!(graph.validate().is_ok());
//! println!("{} kernels, {:.1} GFLOPs", graph.len(), graph.total_flops() / 1e9);
//! ```

pub mod backward;
pub mod cnn;
pub mod config;
pub mod dot;
pub mod fusion;
pub mod ir;
pub mod transformer;

pub use config::{ModelConfig, MoeConfig, ResolveError, TaskKind};
pub use fusion::fuse_graph;
pub use ir::{Graph, KernelId, KernelPlan, Node, NodeId, NodeName, Phase};
pub use transformer::{decode_graph, inference_graph, training_graph};

/// Builds the kernel graph a workload name refers to: any Table 4
/// transformer (exact name or unambiguous prefix, via
/// [`config::resolve`]) plus the convolutional workloads `resnet50` and
/// `vgg16`. The CLI's `--model` arguments and the serving layer's
/// `"model"` request field both route through here.
///
/// # Errors
///
/// Returns [`ResolveError`] when the name matches nothing or is an
/// ambiguous prefix.
pub fn workload_graph(name: &str, batch: u64, training: bool) -> Result<Graph, ResolveError> {
    Ok(match name.to_ascii_lowercase().as_str() {
        "resnet50" if training => cnn::resnet50_training(batch),
        "resnet50" => cnn::resnet50_inference(batch),
        "vgg16" => cnn::vgg16_inference(batch),
        _ => {
            let model = config::resolve(name)?;
            if training {
                training_graph(&model, batch)
            } else {
                inference_graph(&model, batch)
            }
        }
    })
}

/// Canonical names [`workload_graph`] accepts: the Table 4 zoo plus the
/// CNN workloads.
#[must_use]
pub fn workload_names() -> Vec<String> {
    let mut names: Vec<String> = config::table4().into_iter().map(|m| m.name).collect();
    names.push("resnet50".to_owned());
    names.push("vgg16".to_owned());
    names
}
