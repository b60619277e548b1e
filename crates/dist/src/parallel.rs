//! Parallelization strategies and distributed execution plans (§5.1).
//!
//! NeuSight supports one strategy at a time across the GPUs of a single
//! server (as in Table 6): data parallelism (replicate, all-reduce
//! gradients), Megatron-style tensor model parallelism (split attention
//! heads and FFN columns, all-reduce activations), and GPipe pipeline
//! parallelism (split layers into stages, stream micro-batches, send/recv
//! boundary activations).

use crate::collectives::CommOp;
use crate::error::DistError;
use crate::schedule::PipeSchedule;
use neusight_gpu::{DType, EwKind, GpuError, OpDesc};
use neusight_graph::backward::append_backward;
use neusight_graph::transformer::{append_block, append_embedding, append_training_head};
use neusight_graph::{Graph, ModelConfig};
use serde::{Deserialize, Serialize};

/// How a training iteration is spread across the server's GPUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ParallelStrategy {
    /// Replicate the model; split the global batch; all-reduce gradients.
    Data,
    /// Megatron tensor model parallelism: split heads / FFN columns;
    /// all-reduce activations twice per layer per pass.
    Tensor,
    /// Pipeline parallelism with the given number of micro-batches and
    /// schedule (Table 6 uses GPipe with 4 micro-batches).
    Pipeline {
        /// Micro-batches streamed through the pipeline (Table 6 uses 4).
        microbatches: u64,
        /// Bubble schedule (GPipe or 1F1B).
        schedule: PipeSchedule,
    },
}

impl ParallelStrategy {
    /// GPipe pipeline with the given micro-batch count (the Table 6
    /// configuration).
    #[must_use]
    pub fn gpipe(microbatches: u64) -> ParallelStrategy {
        ParallelStrategy::Pipeline {
            microbatches,
            schedule: PipeSchedule::GPipe,
        }
    }

    /// 1F1B pipeline with the given micro-batch count.
    #[must_use]
    pub fn one_f_one_b(microbatches: u64) -> ParallelStrategy {
        ParallelStrategy::Pipeline {
            microbatches,
            schedule: PipeSchedule::OneFOneB,
        }
    }
}

impl ParallelStrategy {
    /// Display name used in tables.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            ParallelStrategy::Data => "Data Parallel",
            ParallelStrategy::Tensor => "Tensor Parallel",
            ParallelStrategy::Pipeline { .. } => "Pipeline Parallel",
        }
    }
}

/// A concrete distributed training plan: per-GPU compute graphs plus the
/// communication operators the strategy inserts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DistPlan {
    /// Data parallelism.
    Data {
        /// The training graph each replica executes (per-GPU batch).
        per_gpu: Graph,
        /// Gradient all-reduce issued once per iteration.
        grad_allreduce: CommOp,
    },
    /// Tensor model parallelism.
    Tensor {
        /// The sharded per-GPU training graph.
        per_gpu: Graph,
        /// Activation/gradient all-reduces, per iteration.
        collectives: Vec<CommOp>,
    },
    /// Pipeline parallelism.
    Pipeline {
        /// Per-stage training graphs, sized for one micro-batch.
        stages: Vec<Graph>,
        /// Number of micro-batches per iteration.
        microbatches: u64,
        /// Bubble schedule.
        schedule: PipeSchedule,
        /// Activation bytes crossing each stage boundary per micro-batch
        /// (same volume flows back as gradients).
        boundary_bytes: f64,
    },
}

/// Builds the distributed training plan for a model at a global batch size
/// on `width` GPUs.
///
/// # Errors
///
/// Returns [`DistError::Plan`] when the strategy cannot divide the work
/// evenly (batch not divisible for DP / micro-batching, heads or FFN not
/// divisible for TP, fewer layers than stages for PP), and
/// [`DistError::CollectiveCount`] if the collective count overflows.
pub fn plan_training(
    cfg: &ModelConfig,
    global_batch: u64,
    width: u32,
    strategy: ParallelStrategy,
    dtype: DType,
) -> Result<DistPlan, DistError> {
    let w = u64::from(width);
    let invalid = |detail: String| {
        DistError::Plan(GpuError::InvalidDimension {
            context: "distributed plan",
            detail,
        })
    };
    match strategy {
        ParallelStrategy::Data => {
            if !global_batch.is_multiple_of(w) || global_batch < w {
                return Err(invalid(format!(
                    "global batch {global_batch} does not split across {w} replicas"
                )));
            }
            let per_gpu = neusight_graph::training_graph(cfg, global_batch / w);
            #[allow(clippy::cast_precision_loss)]
            let grad_bytes = cfg.approx_params() as f64 * dtype.size_bytes() as f64;
            Ok(DistPlan::Data {
                per_gpu,
                grad_allreduce: CommOp::AllReduce { bytes: grad_bytes },
            })
        }
        ParallelStrategy::Tensor => {
            if !cfg.num_heads.is_multiple_of(w) || !cfg.ffn_dim.is_multiple_of(w) {
                return Err(invalid(format!(
                    "{} heads / {} ffn not divisible by tensor width {w}",
                    cfg.num_heads, cfg.ffn_dim
                )));
            }
            let per_gpu = tensor_parallel_training_graph(cfg, global_batch, w);
            #[allow(clippy::cast_precision_loss)]
            let act_bytes = (cfg.tokens(global_batch) * cfg.hidden_dim * dtype.size_bytes()) as f64;
            // Two all-reduces per layer in forward, two in backward, plus
            // one each for the vocab-parallel head.
            let count = 4 * cfg.num_layers + 2;
            let collectives = vec![
                CommOp::AllReduce { bytes: act_bytes };
                usize::try_from(count)
                    .map_err(|_| DistError::CollectiveCount { count })?
            ];
            Ok(DistPlan::Tensor {
                per_gpu,
                collectives,
            })
        }
        ParallelStrategy::Pipeline {
            microbatches,
            schedule,
        } => {
            if microbatches == 0 || !global_batch.is_multiple_of(microbatches) {
                return Err(invalid(format!(
                    "global batch {global_batch} does not split into {microbatches} micro-batches"
                )));
            }
            if cfg.num_layers < w {
                return Err(invalid(format!(
                    "{} layers cannot fill {w} pipeline stages",
                    cfg.num_layers
                )));
            }
            let micro = global_batch / microbatches;
            let stages = (0..w)
                .map(|stage| pipeline_stage_graph(cfg, micro, stage, w))
                .collect();
            #[allow(clippy::cast_precision_loss)]
            let boundary_bytes = (cfg.tokens(micro) * cfg.hidden_dim * dtype.size_bytes()) as f64;
            Ok(DistPlan::Pipeline {
                stages,
                microbatches,
                schedule,
                boundary_bytes,
            })
        }
    }
}

/// Builds a distributed *inference* plan: Megatron tensor parallelism for
/// models too large (or too slow) for one device. Data parallelism is
/// trivial for inference (independent replicas) and pipeline parallelism
/// is unusual for latency-bound serving, so tensor is the supported
/// strategy, matching Megatron's deployment.
///
/// # Errors
///
/// Returns [`DistError::Plan`] if heads or FFN width do not divide across
/// the GPUs, and [`DistError::CollectiveCount`] if the collective count
/// overflows.
pub fn plan_inference(
    cfg: &ModelConfig,
    batch: u64,
    width: u32,
    dtype: DType,
) -> Result<DistPlan, DistError> {
    let w = u64::from(width);
    if !cfg.num_heads.is_multiple_of(w) || !cfg.ffn_dim.is_multiple_of(w) {
        return Err(DistError::Plan(GpuError::InvalidDimension {
            context: "distributed plan",
            detail: format!(
                "{} heads / {} ffn not divisible by tensor width {w}",
                cfg.num_heads, cfg.ffn_dim
            ),
        }));
    }
    let per_gpu = tensor_parallel_forward_graph(cfg, batch, w);
    #[allow(clippy::cast_precision_loss)]
    let act_bytes = (cfg.tokens(batch) * cfg.hidden_dim * dtype.size_bytes()) as f64;
    // Two all-reduces per layer (attention out, FFN out) plus the head.
    let count = 2 * cfg.num_layers + 1;
    let collectives = vec![
        CommOp::AllReduce { bytes: act_bytes };
        usize::try_from(count)
            .map_err(|_| DistError::CollectiveCount { count })?
    ];
    Ok(DistPlan::Tensor {
        per_gpu,
        collectives,
    })
}

/// Builds the per-GPU Megatron-sharded training graph: attention heads,
/// FFN columns and the vocabulary are split `width` ways; layer norms and
/// residuals are replicated.
fn tensor_parallel_training_graph(cfg: &ModelConfig, batch: u64, width: u64) -> Graph {
    let mut g = tensor_parallel_forward_graph(cfg, batch, width);
    append_backward(&mut g);
    g
}

/// The forward-only sharded graph shared by training and inference plans.
fn tensor_parallel_forward_graph(cfg: &ModelConfig, batch: u64, width: u64) -> Graph {
    let mut g = Graph::new(format!("{}-tp{width}-fwd-b{batch}", cfg.name));
    let tokens = cfg.tokens(batch);
    let h = cfg.hidden_dim;
    let seq = cfg.seq_len;
    let heads = cfg.num_heads / width;
    let head_dim = cfg.head_dim();
    let ffn = cfg.ffn_dim / width;

    let mut x = append_embedding(&mut g, cfg, batch);
    for layer in 0..cfg.num_layers {
        let p = |s: &str| format!("layer{layer}.{s}");
        let ln1 = g.add(p("attn.norm"), OpDesc::layer_norm(tokens, h), &[x]);
        // Column-parallel QKV: each rank computes its heads' slice.
        let qkv = g.add(p("attn.qkv"), OpDesc::fc(tokens, h, 3 * h / width), &[ln1]);
        let scores = g.add(
            p("attn.scores"),
            OpDesc::bmm(batch * heads, seq, seq, head_dim),
            &[qkv],
        );
        let scaled = g.add(
            p("attn.scale"),
            OpDesc::elementwise(EwKind::Scale, batch * heads * seq * seq),
            &[scores],
        );
        let probs = g.add(
            p("attn.softmax"),
            OpDesc::softmax(batch * heads * seq, seq),
            &[scaled],
        );
        let context = g.add(
            p("attn.context"),
            OpDesc::bmm(batch * heads, seq, head_dim, seq),
            &[probs, qkv],
        );
        // Row-parallel output projection (all-reduce follows, counted in
        // the plan's collectives).
        let attn_out = g.add(
            p("attn.out_proj"),
            OpDesc::fc(tokens, h / width, h),
            &[context],
        );
        let res1 = g.add(
            p("attn.residual"),
            OpDesc::elementwise(EwKind::Add, tokens * h),
            &[attn_out, x],
        );
        let ln2 = g.add(p("ffn.norm"), OpDesc::layer_norm(tokens, h), &[res1]);
        let up = g.add(p("ffn.up"), OpDesc::fc(tokens, h, ffn), &[ln2]);
        let act = g.add(
            p("ffn.gelu"),
            OpDesc::elementwise(EwKind::Gelu, tokens * ffn),
            &[up],
        );
        let down = g.add(p("ffn.down"), OpDesc::fc(tokens, ffn, h), &[act]);
        x = g.add(
            p("ffn.residual"),
            OpDesc::elementwise(EwKind::Add, tokens * h),
            &[down, res1],
        );
    }
    // Vocabulary-parallel head.
    let final_ln = g.add("final_norm", OpDesc::layer_norm(tokens, h), &[x]);
    let logits = g.add(
        "lm_head",
        OpDesc::fc(tokens, h, cfg.vocab_size / width),
        &[final_ln],
    );
    let _ = g.add(
        "loss.softmax",
        OpDesc::softmax(tokens, cfg.vocab_size / width),
        &[logits],
    );
    g
}

/// Builds the training graph of one pipeline stage for one micro-batch:
/// a contiguous range of layers, plus the embedding on the first stage and
/// the LM head on the last.
fn pipeline_stage_graph(cfg: &ModelConfig, microbatch: u64, stage: u64, num_stages: u64) -> Graph {
    let mut g = Graph::new(format!(
        "{}-pp-stage{stage}of{num_stages}-mb{microbatch}",
        cfg.name
    ));
    let layers = cfg.num_layers;
    let per = layers / num_stages;
    let extra = layers % num_stages;
    // Early stages take the remainder layers.
    let start = stage * per + stage.min(extra);
    let count = per + u64::from(stage < extra);

    let mut x = if stage == 0 {
        append_embedding(&mut g, cfg, microbatch)
    } else {
        // Received activations enter through a no-op-ish staging kernel
        // (a copy/identity the framework performs on receipt).
        g.add(
            "recv.stage_input",
            OpDesc::elementwise(EwKind::Scale, cfg.tokens(microbatch) * cfg.hidden_dim),
            &[],
        )
    };
    for layer in start..start + count {
        x = append_block(&mut g, cfg, microbatch, layer, x);
    }
    if stage == num_stages - 1 {
        let _ = append_training_head(&mut g, cfg, microbatch, x);
    }
    append_backward(&mut g);
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use neusight_graph::config;

    #[test]
    fn data_plan_splits_batch() {
        let cfg = config::gpt2_large();
        let plan = plan_training(&cfg, 8, 4, ParallelStrategy::Data, DType::F32).unwrap();
        let DistPlan::Data {
            per_gpu,
            grad_allreduce,
        } = plan
        else {
            panic!("wrong plan kind")
        };
        // Replica compute equals a batch-2 training graph.
        let reference = neusight_graph::training_graph(&cfg, 2);
        assert!((per_gpu.total_flops() - reference.total_flops()).abs() < 1e-3);
        let CommOp::AllReduce { bytes } = grad_allreduce else {
            panic!("expected all-reduce")
        };
        assert!((bytes - cfg.approx_params() as f64 * 4.0).abs() < 1.0);
    }

    #[test]
    fn data_plan_rejects_indivisible_batch() {
        let cfg = config::gpt2_large();
        assert!(plan_training(&cfg, 6, 4, ParallelStrategy::Data, DType::F32).is_err());
        assert!(plan_training(&cfg, 2, 4, ParallelStrategy::Data, DType::F32).is_err());
    }

    #[test]
    fn tensor_plan_shards_compute() {
        let cfg = config::gpt2_large();
        let full = neusight_graph::training_graph(&cfg, 8).total_flops();
        let plan = plan_training(&cfg, 8, 4, ParallelStrategy::Tensor, DType::F32).unwrap();
        let DistPlan::Tensor {
            per_gpu,
            collectives,
        } = plan
        else {
            panic!("wrong plan kind")
        };
        let shard = per_gpu.total_flops();
        // GEMMs split 4 ways, replicated norms keep the ratio above 1/4.
        let ratio = full / shard;
        assert!((3.0..4.6).contains(&ratio), "ratio {ratio}");
        assert_eq!(collectives.len(), (4 * cfg.num_layers + 2) as usize);
        assert!(per_gpu.validate().is_ok());
    }

    #[test]
    fn tensor_plan_rejects_indivisible_heads() {
        let cfg = config::gpt2_large(); // 20 heads
        assert!(plan_training(&cfg, 8, 3, ParallelStrategy::Tensor, DType::F32).is_err());
    }

    #[test]
    fn pipeline_plan_covers_all_layers_once() {
        let cfg = config::gpt3_xl(); // 24 layers
        let plan = plan_training(&cfg, 4, 4, ParallelStrategy::gpipe(4), DType::F32).unwrap();
        let DistPlan::Pipeline {
            stages,
            microbatches,
            boundary_bytes,
            ..
        } = plan
        else {
            panic!("wrong plan kind")
        };
        assert_eq!(stages.len(), 4);
        assert_eq!(microbatches, 4);
        // Each stage holds 6 layers; total block count matches the model.
        let blocks: usize = stages
            .iter()
            .map(|s| s.iter().filter(|n| n.name().ends_with("attn.qkv")).count())
            .sum();
        assert_eq!(blocks, 24);
        // Boundary tensor: micro-batch 1 × seq 2048 × hidden 2048 × 4 B.
        assert!((boundary_bytes - (2048.0 * 2048.0 * 4.0)).abs() < 1.0);
        // Only the first stage embeds; only the last has the loss head.
        assert!(stages[0].iter().any(|n| n.name() == "embed.tokens"));
        assert!(!stages[1].iter().any(|n| n.name() == "embed.tokens"));
        assert!(stages[3].iter().any(|n| n.name() == "loss.softmax"));
        assert!(!stages[0].iter().any(|n| n.name() == "loss.softmax"));
    }

    #[test]
    fn pipeline_handles_uneven_layers() {
        let mut cfg = config::gpt2_large();
        cfg.num_layers = 10; // 10 layers on 4 stages: 3,3,2,2
        let plan = plan_training(&cfg, 8, 4, ParallelStrategy::gpipe(4), DType::F32).unwrap();
        let DistPlan::Pipeline { stages, .. } = plan else {
            panic!("wrong plan kind")
        };
        let per_stage: Vec<usize> = stages
            .iter()
            .map(|s| s.iter().filter(|n| n.name().ends_with("attn.qkv")).count())
            .collect();
        assert_eq!(per_stage, vec![3, 3, 2, 2]);
    }

    #[test]
    fn pipeline_rejects_bad_microbatching() {
        let cfg = config::gpt2_large();
        assert!(plan_training(&cfg, 6, 4, ParallelStrategy::gpipe(4), DType::F32).is_err());
    }

    #[test]
    fn inference_plan_shards_forward_only() {
        let cfg = config::gpt3_xl();
        let plan = plan_inference(&cfg, 4, 4, DType::F32).unwrap();
        let DistPlan::Tensor {
            per_gpu,
            collectives,
        } = plan
        else {
            panic!("wrong plan kind")
        };
        assert!(per_gpu.validate().is_ok());
        // Forward only: no backward-phase nodes.
        assert_eq!(
            per_gpu.phase_nodes(neusight_graph::Phase::Backward).count(),
            0
        );
        // Half the collectives of the training plan (no gradient pass).
        assert_eq!(collectives.len(), (2 * cfg.num_layers + 1) as usize);
        // Sharded compute is roughly a quarter of the single-GPU forward.
        let full = neusight_graph::training_graph(&cfg, 4)
            .phase_nodes(neusight_graph::Phase::Forward)
            .map(|n| n.op.flops())
            .sum::<f64>();
        let ratio = full / per_gpu.total_flops();
        assert!((3.0..4.6).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn inference_plan_rejects_bad_width() {
        let cfg = config::gpt2_large(); // 20 heads
        assert!(plan_inference(&cfg, 4, 3, DType::F32).is_err());
    }

    #[test]
    fn strategy_labels() {
        assert_eq!(ParallelStrategy::Data.label(), "Data Parallel");
        assert_eq!(ParallelStrategy::gpipe(4).label(), "Pipeline Parallel");
    }
}
