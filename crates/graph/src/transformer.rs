//! Transformer graph builders: lowering a [`ModelConfig`] into the
//! kernel-level dataflow graph a GPU actually executes.
//!
//! The lowering mirrors how PyTorch decomposes a transformer block into
//! device kernels: layer-norms, fused QKV projections (fully-connected),
//! per-head attention BMMs, softmax, output projection, residual adds, and
//! the feed-forward pair with a GELU between. Inference graphs measure
//! time-to-first-token (one full forward over the prompt, §6.1); training
//! graphs contain forward and derived backward kernels.

use crate::backward::append_backward;
use crate::config::{ModelConfig, TaskKind};
use crate::ir::{Graph, NodeId, NodeName, Scope};
use neusight_gpu::{EwKind, OpDesc};

/// Builds the inference graph for `cfg` at the given batch size.
///
/// For classification models this ends in a pooler + binary classifier; for
/// generation models it ends in an LM head over the final position
/// (time-to-first-token).
///
/// # Panics
///
/// Panics if `batch_size` is zero.
#[must_use]
pub fn inference_graph(cfg: &ModelConfig, batch_size: u64) -> Graph {
    assert!(batch_size > 0, "batch size must be at least 1");
    let mut g = Graph::new(format!("{}-infer-b{batch_size}", cfg.name));
    let last = build_forward(&mut g, cfg, batch_size, false);
    let _ = last;
    g
}

/// Builds a training-iteration graph (one forward plus one backward pass)
/// for `cfg` at the given batch size.
///
/// # Panics
///
/// Panics if `batch_size` is zero.
#[must_use]
pub fn training_graph(cfg: &ModelConfig, batch_size: u64) -> Graph {
    assert!(batch_size > 0, "batch size must be at least 1");
    let mut g = Graph::new(format!("{}-train-b{batch_size}", cfg.name));
    let _ = build_forward(&mut g, cfg, batch_size, true);
    append_backward(&mut g);
    g
}

/// Builds the single-token *decode* graph for autoregressive generation
/// with a KV cache: each new token attends over `context_len` cached
/// positions while every GEMM runs at batch rows only. Together with
/// [`inference_graph`] (the prefill / time-to-first-token cost) this gives
/// full serving-latency estimates: `TTFT + new_tokens × decode`.
///
/// # Panics
///
/// Panics if `batch_size` or `context_len` is zero.
#[must_use]
pub fn decode_graph(cfg: &ModelConfig, batch_size: u64, context_len: u64) -> Graph {
    assert!(batch_size > 0, "batch size must be at least 1");
    assert!(context_len > 0, "context length must be at least 1");
    let mut g = Graph::new(format!(
        "{}-decode-b{batch_size}-ctx{context_len}",
        cfg.name
    ));
    let b = batch_size;
    let h = cfg.hidden_dim;
    let heads = cfg.num_heads;
    let head_dim = cfg.head_dim();

    // The new token's embedding row.
    let embed = g.add("decode.embed", OpDesc::embedding(b, h, cfg.vocab_size), &[]);
    let mut x = g.add(
        "decode.position_add",
        OpDesc::elementwise(EwKind::Add, b * h),
        &[embed],
    );
    for layer in 0..cfg.num_layers {
        let p = |suffix| NodeName::scoped(Scope::Layer, layer, 0, suffix);
        let ln1 = g.add(p("decode.attn.norm"), OpDesc::layer_norm(b, h), &[x]);
        let qkv = g.add(p("decode.attn.qkv"), OpDesc::fc(b, h, 3 * h), &[ln1]);
        // One query row attends over the whole cached context: the BMM
        // operand reads are exactly the KV-cache traffic.
        let scores = g.add(
            p("decode.attn.scores"),
            OpDesc::bmm(b * heads, 1, context_len, head_dim),
            &[qkv],
        );
        let probs = g.add(
            p("decode.attn.softmax"),
            OpDesc::softmax(b * heads, context_len),
            &[scores],
        );
        let context = g.add(
            p("decode.attn.context"),
            OpDesc::bmm(b * heads, 1, head_dim, context_len),
            &[probs, qkv],
        );
        let attn_out = g.add(p("decode.attn.out_proj"), OpDesc::fc(b, h, h), &[context]);
        let res1 = g.add(
            p("decode.attn.residual"),
            OpDesc::elementwise(EwKind::Add, b * h),
            &[attn_out, x],
        );
        let ln2 = g.add(p("decode.ffn.norm"), OpDesc::layer_norm(b, h), &[res1]);
        let up = g.add(p("decode.ffn.up"), OpDesc::fc(b, h, cfg.ffn_dim), &[ln2]);
        let act = g.add(
            p("decode.ffn.gelu"),
            OpDesc::elementwise(EwKind::Gelu, b * cfg.ffn_dim),
            &[up],
        );
        let down = g.add(p("decode.ffn.down"), OpDesc::fc(b, cfg.ffn_dim, h), &[act]);
        x = g.add(
            p("decode.ffn.residual"),
            OpDesc::elementwise(EwKind::Add, b * h),
            &[down, res1],
        );
    }
    let final_ln = g.add("decode.final_norm", OpDesc::layer_norm(b, h), &[x]);
    let _ = g.add(
        "decode.lm_head",
        OpDesc::fc(b, h, cfg.vocab_size),
        &[final_ln],
    );
    g
}

/// Emits the token + position embedding kernels; returns the embedded
/// activations node. Exposed for distributed-stage construction.
pub fn append_embedding(g: &mut Graph, cfg: &ModelConfig, batch_size: u64) -> NodeId {
    let tokens = cfg.tokens(batch_size);
    let embed = g.add(
        "embed.tokens",
        OpDesc::embedding(tokens, cfg.hidden_dim, cfg.vocab_size),
        &[],
    );
    g.add(
        "embed.position_add",
        OpDesc::elementwise(EwKind::Add, tokens * cfg.hidden_dim),
        &[embed],
    )
}

/// Emits the training head (final norm, LM head over all tokens, loss
/// softmax); returns the final node. Exposed for distributed-stage
/// construction.
pub fn append_training_head(
    g: &mut Graph,
    cfg: &ModelConfig,
    batch_size: u64,
    input: NodeId,
) -> NodeId {
    let tokens = cfg.tokens(batch_size);
    let final_ln = g.add(
        "final_norm",
        OpDesc::layer_norm(tokens, cfg.hidden_dim),
        &[input],
    );
    let logits = g.add(
        "lm_head",
        OpDesc::fc(tokens, cfg.hidden_dim, cfg.vocab_size),
        &[final_ln],
    );
    g.add(
        "loss.softmax",
        OpDesc::softmax(tokens, cfg.vocab_size),
        &[logits],
    )
}

/// Emits the forward kernels; returns the final node. `full_head` selects
/// the training-style LM head over every token (otherwise the inference
/// task head).
fn build_forward(g: &mut Graph, cfg: &ModelConfig, batch_size: u64, full_head: bool) -> NodeId {
    let tokens = cfg.tokens(batch_size);
    let h = cfg.hidden_dim;

    let embed = g.add(
        "embed.tokens",
        OpDesc::embedding(tokens, h, cfg.vocab_size),
        &[],
    );
    let pos = g.add(
        "embed.position_add",
        OpDesc::elementwise(EwKind::Add, tokens * h),
        &[embed],
    );

    let mut x = pos;
    for layer in 0..cfg.num_layers {
        x = append_block(g, cfg, batch_size, layer, x);
    }

    let final_ln = g.add("final_norm", OpDesc::layer_norm(tokens, h), &[x]);

    if full_head {
        // Training: logits for every token position, plus the loss softmax.
        let logits = g.add(
            "lm_head",
            OpDesc::fc(tokens, h, cfg.vocab_size),
            &[final_ln],
        );
        g.add(
            "loss.softmax",
            OpDesc::softmax(tokens, cfg.vocab_size),
            &[logits],
        )
    } else {
        match cfg.task {
            TaskKind::Classification => {
                let pooled = g.add("pooler", OpDesc::fc(batch_size, h, h), &[final_ln]);
                let act = g.add(
                    "pooler.tanh",
                    OpDesc::elementwise(EwKind::Tanh, batch_size * h),
                    &[pooled],
                );
                g.add("classifier", OpDesc::fc(batch_size, h, 2), &[act])
            }
            TaskKind::Generation => {
                // First generated token: LM head over the last position of
                // each sequence.
                g.add(
                    "lm_head.last",
                    OpDesc::fc(batch_size, h, cfg.vocab_size),
                    &[final_ln],
                )
            }
        }
    }
}

/// Emits one transformer block starting from `input`; returns the block
/// output node. Exposed so distributed planners can build per-stage
/// graphs from contiguous layer ranges.
pub fn append_block(
    g: &mut Graph,
    cfg: &ModelConfig,
    batch_size: u64,
    layer: u64,
    input: NodeId,
) -> NodeId {
    let tokens = cfg.tokens(batch_size);
    let h = cfg.hidden_dim;
    let seq = cfg.seq_len;
    let heads = cfg.num_heads;
    let head_dim = cfg.head_dim();
    let p = |suffix| NodeName::scoped(Scope::Layer, layer, 0, suffix);

    // ---- Attention ----
    let ln1 = g.add(p("attn.norm"), OpDesc::layer_norm(tokens, h), &[input]);
    let qkv = g.add(p("attn.qkv"), OpDesc::fc(tokens, h, 3 * h), &[ln1]);
    let scores = g.add(
        p("attn.scores"),
        OpDesc::bmm(batch_size * heads, seq, seq, head_dim),
        &[qkv],
    );
    let scaled = g.add(
        p("attn.scale"),
        OpDesc::elementwise(EwKind::Scale, batch_size * heads * seq * seq),
        &[scores],
    );
    let probs = g.add(
        p("attn.softmax"),
        OpDesc::softmax(batch_size * heads * seq, seq),
        &[scaled],
    );
    let context = g.add(
        p("attn.context"),
        OpDesc::bmm(batch_size * heads, seq, head_dim, seq),
        &[probs, qkv],
    );
    let attn_out = g.add(p("attn.out_proj"), OpDesc::fc(tokens, h, h), &[context]);
    let res1 = g.add(
        p("attn.residual"),
        OpDesc::elementwise(EwKind::Add, tokens * h),
        &[attn_out, input],
    );

    // ---- Feed-forward (dense or mixture-of-experts) ----
    let ln2 = g.add(p("ffn.norm"), OpDesc::layer_norm(tokens, h), &[res1]);
    let ffn_out = match cfg.moe {
        None => dense_ffn(g, cfg, tokens, &p, ln2),
        Some(moe) => {
            // Switch-style routing: a small router projection + softmax,
            // then the active expert's dense FFN, then gate scaling.
            let router = g.add(
                p("moe.router"),
                OpDesc::fc(tokens, h, moe.num_experts),
                &[ln2],
            );
            let gates = g.add(
                p("moe.gate_softmax"),
                OpDesc::softmax(tokens, moe.num_experts),
                &[router],
            );
            // All tokens flow through `active_experts` expert(s).
            let mut expert_out = ln2;
            for e in 0..moe.active_experts {
                let pe = |suffix| NodeName::scoped(Scope::Expert, layer, e, suffix);
                let up = g.add(pe("up"), OpDesc::fc(tokens, h, cfg.ffn_dim), &[expert_out]);
                let act = g.add(
                    pe("gelu"),
                    OpDesc::elementwise(EwKind::Gelu, tokens * cfg.ffn_dim),
                    &[up],
                );
                expert_out = g.add(pe("down"), OpDesc::fc(tokens, cfg.ffn_dim, h), &[act]);
            }
            g.add(
                p("moe.gate_scale"),
                OpDesc::elementwise(EwKind::Mul, tokens * h),
                &[expert_out, gates],
            )
        }
    };
    g.add(
        p("ffn.residual"),
        OpDesc::elementwise(EwKind::Add, tokens * h),
        &[ffn_out, res1],
    )
}

fn dense_ffn(
    g: &mut Graph,
    cfg: &ModelConfig,
    tokens: u64,
    p: &dyn Fn(&'static str) -> NodeName,
    input: NodeId,
) -> NodeId {
    let up = g.add(
        p("ffn.up"),
        OpDesc::fc(tokens, cfg.hidden_dim, cfg.ffn_dim),
        &[input],
    );
    let act = g.add(
        p("ffn.gelu"),
        OpDesc::elementwise(EwKind::Gelu, tokens * cfg.ffn_dim),
        &[up],
    );
    g.add(
        p("ffn.down"),
        OpDesc::fc(tokens, cfg.ffn_dim, cfg.hidden_dim),
        &[act],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config;
    use crate::ir::Phase;
    use neusight_gpu::{DType, OpClass};

    #[test]
    fn inference_graph_is_valid_and_sized() {
        let cfg = config::gpt2_large();
        let g = inference_graph(&cfg, 4);
        assert!(g.validate().is_ok());
        // 13 kernels per block (dense) + embedding pair + final norm + head.
        let expected = cfg.num_layers as usize * 13 + 4;
        assert_eq!(g.len(), expected);
    }

    #[test]
    fn classification_vs_generation_heads() {
        let bert = inference_graph(&config::bert_large(), 8);
        assert!(bert.iter().any(|n| n.name() == "classifier"));
        assert!(!bert.iter().any(|n| n.name() == "lm_head.last"));
        let gpt = inference_graph(&config::gpt3_xl(), 4);
        assert!(gpt.iter().any(|n| n.name() == "lm_head.last"));
    }

    #[test]
    fn training_graph_has_both_phases() {
        let g = training_graph(&config::bert_large(), 2);
        assert!(g.validate().is_ok());
        let fwd = g.phase_nodes(Phase::Forward).count();
        let bwd = g.phase_nodes(Phase::Backward).count();
        assert!(fwd > 0 && bwd > 0);
        // Backward has more kernels than forward (GEMMs expand to two).
        assert!(bwd > fwd, "fwd {fwd} bwd {bwd}");
    }

    #[test]
    fn training_flops_roughly_triple_forward() {
        // Classic rule of thumb: backward ≈ 2× forward compute.
        let cfg = config::gpt2_large();
        let fwd: f64 = training_graph(&cfg, 2)
            .phase_nodes(Phase::Forward)
            .map(|n| n.op.flops())
            .sum();
        let total = training_graph(&cfg, 2).total_flops();
        let ratio = total / fwd;
        assert!((2.3..3.3).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn flops_scale_linearly_with_batch() {
        let cfg = config::gpt3_xl();
        let f1 = inference_graph(&cfg, 1).total_flops();
        let f4 = inference_graph(&cfg, 4).total_flops();
        // Attention grows linearly in batch too (seq fixed), so total is
        // linear up to the constant head.
        let ratio = f4 / f1;
        assert!((3.5..4.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn moe_router_present_only_for_switch() {
        let switch = inference_graph(&config::switch_transformer(), 4);
        assert!(switch.iter().any(|n| n.name().contains("moe.router")));
        let gpt = inference_graph(&config::gpt2_large(), 4);
        assert!(!gpt.iter().any(|n| n.name().contains("moe")));
    }

    #[test]
    fn attention_bmm_dimensions() {
        let cfg = config::gpt3_2_7b();
        let g = inference_graph(&cfg, 1);
        let scores = g
            .iter()
            .find(|n| n.name() == "layer0.attn.scores")
            .expect("scores node");
        match scores.op {
            OpDesc::Bmm { batch, m, n, k } => {
                assert_eq!(batch, cfg.num_heads);
                assert_eq!(m, cfg.seq_len);
                assert_eq!(n, cfg.seq_len);
                assert_eq!(k, cfg.head_dim());
            }
            ref other => panic!("scores is not a BMM: {other}"),
        }
    }

    #[test]
    fn gpt3_contains_ood_bmm_dims() {
        // The paper flags GPT3 as out-of-distribution because its attention
        // BMMs have operand dimensions of 2048 (> 1024 training sweep).
        let g = inference_graph(&config::gpt3_xl(), 1);
        let has_large_bmm = g.iter().any(|n| match n.op {
            OpDesc::Bmm { m, n, k, .. } => m.max(n).max(k) >= 2048,
            _ => false,
        });
        assert!(has_large_bmm);
    }

    #[test]
    fn class_histogram_covers_all_families() {
        let g = inference_graph(&config::bert_large(), 8);
        for class in [
            OpClass::Bmm,
            OpClass::FullyConnected,
            OpClass::Elementwise,
            OpClass::Softmax,
            OpClass::LayerNorm,
            OpClass::MemoryBound,
        ] {
            assert!(
                crate::ir::count_class(&g, class) > 0,
                "missing {class} nodes"
            );
        }
    }

    #[test]
    fn memory_traffic_positive_and_batch_monotone() {
        let cfg = config::opt_1_3b();
        let m1 = inference_graph(&cfg, 1).total_memory_bytes(DType::F32);
        let m8 = inference_graph(&cfg, 8).total_memory_bytes(DType::F32);
        assert!(m1 > 0.0 && m8 > m1);
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn zero_batch_panics() {
        let _ = inference_graph(&config::bert_large(), 0);
    }

    #[test]
    fn decode_graph_is_tiny_compared_to_prefill() {
        let cfg = config::gpt2_large();
        let prefill = inference_graph(&cfg, 1);
        let decode = decode_graph(&cfg, 1, cfg.seq_len);
        assert!(decode.validate().is_ok());
        // One token of compute is roughly seq_len times cheaper.
        let ratio = prefill.total_flops() / decode.total_flops();
        assert!(ratio > 100.0, "ratio {ratio}");
    }

    #[test]
    fn decode_attention_reads_grow_with_context() {
        let cfg = config::gpt3_xl();
        let short = decode_graph(&cfg, 1, 128);
        let long = decode_graph(&cfg, 1, 2048);
        assert!(long.total_memory_bytes(DType::F32) > short.total_memory_bytes(DType::F32));
        // GEMM rows stay at batch=1 regardless of context.
        let qkv = long.iter().find(|n| n.name().contains("attn.qkv")).unwrap();
        assert!(matches!(qkv.op, OpDesc::Fc { batch: 1, .. }));
    }

    #[test]
    #[should_panic(expected = "context length")]
    fn decode_zero_context_panics() {
        let _ = decode_graph(&config::gpt2_large(), 1, 0);
    }
}
