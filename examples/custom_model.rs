//! Bring-your-own-architecture: build a custom kernel graph with the IR
//! directly (a small diffusion-style UNet-ish MLP mixer here), apply the
//! fusion pass, and forecast it per-kernel — the workflow for model
//! architectures the zoo does not cover.
//!
//! Run with:
//! ```text
//! cargo run --release --example custom_model
//! ```

use neusight::gpu::EwKind;
use neusight::prelude::*;

/// A toy "mixer" block: token-mixing FC, channel-mixing FC, norms, GELUs
/// and residuals — kernels NeuSight's five families cover.
fn mixer_block(g: &mut Graph, tokens: u64, dim: u64, layer: u64) {
    let p = |s: &str| format!("mixer{layer}.{s}");
    let last = neusight::graph::NodeId(g.len() - 1);
    let ln1 = g.add(p("norm1"), OpDesc::layer_norm(tokens, dim), &[last]);
    let mix = g.add(p("token_mix"), OpDesc::fc(dim, tokens, tokens), &[ln1]);
    let act1 = g.add(
        p("gelu1"),
        OpDesc::elementwise(EwKind::Gelu, tokens * dim),
        &[mix],
    );
    let res1 = g.add(
        p("residual1"),
        OpDesc::elementwise(EwKind::Add, tokens * dim),
        &[act1, last],
    );
    let ln2 = g.add(p("norm2"), OpDesc::layer_norm(tokens, dim), &[res1]);
    let chan = g.add(p("channel_mix"), OpDesc::fc(tokens, dim, 4 * dim), &[ln2]);
    let act2 = g.add(
        p("gelu2"),
        OpDesc::elementwise(EwKind::Gelu, tokens * 4 * dim),
        &[chan],
    );
    let down = g.add(p("channel_down"), OpDesc::fc(tokens, 4 * dim, dim), &[act2]);
    let _ = g.add(
        p("residual2"),
        OpDesc::elementwise(EwKind::Add, tokens * dim),
        &[down, res1],
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let data = neusight::data::collect_training_set(
        &neusight::data::training_gpus(),
        SweepScale::Standard,
        DType::F32,
    );
    let neusight = NeuSight::train(&data, &NeuSightConfig::standard())?;

    // Build the custom graph: patch embedding, 8 mixer blocks, head.
    let (tokens, dim) = (4096, 768);
    let mut g = Graph::new("custom-mixer");
    let _ = g.add("patch_embed", OpDesc::fc(tokens, 3 * 16 * 16, dim), &[]);
    for layer in 0..8 {
        mixer_block(&mut g, tokens, dim, layer);
    }
    let last = neusight::graph::NodeId(g.len() - 1);
    let _ = g.add("head", OpDesc::fc(tokens, dim, 1000), &[last]);
    g.validate()?;

    // Forecast unfused and torch.compile-style fused variants.
    let fused = neusight::graph::fuse_graph(&g);
    let a100 = neusight::gpu::catalog::gpu("A100-40GB")?;
    let plain_ms = neusight.predict_graph(&g, &a100)?.total_s * 1e3;
    let fused_ms = neusight.predict_graph(&fused, &a100)?.total_s * 1e3;
    println!(
        "custom mixer on A100-40GB: {} kernels -> {:.2} ms unfused; {} kernels -> {:.2} ms fused ({:.2}x)",
        g.len(),
        plain_ms,
        fused.len(),
        fused_ms,
        plain_ms / fused_ms
    );

    // Per-kernel breakdown of the five most expensive kernels.
    let pred = neusight.predict_graph(&g, &a100)?;
    let mut indexed: Vec<(usize, f64)> = pred.per_node_s.iter().copied().enumerate().collect();
    indexed.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("\nhottest kernels:");
    for (idx, lat) in indexed.into_iter().take(5) {
        let node = g.node(neusight::graph::NodeId(idx));
        println!("  {:<28} {:>8.3} ms  ({})", node.name(), lat * 1e3, node.op);
    }
    Ok(())
}
