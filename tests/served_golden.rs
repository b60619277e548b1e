//! Golden bytes of served forecasts: the JSON bodies
//! `PredictService::predict_batch_serialized` returns for a fixed grid
//! (a tiny-trained predictor; inference and training; fused on and off;
//! detail on and off; one degraded batch) hash to a recorded value, so a
//! change to graph storage, kernel dedup or per-family aggregation cannot
//! move a single bit of `total_ms`, `per_family_ms` (keys, order and
//! values) or `per_node_ms`.

use neusight::prelude::*;
use neusight_core::NeuSight as CoreNeuSight;
use neusight_serve::{PredictRequest, PredictService};

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The recorded hash holds where the GEMM runs its AVX2+FMA micro-kernel;
/// the portable kernel rounds differently, so it trains other weights.
fn fma_gemm() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

fn grid(train: bool, fused: bool, detail: bool) -> Vec<PredictRequest> {
    let mut requests = Vec::new();
    for model in ["bert-large", "gpt2-large", "switch", "resnet50"] {
        for gpu in ["V100", "H100"] {
            requests.push(PredictRequest {
                model: model.to_owned(),
                gpu: gpu.to_owned(),
                batch: 2,
                train,
                fused,
                detail,
            });
        }
    }
    requests
}

fn serve(service: &PredictService, requests: &[PredictRequest], hash: &mut u64) {
    for body in service.predict_batch_serialized(requests) {
        let body = body.expect("grid request is served");
        let degraded = body.contains("\"degraded\":true");
        assert_eq!(degraded, service.forced_degraded(), "{body}");
        *hash = fnv1a(*hash, body.as_bytes());
        *hash = fnv1a(*hash, b"\n");
    }
}

#[test]
fn served_bodies_match_recorded_bytes() {
    let data = neusight::data::collect_training_set(
        &neusight::data::training_gpus(),
        SweepScale::Tiny,
        DType::F32,
    );
    let ns = CoreNeuSight::train(&data, &NeuSightConfig::tiny()).expect("tiny training");
    let service = PredictService::new(ns);

    let mut hash = FNV_OFFSET;
    for train in [false, true] {
        for fused in [false, true] {
            for detail in [false, true] {
                serve(&service, &grid(train, fused, detail), &mut hash);
            }
        }
    }
    // One batch through the roofline tier.
    service.set_forced_degraded(true);
    let degraded: Vec<PredictRequest> = grid(true, false, true)
        .into_iter()
        .chain(grid(false, true, true))
        .map(|r| PredictRequest { batch: 3, ..r })
        .collect();
    serve(&service, &degraded, &mut hash);

    if fma_gemm() {
        assert_eq!(hash, 0x3ac8_479b_2aaf_2055, "served bytes changed");
    }
}
