//! A model written in a version-1 envelope (an FNV-1a checksum, as every
//! build before version 2 wrote it) loads bitwise-identical to the same
//! model in the version-2 envelope (the lane hash) that `wrap` writes.

use neusight_core::registry::model_fingerprint;
use neusight_core::{codec, NeuSight, NeuSightConfig};
use neusight_gpu::{catalog, DType};
use neusight_guard::envelope::{self, FNV1A_VERSION, HEADER_LEN, MAGIC};
use neusight_guard::{GuardError, SCHEMA_VERSION};

fn tiny_model() -> NeuSight {
    let data = neusight_data::collect_training_set(
        &neusight_data::training_gpus(),
        neusight_data::SweepScale::Tiny,
        DType::F32,
    );
    NeuSight::train(&data, &NeuSightConfig::tiny()).expect("trainable")
}

/// `payload` in a version-1 envelope, built by hand from the layout.
fn wrap_v1(payload: &[u8]) -> Vec<u8> {
    let mut out = MAGIC.to_vec();
    out.extend_from_slice(&FNV1A_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&envelope::fnv1a(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

#[test]
fn a_version_1_model_loads_bitwise_identical_to_its_version_2_twin() {
    let payload = codec::encode(&tiny_model());
    let v1 = wrap_v1(&payload);
    let v2 = envelope::wrap(&payload);
    assert_eq!(v2[4..8], SCHEMA_VERSION.to_le_bytes());
    assert_eq!(v1[HEADER_LEN..], v2[HEADER_LEN..]);

    let dir = std::env::temp_dir().join(format!("neusight-guard-versions-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let (p1, p2) = (dir.join("v1.json"), dir.join("v2.json"));
    std::fs::write(&p1, &v1).expect("write v1");
    std::fs::write(&p2, &v2).expect("write v2");
    let m1 = NeuSight::load(&p1).expect("v1 loads");
    let m2 = NeuSight::load(&p2).expect("v2 loads");
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(codec::encode(&m1), payload);
    assert_eq!(codec::encode(&m2), payload);
    assert_eq!(
        model_fingerprint(&m1).expect("fingerprint"),
        model_fingerprint(&m2).expect("fingerprint")
    );
    for model in neusight_graph::config::table4() {
        let graph = neusight_graph::inference_graph(&model, 4);
        for gpu in ["H100", "T4"] {
            let spec = catalog::gpu(gpu).expect("catalog GPU");
            let a = m1.predict_graph(&graph, &spec).expect("v1 forecast");
            let b = m2.predict_graph(&graph, &spec).expect("v2 forecast");
            assert_eq!(a.total_s.to_bits(), b.total_s.to_bits(), "{gpu}");
        }
    }
}

#[test]
fn a_version_3_model_envelope_is_refused() {
    let mut v3 = envelope::wrap(&codec::encode(&tiny_model()));
    v3[4..8].copy_from_slice(&3u32.to_le_bytes());
    assert!(matches!(
        envelope::unwrap_envelope(&v3).unwrap_err(),
        GuardError::VersionMismatch { actual: 3, .. }
    ));
}
