//! Ablation variants of NeuSight: the paper's §3 argues that each design
//! ingredient — tile decomposition, per-SM feature normalization, and
//! performance-law bounding — is necessary for out-of-distribution
//! robustness. These variants remove one ingredient at a time so the
//! claim can be tested directly (see the `ablation` experiment binary).

use crate::error::{CoreError, Result};
use crate::features::{self, TileQuantities};
use crate::predictor::{latency_from_utilization, utilization_from_latency, PredictorConfig};
use crate::tiledb::TileDatabase;
use neusight_gpu::{
    catalog, DType, GpuSpec, KernelDataset, KernelLaunch, OpClass, OpDesc, TileShape,
};
use neusight_nn::head::{AlphaBetaHead, DirectHead, Head};
use neusight_nn::scaler::log_compress;
use neusight_nn::{Dataset, Loss, Mlp, Sample, StandardScaler, TrainConfig, Trainer};
use std::collections::BTreeMap;

/// Which ingredient is removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AblationVariant {
    /// The full NeuSight pipeline (reference point).
    Full,
    /// No performance-law bounding: the MLP regresses per-kernel latency
    /// directly (log-milliseconds) from the same tile features; nothing
    /// constrains the output to the roofline.
    NoPerformanceLaws,
    /// No tile decomposition: the whole kernel is treated as one tile of
    /// one wave, erasing the launch-geometry structure.
    NoTileDecomposition,
    /// No per-SM normalization: features are raw kernel quantities with
    /// no hardware ratios, so nothing ties the learned function to the
    /// target GPU's resources.
    NoPerSmNormalization,
}

impl AblationVariant {
    /// All variants in presentation order.
    #[must_use]
    pub fn all() -> [AblationVariant; 4] {
        [
            AblationVariant::Full,
            AblationVariant::NoPerformanceLaws,
            AblationVariant::NoTileDecomposition,
            AblationVariant::NoPerSmNormalization,
        ]
    }

    /// Display label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            AblationVariant::Full => "Full NeuSight",
            AblationVariant::NoPerformanceLaws => "- performance laws",
            AblationVariant::NoTileDecomposition => "- tile decomposition",
            AblationVariant::NoPerSmNormalization => "- per-SM features",
        }
    }
}

/// A whole-kernel pseudo-launch: one tile covering the output.
fn whole_kernel_launch(op: &OpDesc) -> KernelLaunch {
    let dims = op.output_dims();
    KernelLaunch {
        kernel_name: "ablation_whole_kernel".to_owned(),
        tile: TileShape::new(dims.clone()),
        num_tiles: 1,
        num_waves: 1,
        split_k: 1,
    }
}

/// Raw (un-normalized) features: kernel quantities only.
#[allow(clippy::cast_possible_truncation, clippy::cast_precision_loss)]
fn raw_features(op: &OpDesc, launch: &KernelLaunch, dtype: DType) -> Vec<f32> {
    let q = features::tile_quantities(op, launch, dtype);
    [
        q.flops_per_tile,
        q.mem_per_tile,
        q.num_waves * q.mem_per_tile,
        q.intensity,
        q.num_waves,
        launch.tile.numel() as f64,
        q.num_tiles,
        op.flops(),
    ]
    .iter()
    .map(|&r| log_compress(r as f32))
    .collect()
}

struct FamilyModel {
    mlp: Mlp,
    scaler: StandardScaler,
}

/// One trained ablation variant (per-family MLPs + tile database).
pub struct AblatedNeuSight {
    variant: AblationVariant,
    families: BTreeMap<String, FamilyModel>,
    tiledb: TileDatabase,
    dtype: DType,
}

impl AblatedNeuSight {
    /// Trains the variant on a measured dataset with the same per-family
    /// protocol as the full framework.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyTrainingSet`] if no family has records.
    pub fn train(
        variant: AblationVariant,
        dataset: &KernelDataset,
        dtype: DType,
        config: &PredictorConfig,
    ) -> Result<AblatedNeuSight> {
        let mut families = BTreeMap::new();
        for class in OpClass::trained() {
            let mut feats_raw = Vec::new();
            let mut meta = Vec::new();
            for record in dataset.records() {
                if record.op.op_class() != class || record.op.flops() <= 0.0 {
                    continue;
                }
                let Ok(spec) = catalog::gpu(&record.gpu) else {
                    continue;
                };
                let launch = match variant {
                    AblationVariant::NoTileDecomposition => whole_kernel_launch(&record.op),
                    _ => record.launch.clone(),
                };
                let f = match variant {
                    AblationVariant::NoPerSmNormalization => {
                        raw_features(&record.op, &launch, dtype)
                    }
                    _ => features::extract(&record.op, &launch, dtype, &spec),
                };
                let q = features::tile_quantities(&record.op, &launch, dtype);
                let (aux, target) =
                    AblatedNeuSight::target_for(variant, &q, record.mean_latency_s, &spec);
                feats_raw.push(f);
                meta.push((aux, target));
            }
            if feats_raw.is_empty() {
                continue;
            }
            let dim = feats_raw[0].len();
            let scaler = StandardScaler::fit(&feats_raw, dim);
            let samples: Vec<Sample> = feats_raw
                .into_iter()
                .zip(meta)
                .map(|(f, (aux, target))| Sample::new(scaler.transform(&f), aux, target))
                .collect();
            let mut mlp = Mlp::new(
                dim,
                &config.hidden,
                variant_head(variant).raw_dim(),
                config.seed,
            );
            Trainer::new(TrainConfig {
                epochs: config.epochs,
                batch_size: config.batch_size,
                lr: config.lr,
                weight_decay: config.weight_decay,
                grad_clip: Some(5.0),
                lr_schedule: neusight_nn::LrSchedule::Constant,
                early_stop_patience: None,
                seed: config.seed,
            })
            .fit(
                &mut mlp,
                variant_head(variant).as_ref(),
                variant_loss(variant),
                &Dataset::new(samples),
            );
            families.insert(class.name().to_owned(), FamilyModel { mlp, scaler });
        }
        if families.is_empty() {
            return Err(CoreError::EmptyTrainingSet("ablation".to_owned()));
        }
        Ok(AblatedNeuSight {
            variant,
            families,
            tiledb: TileDatabase::from_records(dataset),
            dtype,
        })
    }

    /// The variant this model implements.
    #[must_use]
    pub fn variant(&self) -> AblationVariant {
        self.variant
    }

    #[allow(clippy::cast_possible_truncation)]
    fn target_for(
        variant: AblationVariant,
        q: &TileQuantities,
        latency_s: f64,
        spec: &GpuSpec,
    ) -> (Vec<f32>, f32) {
        match variant {
            AblationVariant::NoPerformanceLaws => {
                // Direct log-latency regression (milliseconds).
                (vec![], ((latency_s * 1e3).max(1e-6).ln()) as f32)
            }
            _ => (
                vec![q.num_waves as f32],
                utilization_from_latency(q, latency_s, spec) as f32,
            ),
        }
    }

    /// Predicts one kernel's latency in seconds.
    #[must_use]
    pub fn predict_op(&self, op: &OpDesc, spec: &GpuSpec) -> f64 {
        let class = op.op_class();
        if class == OpClass::MemoryBound || op.flops() <= 0.0 {
            return op.memory_bytes(self.dtype) / spec.memory_bw();
        }
        let Some(model) = self.families.get(class.name()) else {
            return op.memory_bytes(self.dtype) / spec.memory_bw();
        };
        let launch = match self.variant {
            AblationVariant::NoTileDecomposition => whole_kernel_launch(op),
            _ => self
                .tiledb
                .plan_launch(op, spec)
                .expect("clamped tiles cover"),
        };
        let f = match self.variant {
            AblationVariant::NoPerSmNormalization => raw_features(op, &launch, self.dtype),
            _ => features::extract(op, &launch, self.dtype, spec),
        };
        let f = model.scaler.transform(&f);
        let q = features::tile_quantities(op, &launch, self.dtype);
        match self.variant {
            AblationVariant::NoPerformanceLaws => {
                let sample = Sample::new(f, vec![], 0.0);
                let log_ms = neusight_nn::trainer::predict(&model.mlp, &DirectHead, &sample);
                (f64::from(log_ms).exp() * 1e-3).max(1e-7)
            }
            _ => {
                #[allow(clippy::cast_possible_truncation)]
                let sample = Sample::new(f, vec![q.num_waves as f32], 0.0);
                let util = f64::from(neusight_nn::trainer::predict(
                    &model.mlp,
                    &AlphaBetaHead,
                    &sample,
                ))
                .clamp(1e-3, 0.999);
                latency_from_utilization(&q, util, spec)
            }
        }
    }
}

fn variant_head(variant: AblationVariant) -> Box<dyn Head> {
    match variant {
        AblationVariant::NoPerformanceLaws => Box::new(DirectHead),
        _ => Box::new(AlphaBetaHead),
    }
}

fn variant_loss(variant: AblationVariant) -> Loss {
    match variant {
        // Log-latency targets regress well under MSE.
        AblationVariant::NoPerformanceLaws => Loss::Mse,
        _ => Loss::Smape,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neusight_gpu::KernelRecord;
    use neusight_sim::SimulatedGpu;

    fn small_dataset() -> KernelDataset {
        let mut records = Vec::new();
        for name in ["P100", "V100", "T4"] {
            let gpu = SimulatedGpu::from_catalog(name).unwrap();
            for &b in &[1u64, 8, 32] {
                for &d in &[64u64, 128, 256, 512] {
                    let op = OpDesc::bmm(b, d, d, d);
                    let m = gpu.measure(&op, DType::F32, 3);
                    records.push(KernelRecord {
                        gpu: name.to_owned(),
                        op,
                        launch: m.launch,
                        mean_latency_s: m.mean_latency_s,
                    });
                }
            }
        }
        KernelDataset::new(records)
    }

    #[test]
    fn all_variants_train_and_predict_positive() {
        let ds = small_dataset();
        let spec = catalog::gpu("V100").unwrap();
        for variant in AblationVariant::all() {
            let model = AblatedNeuSight::train(variant, &ds, DType::F32, &PredictorConfig::tiny())
                .unwrap_or_else(|e| panic!("{}: {e}", variant.label()));
            let lat = model.predict_op(&OpDesc::bmm(8, 256, 256, 256), &spec);
            assert!(lat.is_finite() && lat > 0.0, "{}", variant.label());
            assert_eq!(model.variant(), variant);
        }
    }

    #[test]
    fn full_variant_respects_physics_floor() {
        let ds = small_dataset();
        let model = AblatedNeuSight::train(
            AblationVariant::Full,
            &ds,
            DType::F32,
            &PredictorConfig::tiny(),
        )
        .unwrap();
        let spec = catalog::gpu("H100").unwrap();
        let op = OpDesc::bmm(64, 4096, 4096, 4096);
        let lat = model.predict_op(&op, &spec);
        let floor = op.flops() / neusight_gpu::roofline::roofline_flops_for(&op, DType::F32, &spec);
        assert!(lat >= floor * 0.5);
    }

    #[test]
    fn no_laws_variant_is_unbounded() {
        // Nothing stops the direct-latency variant from predicting faster
        // than the roofline allows — that is precisely the ablated defect.
        // We only check it produces *some* positive number everywhere.
        let ds = small_dataset();
        let model = AblatedNeuSight::train(
            AblationVariant::NoPerformanceLaws,
            &ds,
            DType::F32,
            &PredictorConfig::tiny(),
        )
        .unwrap();
        for name in ["P4", "H100", "L4"] {
            let spec = catalog::gpu(name).unwrap();
            let lat = model.predict_op(&OpDesc::bmm(16, 2048, 2048, 2048), &spec);
            assert!(lat > 0.0 && lat.is_finite());
        }
    }

    #[test]
    fn empty_dataset_rejected() {
        assert!(matches!(
            AblatedNeuSight::train(
                AblationVariant::Full,
                &KernelDataset::default(),
                DType::F32,
                &PredictorConfig::tiny()
            ),
            Err(CoreError::EmptyTrainingSet(_))
        ));
    }
}
