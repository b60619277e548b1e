//! Per-family kernel predictors: the MLP + performance-law pipeline of
//! §4.2–4.3.
//!
//! A [`KernelPredictor`] owns one MLP (NeuSight trains five: BMM,
//! fully-connected, element-wise, softmax, layer norm). The MLP never
//! predicts latency directly; it predicts the sigmoid-bounded `(α, β)`
//! pair of Eq. 8, the utilization comes from Eq. 7, and the latency from
//! the tile-granularity performance-law equations:
//!
//! ```text
//! utilization    = α − β / num_waves                       (Eq. 7)
//! achieved/SM    = (roofline_BW / num_sm) × utilization    (Eq. 6, per SM)
//! PerTileLatency = FLOPsPerTile / achieved_per_SM          (Eq. 5)
//! PerOpLatency   = PerTileLatency × num_waves              (Eq. 4)
//! ```
//!
//! Training inverts the same equations to turn each measured latency into
//! a utilization target in `(0, 1)`, and fits with the SMAPE loss (§6.1).

use crate::error::{CoreError, Result};
use crate::features::{self, TileQuantities};
use neusight_gpu::{
    catalog, roofline, DType, GpuSpec, KernelDataset, KernelLaunch, OpClass, OpDesc,
};
use neusight_nn::head::AlphaBetaHead;
use neusight_nn::{Dataset, Head, Loss, Mlp, Sample, StandardScaler, TrainConfig, Trainer};
use serde::{Deserialize, Serialize};

/// Floor applied to predicted utilization so latencies stay finite.
const MIN_UTILIZATION: f64 = 1e-3;

/// Training hyper-parameters for one family predictor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PredictorConfig {
    /// Hidden-layer widths of the MLP.
    pub hidden: Vec<usize>,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// AdamW learning rate (the paper tunes this per family, §6.1).
    pub lr: f32,
    /// AdamW weight decay (L2 regularization).
    pub weight_decay: f32,
    /// Fraction of samples held out for validation (paper: 20 %).
    pub validation_fraction: f64,
    /// Init / shuffle seed.
    pub seed: u64,
}

impl PredictorConfig {
    /// Standard configuration for a family (per-family learning rates,
    /// scaled-down layer widths relative to the paper's 8×512).
    #[must_use]
    pub fn standard(class: OpClass) -> PredictorConfig {
        let lr = match class {
            OpClass::Bmm | OpClass::FullyConnected => 1e-3,
            _ => 2e-3,
        };
        // The reduction families have far fewer sweep points, so they can
        // afford many more epochs at negligible cost.
        let epochs = match class {
            OpClass::Bmm | OpClass::FullyConnected => 60,
            _ => 200,
        };
        PredictorConfig {
            hidden: vec![128, 128, 128, 128],
            epochs,
            batch_size: 128,
            lr,
            weight_decay: 1e-4,
            validation_fraction: 0.2,
            seed: 7,
        }
    }

    /// A tiny configuration for unit tests (seconds, not minutes).
    #[must_use]
    pub fn tiny() -> PredictorConfig {
        PredictorConfig {
            hidden: vec![32, 32],
            epochs: 30,
            batch_size: 32,
            lr: 3e-3,
            weight_decay: 1e-4,
            validation_fraction: 0.2,
            seed: 7,
        }
    }
}

/// Predicted-vs-achievable throughput pipeline shared by training-target
/// derivation and prediction (see module docs).
#[must_use]
pub fn latency_from_utilization(q: &TileQuantities, utilization: f64, spec: &GpuSpec) -> f64 {
    let roof_per_sm = roofline::roofline_flops(q.intensity, spec) / f64::from(spec.num_sms());
    let per_tile = q.flops_per_tile / (roof_per_sm * utilization.max(MIN_UTILIZATION));
    per_tile * q.num_waves
}

/// Inverts [`latency_from_utilization`]: the utilization a measured
/// latency corresponds to, clamped into the head's reachable `(0, 1)`.
#[must_use]
pub fn utilization_from_latency(q: &TileQuantities, latency_s: f64, spec: &GpuSpec) -> f64 {
    let roof_per_sm = roofline::roofline_flops(q.intensity, spec) / f64::from(spec.num_sms());
    let util = q.flops_per_tile * q.num_waves / (roof_per_sm * latency_s);
    util.clamp(1e-4, 0.999)
}

/// A trained utilization predictor for one kernel family.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KernelPredictor {
    class: OpClass,
    mlp: Mlp,
    scaler: StandardScaler,
    validation_smape: f32,
}

impl KernelPredictor {
    /// Trains a predictor from measured records of a single family.
    ///
    /// Records of other families, on GPUs missing from the catalog, or
    /// with zero FLOPs are skipped.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyTrainingSet`] if no usable records remain.
    pub fn train(
        class: OpClass,
        dataset: &KernelDataset,
        dtype: DType,
        config: &PredictorConfig,
    ) -> Result<KernelPredictor> {
        let mut raw_features = Vec::new();
        let mut samples_meta = Vec::new();
        for record in dataset.records() {
            if record.op.op_class() != class || record.op.flops() <= 0.0 {
                continue;
            }
            let Ok(spec) = catalog::gpu(&record.gpu) else {
                continue;
            };
            let q = features::tile_quantities(&record.op, &record.launch, dtype);
            let target = utilization_from_latency(&q, record.mean_latency_s, &spec);
            let feats = features::extract(&record.op, &record.launch, dtype, &spec);
            raw_features.push(feats);
            #[allow(clippy::cast_possible_truncation)]
            samples_meta.push((q.num_waves as f32, target as f32));
        }
        if raw_features.is_empty() {
            return Err(CoreError::EmptyTrainingSet(class.name().to_owned()));
        }
        let scaler = StandardScaler::fit(&raw_features, features::NUM_FEATURES);
        let samples: Vec<Sample> = raw_features
            .into_iter()
            .zip(samples_meta)
            .map(|(feats, (waves, target))| {
                Sample::new(scaler.transform(&feats), vec![waves], target)
            })
            .collect();
        let (train, val) = Dataset::new(samples).split(config.validation_fraction, config.seed);

        let mut mlp = Mlp::new(features::NUM_FEATURES, &config.hidden, 2, config.seed);
        let trainer = Trainer::new(TrainConfig {
            epochs: config.epochs,
            batch_size: config.batch_size,
            lr: config.lr,
            weight_decay: config.weight_decay,
            grad_clip: Some(5.0),
            lr_schedule: neusight_nn::LrSchedule::Constant,
            early_stop_patience: None,
            seed: config.seed,
        });
        trainer.fit(&mut mlp, &AlphaBetaHead, Loss::Smape, &train);
        let validation_smape = if val.is_empty() {
            f32::NAN
        } else {
            Trainer::evaluate(&mlp, &AlphaBetaHead, Loss::Smape, &val)
        };
        Ok(KernelPredictor {
            class,
            mlp,
            scaler,
            validation_smape,
        })
    }

    /// Reassembles a trained predictor from its parts, checking that they
    /// fit together: the scaler and the MLP both take the
    /// [`features::NUM_FEATURES`] features, and the MLP gives the raw
    /// outputs the `(α, β)` head reads.
    ///
    /// # Errors
    ///
    /// [`CoreError::Format`] when the dimensions disagree.
    pub(crate) fn from_parts(
        class: OpClass,
        mlp: Mlp,
        scaler: StandardScaler,
        validation_smape: f32,
    ) -> Result<KernelPredictor> {
        let dims = (scaler.dim(), mlp.input_dim(), mlp.output_dim());
        let expected = (
            features::NUM_FEATURES,
            features::NUM_FEATURES,
            AlphaBetaHead.raw_dim(),
        );
        if dims != expected {
            return Err(CoreError::Format(format!(
                "{class} predictor: scaler width, MLP input and MLP output are {dims:?}, \
                 expected {expected:?}"
            )));
        }
        Ok(KernelPredictor {
            class,
            mlp,
            scaler,
            validation_smape,
        })
    }

    /// The trained network.
    pub(crate) fn mlp(&self) -> &Mlp {
        &self.mlp
    }

    /// The feature standardizer fitted on the training split.
    pub(crate) fn scaler(&self) -> &StandardScaler {
        &self.scaler
    }

    /// The family this predictor serves.
    #[must_use]
    pub fn class(&self) -> OpClass {
        self.class
    }

    /// Applies `f` to every MLP weight and bias. Exists so robustness
    /// tests can deliberately corrupt a trained predictor and prove the
    /// performance-law output guard catches the damage.
    #[doc(hidden)]
    pub fn map_mlp_parameters(&mut self, f: impl FnMut(f32) -> f32) {
        self.mlp.map_parameters(f);
    }

    /// SMAPE on the held-out validation split after training.
    #[must_use]
    pub fn validation_smape(&self) -> f32 {
        self.validation_smape
    }

    /// Predicts the utilization of a kernel (Eq. 7–8), in `(0, 1)`.
    #[must_use]
    #[allow(clippy::cast_possible_truncation)]
    pub fn predict_utilization(
        &self,
        op: &OpDesc,
        launch: &KernelLaunch,
        dtype: DType,
        spec: &GpuSpec,
    ) -> f64 {
        let feats = self
            .scaler
            .transform(&features::extract(op, launch, dtype, spec));
        let q = features::tile_quantities(op, launch, dtype);
        let sample = Sample::new(feats, vec![q.num_waves as f32], 0.0);
        let util = neusight_nn::trainer::predict(&self.mlp, &AlphaBetaHead, &sample);
        f64::from(util).clamp(MIN_UTILIZATION, 0.999)
    }

    /// Predicts the kernel latency in seconds (Eq. 4–8).
    #[must_use]
    pub fn predict_latency(
        &self,
        op: &OpDesc,
        launch: &KernelLaunch,
        dtype: DType,
        spec: &GpuSpec,
    ) -> f64 {
        let q = features::tile_quantities(op, launch, dtype);
        let util = self.predict_utilization(op, launch, dtype, spec);
        latency_from_utilization(&q, util, spec)
    }

    /// Batched [`KernelPredictor::predict_latency`]: one MLP forward pass
    /// over all kernels instead of one per kernel.
    ///
    /// Returns one latency per input, in order, each bitwise-identical to
    /// the scalar path (the GEMM accumulates each output row independently
    /// of the batch height).
    #[must_use]
    #[allow(clippy::cast_possible_truncation)]
    pub fn predict_latency_batch(
        &self,
        kernels: &[(&OpDesc, &KernelLaunch)],
        dtype: DType,
        spec: &GpuSpec,
    ) -> Vec<f64> {
        let quantities: Vec<TileQuantities> = kernels
            .iter()
            .map(|(op, launch)| features::tile_quantities(op, launch, dtype))
            .collect();
        let samples: Vec<Sample> = kernels
            .iter()
            .zip(&quantities)
            .map(|((op, launch), q)| {
                let feats = self
                    .scaler
                    .transform(&features::extract(op, launch, dtype, spec));
                Sample::new(feats, vec![q.num_waves as f32], 0.0)
            })
            .collect();
        let utils = neusight_nn::trainer::predict_batch(&self.mlp, &AlphaBetaHead, &samples);
        utils
            .into_iter()
            .zip(&quantities)
            .map(|(util, q)| {
                let util = f64::from(util).clamp(MIN_UTILIZATION, 0.999);
                latency_from_utilization(q, util, spec)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neusight_gpu::TileShape;
    use neusight_sim::SimulatedGpu;

    fn collect_bmm(gpu_names: &[&str], dims: &[u64]) -> KernelDataset {
        let mut records = Vec::new();
        for name in gpu_names {
            let gpu = SimulatedGpu::from_catalog(name).unwrap();
            for &b in &[1u64, 4, 16, 64] {
                for &m in dims {
                    for &k in dims {
                        let op = OpDesc::bmm(b, m, m, k);
                        let meas = gpu.measure(&op, DType::F32, 5);
                        records.push(neusight_gpu::KernelRecord {
                            gpu: (*name).to_owned(),
                            op,
                            launch: meas.launch,
                            mean_latency_s: meas.mean_latency_s,
                        });
                    }
                }
            }
        }
        KernelDataset::new(records)
    }

    #[test]
    fn latency_equations_invert() {
        let spec = catalog::gpu("V100").unwrap();
        let op = OpDesc::bmm(8, 512, 512, 256);
        let launch = SimulatedGpu::new(spec.clone()).profile_launch(&op);
        let q = features::tile_quantities(&op, &launch, DType::F32);
        for util in [0.1, 0.4, 0.77] {
            let lat = latency_from_utilization(&q, util, &spec);
            let back = utilization_from_latency(&q, lat, &spec);
            assert!((back - util).abs() < 1e-9, "{util} -> {back}");
        }
    }

    #[test]
    fn trained_predictor_fits_in_distribution() {
        let ds = collect_bmm(&["V100", "P100", "T4"], &[64, 128, 256, 512]);
        let predictor =
            KernelPredictor::train(OpClass::Bmm, &ds, DType::F32, &PredictorConfig::tiny())
                .expect("trainable");
        assert!(
            predictor.validation_smape() < 0.35,
            "validation SMAPE {} too high",
            predictor.validation_smape()
        );

        // In-distribution prediction error should be modest.
        let spec = catalog::gpu("V100").unwrap();
        let gpu = SimulatedGpu::new(spec.clone());
        let op = OpDesc::bmm(8, 256, 256, 128);
        let launch = gpu.profile_launch(&op);
        let predicted = predictor.predict_latency(&op, &launch, DType::F32, &spec);
        let measured = gpu.measure(&op, DType::F32, 25).mean_latency_s;
        let err = (predicted - measured).abs() / measured;
        assert!(err < 0.5, "in-distribution error {err} too high");
    }

    #[test]
    fn prediction_respects_performance_laws() {
        // Even an untrained (random) predictor cannot break the roofline:
        // the predicted latency is always >= work / roofline.
        let ds = collect_bmm(&["P4"], &[64, 128]);
        let predictor = KernelPredictor::train(
            OpClass::Bmm,
            &ds,
            DType::F32,
            &PredictorConfig {
                epochs: 1,
                ..PredictorConfig::tiny()
            },
        )
        .unwrap();
        let spec = catalog::gpu("H100").unwrap(); // unseen GPU
        for (b, m, k) in [(1u64, 64u64, 64u64), (128, 2048, 2048), (16, 4096, 512)] {
            let op = OpDesc::bmm(b, m, m, k);
            let launch = SimulatedGpu::new(spec.clone()).profile_launch(&op);
            let q = features::tile_quantities(&op, &launch, DType::F32);
            let lat = predictor.predict_latency(&op, &launch, DType::F32, &spec);
            // The physical floor for this launch geometry at 100% utilization.
            let floor = latency_from_utilization(&q, 0.999, &spec);
            assert!(
                lat >= floor * 0.999,
                "prediction {lat} beats physics floor {floor}"
            );
        }
    }

    #[test]
    fn batched_latency_matches_scalar_bitwise() {
        let ds = collect_bmm(&["V100", "T4"], &[64, 128, 256]);
        let predictor =
            KernelPredictor::train(OpClass::Bmm, &ds, DType::F32, &PredictorConfig::tiny())
                .unwrap();
        let spec = catalog::gpu("V100").unwrap();
        let gpu = SimulatedGpu::new(spec.clone());
        let kernels: Vec<(OpDesc, KernelLaunch)> = [
            (1u64, 64u64, 64u64),
            (8, 256, 128),
            (4, 512, 512),
            (16, 96, 320),
            (8, 256, 128), // duplicate on purpose
        ]
        .iter()
        .map(|&(b, m, k)| {
            let op = OpDesc::bmm(b, m, m, k);
            let launch = gpu.profile_launch(&op);
            (op, launch)
        })
        .collect();
        let refs: Vec<(&OpDesc, &KernelLaunch)> =
            kernels.iter().map(|(op, launch)| (op, launch)).collect();
        let batched = predictor.predict_latency_batch(&refs, DType::F32, &spec);
        assert_eq!(batched.len(), kernels.len());
        for (lat, (op, launch)) in batched.iter().zip(&kernels) {
            let scalar = predictor.predict_latency(op, launch, DType::F32, &spec);
            assert_eq!(lat.to_bits(), scalar.to_bits());
        }
        assert!(predictor
            .predict_latency_batch(&[], DType::F32, &spec)
            .is_empty());
    }

    #[test]
    fn rejects_empty_family() {
        let ds = collect_bmm(&["P4"], &[64]);
        let err =
            KernelPredictor::train(OpClass::Softmax, &ds, DType::F32, &PredictorConfig::tiny())
                .unwrap_err();
        assert!(matches!(err, CoreError::EmptyTrainingSet(_)));
    }

    #[test]
    fn serde_round_trip_preserves_predictions() {
        let ds = collect_bmm(&["V100"], &[64, 128, 256]);
        let predictor =
            KernelPredictor::train(OpClass::Bmm, &ds, DType::F32, &PredictorConfig::tiny())
                .unwrap();
        let json = serde_json::to_string(&predictor).unwrap();
        let back: KernelPredictor = serde_json::from_str(&json).unwrap();
        let spec = catalog::gpu("V100").unwrap();
        let op = OpDesc::bmm(4, 128, 128, 128);
        let launch = neusight_gpu::KernelLaunch {
            kernel_name: "x".into(),
            tile: TileShape::new(vec![1, 64, 64]),
            num_tiles: 16,
            num_waves: 1,
            split_k: 1,
        };
        assert_eq!(
            predictor.predict_latency(&op, &launch, DType::F32, &spec),
            back.predict_latency(&op, &launch, DType::F32, &spec)
        );
    }
}
