//! Mini-batch training loop: shuffling, batching, head-aware
//! backpropagation, gradient clipping, and evaluation.

use crate::head::Head;
use crate::loss::Loss;
use crate::matrix::Matrix;
use crate::mlp::Mlp;
use crate::optim::AdamW;
use crate::schedule::LrSchedule;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::io;
use std::path::Path;

/// One training example: MLP input features, auxiliary head inputs (not
/// learned, e.g. the wave count), and a scalar regression target.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// MLP input features.
    pub features: Vec<f32>,
    /// Auxiliary values passed to the [`Head`] (e.g. `num_waves`).
    pub aux: Vec<f32>,
    /// Regression target.
    pub target: f32,
}

impl Sample {
    /// Creates a sample.
    #[must_use]
    pub fn new(features: Vec<f32>, aux: Vec<f32>, target: f32) -> Sample {
        Sample {
            features,
            aux,
            target,
        }
    }
}

/// An in-memory dataset of [`Sample`]s.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    samples: Vec<Sample>,
}

impl Dataset {
    /// Wraps a vector of samples.
    #[must_use]
    pub fn new(samples: Vec<Sample>) -> Dataset {
        Dataset { samples }
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the dataset is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Borrow of the samples.
    #[must_use]
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Feature dimensionality (0 for an empty dataset).
    #[must_use]
    pub fn feature_dim(&self) -> usize {
        self.samples.first().map_or(0, |s| s.features.len())
    }

    /// Splits into `(train, holdout)` where `holdout_fraction` of the
    /// (shuffled) samples go to the holdout set — the paper reserves 20 %
    /// for validation (§6.1).
    ///
    /// # Panics
    ///
    /// Panics if `holdout_fraction` is outside `[0, 1)`.
    #[must_use]
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )]
    pub fn split(&self, holdout_fraction: f64, seed: u64) -> (Dataset, Dataset) {
        assert!(
            (0.0..1.0).contains(&holdout_fraction),
            "holdout fraction must be in [0, 1)"
        );
        let mut indices: Vec<usize> = (0..self.samples.len()).collect();
        indices.shuffle(&mut StdRng::seed_from_u64(seed));
        let holdout_len = (self.samples.len() as f64 * holdout_fraction).round() as usize;
        let (holdout_idx, train_idx) = indices.split_at(holdout_len.min(self.samples.len()));
        let pick =
            |idx: &[usize]| Dataset::new(idx.iter().map(|&i| self.samples[i].clone()).collect());
        (pick(train_idx), pick(holdout_idx))
    }
}

impl FromIterator<Sample> for Dataset {
    fn from_iter<T: IntoIterator<Item = Sample>>(iter: T) -> Dataset {
        Dataset::new(iter.into_iter().collect())
    }
}

impl Extend<Sample> for Dataset {
    fn extend<T: IntoIterator<Item = Sample>>(&mut self, iter: T) {
        self.samples.extend(iter);
    }
}

/// Hyper-parameters for [`Trainer`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// AdamW learning rate.
    pub lr: f32,
    /// AdamW decoupled weight decay.
    pub weight_decay: f32,
    /// Global-norm gradient clipping threshold; `None` disables clipping.
    pub grad_clip: Option<f32>,
    /// Learning-rate schedule applied over the epochs.
    pub lr_schedule: LrSchedule,
    /// Stop after this many epochs without training-loss improvement;
    /// `None` disables early stopping.
    pub early_stop_patience: Option<usize>,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> TrainConfig {
        TrainConfig {
            epochs: 100,
            batch_size: 64,
            lr: 1e-3,
            weight_decay: 1e-4,
            grad_clip: Some(5.0),
            lr_schedule: LrSchedule::Constant,
            early_stop_patience: None,
            seed: 0,
        }
    }
}

/// Summary of a training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// Mean training loss per epoch, in order.
    pub epoch_losses: Vec<f32>,
    /// Loss of the final epoch.
    pub final_train_loss: f32,
    /// Whether early stopping ended the run before the epoch budget.
    pub stopped_early: bool,
}

/// Failpoint checked between epochs of [`Trainer::fit_with_checkpoint`]:
/// arming it simulates the process dying mid-training.
pub const FP_TRAIN_INTERRUPT: &str = "nn.train.interrupt";

/// On-disk format version of [`TrainCheckpoint`].
pub const TRAIN_CHECKPOINT_VERSION: u32 = 1;

/// A failure from the checkpointing training loop
/// ([`Trainer::fit_with_checkpoint`]).
#[derive(Debug)]
pub enum TrainError {
    /// Training was interrupted (via [`FP_TRAIN_INTERRUPT`]) after
    /// completing this many epochs; re-run to resume from the last saved
    /// checkpoint.
    Interrupted {
        /// Epochs completed before the interrupt.
        epochs_done: usize,
    },
    /// Saving or loading the checkpoint file failed.
    Checkpoint(io::Error),
    /// An existing checkpoint does not belong to this run (different
    /// config or dataset); delete it or fix the configuration.
    Resume(String),
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::Interrupted { epochs_done } => {
                write!(f, "training interrupted after {epochs_done} epoch(s)")
            }
            TrainError::Checkpoint(e) => write!(f, "checkpoint I/O failed: {e}"),
            TrainError::Resume(why) => write!(f, "checkpoint does not match this run: {why}"),
        }
    }
}

impl std::error::Error for TrainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrainError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

/// Snapshot of an in-progress training run: model weights, optimizer
/// moments, early-stopping state, and the epoch cursor. The RNG is *not*
/// stored — resume replays the completed epochs' shuffles from the config
/// seed, which reproduces both the generator state and the persistent
/// index order exactly.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainCheckpoint {
    /// Format version ([`TRAIN_CHECKPOINT_VERSION`]).
    pub version: u32,
    /// The trainer config that produced this snapshot; resume refuses a
    /// different one.
    pub config: TrainConfig,
    /// Training-set size, as a cheap integrity check.
    pub data_len: usize,
    /// Fully completed epochs.
    pub epochs_done: usize,
    /// Model weights after `epochs_done` epochs.
    pub mlp: Mlp,
    /// Optimizer state (first/second moments, step count).
    pub opt: AdamW,
    /// Mean training loss of each completed epoch.
    pub epoch_losses: Vec<f32>,
    /// Best epoch loss seen so far (early stopping).
    pub best_loss: f32,
    /// Epochs since `best_loss` improved (early stopping).
    pub epochs_since_best: usize,
}

impl TrainCheckpoint {
    /// Atomically writes the checkpoint as JSON wrapped in the
    /// checksummed `neusight-guard` envelope (temp file + rename), so a
    /// crash mid-save leaves the previous checkpoint intact and a
    /// corrupted checkpoint is detected at resume instead of silently
    /// training from damaged weights.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let json = serde_json::to_string(self)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let tmp = path.with_extension("tmp");
        {
            use io::Write;
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(&neusight_guard::envelope::wrap(json.as_bytes()))?;
            file.sync_all()?;
        }
        std::fs::rename(&tmp, path)
    }

    /// Loads a checkpoint; `Ok(None)` when the file does not exist.
    /// Legacy bare-JSON checkpoints load transparently with a warning
    /// and the `guard.artifact.legacy.total` counter.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures; a present-but-corrupt file
    /// (checksum, truncation, version, or JSON failure) is `InvalidData`.
    pub fn load(path: &Path) -> io::Result<Option<TrainCheckpoint>> {
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        let decoded = neusight_guard::envelope::decode(&bytes, &path.display().to_string())
            .map_err(|e| match e {
                neusight_guard::GuardError::Io(io) => io,
                other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
            })?;
        let json = std::str::from_utf8(&decoded.payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        serde_json::from_str(json)
            .map(Some)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }
}

/// Where and how often [`Trainer::fit_with_checkpoint`] persists progress.
struct CheckpointCtx<'a> {
    path: &'a Path,
    every: usize,
}

/// Cached handle for the `nn.trainer.epochs` counter.
fn epochs_counter() -> &'static std::sync::Arc<neusight_obs::Counter> {
    static COUNTER: std::sync::OnceLock<std::sync::Arc<neusight_obs::Counter>> =
        std::sync::OnceLock::new();
    COUNTER.get_or_init(|| neusight_obs::metrics::counter("nn.trainer.epochs"))
}

/// Mini-batch trainer binding an [`Mlp`], a [`Head`] and a [`Loss`].
#[derive(Debug, Clone)]
pub struct Trainer {
    config: TrainConfig,
}

impl Trainer {
    /// Creates a trainer with the given configuration.
    #[must_use]
    pub fn new(config: TrainConfig) -> Trainer {
        Trainer { config }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Trains `mlp` in place on `data` and reports per-epoch losses.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty, if the MLP's output dimension differs
    /// from `head.raw_dim()`, or if samples have inconsistent feature
    /// widths.
    pub fn fit(&self, mlp: &mut Mlp, head: &dyn Head, loss: Loss, data: &Dataset) -> TrainReport {
        match self.fit_inner(mlp, head, loss, data, None) {
            Ok(report) => report,
            // Without a checkpoint context there is no I/O and no
            // interrupt point, so the loop cannot fail.
            Err(e) => unreachable!("uncheckpointed training cannot fail: {e}"),
        }
    }

    /// Like [`fit`](Trainer::fit), but persists a [`TrainCheckpoint`] to
    /// `path` every `every_epochs` epochs (clamped to ≥ 1) and resumes
    /// from an existing checkpoint at `path` if one is present. A resumed
    /// run produces bitwise-identical weights and losses to an
    /// uninterrupted one: the checkpoint carries the optimizer moments and
    /// early-stopping state, and the shuffle RNG is replayed from the seed
    /// past the completed epochs. The file is removed on successful
    /// completion, so a leftover checkpoint always means "incomplete".
    ///
    /// The [`FP_TRAIN_INTERRUPT`] failpoint is checked between epochs;
    /// when armed it aborts with [`TrainError::Interrupted`], simulating a
    /// mid-training crash for chaos tests.
    ///
    /// # Errors
    ///
    /// [`TrainError::Checkpoint`] on save/load I/O failures,
    /// [`TrainError::Resume`] when the checkpoint belongs to a different
    /// config or dataset, [`TrainError::Interrupted`] when the failpoint
    /// fires.
    ///
    /// # Panics
    ///
    /// Panics on the same dimension/emptiness violations as
    /// [`fit`](Trainer::fit).
    pub fn fit_with_checkpoint(
        &self,
        mlp: &mut Mlp,
        head: &dyn Head,
        loss: Loss,
        data: &Dataset,
        path: &Path,
        every_epochs: usize,
    ) -> Result<TrainReport, TrainError> {
        self.fit_inner(
            mlp,
            head,
            loss,
            data,
            Some(CheckpointCtx {
                path,
                every: every_epochs.max(1),
            }),
        )
    }

    #[allow(clippy::cast_precision_loss, clippy::too_many_lines)]
    fn fit_inner(
        &self,
        mlp: &mut Mlp,
        head: &dyn Head,
        loss: Loss,
        data: &Dataset,
        ckpt: Option<CheckpointCtx<'_>>,
    ) -> Result<TrainReport, TrainError> {
        let _span = neusight_obs::span!(
            "fit",
            samples = data.len(),
            epochs = self.config.epochs,
            batch_size = self.config.batch_size
        );
        assert!(!data.is_empty(), "cannot train on an empty dataset");
        assert_eq!(
            mlp.output_dim(),
            head.raw_dim(),
            "MLP output dim must match head raw dim"
        );
        let dim = data.feature_dim();
        assert_eq!(mlp.input_dim(), dim, "MLP input dim must match features");

        let mut opt = AdamW::new(self.config.lr, self.config.weight_decay);
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut order: Vec<usize> = (0..data.len()).collect();
        let mut epoch_losses = Vec::with_capacity(self.config.epochs);
        let mut best_loss = f32::INFINITY;
        let mut epochs_since_best = 0usize;
        let mut stopped_early = false;
        let mut start_epoch = 0usize;

        if let Some(ctx) = &ckpt {
            if let Some(saved) = TrainCheckpoint::load(ctx.path).map_err(TrainError::Checkpoint)? {
                if saved.version != TRAIN_CHECKPOINT_VERSION {
                    return Err(TrainError::Resume(format!(
                        "checkpoint version {} (expected {TRAIN_CHECKPOINT_VERSION})",
                        saved.version
                    )));
                }
                if saved.config != self.config {
                    return Err(TrainError::Resume("training config differs".to_owned()));
                }
                if saved.data_len != data.len() {
                    return Err(TrainError::Resume(format!(
                        "dataset has {} samples, checkpoint trained on {}",
                        data.len(),
                        saved.data_len
                    )));
                }
                *mlp = saved.mlp;
                opt = saved.opt;
                epoch_losses = saved.epoch_losses;
                best_loss = saved.best_loss;
                epochs_since_best = saved.epochs_since_best;
                start_epoch = saved.epochs_done;
                // Replay the completed epochs' shuffles so both the RNG
                // and the persistent index order match an uninterrupted
                // run exactly.
                for _ in 0..start_epoch {
                    order.shuffle(&mut rng);
                }
                neusight_obs::metrics::counter("nn.trainer.resumes").inc();
                neusight_obs::event!("train_resumed", epoch = start_epoch);
            }
        }

        // Mini-batch buffers are reused across all batches and epochs: at
        // most two sizes ever occur (the full batch and one tail batch),
        // so the per-batch allocations of the old loop collapse into these
        // two pairs, created on first use.
        let batch_size = self.config.batch_size.max(1);
        let full = batch_size.min(data.len());
        let mut full_bufs = (
            Matrix::zeros(full, dim),
            Matrix::zeros(full, head.raw_dim()),
        );
        let mut tail_bufs: Option<(Matrix, Matrix)> = None;

        for epoch in start_epoch..self.config.epochs {
            let _epoch_span = neusight_obs::span!("train_epoch", epoch = epoch);
            epochs_counter().inc();
            opt.lr = self
                .config
                .lr_schedule
                .lr_at(self.config.lr, epoch, self.config.epochs);
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0f64;
            for batch in order.chunks(batch_size) {
                let bsz = batch.len();
                let (x, draw) = if bsz == full {
                    &mut full_bufs
                } else {
                    tail_bufs.get_or_insert_with(|| {
                        (Matrix::zeros(bsz, dim), Matrix::zeros(bsz, head.raw_dim()))
                    })
                };
                for (r, &idx) in batch.iter().enumerate() {
                    let sample = &data.samples()[idx];
                    assert_eq!(sample.features.len(), dim, "ragged feature widths");
                    x.row_mut(r).copy_from_slice(&sample.features);
                }
                mlp.zero_grad();
                let raw = mlp.forward_train(x);
                // Heads accumulate into `draw`, so clear the reused buffer.
                draw.as_mut_slice().fill(0.0);
                for (r, &idx) in batch.iter().enumerate() {
                    let sample = &data.samples()[idx];
                    let pred = head.forward(raw.row(r), &sample.aux);
                    epoch_loss += f64::from(loss.value(pred, sample.target));
                    let dpred = loss.gradient(pred, sample.target) / bsz as f32;
                    head.backward(raw.row(r), &sample.aux, dpred, draw.row_mut(r));
                }
                mlp.backward_in_place(draw);
                if let Some(clip) = self.config.grad_clip {
                    let norm = mlp.grad_norm();
                    if norm > clip {
                        mlp.scale_grads(clip / norm);
                    }
                }
                opt.step(mlp);
            }
            let mean_loss = (epoch_loss / data.len() as f64) as f32;
            epoch_losses.push(mean_loss);
            if mean_loss < best_loss * 0.999 {
                best_loss = mean_loss;
                epochs_since_best = 0;
            } else {
                epochs_since_best += 1;
                if let Some(patience) = self.config.early_stop_patience {
                    if epochs_since_best >= patience {
                        stopped_early = true;
                    }
                }
            }
            if let Some(ctx) = &ckpt {
                let epochs_done = epoch + 1;
                let finished = stopped_early || epochs_done == self.config.epochs;
                if !finished && epochs_done % ctx.every == 0 {
                    TrainCheckpoint {
                        version: TRAIN_CHECKPOINT_VERSION,
                        config: self.config.clone(),
                        data_len: data.len(),
                        epochs_done,
                        mlp: mlp.clone(),
                        opt: opt.clone(),
                        epoch_losses: epoch_losses.clone(),
                        best_loss,
                        epochs_since_best,
                    }
                    .save(ctx.path)
                    .map_err(TrainError::Checkpoint)?;
                    neusight_obs::metrics::counter("nn.trainer.checkpoints").inc();
                }
                if !finished {
                    if let Some(injected) = neusight_fault::fail_point!(FP_TRAIN_INTERRUPT) {
                        injected.sleep();
                        if injected.fail {
                            return Err(TrainError::Interrupted { epochs_done });
                        }
                    }
                }
            }
            if stopped_early {
                break;
            }
        }
        if let Some(ctx) = &ckpt {
            match std::fs::remove_file(ctx.path) {
                Err(e) if e.kind() != io::ErrorKind::NotFound => {
                    return Err(TrainError::Checkpoint(e));
                }
                _ => {}
            }
        }
        let final_train_loss = epoch_losses.last().copied().unwrap_or(f32::NAN);
        Ok(TrainReport {
            epoch_losses,
            final_train_loss,
            stopped_early,
        })
    }

    /// Mean loss of the model on a dataset (no training).
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    #[allow(clippy::cast_precision_loss)]
    #[must_use]
    pub fn evaluate(mlp: &Mlp, head: &dyn Head, loss: Loss, data: &Dataset) -> f32 {
        assert!(!data.is_empty(), "cannot evaluate on an empty dataset");
        let mut total = 0.0f64;
        for sample in data.samples() {
            let pred = predict(mlp, head, sample);
            total += f64::from(loss.value(pred, sample.target));
        }
        (total / data.len() as f64) as f32
    }
}

/// Runs one sample through the network and head.
#[must_use]
pub fn predict(mlp: &Mlp, head: &dyn Head, sample: &Sample) -> f32 {
    let x = Matrix::from_vec(1, sample.features.len(), sample.features.clone());
    let raw = mlp.forward(&x);
    head.forward(raw.row(0), &sample.aux)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::head::{AlphaBetaHead, DirectHead};

    fn linear_dataset(n: usize) -> Dataset {
        (0..n)
            .map(|i| {
                let x = i as f32 / n as f32 * 4.0 - 2.0;
                Sample::new(vec![x], vec![], 3.0 * x + 1.0)
            })
            .collect()
    }

    #[test]
    fn fits_linear_function() {
        let data = linear_dataset(64);
        let mut mlp = Mlp::new(1, &[16], 1, 3);
        let cfg = TrainConfig {
            epochs: 120,
            batch_size: 16,
            lr: 5e-3,
            ..TrainConfig::default()
        };
        let report = Trainer::new(cfg).fit(&mut mlp, &DirectHead, Loss::Mse, &data);
        assert!(
            report.final_train_loss < 0.05,
            "{}",
            report.final_train_loss
        );
        assert_eq!(report.epoch_losses.len(), 120);
    }

    #[test]
    fn loss_decreases_over_training() {
        let data = linear_dataset(64);
        let mut mlp = Mlp::new(1, &[16], 1, 3);
        let cfg = TrainConfig {
            epochs: 40,
            batch_size: 16,
            lr: 3e-3,
            ..TrainConfig::default()
        };
        let report = Trainer::new(cfg).fit(&mut mlp, &DirectHead, Loss::Mse, &data);
        let first = report.epoch_losses.first().copied().unwrap();
        assert!(report.final_train_loss < first * 0.5);
    }

    /// The α−β/waves head can learn a synthetic saturating utilization law
    /// — a miniature of the actual NeuSight fitting problem.
    #[test]
    fn alpha_beta_head_learns_wave_saturation() {
        // True law: util = 0.9 − 0.6/waves, features encode log(waves).
        let data: Dataset = (1..=40)
            .map(|w| {
                let waves = w as f32;
                Sample::new(vec![waves.ln()], vec![waves], 0.9 - 0.6 / waves)
            })
            .collect();
        let mut mlp = Mlp::new(1, &[16, 16], 2, 9);
        let cfg = TrainConfig {
            epochs: 300,
            batch_size: 8,
            lr: 3e-3,
            ..TrainConfig::default()
        };
        let report = Trainer::new(cfg).fit(&mut mlp, &AlphaBetaHead, Loss::Smape, &data);
        assert!(
            report.final_train_loss < 0.08,
            "{}",
            report.final_train_loss
        );
        // Extrapolation beyond training waves stays bounded below 1.
        let far = predict(
            &mlp,
            &AlphaBetaHead,
            &Sample::new(vec![(500.0f32).ln()], vec![500.0], 0.0),
        );
        assert!(far < 1.0 && far > 0.5, "extrapolated utilization {far}");
    }

    #[test]
    fn split_fractions() {
        let data = linear_dataset(100);
        let (train, val) = data.split(0.2, 7);
        assert_eq!(val.len(), 20);
        assert_eq!(train.len(), 80);
        // Deterministic given the seed.
        let (train2, _) = data.split(0.2, 7);
        assert_eq!(train.samples()[0], train2.samples()[0]);
    }

    #[test]
    fn evaluate_on_heldout() {
        let data = linear_dataset(64);
        let (train, val) = data.split(0.25, 1);
        let mut mlp = Mlp::new(1, &[16], 1, 3);
        let cfg = TrainConfig {
            epochs: 150,
            batch_size: 16,
            lr: 5e-3,
            ..TrainConfig::default()
        };
        Trainer::new(cfg).fit(&mut mlp, &DirectHead, Loss::Mse, &train);
        let val_loss = Trainer::evaluate(&mlp, &DirectHead, Loss::Mse, &val);
        assert!(val_loss < 0.2, "validation loss {val_loss}");
    }

    #[test]
    fn cosine_schedule_still_converges() {
        let data = linear_dataset(64);
        let mut mlp = Mlp::new(1, &[16], 1, 3);
        let cfg = TrainConfig {
            epochs: 150,
            batch_size: 16,
            lr: 5e-3,
            lr_schedule: crate::schedule::LrSchedule::Cosine {
                warmup_epochs: 5,
                floor_fraction: 0.05,
            },
            ..TrainConfig::default()
        };
        let report = Trainer::new(cfg).fit(&mut mlp, &DirectHead, Loss::Mse, &data);
        assert!(
            report.final_train_loss < 0.05,
            "{}",
            report.final_train_loss
        );
        assert!(!report.stopped_early);
    }

    #[test]
    fn early_stopping_triggers_on_plateau() {
        // Targets are pseudo-random and independent of the (constant)
        // input, so the loss plateaus at the target variance — early
        // stopping must fire long before the 500-epoch budget.
        let data: Dataset = (0..64u32)
            .map(|i| {
                let noise = f32::sin(i as f32 * 12.9898) * 0.5;
                Sample::new(vec![1.0], vec![], noise)
            })
            .collect();
        let mut mlp = Mlp::new(1, &[8], 1, 2);
        let cfg = TrainConfig {
            epochs: 500,
            batch_size: 64,
            lr: 1e-2,
            early_stop_patience: Some(10),
            ..TrainConfig::default()
        };
        let report = Trainer::new(cfg).fit(&mut mlp, &DirectHead, Loss::Mse, &data);
        assert!(report.stopped_early);
        assert!(report.epoch_losses.len() < 500);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_panics() {
        let mut mlp = Mlp::new(1, &[4], 1, 0);
        let _ = Trainer::new(TrainConfig::default()).fit(
            &mut mlp,
            &DirectHead,
            Loss::Mse,
            &Dataset::default(),
        );
    }

    /// Serializes tests that arm (or may observe) the process-global
    /// fault registry.
    fn fault_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Process-unique temp path for a checkpoint file.
    fn temp_ckpt(tag: &str) -> std::path::PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "neusight-nn-ckpt-{}-{tag}.json",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        path
    }

    fn small_config() -> TrainConfig {
        TrainConfig {
            epochs: 12,
            batch_size: 16,
            lr: 5e-3,
            ..TrainConfig::default()
        }
    }

    #[test]
    fn fit_with_checkpoint_completes_and_matches_fit_bitwise() {
        let _guard = fault_lock();
        let data = linear_dataset(64);
        let cfg = small_config();
        let mut plain = Mlp::new(1, &[16], 1, 3);
        let plain_report = Trainer::new(cfg.clone()).fit(&mut plain, &DirectHead, Loss::Mse, &data);
        let path = temp_ckpt("complete");
        let mut ckpt = Mlp::new(1, &[16], 1, 3);
        let ckpt_report = Trainer::new(cfg)
            .fit_with_checkpoint(&mut ckpt, &DirectHead, Loss::Mse, &data, &path, 3)
            .expect("no faults armed");
        assert!(!path.exists(), "checkpoint must be removed on completion");
        assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            serde_json::to_string(&ckpt).unwrap(),
            "checkpointing must not perturb training"
        );
        for (a, b) in plain_report
            .epoch_losses
            .iter()
            .zip(&ckpt_report.epoch_losses)
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn resume_after_interrupt_is_bit_identical() {
        let _guard = fault_lock();
        let data = linear_dataset(64);
        let cfg = small_config();
        let mut baseline = Mlp::new(1, &[16], 1, 3);
        let baseline_report =
            Trainer::new(cfg.clone()).fit(&mut baseline, &DirectHead, Loss::Mse, &data);

        let path = temp_ckpt("resume");
        // Kill the run at its 5th between-epoch check (after epoch 5; the
        // last checkpoint is epoch 4 with every=2).
        let interrupt = neusight_fault::PointConfig {
            skip_first: 4,
            max_fires: Some(1),
            ..neusight_fault::PointConfig::always()
        };
        neusight_fault::configure(
            &neusight_fault::FaultSpec::empty().with_point(FP_TRAIN_INTERRUPT, interrupt),
            11,
        );
        let mut first = Mlp::new(1, &[16], 1, 3);
        let err = Trainer::new(cfg.clone())
            .fit_with_checkpoint(&mut first, &DirectHead, Loss::Mse, &data, &path, 2)
            .expect_err("armed interrupt must fire");
        neusight_fault::reset();
        match err {
            TrainError::Interrupted { epochs_done } => assert_eq!(epochs_done, 5),
            other => panic!("unexpected error: {other}"),
        }
        assert!(path.exists(), "interrupt must leave a checkpoint behind");

        // Resume into a *differently seeded* fresh network: the restore
        // must overwrite it completely.
        let mut resumed = Mlp::new(1, &[16], 1, 99);
        let resumed_report = Trainer::new(cfg)
            .fit_with_checkpoint(&mut resumed, &DirectHead, Loss::Mse, &data, &path, 2)
            .expect("resume completes");
        assert!(!path.exists());
        assert_eq!(
            serde_json::to_string(&baseline).unwrap(),
            serde_json::to_string(&resumed).unwrap(),
            "resumed weights must match an uninterrupted run bitwise"
        );
        assert_eq!(
            baseline_report.epoch_losses.len(),
            resumed_report.epoch_losses.len()
        );
        for (a, b) in baseline_report
            .epoch_losses
            .iter()
            .zip(&resumed_report.epoch_losses)
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn resume_rejects_mismatched_config() {
        let _guard = fault_lock();
        let data = linear_dataset(64);
        let path = temp_ckpt("mismatch");
        let interrupt = neusight_fault::PointConfig {
            skip_first: 2,
            max_fires: Some(1),
            ..neusight_fault::PointConfig::always()
        };
        neusight_fault::configure(
            &neusight_fault::FaultSpec::empty().with_point(FP_TRAIN_INTERRUPT, interrupt),
            3,
        );
        let mut mlp = Mlp::new(1, &[16], 1, 3);
        let _ = Trainer::new(small_config())
            .fit_with_checkpoint(&mut mlp, &DirectHead, Loss::Mse, &data, &path, 1)
            .expect_err("interrupt fires");
        neusight_fault::reset();

        let other_cfg = TrainConfig {
            batch_size: 8,
            ..small_config()
        };
        let err = Trainer::new(other_cfg)
            .fit_with_checkpoint(&mut mlp, &DirectHead, Loss::Mse, &data, &path, 1)
            .expect_err("config mismatch must be rejected");
        assert!(matches!(err, TrainError::Resume(_)), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    #[should_panic(expected = "match head raw dim")]
    fn head_dim_mismatch_panics() {
        let mut mlp = Mlp::new(1, &[4], 2, 0);
        let _ = Trainer::new(TrainConfig::default()).fit(
            &mut mlp,
            &DirectHead,
            Loss::Mse,
            &linear_dataset(4),
        );
    }
}
