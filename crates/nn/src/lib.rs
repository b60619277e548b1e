//! A from-scratch dense neural-network stack: the substrate NeuSight-rs uses
//! in place of PyTorch to train its utilization predictors.
//!
//! The NeuSight paper trains small multi-layer perceptrons with AdamW and a
//! symmetric-MAPE loss (§6.1). This crate provides exactly the pieces that
//! pipeline needs, with hand-written forward and backward passes:
//!
//! - [`Matrix`]: a row-major `f32` matrix with cache-friendly GEMM.
//! - [`Mlp`]: a configurable multi-layer perceptron with ReLU hidden layers.
//! - [`AdamW`]: decoupled-weight-decay Adam.
//! - [`Loss`]: MSE, MAPE and SMAPE objectives with analytic gradients.
//! - [`Head`]: differentiable output heads that map raw MLP outputs to a
//!   prediction — including the paper's sigmoid-bounded `α − β/waves`
//!   utilization head (Eq. 7–8), implemented here as
//!   [`head::AlphaBetaHead`].
//! - [`Trainer`]: a mini-batch trainer with shuffling, validation splits and
//!   gradient clipping.
//! - [`StandardScaler`]: feature standardization.
//!
//! # Example: fitting a saturating curve
//!
//! ```
//! use neusight_nn::{head::SigmoidHead, Dataset, Loss, Mlp, Sample, Trainer, TrainConfig};
//!
//! // Learn a saturating function of x.
//! let samples: Vec<Sample> = (0..64)
//!     .map(|i| {
//!         let x = i as f32 / 8.0;
//!         Sample::new(vec![x], vec![], 1.0 - (-x).exp() * 0.9)
//!     })
//!     .collect();
//! let data = Dataset::new(samples);
//! let mut mlp = Mlp::new(1, &[16, 16], 1, 7);
//! let cfg = TrainConfig { epochs: 60, batch_size: 16, ..TrainConfig::default() };
//! let report = Trainer::new(cfg).fit(&mut mlp, &SigmoidHead, Loss::Mse, &data);
//! assert!(report.final_train_loss < 0.05);
//! ```

pub mod attention;
pub mod head;
pub mod loss;
pub mod matrix;
pub mod mlp;
pub mod optim;
pub mod scaler;
pub mod schedule;
pub mod trainer;

pub use head::Head;
pub use loss::Loss;
pub use matrix::{Matrix, ShapeError};
pub use mlp::Mlp;
pub use optim::AdamW;
pub use scaler::StandardScaler;
pub use schedule::LrSchedule;
pub use trainer::{
    Dataset, Sample, TrainCheckpoint, TrainConfig, TrainError, TrainReport, Trainer,
    FP_TRAIN_INTERRUPT, TRAIN_CHECKPOINT_VERSION,
};
