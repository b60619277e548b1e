//! **NeuSight-rs**: data-driven forecasting of deep learning latency on
//! GPUs, including GPUs the predictor has never run on.
//!
//! This crate is the paper's primary contribution. Rather than regressing
//! latency directly (which extrapolates poorly — §3), NeuSight:
//!
//! 1. decomposes each kernel into the **tiles** GPU libraries actually
//!    schedule ([`tiledb`] recovers tile shapes by nearest-match over
//!    profiles of training GPUs; Eq. 2–3 give tile and wave counts);
//! 2. extracts **per-SM-normalized features** ([`features`], Table 2);
//! 3. predicts a **bounded utilization** per tile with a small MLP whose
//!    sigmoid `α − β/waves` head cannot exceed 1 ([`predictor`],
//!    Eq. 7–8);
//! 4. converts utilization to latency through **roofline performance
//!    laws** (Eq. 4–6), so predictions can never beat physics;
//! 5. aggregates kernels along the dataflow graph for end-to-end model
//!    forecasts ([`framework`]).
//!
//! # Quickstart
//!
//! ```
//! use neusight_core::{NeuSight, NeuSightConfig};
//! use neusight_data::{collect_training_set, training_gpus, SweepScale};
//! use neusight_gpu::{catalog, DType, OpDesc};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Measure a (tiny) sweep on the training GPUs and train.
//! let data = collect_training_set(&training_gpus(), SweepScale::Tiny, DType::F32);
//! let neusight = NeuSight::train(&data, &NeuSightConfig::tiny())?;
//!
//! // Forecast a kernel on an H100 the framework never saw.
//! let h100 = catalog::gpu("H100")?;
//! let latency = neusight.predict_op(&OpDesc::bmm(16, 2048, 2048, 2048), &h100)?;
//! assert!(latency > 0.0);
//! # Ok(())
//! # }
//! ```

pub mod ablation;
pub mod codec;
pub mod error;
pub mod features;
pub mod framework;
pub mod predictor;
pub mod registry;
pub mod tiledb;

pub use ablation::{AblatedNeuSight, AblationVariant};
pub use error::{CoreError, Result};
pub use framework::{GraphPrediction, NeuSight, NeuSightConfig, DEFAULT_PREDICTION_CACHE_CAPACITY};
pub use predictor::{KernelPredictor, PredictorConfig};
pub use registry::{ModelManifest, Registry, RegistryEntry, VersionedArtifact};
pub use tiledb::TileDatabase;
