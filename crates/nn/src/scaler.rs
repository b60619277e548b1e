//! Feature standardization: per-column mean/variance scaling fitted on the
//! training split and reused at prediction time.
//!
//! NeuSight's input features span several orders of magnitude (per-tile
//! FLOPs vs cache-ratio features), so predictors standardize (and usually
//! log-compress, see [`log_compress`]) their inputs before the MLP.

use crate::matrix::ShapeError;
use serde::{Deserialize, Serialize};

/// `sign(x) · ln(1 + |x|)`: order-of-magnitude compression that is finite
/// everywhere and monotone. Applied to NeuSight features before
/// standardization.
#[must_use]
pub fn log_compress(x: f32) -> f32 {
    x.signum() * x.abs().ln_1p()
}

/// Per-column standardizer: `(x − mean) / std`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StandardScaler {
    means: Vec<f32>,
    stds: Vec<f32>,
}

impl StandardScaler {
    /// Fits a scaler on row-major samples of width `dim`.
    ///
    /// Columns with (near-)zero variance get a unit std so transforming is
    /// always well defined.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or any row has length ≠ `dim`.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn fit(rows: &[Vec<f32>], dim: usize) -> StandardScaler {
        assert!(!rows.is_empty(), "cannot fit a scaler on zero samples");
        let n = rows.len() as f32;
        let mut means = vec![0.0f32; dim];
        for row in rows {
            assert_eq!(row.len(), dim, "row width mismatch");
            for (m, &v) in means.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut means {
            *m /= n;
        }
        let mut vars = vec![0.0f32; dim];
        for row in rows {
            for ((var, &v), &m) in vars.iter_mut().zip(row).zip(&means) {
                let d = v - m;
                *var += d * d;
            }
        }
        let stds = vars
            .into_iter()
            .map(|v| {
                let s = (v / n).sqrt();
                if s < 1e-8 {
                    1.0
                } else {
                    s
                }
            })
            .collect();
        StandardScaler { means, stds }
    }

    /// Rebuilds a fitted scaler from its per-column means and stds, as
    /// [`StandardScaler::means`] and [`StandardScaler::stds`] give them.
    ///
    /// # Errors
    ///
    /// [`ShapeError`] if the two lengths differ.
    pub fn from_parts(means: Vec<f32>, stds: Vec<f32>) -> Result<StandardScaler, ShapeError> {
        if means.len() != stds.len() {
            return Err(ShapeError(format!(
                "scaler has {} means but {} stds",
                means.len(),
                stds.len()
            )));
        }
        Ok(StandardScaler { means, stds })
    }

    /// Per-column means.
    #[must_use]
    pub fn means(&self) -> &[f32] {
        &self.means
    }

    /// Per-column standard deviations (a unit std for constant columns).
    #[must_use]
    pub fn stds(&self) -> &[f32] {
        &self.stds
    }

    /// Feature dimensionality this scaler was fitted for.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.means.len()
    }

    /// Standardizes one feature vector in place.
    ///
    /// # Panics
    ///
    /// Panics if the length differs from the fitted dimension.
    pub fn transform_inplace(&self, features: &mut [f32]) {
        assert_eq!(features.len(), self.dim(), "feature width mismatch");
        for ((v, &m), &s) in features.iter_mut().zip(&self.means).zip(&self.stds) {
            *v = (*v - m) / s;
        }
    }

    /// Returns a standardized copy of one feature vector.
    #[must_use]
    pub fn transform(&self, features: &[f32]) -> Vec<f32> {
        let mut out = features.to_vec();
        self.transform_inplace(&mut out);
        out
    }

    /// Inverts the standardization.
    ///
    /// # Panics
    ///
    /// Panics if the length differs from the fitted dimension.
    #[must_use]
    pub fn inverse_transform(&self, features: &[f32]) -> Vec<f32> {
        assert_eq!(features.len(), self.dim(), "feature width mismatch");
        features
            .iter()
            .zip(&self.means)
            .zip(&self.stds)
            .map(|((&v, &m), &s)| v * s + m)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fit_transform_zero_mean_unit_std() {
        let rows = vec![
            vec![1.0f32, 10.0],
            vec![2.0, 20.0],
            vec![3.0, 30.0],
            vec![4.0, 40.0],
        ];
        let scaler = StandardScaler::fit(&rows, 2);
        let transformed: Vec<Vec<f32>> = rows.iter().map(|r| scaler.transform(r)).collect();
        for col in 0..2 {
            let mean: f32 = transformed.iter().map(|r| r[col]).sum::<f32>() / 4.0;
            let var: f32 = transformed.iter().map(|r| r[col] * r[col]).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-6);
            assert!((var - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn constant_column_is_safe() {
        let rows = vec![vec![5.0f32], vec![5.0], vec![5.0]];
        let scaler = StandardScaler::fit(&rows, 1);
        let t = scaler.transform(&[5.0]);
        assert!(t[0].abs() < 1e-6);
        assert!(t[0].is_finite());
    }

    #[test]
    fn inverse_round_trip() {
        let rows = vec![vec![1.0f32, -3.0], vec![4.0, 7.0], vec![-2.0, 0.5]];
        let scaler = StandardScaler::fit(&rows, 2);
        for row in &rows {
            let back = scaler.inverse_transform(&scaler.transform(row));
            for (a, b) in row.iter().zip(&back) {
                assert!((a - b).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn log_compress_properties() {
        assert_eq!(log_compress(0.0), 0.0);
        assert!((log_compress(f32::exp(1.0) - 1.0) - 1.0).abs() < 1e-6);
        assert!((log_compress(-1.0) + log_compress(1.0)).abs() < 1e-6); // odd
    }

    proptest! {
        #[test]
        fn log_compress_monotone(a in -1e6f32..1e6, b in -1e6f32..1e6) {
            prop_assume!(a < b);
            prop_assert!(log_compress(a) <= log_compress(b));
        }

        #[test]
        fn transform_is_finite(vals in proptest::collection::vec(-1e5f32..1e5, 3..30)) {
            let rows: Vec<Vec<f32>> = vals.iter().map(|&v| vec![v]).collect();
            let scaler = StandardScaler::fit(&rows, 1);
            for row in &rows {
                prop_assert!(scaler.transform(row)[0].is_finite());
            }
        }
    }

    #[test]
    fn from_parts_round_trips_and_validates_lengths() {
        let scaler = StandardScaler::fit(&[vec![1.0f32, 2.0], vec![3.0, 5.0]], 2);
        let back =
            StandardScaler::from_parts(scaler.means().to_vec(), scaler.stds().to_vec()).unwrap();
        assert_eq!(scaler, back);
        assert!(StandardScaler::from_parts(vec![0.0; 2], vec![1.0; 3]).is_err());
    }

    #[test]
    fn serde_round_trip() {
        let scaler = StandardScaler::fit(&[vec![1.0f32, 2.0], vec![3.0, 4.0]], 2);
        let json = serde_json::to_string(&scaler).unwrap();
        let back: StandardScaler = serde_json::from_str(&json).unwrap();
        assert_eq!(scaler, back);
    }
}
