//! Multi-layer perceptron with ReLU hidden activations and hand-written
//! backpropagation.
//!
//! The paper's predictor is "an MLP with multiple fully-connected layers …
//! ReLU is used as the activation function" (§4.3). This implementation
//! keeps per-layer forward caches inside the network so a
//! [`Mlp::forward_train`] / [`Mlp::backward`] pair computes exact gradients
//! for every weight and bias.

use crate::matrix::{matmul_acc, Matrix, ShapeError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One dense layer: `y = x·W + b` with optional ReLU.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct Dense {
    weight: Matrix, // in x out
    bias: Vec<f32>,
    relu: bool,
    #[serde(skip)]
    grad_weight: Option<Matrix>,
    #[serde(skip)]
    grad_bias: Option<Vec<f32>>,
    #[serde(skip)]
    cache_input: Option<Matrix>,
    #[serde(skip)]
    cache_pre_activation: Option<Matrix>,
}

impl Dense {
    fn new(in_dim: usize, out_dim: usize, relu: bool, rng: &mut StdRng) -> Dense {
        // Kaiming-uniform initialization, appropriate for ReLU stacks.
        #[allow(clippy::cast_precision_loss)]
        let bound = (6.0 / in_dim as f32).sqrt();
        let weight = Matrix::from_fn(in_dim, out_dim, |_, _| rng.gen_range(-bound..bound));
        Dense::with_params(weight, vec![0.0; out_dim], relu)
    }

    fn with_params(weight: Matrix, bias: Vec<f32>, relu: bool) -> Dense {
        Dense {
            weight,
            bias,
            relu,
            grad_weight: None,
            grad_bias: None,
            cache_input: None,
            cache_pre_activation: None,
        }
    }

    fn forward(&mut self, input: &Matrix, train: bool) -> Matrix {
        let mut out = input.matmul(&self.weight);
        out.add_row_broadcast(&self.bias);
        if train {
            self.cache_input = Some(input.clone());
            self.cache_pre_activation = Some(out.clone());
        }
        if self.relu {
            out.map_inplace(|v| v.max(0.0));
        }
        out
    }

    /// Inference forward of `rows` rows of `input` into `out`, resized to
    /// `rows` × this layer's width: the arithmetic of [`Dense::forward`]
    /// without its allocations.
    fn infer(&self, input: &[f32], rows: usize, out: &mut Vec<f32>) {
        out.clear();
        out.resize(rows * self.bias.len(), 0.0);
        matmul_acc(out, input, rows, &self.weight);
        for row in out.chunks_exact_mut(self.bias.len()) {
            for (v, &b) in row.iter_mut().zip(&self.bias) {
                *v += b;
            }
        }
        if self.relu {
            for v in out.iter_mut() {
                *v = v.max(0.0);
            }
        }
    }

    /// Backpropagates `dout` (gradient of the loss w.r.t. this layer's
    /// output), accumulating weight/bias gradients and returning the
    /// gradient w.r.t. the layer input. `dout` is masked in place by the
    /// ReLU derivative but stays allocated, so callers can recycle it.
    fn backward(&mut self, dout: &mut Matrix) -> Matrix {
        let input = self
            .cache_input
            .take()
            .expect("backward called without forward_train");
        let pre = self
            .cache_pre_activation
            .take()
            .expect("backward called without forward_train");
        if self.relu {
            // dReLU: zero where pre-activation was non-positive.
            for (d, &p) in dout.as_mut_slice().iter_mut().zip(pre.as_slice()) {
                if p <= 0.0 {
                    *d = 0.0;
                }
            }
        }
        let grad_w = input.t_matmul(dout);
        let grad_b = dout.column_sums();
        match &mut self.grad_weight {
            Some(existing) => {
                for (g, n) in existing.as_mut_slice().iter_mut().zip(grad_w.as_slice()) {
                    *g += n;
                }
            }
            None => self.grad_weight = Some(grad_w),
        }
        match &mut self.grad_bias {
            Some(existing) => {
                for (g, n) in existing.iter_mut().zip(&grad_b) {
                    *g += n;
                }
            }
            None => self.grad_bias = Some(grad_b),
        }
        dout.matmul_t(&self.weight)
    }

    fn zero_grad(&mut self) {
        self.grad_weight = None;
        self.grad_bias = None;
    }
}

/// A multi-layer perceptron: `input_dim → hidden… → output_dim` with ReLU
/// after every hidden layer and a linear final layer.
///
/// ```
/// use neusight_nn::{Matrix, Mlp};
///
/// let mlp = Mlp::new(3, &[8, 8], 2, 42);
/// let x = Matrix::zeros(4, 3);
/// let y = mlp.forward(&x);
/// assert_eq!((y.rows(), y.cols()), (4, 2));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Dense>,
    input_dim: usize,
    output_dim: usize,
}

impl Mlp {
    /// Creates a network with the given hidden widths, deterministically
    /// initialized from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `input_dim` or `output_dim` is zero.
    #[must_use]
    pub fn new(input_dim: usize, hidden: &[usize], output_dim: usize, seed: u64) -> Mlp {
        assert!(
            input_dim > 0 && output_dim > 0,
            "network dims must be nonzero"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layers = Vec::with_capacity(hidden.len() + 1);
        let mut prev = input_dim;
        for &h in hidden {
            assert!(h > 0, "hidden widths must be nonzero");
            layers.push(Dense::new(prev, h, true, &mut rng));
            prev = h;
        }
        layers.push(Dense::new(prev, output_dim, false, &mut rng));
        Mlp {
            layers,
            input_dim,
            output_dim,
        }
    }

    /// Rebuilds a network from its dense layers, input layer first, as
    /// [`Mlp::layers`] lists them: each layer's `in × out` weights, its
    /// `out` biases and whether ReLU follows it.
    ///
    /// # Errors
    ///
    /// [`ShapeError`] if there are no layers, a layer's bias length is not
    /// its output width, or a layer's input width is not the previous
    /// layer's output width.
    pub fn from_layers(layers: Vec<(Matrix, Vec<f32>, bool)>) -> Result<Mlp, ShapeError> {
        let (Some(first), Some(last)) = (layers.first(), layers.last()) else {
            return Err(ShapeError("a network needs at least one layer".to_owned()));
        };
        let (input_dim, output_dim) = (first.0.rows(), last.0.cols());
        let mut prev = input_dim;
        for (i, (weight, bias, _)) in layers.iter().enumerate() {
            if weight.rows() != prev {
                return Err(ShapeError(format!(
                    "layer {i} takes {} inputs, but the layer before it gives {prev}",
                    weight.rows()
                )));
            }
            if bias.len() != weight.cols() {
                return Err(ShapeError(format!(
                    "layer {i} has {} biases for {} outputs",
                    bias.len(),
                    weight.cols()
                )));
            }
            prev = weight.cols();
        }
        Ok(Mlp {
            layers: layers
                .into_iter()
                .map(|(weight, bias, relu)| Dense::with_params(weight, bias, relu))
                .collect(),
            input_dim,
            output_dim,
        })
    }

    /// The dense layers, input layer first: weights (`in × out`), biases,
    /// and whether ReLU follows.
    pub fn layers(&self) -> impl ExactSizeIterator<Item = (&Matrix, &[f32], bool)> {
        self.layers
            .iter()
            .map(|l| (&l.weight, l.bias.as_slice(), l.relu))
    }

    /// Input feature dimension.
    #[must_use]
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Output dimension.
    #[must_use]
    pub fn output_dim(&self) -> usize {
        self.output_dim
    }

    /// Number of trainable parameters.
    #[must_use]
    pub fn num_params(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.weight.rows() * l.weight.cols() + l.bias.len())
            .sum()
    }

    /// Applies `f` to every weight and bias in place. Exists so
    /// robustness tests can deliberately corrupt a trained network and
    /// prove the output guards catch the damage; not part of the
    /// training API.
    #[doc(hidden)]
    pub fn map_parameters(&mut self, mut f: impl FnMut(f32) -> f32) {
        for layer in &mut self.layers {
            for w in layer.weight.as_mut_slice() {
                *w = f(*w);
            }
            for b in &mut layer.bias {
                *b = f(*b);
            }
        }
    }

    /// Inference-mode forward pass (no caches kept).
    ///
    /// # Panics
    ///
    /// Panics if `input.cols() != input_dim`.
    #[must_use]
    pub fn forward(&self, input: &Matrix) -> Matrix {
        assert_eq!(input.cols(), self.input_dim, "input dim mismatch");
        if self.layers.is_empty() {
            return input.clone();
        }
        // `Dense::forward` takes `&mut self` to keep training caches; this
        // is the same math on `&self`, with no caches, in two buffers that
        // take turns as a layer's input and its output.
        let rows = input.rows();
        let widest = self.layers.iter().map(|l| l.bias.len()).max().unwrap_or(0);
        let mut x = Vec::with_capacity(rows * widest);
        let mut y = Vec::with_capacity(rows * widest);
        for (i, layer) in self.layers.iter().enumerate() {
            let layer_input = if i == 0 { input.as_slice() } else { &x };
            layer.infer(layer_input, rows, &mut y);
            std::mem::swap(&mut x, &mut y);
        }
        Matrix::from_vec(rows, self.output_dim, x)
    }

    /// Training-mode forward pass: caches intermediates for
    /// [`Mlp::backward`].
    ///
    /// # Panics
    ///
    /// Panics if `input.cols() != input_dim`.
    #[must_use]
    pub fn forward_train(&mut self, input: &Matrix) -> Matrix {
        assert_eq!(input.cols(), self.input_dim, "input dim mismatch");
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, true);
        }
        x
    }

    /// Backpropagates the gradient of the loss w.r.t. the network output,
    /// accumulating parameter gradients. Must follow a
    /// [`Mlp::forward_train`] call.
    ///
    /// # Panics
    ///
    /// Panics if no forward-train caches are present.
    pub fn backward(&mut self, mut dout: Matrix) {
        self.backward_in_place(&mut dout);
    }

    /// [`Mlp::backward`] borrowing the output-gradient buffer instead of
    /// consuming it, so hot training loops can reuse one allocation for
    /// every mini-batch. The buffer's contents are clobbered (the ReLU
    /// mask of the last layer is applied in place).
    ///
    /// # Panics
    ///
    /// Panics if no forward-train caches are present.
    pub fn backward_in_place(&mut self, dout: &mut Matrix) {
        let mut rev = self.layers.iter_mut().rev();
        let Some(last) = rev.next() else {
            return;
        };
        let mut grad = last.backward(dout);
        for layer in rev {
            grad = layer.backward(&mut grad);
        }
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// Visits every (parameter, gradient) pair; used by optimizers.
    /// Parameters with no accumulated gradient are skipped.
    pub(crate) fn visit_params(&mut self, mut f: impl FnMut(&mut [f32], &[f32], usize)) {
        let mut slot = 0usize;
        for layer in &mut self.layers {
            if let Some(gw) = &layer.grad_weight {
                f(layer.weight.as_mut_slice(), gw.as_slice(), slot);
            }
            slot += 1;
            if let Some(gb) = &layer.grad_bias {
                f(&mut layer.bias, gb, slot);
            }
            slot += 1;
        }
    }

    /// Global L2 norm of all accumulated gradients.
    #[must_use]
    pub fn grad_norm(&self) -> f32 {
        let mut sum = 0.0f32;
        for layer in &self.layers {
            if let Some(gw) = &layer.grad_weight {
                sum += gw.as_slice().iter().map(|v| v * v).sum::<f32>();
            }
            if let Some(gb) = &layer.grad_bias {
                sum += gb.iter().map(|v| v * v).sum::<f32>();
            }
        }
        sum.sqrt()
    }

    /// Scales all accumulated gradients by `factor` (gradient clipping).
    pub fn scale_grads(&mut self, factor: f32) {
        for layer in &mut self.layers {
            if let Some(gw) = &mut layer.grad_weight {
                gw.map_inplace(|v| v * factor);
            }
            if let Some(gb) = &mut layer.grad_bias {
                for v in gb {
                    *v *= factor;
                }
            }
        }
    }

    /// Number of optimizer parameter slots (two per layer: weight, bias).
    #[must_use]
    pub fn num_param_slots(&self) -> usize {
        self.layers.len() * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_flow_through() {
        let mlp = Mlp::new(5, &[16, 8], 3, 0);
        let x = Matrix::zeros(7, 5);
        let y = mlp.forward(&x);
        assert_eq!((y.rows(), y.cols()), (7, 3));
        assert_eq!(mlp.num_params(), 5 * 16 + 16 + 16 * 8 + 8 + 8 * 3 + 3);
    }

    #[test]
    fn deterministic_init() {
        let a = Mlp::new(4, &[8], 1, 99);
        let b = Mlp::new(4, &[8], 1, 99);
        let x = Matrix::from_fn(2, 4, |r, c| (r + c) as f32 * 0.1);
        assert_eq!(a.forward(&x).as_slice(), b.forward(&x).as_slice());
        let c = Mlp::new(4, &[8], 1, 100);
        assert_ne!(a.forward(&x).as_slice(), c.forward(&x).as_slice());
    }

    /// Every row of a batched forward equals that row's forward alone,
    /// bit for bit, on the serving network's shape at 1 to 13 rows: both
    /// sides of the few-row GEMM kernel (below 6 rows) and the packed
    /// one, and batches that mix a full 6-row tile with a short one; then
    /// across the 96-row block at 97 and 200 rows.
    #[test]
    fn batched_forward_rows_match_single_row_forwards_bitwise() {
        let mlp = Mlp::new(8, &[128; 4], 2, 17);
        let row = |i: usize| -> Vec<f32> {
            (0..8)
                .map(|d| ((i * 37 + d * 11) % 23) as f32 * 0.17 - 1.9 + d as f32 * 0.05)
                .collect()
        };
        let single: Vec<Matrix> = (0..200)
            .map(|i| mlp.forward(&Matrix::from_vec(1, 8, row(i))))
            .collect();
        for rows in (1..=13).chain([97, 200]) {
            let batch = Matrix::from_vec(rows, 8, (0..rows).flat_map(row).collect());
            let out = mlp.forward(&batch);
            for (r, alone) in single.iter().enumerate().take(rows) {
                let bits = |s: &[f32]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(out.row(r)), bits(alone.row(0)), "row {r} of {rows}");
            }
        }
    }

    #[test]
    fn forward_train_matches_forward() {
        let mut mlp = Mlp::new(3, &[6, 6], 2, 5);
        let x = Matrix::from_fn(4, 3, |r, c| (r as f32 - c as f32) * 0.3);
        let inference = mlp.forward(&x);
        let train = mlp.forward_train(&x);
        assert_eq!(inference.as_slice(), train.as_slice());
    }

    /// Finite-difference check of backprop gradients.
    #[test]
    fn gradients_match_finite_differences() {
        let mut mlp = Mlp::new(2, &[4], 1, 11);
        let x = Matrix::from_vec(3, 2, vec![0.5, -0.2, 1.0, 0.3, -0.7, 0.9]);
        let target = [0.3f32, -0.1, 0.8];

        // Loss: 0.5 * sum((y - t)^2)
        let loss_of = |mlp: &Mlp| -> f32 {
            let y = mlp.forward(&x);
            y.as_slice()
                .iter()
                .zip(&target)
                .map(|(&p, &t)| 0.5 * (p - t) * (p - t))
                .sum()
        };

        // Analytic gradients.
        mlp.zero_grad();
        let y = mlp.forward_train(&x);
        let dout = Matrix::from_fn(3, 1, |r, _| y.get(r, 0) - target[r]);
        mlp.backward(dout);

        // Numeric gradient for a few weights of layer 0.
        let eps = 1e-3f32;
        for idx in 0..4 {
            let analytic = mlp.layers[0]
                .grad_weight
                .as_ref()
                .expect("grad present")
                .as_slice()[idx];
            let original = mlp.layers[0].weight.as_slice()[idx];
            mlp.layers[0].weight.as_mut_slice()[idx] = original + eps;
            let plus = loss_of(&mlp);
            mlp.layers[0].weight.as_mut_slice()[idx] = original - eps;
            let minus = loss_of(&mlp);
            mlp.layers[0].weight.as_mut_slice()[idx] = original;
            let numeric = (plus - minus) / (2.0 * eps);
            assert!(
                (analytic - numeric).abs() < 2e-2 * (1.0 + numeric.abs()),
                "weight {idx}: analytic {analytic} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn grad_accumulation_and_clipping() {
        let mut mlp = Mlp::new(2, &[4], 1, 3);
        let x = Matrix::from_vec(1, 2, vec![1.0, -1.0]);
        let _ = mlp.forward_train(&x);
        mlp.backward(Matrix::from_vec(1, 1, vec![1.0]));
        let norm1 = mlp.grad_norm();
        assert!(norm1 > 0.0);
        let _ = mlp.forward_train(&x);
        mlp.backward(Matrix::from_vec(1, 1, vec![1.0]));
        let norm2 = mlp.grad_norm();
        assert!((norm2 - 2.0 * norm1).abs() < 1e-4);
        mlp.scale_grads(0.5);
        assert!((mlp.grad_norm() - norm1).abs() < 1e-4);
        mlp.zero_grad();
        assert_eq!(mlp.grad_norm(), 0.0);
    }

    #[test]
    fn serde_round_trip_preserves_behaviour() {
        let mlp = Mlp::new(3, &[8], 2, 21);
        let json = serde_json::to_string(&mlp).unwrap();
        let restored: Mlp = serde_json::from_str(&json).unwrap();
        let x = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32 * 0.2);
        assert_eq!(mlp.forward(&x).as_slice(), restored.forward(&x).as_slice());
    }

    #[test]
    fn from_layers_round_trips_and_validates_shapes() {
        let mlp = Mlp::new(3, &[8, 4], 2, 5);
        let layers: Vec<_> = mlp
            .layers()
            .map(|(w, b, relu)| (w.clone(), b.to_vec(), relu))
            .collect();
        let rebuilt = Mlp::from_layers(layers.clone()).unwrap();
        assert_eq!((rebuilt.input_dim(), rebuilt.output_dim()), (3, 2));
        let x = Matrix::from_fn(2, 3, |r, c| (r + c) as f32 * 0.3 - 0.4);
        assert_eq!(mlp.forward(&x).as_slice(), rebuilt.forward(&x).as_slice());

        assert!(Mlp::from_layers(Vec::new()).is_err());
        let mut short_bias = layers.clone();
        short_bias[1].1.pop();
        assert!(Mlp::from_layers(short_bias).is_err());
        let mut broken_chain = layers;
        broken_chain.remove(1);
        assert!(Mlp::from_layers(broken_chain).is_err());
    }

    #[test]
    #[should_panic(expected = "input dim mismatch")]
    fn wrong_input_dim_panics() {
        let mlp = Mlp::new(3, &[4], 1, 0);
        let _ = mlp.forward(&Matrix::zeros(1, 2));
    }
}
