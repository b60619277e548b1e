//! Input-feature extraction: Table 2 of the paper.
//!
//! Features are per-tile quantities normalized by per-SM hardware
//! resources, which is what makes the learned utilization function portable
//! across GPUs (§4.3): the MLP never sees absolute device numbers, only
//! ratios like "tile FLOPs per unit of SM compute". All features are
//! log-compressed because they span many orders of magnitude.
//!
//! | # | feature |
//! |---|---------|
//! | 1 | `FLOPsPerTile / PeakFLOPSPerSM` |
//! | 2 | `MemoryPerTile / MemoryBWPerSM` |
//! | 3 | `num_waves × MemoryPerTile / L2CacheSizePerSM` |
//! | 4 | `num_waves × MemoryPerTile / MemorySizePerSM` |
//! | 5 | `(FLOPsPerTile / MemoryPerTile) / (PeakFLOPS / MemoryBW)` |
//! | 6–8 | `num_waves`, tile elements, `num_tiles` (launch geometry) |

use neusight_gpu::{DType, GpuSpec, KernelLaunch, OpDesc};
use neusight_nn::scaler::log_compress;

/// Number of input features produced by [`extract`].
pub const NUM_FEATURES: usize = 8;

/// Per-tile work and launch-derived quantities shared by feature
/// extraction and the latency equations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TileQuantities {
    /// FLOPs of one tile (kernel FLOPs / tile count).
    pub flops_per_tile: f64,
    /// Logical memory traffic of one tile, bytes.
    pub mem_per_tile: f64,
    /// Wave count (Eq. 3).
    pub num_waves: f64,
    /// Tile count (Eq. 2).
    pub num_tiles: f64,
    /// Kernel arithmetic intensity, FLOP/byte.
    pub intensity: f64,
}

/// Computes per-tile quantities from an op and its launch metadata.
///
/// # Panics
///
/// Panics if the launch has zero tiles.
#[must_use]
#[allow(clippy::cast_precision_loss)]
pub fn tile_quantities(op: &OpDesc, launch: &KernelLaunch, dtype: DType) -> TileQuantities {
    assert!(launch.num_tiles > 0, "launch must have at least one tile");
    let tiles = launch.num_tiles as f64;
    let flops_per_tile = op.flops() / tiles;
    let mem_per_tile = op.memory_bytes(dtype) / tiles;
    TileQuantities {
        flops_per_tile,
        mem_per_tile,
        num_waves: launch.num_waves as f64,
        num_tiles: tiles,
        intensity: op.arithmetic_intensity(dtype),
    }
}

/// Extracts the Table 2 feature vector for one kernel on one GPU.
#[must_use]
pub fn extract(op: &OpDesc, launch: &KernelLaunch, dtype: DType, spec: &GpuSpec) -> Vec<f32> {
    let mut features = vec![0.0; NUM_FEATURES];
    write(
        &tile_quantities(op, launch, dtype),
        launch,
        spec,
        &mut features,
    );
    features
}

/// Writes the [`extract`] features of a kernel with tile quantities `q`
/// into `out`, without allocating.
///
/// # Panics
///
/// Panics unless `out` holds [`NUM_FEATURES`] floats.
#[allow(clippy::cast_possible_truncation, clippy::cast_precision_loss)]
pub fn write(q: &TileQuantities, launch: &KernelLaunch, spec: &GpuSpec, out: &mut [f32]) {
    assert_eq!(out.len(), NUM_FEATURES, "feature width mismatch");
    let ratios = [
        q.flops_per_tile / spec.peak_flops_per_sm(),
        q.mem_per_tile / spec.memory_bw_per_sm(),
        q.num_waves * q.mem_per_tile / spec.l2_bytes_per_sm(),
        q.num_waves * q.mem_per_tile / spec.memory_bytes_per_sm(),
        q.intensity / spec.ridge_intensity(),
        q.num_waves,
        launch.tile.numel() as f64,
        q.num_tiles,
    ];
    for (f, r) in out.iter_mut().zip(ratios) {
        *f = log_compress(r as f32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neusight_gpu::{catalog, TileShape};

    fn launch_for(op: &OpDesc, tile: Vec<u64>, sms: u32) -> KernelLaunch {
        let tile = TileShape::new(tile);
        let tiles = neusight_gpu::num_tiles(&op.output_dims(), &tile).unwrap();
        KernelLaunch {
            kernel_name: "test".into(),
            num_waves: neusight_gpu::num_waves(tiles, sms),
            num_tiles: tiles,
            tile,
            split_k: 1,
        }
    }

    #[test]
    fn feature_vector_has_fixed_width() {
        let spec = catalog::gpu("V100").unwrap();
        let op = OpDesc::bmm(4, 256, 256, 256);
        let launch = launch_for(&op, vec![1, 128, 128], spec.num_sms());
        let f = extract(&op, &launch, DType::F32, &spec);
        assert_eq!(f.len(), NUM_FEATURES);
        assert!(f.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn per_tile_quantities_divide_kernel_work() {
        let spec = catalog::gpu("A100-40GB").unwrap();
        let op = OpDesc::bmm(4, 256, 256, 256);
        let launch = launch_for(&op, vec![1, 128, 128], spec.num_sms());
        let q = tile_quantities(&op, &launch, DType::F32);
        assert!((q.flops_per_tile * q.num_tiles - op.flops()).abs() < 1e-6);
        assert!((q.mem_per_tile * q.num_tiles - op.memory_bytes(DType::F32)).abs() < 1e-6);
        assert_eq!(q.num_tiles, 16.0);
        assert_eq!(q.num_waves, 1.0);
    }

    #[test]
    fn same_shape_different_gpu_changes_features() {
        // Identical tile-level work looks different relative to a larger
        // SM — this is the normalization that transfers across devices.
        let op = OpDesc::bmm(16, 512, 512, 512);
        let p100 = catalog::gpu("P100").unwrap();
        let h100 = catalog::gpu("H100").unwrap();
        let lp = launch_for(&op, vec![1, 128, 128], p100.num_sms());
        let lh = launch_for(&op, vec![1, 128, 128], h100.num_sms());
        let fp = extract(&op, &lp, DType::F32, &p100);
        let fh = extract(&op, &lh, DType::F32, &h100);
        assert_ne!(fp, fh);
        // Feature 1 (flops per tile / per-SM flops) shrinks on faster SMs.
        assert!(fh[0] < fp[0]);
    }

    #[test]
    fn intensity_feature_is_gpu_relative() {
        // On a bandwidth-starved GPU (L4), the same kernel looks more
        // compute-rich relative to the ridge point.
        let op = OpDesc::bmm(8, 512, 512, 512);
        let l4 = catalog::gpu("L4").unwrap();
        let h100 = catalog::gpu("H100").unwrap();
        let ll = launch_for(&op, vec![1, 128, 128], l4.num_sms());
        let lh = launch_for(&op, vec![1, 128, 128], h100.num_sms());
        let fl = extract(&op, &ll, DType::F32, &l4);
        let fh = extract(&op, &lh, DType::F32, &h100);
        assert!(fl[4] < fh[4], "L4 ridge is much higher than H100's");
    }

    #[test]
    #[should_panic(expected = "at least one tile")]
    fn zero_tiles_panics() {
        let spec = catalog::gpu("V100").unwrap();
        let op = OpDesc::bmm(1, 64, 64, 64);
        let launch = KernelLaunch {
            kernel_name: "bad".into(),
            tile: TileShape::new(vec![1, 64, 64]),
            num_tiles: 0,
            num_waves: 0,
            split_k: 1,
        };
        let _ = extract(&op, &launch, DType::F32, &spec);
    }
}
