//! Tiled-execution math: Equations 2 and 3 of the NeuSight paper.
//!
//! GPU libraries execute a kernel by partitioning its output into identical
//! tiles, each mapped to one SM. The number of tiles that can run
//! concurrently is bounded by the SM count, so the kernel executes in
//! *waves* of tile groups:
//!
//! ```text
//! num_tiles = Π_i ceil(x_i / t_i)            (Eq. 2)
//! num_waves = ceil(num_tiles / num_sm)       (Eq. 3)
//! ```

use crate::error::GpuError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Shape of one tile of a kernel's output, aligned dimension-by-dimension
/// with the output shape returned by [`crate::OpDesc::output_dims`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TileShape(Vec<u64>);

impl TileShape {
    /// Creates a tile shape from per-dimension extents.
    ///
    /// # Panics
    ///
    /// Panics if `dims` is empty or any extent is zero.
    #[must_use]
    pub fn new(dims: Vec<u64>) -> TileShape {
        assert!(
            !dims.is_empty(),
            "tile shape must have at least one dimension"
        );
        assert!(
            dims.iter().all(|&d| d > 0),
            "tile dimensions must be at least 1"
        );
        TileShape(dims)
    }

    /// Per-dimension extents.
    #[must_use]
    pub fn dims(&self) -> &[u64] {
        &self.0
    }

    /// Number of dimensions.
    #[must_use]
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Number of output elements covered by one tile.
    #[must_use]
    pub fn numel(&self) -> u64 {
        self.0.iter().product()
    }

    /// Clamps each tile extent to the corresponding output extent (a tile
    /// never needs to be larger than the output it covers).
    #[must_use]
    pub fn clamped_to(&self, output_dims: &[u64]) -> TileShape {
        TileShape::clamp(&self.0, output_dims)
    }

    /// The tile `tile` clamped to `output_dims`, as
    /// [`TileShape::clamped_to`] does, for extents held outside a
    /// `TileShape`.
    #[must_use]
    pub fn clamp(tile: &[u64], output_dims: &[u64]) -> TileShape {
        TileShape(
            tile.iter()
                .zip(output_dims)
                .map(|(&t, &x)| t.min(x).max(1))
                .collect(),
        )
    }
}

impl fmt::Display for TileShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

/// Number of tiles required to cover an output (Eq. 2).
///
/// # Errors
///
/// Returns [`GpuError::TileRankMismatch`] if the tile and output ranks
/// differ.
///
/// ```
/// use neusight_gpu::{num_tiles, TileShape};
/// # fn main() -> Result<(), neusight_gpu::GpuError> {
/// let tiles = num_tiles(&[4, 300, 300], &TileShape::new(vec![1, 128, 128]))?;
/// assert_eq!(tiles, 4 * 3 * 3);
/// # Ok(())
/// # }
/// ```
pub fn num_tiles(output_dims: &[u64], tile: &TileShape) -> Result<u64, GpuError> {
    if output_dims.len() != tile.rank() {
        return Err(GpuError::TileRankMismatch {
            output_rank: output_dims.len(),
            tile_rank: tile.rank(),
        });
    }
    Ok(output_dims
        .iter()
        .zip(tile.dims())
        .map(|(&x, &t)| x.div_ceil(t))
        .product())
}

/// Number of SM waves needed to execute `tiles` tiles on `num_sms` SMs
/// (Eq. 3).
///
/// # Panics
///
/// Panics if `num_sms` is zero.
#[must_use]
pub fn num_waves(tiles: u64, num_sms: u32) -> u64 {
    assert!(num_sms > 0, "num_sms must be at least 1");
    tiles.div_ceil(u64::from(num_sms))
}

/// Fraction of the last wave's SM slots that are actually occupied, in
/// `(0, 1]`. A value of 1 means the tile count divides evenly into waves;
/// small values mean a mostly idle tail wave. Used by the simulator's
/// tail-effect model.
#[must_use]
#[allow(clippy::cast_precision_loss)]
pub fn tail_wave_occupancy(tiles: u64, num_sms: u32) -> f64 {
    let sms = u64::from(num_sms.max(1));
    let rem = tiles % sms;
    if rem == 0 {
        1.0
    } else {
        rem as f64 / sms as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn eq2_matches_paper_example() {
        // Figure 3: 4x4 output, 2x2 tiles -> 4 tiles.
        let tiles = num_tiles(&[4, 4], &TileShape::new(vec![2, 2])).unwrap();
        assert_eq!(tiles, 4);
    }

    #[test]
    fn ceil_division_in_eq2() {
        let tiles = num_tiles(&[5, 5], &TileShape::new(vec![2, 2])).unwrap();
        assert_eq!(tiles, 9);
    }

    #[test]
    fn eq3_waves() {
        assert_eq!(num_waves(80, 80), 1);
        assert_eq!(num_waves(81, 80), 2);
        assert_eq!(num_waves(1, 80), 1);
        assert_eq!(num_waves(400, 80), 5);
    }

    #[test]
    fn rank_mismatch_rejected() {
        let err = num_tiles(&[4, 4, 4], &TileShape::new(vec![2, 2])).unwrap_err();
        assert!(matches!(err, GpuError::TileRankMismatch { .. }));
    }

    #[test]
    fn tail_occupancy() {
        assert!((tail_wave_occupancy(80, 80) - 1.0).abs() < 1e-12);
        assert!((tail_wave_occupancy(81, 80) - 1.0 / 80.0).abs() < 1e-12);
        assert!((tail_wave_occupancy(120, 80) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn clamping_shrinks_oversized_tiles() {
        let tile = TileShape::new(vec![1, 128, 128]);
        let clamped = tile.clamped_to(&[4, 64, 256]);
        assert_eq!(clamped.dims(), &[1, 64, 128]);
    }

    #[test]
    fn tile_numel_and_display() {
        let tile = TileShape::new(vec![1, 128, 64]);
        assert_eq!(tile.numel(), 8192);
        assert_eq!(tile.to_string(), "1x128x64");
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_tile_dim_panics() {
        let _ = TileShape::new(vec![128, 0]);
    }

    proptest! {
        /// Eq. 2 lower bound: tiles × tile-elements ≥ output elements.
        #[test]
        fn tiles_cover_output(
            dims in proptest::collection::vec(1u64..500, 1..4),
            tile_dims in proptest::collection::vec(1u64..64, 1..4),
        ) {
            prop_assume!(dims.len() == tile_dims.len());
            let tile = TileShape::new(tile_dims);
            let tiles = num_tiles(&dims, &tile).unwrap();
            let covered = tiles * tile.numel();
            let output: u64 = dims.iter().product();
            prop_assert!(covered >= output);
        }

        /// Tiles are monotone non-decreasing in output extent.
        #[test]
        fn tiles_monotone_in_output(
            x in 1u64..2000, grow in 0u64..2000, t in 1u64..256,
        ) {
            let tile = TileShape::new(vec![t]);
            let small = num_tiles(&[x], &tile).unwrap();
            let large = num_tiles(&[x + grow], &tile).unwrap();
            prop_assert!(large >= small);
        }

        /// Waves are monotone non-increasing in SM count.
        #[test]
        fn waves_antimonotone_in_sms(tiles in 1u64..100_000, sms in 1u32..256) {
            let more = num_waves(tiles, sms + 1);
            let fewer = num_waves(tiles, sms);
            prop_assert!(more <= fewer);
        }

        /// Tail occupancy is always in (0, 1].
        #[test]
        fn tail_occupancy_bounds(tiles in 1u64..1_000_000, sms in 1u32..512) {
            let occ = tail_wave_occupancy(tiles, sms);
            prop_assert!(occ > 0.0 && occ <= 1.0);
        }
    }
}
