//! The tile-size database (§6.1 "Tile size").
//!
//! During data collection on training-set GPUs, the profiler reports each
//! kernel's tile shape. NeuSight records `(kernel family, input dimensions,
//! GPU features) → tile` and, at prediction time — possibly for a GPU or
//! shape it has never seen — estimates the tile by nearest-match lookup in
//! log-space over the dimensions and the GPU's per-SM features.
//!
//! # The search index
//!
//! The nearest match is defined by a scan over every row of the query's
//! family and rank, summing one squared log-distance per output dimension,
//! then the GEMM depth (when both sides have one), then the SM count, then
//! the L2 size, and keeping the first row with the strictly smallest sum.
//! Scanning the rows directly costs one `ln` per term per row. Instead, a
//! [`TileDatabase`] answers queries from a derived index, built once per
//! database (eagerly in [`TileDatabase::from_records`], on the first query
//! after deserialisation) and never serialised:
//!
//! - rows are grouped by `(family, rank)`;
//! - each group keeps the distinct values of each output axis and of the
//!   GEMM depth, and every distinct `(dims, gemm_k)` shape once, as
//!   positions into those value tables;
//! - under each shape sit its rows, as `(row, GPU slot)` in row order,
//!   where a slot is one distinct `(num_sms, l2_bytes)` pair of the group.
//!
//! A query takes one `ln` per distinct axis value and per GPU slot, then
//! scores each shape and each of its rows by adding table entries only.
//! The result is the scan's, bit for bit: every distance is the same sum
//! of the same `f64` terms in the same order, and ties go to the lowest
//! row, as the scan's strict `<` keeps the first row it meets.

use neusight_gpu::{num_tiles, num_waves, GpuError, GpuSpec, KernelDataset, KernelLaunch};
use neusight_gpu::{OpClass, OpDesc, TileShape};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::OnceLock;

/// One database row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TileEntry {
    /// Kernel family.
    pub class: OpClass,
    /// Output dimensions of the recorded kernel.
    pub output_dims: Vec<u64>,
    /// GEMM contraction depth, if the family has one.
    pub gemm_k: Option<u64>,
    /// Number of SMs of the GPU the tile was observed on.
    pub num_sms: u32,
    /// L2 cache bytes of that GPU.
    pub l2_bytes: f64,
    /// The observed tile.
    pub tile: TileShape,
    /// The observed split-K factor (inferred from thread-block counts).
    #[serde(default = "default_split_k")]
    pub split_k: u64,
}

fn default_split_k() -> u64 {
    1
}

/// Nearest-match tile database.
///
/// Only `entries` is persisted and compared; the search index is derived
/// from them (see the module documentation).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TileDatabase {
    entries: Vec<TileEntry>,
    /// The search index: one group per `(family, rank)`.
    #[serde(skip)]
    index: OnceLock<Vec<TileGroup>>,
}

impl PartialEq for TileDatabase {
    fn eq(&self, other: &TileDatabase) -> bool {
        self.entries == other.entries
    }
}

fn gemm_k_of(op: &OpDesc) -> Option<u64> {
    match *op {
        OpDesc::Bmm { k, .. } => Some(k),
        OpDesc::Fc { in_features, .. } => Some(in_features),
        OpDesc::Conv2d {
            in_channels,
            kernel,
            ..
        } => Some(in_channels * kernel * kernel),
        OpDesc::Fused(ref fused) => gemm_k_of(fused.head()),
        _ => None,
    }
}

/// Squared log-distance between two positive values.
fn log_dist(a: f64, b: f64) -> f64 {
    let d = (a.max(1e-12) / b.max(1e-12)).ln();
    d * d
}

/// Narrows an index-table position; tables hold far fewer than 2³² items.
fn pos(i: usize) -> u32 {
    u32::try_from(i).expect("tile index tables hold fewer than 2^32 items")
}

/// Marks a shape without a GEMM depth.
const NO_K: u32 = u32::MAX;

/// The rows of one `(family, rank)`, deduplicated by shape and GPU.
#[derive(Debug, Clone)]
struct TileGroup {
    class: OpClass,
    rank: usize,
    /// Distinct values of output axis 0, then axis 1, …, then the distinct
    /// GEMM depths; axis `a` owns `values[starts[a]..starts[a + 1]]` and
    /// the depths own `values[starts[rank]..]`.
    values: Vec<u64>,
    starts: Vec<usize>,
    /// `rank` positions into `values` per shape, shape after shape.
    shape_dims: Vec<u32>,
    /// Position of each shape's GEMM depth in `values`, or [`NO_K`].
    shape_k: Vec<u32>,
    /// Shape `s` owns `rows[row_starts[s]..row_starts[s + 1]]`.
    row_starts: Vec<usize>,
    /// `(entry index, GPU slot)` of every row, in entry order per shape.
    rows: Vec<(u32, u32)>,
    /// The distinct `(num_sms, l2_bytes)` pairs; a slot indexes this.
    gpus: Vec<(u32, f64)>,
}

impl TileGroup {
    /// Indexes every row, one group per `(family, rank)`.
    fn index(entries: &[TileEntry]) -> Vec<TileGroup> {
        let mut members: Vec<((OpClass, usize), Vec<usize>)> = Vec::new();
        for (i, entry) in entries.iter().enumerate() {
            let key = (entry.class, entry.output_dims.len());
            match members.iter_mut().find(|(k, _)| *k == key) {
                Some((_, rows)) => rows.push(i),
                None => members.push((key, vec![i])),
            }
        }
        members
            .into_iter()
            .map(|((class, rank), rows)| TileGroup::build(class, rank, entries, &rows))
            .collect()
    }

    /// Indexes `members` (entry indices in ascending order) of one group.
    fn build(class: OpClass, rank: usize, entries: &[TileEntry], members: &[usize]) -> TileGroup {
        // Distinct values per axis (the GEMM depth is axis `rank`).
        let mut values = Vec::new();
        let mut starts = Vec::with_capacity(rank + 2);
        for axis in 0..=rank {
            let mut axis_values: Vec<u64> = members
                .iter()
                .filter_map(|&i| {
                    let e = &entries[i];
                    if axis < rank {
                        Some(e.output_dims[axis])
                    } else {
                        e.gemm_k
                    }
                })
                .collect();
            axis_values.sort_unstable();
            axis_values.dedup();
            starts.push(values.len());
            values.extend(axis_values);
        }
        starts.push(values.len());
        let position = |axis: usize, v: u64| {
            let run = &values[starts[axis]..starts[axis + 1]];
            pos(starts[axis] + run.binary_search(&v).expect("value was tabled"))
        };

        // Distinct shapes in order of first appearance, rows under each.
        let mut shape_of: HashMap<(Vec<u32>, u32), usize> = HashMap::new();
        let mut shape_dims = Vec::new();
        let mut shape_k = Vec::new();
        let mut shape_rows: Vec<Vec<(u32, u32)>> = Vec::new();
        let mut gpus: Vec<(u32, f64)> = Vec::new();
        for &i in members {
            let e = &entries[i];
            let dims: Vec<u32> = (0..rank).map(|a| position(a, e.output_dims[a])).collect();
            let k = e.gemm_k.map_or(NO_K, |k| position(rank, k));
            let gpu = (e.num_sms, e.l2_bytes);
            let slot = match gpus
                .iter()
                .position(|g| g.0 == gpu.0 && g.1.to_bits() == gpu.1.to_bits())
            {
                Some(slot) => slot,
                None => {
                    gpus.push(gpu);
                    gpus.len() - 1
                }
            };
            let shape = *shape_of.entry((dims, k)).or_insert_with_key(|(dims, k)| {
                shape_dims.extend_from_slice(dims);
                shape_k.push(*k);
                shape_rows.push(Vec::new());
                shape_rows.len() - 1
            });
            shape_rows[shape].push((pos(i), pos(slot)));
        }
        let mut row_starts = Vec::with_capacity(shape_rows.len() + 1);
        let mut rows = Vec::with_capacity(members.len());
        for shape in shape_rows {
            row_starts.push(rows.len());
            rows.extend(shape);
        }
        row_starts.push(rows.len());
        TileGroup {
            class,
            rank,
            values,
            starts,
            shape_dims,
            shape_k,
            row_starts,
            rows,
            gpus,
        }
    }

    /// `(distance, entry index)` of the nearest entry: the lowest entry
    /// index among those at the minimum distance. Distances are never NaN
    /// (`log_dist` clamps its operands to positive values, and entry L2
    /// sizes are finite), so this order is total and picks the row the
    /// scan's first-row-wins order picks.
    #[allow(clippy::cast_precision_loss)]
    fn nearest(&self, dims: &[u64], k: Option<u64>, spec: &GpuSpec) -> Option<(f64, usize)> {
        // One log-distance per distinct value: the query's output axes
        // against each axis's values, its GEMM depth against the depths.
        let mut dist_of = Vec::with_capacity(self.values.len());
        let queries = dims.iter().copied().map(Some).chain([k]);
        for (axis, query) in queries.enumerate() {
            let run = &self.values[self.starts[axis]..self.starts[axis + 1]];
            dist_of.extend(
                run.iter()
                    .map(|&v| query.map_or(0.0, |q| log_dist(q as f64, v as f64))),
            );
        }
        let gpu_dist: Vec<(f64, f64)> = self
            .gpus
            .iter()
            .map(|&(sms, l2)| {
                (
                    log_dist(f64::from(spec.num_sms()), f64::from(sms)),
                    log_dist(spec.l2_bytes(), l2),
                )
            })
            .collect();

        let mut best: Option<(f64, u32)> = None;
        for (shape, &shape_k) in self.shape_k.iter().enumerate() {
            let mut base = 0.0;
            for &p in &self.shape_dims[shape * self.rank..(shape + 1) * self.rank] {
                base += dist_of[p as usize];
            }
            if k.is_some() && shape_k != NO_K {
                base += dist_of[shape_k as usize];
            }
            // The GPU terms are non-negative and rounding is monotone, so
            // no row of this shape can reach a smaller or equal distance.
            if best.is_some_and(|(d, _)| base > d) {
                continue;
            }
            for &(entry, slot) in &self.rows[self.row_starts[shape]..self.row_starts[shape + 1]] {
                let (sm, l2) = gpu_dist[slot as usize];
                let dist = base + sm + l2;
                if best.is_none_or(|(d, e)| dist < d || (dist == d && entry < e)) {
                    best = Some((dist, entry));
                }
            }
        }
        best.map(|(dist, entry)| (dist, entry as usize))
    }
}

impl TileDatabase {
    /// Builds the database from profiled kernel records.
    #[must_use]
    pub fn from_records(dataset: &KernelDataset) -> TileDatabase {
        let mut entries = Vec::with_capacity(dataset.len());
        for record in dataset.records() {
            let Ok(spec) = neusight_gpu::catalog::gpu(&record.gpu) else {
                continue;
            };
            entries.push(TileEntry {
                class: record.op.op_class(),
                output_dims: record.op.output_dims(),
                gemm_k: gemm_k_of(&record.op),
                num_sms: spec.num_sms(),
                l2_bytes: spec.l2_bytes(),
                tile: record.launch.tile.clone(),
                split_k: record.launch.split_k,
            });
        }
        let db = TileDatabase::from_entries(entries);
        db.groups();
        db
    }

    /// A database of `entries`, in order. The search index is built on
    /// the first query.
    #[must_use]
    pub(crate) fn from_entries(entries: Vec<TileEntry>) -> TileDatabase {
        TileDatabase {
            entries,
            index: OnceLock::new(),
        }
    }

    /// The rows, in recorded order.
    #[must_use]
    pub(crate) fn entries(&self) -> &[TileEntry] {
        &self.entries
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the database is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn groups(&self) -> &[TileGroup] {
        self.index.get_or_init(|| TileGroup::index(&self.entries))
    }

    /// `(distance, entry index)` of the closest row of `class` and rank
    /// `dims.len()`, by log-space distance over output dims, GEMM depth
    /// `k`, SM count and L2 size.
    fn nearest(
        &self,
        class: OpClass,
        dims: &[u64],
        k: Option<u64>,
        spec: &GpuSpec,
    ) -> Option<(f64, usize)> {
        self.groups()
            .iter()
            .find(|g| g.class == class && g.rank == dims.len())?
            .nearest(dims, k, spec)
    }

    /// Finds the tile of the closest recorded kernel (log-space distance
    /// over output dims, GEMM depth, SM count and L2 size), clamped to the
    /// query's output. Returns `None` when no same-family, same-rank entry
    /// exists.
    #[must_use]
    pub fn lookup(&self, op: &OpDesc, spec: &GpuSpec) -> Option<TileShape> {
        let dims = op.output_dims();
        let (_, row) = self.nearest(op.op_class(), &dims, gemm_k_of(op), spec)?;
        Some(self.entries[row].tile.clamped_to(&dims))
    }

    /// Like [`TileDatabase::lookup`] but also returns the nearest entry's
    /// split-K factor (1 when falling back to the family default).
    #[must_use]
    pub fn launch_for(&self, op: &OpDesc, spec: &GpuSpec) -> (TileShape, u64) {
        let dims = op.output_dims();
        match self.nearest(op.op_class(), &dims, gemm_k_of(op), spec) {
            Some((_, row)) => {
                let entry = &self.entries[row];
                (entry.tile.clamped_to(&dims), entry.split_k.max(1))
            }
            None => (TileDatabase::default_tile(op), 1),
        }
    }

    /// Launch geometry for a kernel on a (possibly unseen) GPU: the tile
    /// and split-K of [`TileDatabase::launch_for`], then the tile count
    /// (Eq. 2, times split-K) and wave count (Eq. 3). Planned launches
    /// carry no library kernel name.
    ///
    /// # Errors
    ///
    /// Returns a tiling error if the tile cannot cover the output (cannot
    /// happen for database tiles, which are clamped to it).
    pub fn plan_launch(&self, op: &OpDesc, spec: &GpuSpec) -> Result<KernelLaunch, GpuError> {
        let (tile, split_k) = self.launch_for(op, spec);
        let tiles = num_tiles(&op.output_dims(), &tile)? * split_k;
        Ok(KernelLaunch {
            kernel_name: String::new(),
            tile,
            num_tiles: tiles,
            num_waves: num_waves(tiles, spec.num_sms()),
            split_k,
        })
    }

    /// Fallback tile when the database has no match: a reasonable default
    /// per family (the paper's database always has BMM/FC/EW/softmax/LN
    /// entries, so this only triggers for exotic setups).
    #[must_use]
    pub fn default_tile(op: &OpDesc) -> TileShape {
        let dims = op.output_dims();
        let tile = match op.op_class() {
            OpClass::Bmm => TileShape::new(vec![1, 128, 128]),
            OpClass::FullyConnected => TileShape::new(vec![128, 128]),
            OpClass::Elementwise => TileShape::new(vec![1024]),
            OpClass::Softmax | OpClass::LayerNorm => TileShape::new(vec![1, dims[1]]),
            OpClass::MemoryBound => {
                let mut t = vec![1; dims.len()];
                if let Some(last) = t.last_mut() {
                    *last = *dims.last().expect("nonempty dims");
                }
                TileShape::new(t)
            }
        };
        tile.clamped_to(&dims)
    }

    /// Tile for a query: nearest match, or the family default.
    #[must_use]
    pub fn tile_for(&self, op: &OpDesc, spec: &GpuSpec) -> TileShape {
        self.launch_for(op, spec).0
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use neusight_gpu::{catalog, DType, EwKind};
    use neusight_sim::SimulatedGpu;
    use proptest::prelude::*;
    use std::collections::HashSet;
    use std::sync::LazyLock;

    /// The linear scan the index replaces, kept as the reference: sums the
    /// terms of every same-family, same-rank row and keeps the first row
    /// with the strictly smallest distance. Returns `(distance, row)`.
    #[allow(clippy::cast_precision_loss)]
    fn brute_force(
        db: &TileDatabase,
        class: OpClass,
        dims: &[u64],
        k: Option<u64>,
        spec: &GpuSpec,
    ) -> Option<(f64, usize)> {
        let mut best: Option<(f64, usize)> = None;
        for (i, entry) in db.entries.iter().enumerate() {
            if entry.class != class || entry.output_dims.len() != dims.len() {
                continue;
            }
            let mut dist = 0.0;
            for (&a, &b) in dims.iter().zip(&entry.output_dims) {
                dist += log_dist(a as f64, b as f64);
            }
            if let (Some(ka), Some(kb)) = (k, entry.gemm_k) {
                dist += log_dist(ka as f64, kb as f64);
            }
            dist += log_dist(f64::from(spec.num_sms()), f64::from(entry.num_sms));
            dist += log_dist(spec.l2_bytes(), entry.l2_bytes);
            if best.as_ref().is_none_or(|(bd, _)| dist < *bd) {
                best = Some((dist, i));
            }
        }
        best
    }

    /// Asserts the index picks the scan's row at a bitwise-equal distance.
    fn assert_row_matches_scan(
        db: &TileDatabase,
        class: OpClass,
        dims: &[u64],
        k: Option<u64>,
        spec: &GpuSpec,
    ) {
        let got = db.nearest(class, dims, k, spec);
        let want = brute_force(db, class, dims, k, spec);
        assert_eq!(
            got.map(|(d, i)| (d.to_bits(), i)),
            want.map(|(d, i)| (d.to_bits(), i)),
            "{class:?} {dims:?} k={k:?} on {}",
            spec.name()
        );
    }

    /// Asserts every public query agrees with the scan for `op`.
    fn assert_matches_scan(db: &TileDatabase, op: &OpDesc, spec: &GpuSpec) {
        let dims = op.output_dims();
        assert_row_matches_scan(db, op.op_class(), &dims, gemm_k_of(op), spec);
        let want = match brute_force(db, op.op_class(), &dims, gemm_k_of(op), spec) {
            Some((_, i)) => {
                let entry = &db.entries[i];
                (entry.tile.clamped_to(&dims), entry.split_k.max(1))
            }
            None => (TileDatabase::default_tile(op), 1),
        };
        assert_eq!(db.launch_for(op, spec), want, "{op} on {}", spec.name());
        assert_eq!(db.tile_for(op, spec), want.0);
        let launch = db.plan_launch(op, spec).expect("clamped tiles cover");
        assert_eq!((launch.tile, launch.split_k), want);
    }

    /// Every unique kernel of an inference graph, its fused form and a
    /// training graph of each Table 4 model.
    pub(crate) fn table4_kernels() -> Vec<OpDesc> {
        let mut seen = HashSet::new();
        let mut ops = Vec::new();
        for model in neusight_graph::config::table4() {
            let inference = neusight_graph::inference_graph(&model, 4);
            let fused = neusight_graph::fuse_graph(&inference);
            let training = neusight_graph::training_graph(&model, 2);
            for graph in [&inference, &fused, &training] {
                for node in graph.iter() {
                    if seen.insert(node.op.clone()) {
                        ops.push(node.op.clone());
                    }
                }
            }
        }
        ops
    }

    /// The standard-scale database: the full sweep profiled on the five
    /// training GPUs, as `collect_training_set` records it.
    static STANDARD_DB: LazyLock<TileDatabase> = LazyLock::new(|| {
        let ops = neusight_data::sweeps::full_sweep(neusight_data::SweepScale::Standard);
        let mut records = Vec::new();
        for gpu in neusight_data::training_gpus() {
            for op in &ops {
                records.push(neusight_gpu::KernelRecord {
                    gpu: gpu.spec().name().to_owned(),
                    op: op.clone(),
                    launch: gpu.profile_launch(op),
                    mean_latency_s: 0.0,
                });
            }
        }
        TileDatabase::from_records(&KernelDataset::new(records))
    });

    pub(crate) fn all_gpus() -> Vec<GpuSpec> {
        catalog::all().into_iter().map(|entry| entry.spec).collect()
    }

    fn small_db() -> TileDatabase {
        let gpus = [
            SimulatedGpu::from_catalog("P100").unwrap(),
            SimulatedGpu::from_catalog("V100").unwrap(),
            SimulatedGpu::from_catalog("A100-40GB").unwrap(),
        ];
        let ops = [
            OpDesc::bmm(8, 256, 256, 128),
            OpDesc::bmm(64, 1024, 1024, 512),
            OpDesc::bmm(1, 64, 64, 64),
            OpDesc::fc(1024, 1024, 4096),
            OpDesc::softmax(8192, 1024),
            OpDesc::layer_norm(8192, 1024),
            OpDesc::elementwise(neusight_gpu::EwKind::Add, 1 << 20),
        ];
        let mut records = Vec::new();
        for gpu in &gpus {
            for op in &ops {
                let m = gpu.measure(op, DType::F32, 3);
                records.push(neusight_gpu::KernelRecord {
                    gpu: gpu.spec().name().to_owned(),
                    op: op.clone(),
                    launch: m.launch,
                    mean_latency_s: m.mean_latency_s,
                });
            }
        }
        TileDatabase::from_records(&KernelDataset::new(records))
    }

    #[test]
    fn exact_query_returns_recorded_tile() {
        let db = small_db();
        let v100 = catalog::gpu("V100").unwrap();
        let op = OpDesc::bmm(64, 1024, 1024, 512);
        let expected = SimulatedGpu::new(v100.clone()).profile_launch(&op).tile;
        assert_eq!(db.lookup(&op, &v100), Some(expected));
    }

    #[test]
    fn nearest_match_on_unseen_gpu() {
        // H100 was never profiled; the lookup lands on the closest training
        // GPU's tile for the closest shape.
        let db = small_db();
        let h100 = catalog::gpu("H100").unwrap();
        let op = OpDesc::bmm(64, 2048, 2048, 1024); // OOD dims
        let tile = db.lookup(&op, &h100).expect("a bmm entry exists");
        assert_eq!(tile.rank(), 3);
        assert!(
            tile.dims()[1] >= 64,
            "nearest big gemm should use big tiles"
        );
    }

    #[test]
    fn class_isolation() {
        let db = small_db();
        let v100 = catalog::gpu("V100").unwrap();
        let sm = db.lookup(&OpDesc::softmax(4096, 2048), &v100).unwrap();
        // Softmax tiles span the full reduction dim, clamped to the query.
        assert_eq!(sm.dims()[1], 1024); // recorded dim, clamped to the query
        assert!(db
            .lookup(&OpDesc::embedding(128, 128, 1000), &v100)
            .is_none());
    }

    #[test]
    fn tile_clamped_to_small_query() {
        let db = small_db();
        let v100 = catalog::gpu("V100").unwrap();
        let op = OpDesc::bmm(1, 16, 16, 16);
        let tile = db.tile_for(&op, &v100);
        assert!(tile.dims()[1] <= 16 && tile.dims()[2] <= 16);
    }

    #[test]
    fn default_tiles_are_valid_for_all_classes() {
        for op in [
            OpDesc::bmm(2, 100, 100, 100),
            OpDesc::fc(50, 60, 70),
            OpDesc::elementwise(neusight_gpu::EwKind::Gelu, 500),
            OpDesc::softmax(100, 200),
            OpDesc::layer_norm(100, 200),
            OpDesc::embedding(100, 64, 1000),
        ] {
            let tile = TileDatabase::default_tile(&op);
            assert_eq!(tile.rank(), op.output_dims().len(), "{op}");
            let tiles = neusight_gpu::num_tiles(&op.output_dims(), &tile).unwrap();
            assert!(tiles >= 1);
        }
    }

    #[test]
    fn empty_db_uses_defaults() {
        let db = TileDatabase::default();
        assert!(db.is_empty());
        let v100 = catalog::gpu("V100").unwrap();
        let op = OpDesc::bmm(4, 512, 512, 512);
        assert_eq!(db.tile_for(&op, &v100), TileDatabase::default_tile(&op));
        // So does a family the database has no rows of.
        let embedding = OpDesc::embedding(128, 128, 1000);
        for (db, op) in [(&db, &op), (&db, &embedding), (&*TINY_DB, &embedding)] {
            assert_eq!(db.lookup(op, &v100), None);
            assert_eq!(
                db.launch_for(op, &v100),
                (TileDatabase::default_tile(op), 1)
            );
            assert_matches_scan(db, op, &v100);
        }
    }

    /// The persisted form of a database: its rows and nothing else.
    #[derive(Serialize)]
    struct PersistedDatabase {
        entries: Vec<TileEntry>,
    }

    #[test]
    fn serde_round_trip() {
        let db = small_db();
        assert!(db.index.get().is_some());
        let json = serde_json::to_string(&db).unwrap();
        let persisted = PersistedDatabase {
            entries: db.entries.clone(),
        };
        assert_eq!(json, serde_json::to_string(&persisted).unwrap());
        let back: TileDatabase = serde_json::from_str(&json).unwrap();
        assert_eq!(db, back);

        // Deserialising leaves the index unbuilt; the first query builds it.
        assert!(back.index.get().is_none());
        let v100 = catalog::gpu("V100").unwrap();
        for op in table4_kernels().iter().take(40) {
            assert_eq!(back.launch_for(op, &v100), db.launch_for(op, &v100));
        }
        assert!(back.index.get().is_some());
    }

    #[test]
    fn index_matches_scan_on_standard_database_for_table4_kernels() {
        let db = &*STANDARD_DB;
        let ops = table4_kernels();
        assert!(ops.iter().any(|op| matches!(op, OpDesc::Fused(_))));
        let gpus = all_gpus();
        assert_eq!(gpus.len(), 8);
        for spec in &gpus {
            for op in &ops {
                assert_matches_scan(db, op, spec);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random kernels of every family on every catalog GPU and on
        /// off-catalog GPUs, against the tiny-scale database.
        #[test]
        fn index_matches_scan_on_random_ops(
            op in random_op(),
            gpu in 0usize..9,
            sms in 1u32..200,
            l2_mb in 0.5f64..100.0,
        ) {
            let spec = all_gpus().into_iter().nth(gpu).unwrap_or_else(|| {
                GpuSpec::builder("custom")
                    .year(2024)
                    .generation(neusight_gpu::Generation::Hopper)
                    .peak_tflops(50.0)
                    .memory_gb(80.0)
                    .memory_gbps(2000.0)
                    .num_sms(sms)
                    .l2_mb(l2_mb)
                    .build()
                    .unwrap()
            });
            assert_matches_scan(&TINY_DB, &op, &spec);
        }

        /// Synthetic rows of ranks 1–4 drawn from a few values per axis
        /// (so shapes repeat and distances tie), with and without a GEMM
        /// depth in the same group, queried at random dims and depths.
        #[test]
        fn index_matches_scan_on_synthetic_rows(
            rows in prop::collection::vec(synthetic_row(), 1..40),
            dims in prop::collection::vec(prop::sample::select(vec![1u64, 7, 16, 100, 4096]), 1..5),
            k in prop::sample::select(vec![None, Some(1u64), Some(64), Some(9000)]),
            gpu in 0usize..8,
        ) {
            let db = TileDatabase { entries: rows, index: OnceLock::new() };
            let spec = &all_gpus()[gpu];
            for class in [OpClass::Bmm, OpClass::FullyConnected] {
                assert_row_matches_scan(&db, class, &dims, k, spec);
            }
        }
    }

    static TINY_DB: LazyLock<TileDatabase> = LazyLock::new(|| {
        let ds = neusight_data::collect_training_set(
            &neusight_data::training_gpus(),
            neusight_data::SweepScale::Tiny,
            DType::F32,
        );
        TileDatabase::from_records(&ds)
    });

    fn random_op() -> impl Strategy<Value = OpDesc> {
        let d = || 1u64..3000;
        prop_oneof![
            (1u64..64, d(), d(), d()).prop_map(|(b, m, n, k)| OpDesc::bmm(b, m, n, k)),
            (d(), d(), d()).prop_map(|(b, i, o)| OpDesc::fc(b, i, o)),
            (1u64..8, 1u64..256, 1u64..256, 7u64..64, 1u64..4)
                .prop_map(|(b, ci, co, hw, k)| OpDesc::conv2d(b, ci, co, hw, k, 1, 0)),
            (1u64..10_000_000).prop_map(|n| OpDesc::elementwise(EwKind::Add, n)),
            (d(), d()).prop_map(|(r, c)| OpDesc::softmax(r, c)),
            (d(), d()).prop_map(|(r, c)| OpDesc::layer_norm(r, c)),
            (d(), d(), d()).prop_map(|(t, c, v)| OpDesc::embedding(t, c, v)),
            (d(), d()).prop_map(|(r, c)| {
                OpDesc::fused(vec![
                    OpDesc::layer_norm(r, c),
                    OpDesc::elementwise(EwKind::Gelu, r * c),
                ])
                .unwrap()
            }),
        ]
    }

    fn synthetic_row() -> impl Strategy<Value = TileEntry> {
        let value = || prop::sample::select(vec![1u64, 16, 64, 4096]);
        (
            prop::sample::select(vec![OpClass::Bmm, OpClass::FullyConnected]),
            prop::collection::vec(value(), 1..5),
            prop::sample::select(vec![None, Some(16u64), Some(4096)]),
            prop::sample::select(vec![(56u32, 4e6), (80, 6e6), (108, 40e6)]),
            1u64..4,
        )
            .prop_map(
                |(class, output_dims, gemm_k, (num_sms, l2_bytes), split_k)| {
                    let tile = TileShape::new(vec![split_k; output_dims.len()]);
                    TileEntry {
                        class,
                        output_dims,
                        gemm_k,
                        num_sms,
                        l2_bytes,
                        tile,
                        split_k,
                    }
                },
            )
    }

    fn row(dims: Vec<u64>, gemm_k: Option<u64>, gpu: (u32, f64), tile: u64) -> TileEntry {
        TileEntry {
            class: OpClass::Elementwise,
            tile: TileShape::new(vec![tile; dims.len()]),
            output_dims: dims,
            gemm_k,
            num_sms: gpu.0,
            l2_bytes: gpu.1,
            split_k: 1,
        }
    }

    fn db_of(entries: Vec<TileEntry>) -> TileDatabase {
        TileDatabase {
            entries,
            index: OnceLock::new(),
        }
    }

    #[test]
    fn ties_go_to_the_first_recorded_row() {
        let a100 = catalog::gpu("A100-40GB").unwrap();
        let here = (a100.num_sms(), a100.l2_bytes());
        let v100 = catalog::gpu("V100").unwrap();
        let elsewhere = (v100.num_sms(), v100.l2_bytes());
        // Rows 1 and 3 sit at the same distance from a 100-wide query
        // (ln 2 either way) on the query's GPU; row 3 shares a shape with
        // row 0, which the index visits first.
        assert_eq!(log_dist(100.0, 50.0), log_dist(100.0, 200.0));
        let db = db_of(vec![
            row(vec![50], None, elsewhere, 1),
            row(vec![200], None, here, 2),
            row(vec![400], None, here, 3),
            row(vec![50], None, here, 4),
        ]);
        let op = OpDesc::elementwise(EwKind::Add, 100);
        assert_matches_scan(&db, &op, &a100);
        assert_eq!(
            db.nearest(OpClass::Elementwise, &[100], None, &a100)
                .unwrap()
                .1,
            1
        );
        assert_eq!(db.tile_for(&op, &a100), TileShape::new(vec![2]));

        // Identical rows: the first one recorded wins.
        let db = db_of(vec![
            row(vec![400], None, here, 7),
            row(vec![100], None, here, 5),
            row(vec![100], None, here, 6),
        ]);
        assert_matches_scan(&db, &op, &a100);
        assert_eq!(db.tile_for(&op, &a100), TileShape::new(vec![5]));
    }

    #[test]
    fn gemm_depth_counts_only_when_both_sides_have_one() {
        let a100 = catalog::gpu("A100-40GB").unwrap();
        let gpu = (a100.num_sms(), a100.l2_bytes());
        let db = db_of(vec![
            row(vec![64, 64], Some(64), gpu, 1),
            row(vec![64, 64], None, gpu, 2),
            row(vec![64, 96], Some(4096), gpu, 3),
            row(vec![64, 96], None, gpu, 4),
        ]);
        for k in [None, Some(64), Some(4096), Some(100)] {
            for dims in [[64u64, 64], [64, 96], [64, 80]] {
                assert_row_matches_scan(&db, OpClass::Elementwise, &dims, k, &a100);
            }
        }
        // A depth-less query ties both rows of a shape; a query with a
        // depth pays for a mismatched one, so the depth-less row wins.
        let nearest = |dims: &[u64], k| db.nearest(OpClass::Elementwise, dims, k, &a100);
        assert_eq!(nearest(&[64, 64], None).unwrap().1, 0);
        assert_eq!(nearest(&[64, 64], Some(64)).unwrap().1, 0);
        assert_eq!(nearest(&[64, 64], Some(4096)).unwrap().1, 1);
    }

    #[test]
    fn clone_and_equality_follow_the_entries() {
        let db = small_db();
        let unbuilt = db_of(db.entries.clone());
        assert!(db.index.get().is_some() && unbuilt.index.get().is_none());
        assert_eq!(db, unbuilt);
        let copy = db.clone();
        assert_eq!(copy, db);
        let h100 = catalog::gpu("H100").unwrap();
        for op in table4_kernels().iter().take(40) {
            assert_eq!(copy.plan_launch(op, &h100), db.plan_launch(op, &h100));
            assert_eq!(unbuilt.plan_launch(op, &h100), db.plan_launch(op, &h100));
        }
        let mut fewer = db.entries.clone();
        fewer.pop();
        assert_ne!(db_of(fewer), db);
    }
}
