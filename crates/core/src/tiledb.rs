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
//! [`TileDatabase`] holds its rows only as a search index, which the
//! binary artifact stores as it is held (see [`crate::codec`]):
//!
//! - rows are grouped by `(family, rank)`;
//! - each group keeps the distinct values of each output axis and of the
//!   GEMM depth, and every distinct `(dims, gemm_k)` shape once, as
//!   positions into those value tables;
//! - under each shape sit its rows, as `(entry index, GPU slot, launch)`
//!   in entry order: a slot is one distinct `(num_sms, l2_bytes)` of the
//!   group, a launch one distinct `(tile, split_k)` of the database;
//! - the shapes are bucketed on the two output axes with the most
//!   distinct values (the split axes): an outer bucket per value of the
//!   first, a cell per value pair present.
//!
//! Ids, groups, shapes and rows are numbered in order of first
//! appearance, so the index is a function of the rows. The entry indices
//! give back the row order, so the JSON view of [`TileDatabase::entries`]
//! is the rows read.
//!
//! A query takes one `ln` per distinct axis value and per GPU slot, then
//! scores shapes and their rows by adding table entries only. It does
//! not score every shape. It visits the outer buckets nearest first on
//! their axis, and within each bucket the cells nearest first on the
//! second axis. A bucket whose term on its axis, or a cell whose two
//! terms summed, is strictly greater than the best distance found so far
//! is skipped, and so is a shape whose output and depth terms already
//! are.
//!
//! The result is the scan's, bit for bit:
//!
//! - every distance that is computed is the same sum of the same `f64`
//!   terms in the same order as the scan's;
//! - a skip never drops a winner. Every term is a square, so it is
//!   non-negative, and IEEE addition is monotone in each operand. So a
//!   sum is at least any sum of a subsequence of its terms, and a row
//!   under a skipped bound lies strictly farther than a row already
//!   found. Skipping only on a strict `>` keeps rows that tie;
//! - ties go to the lowest row, whatever the visit order, as the scan's
//!   strict `<` keeps the first row it meets.
//!
//! The visit order only decides how soon a small best distance is found,
//! and so how much is skipped. The search skips rather than stops at the
//! first bound over the best distance, so it stays exact even where the
//! computed `ln` is not monotone and the walk is not in bound order; a
//! skipped bucket costs one comparison.

use neusight_gpu::{num_tiles, num_waves, GpuError, GpuSpec, KernelDataset, KernelLaunch};
use neusight_gpu::{OpClass, OpDesc, TileShape};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One database row, as it is serialized and as the encoder and tests
/// see it. The database itself holds its rows only as its search index.
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

/// Nearest-match tile database, held as its search index (see the module
/// documentation). The index is a function of the rows, so two databases
/// are equal exactly when their rows are. The rows serialize as
/// `{"entries": [TileEntry, …]}`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TileDatabase {
    /// One group per `(family, rank)`, in order of first appearance.
    pub(crate) groups: Vec<TileGroup>,
    /// The distinct `(tile, split_k)` pairs, or launches, that the
    /// groups' rows name by id, in order of first appearance.
    pub(crate) launches: Vec<(TileShape, u64)>,
}

/// The persisted form of a database: its rows and nothing else. Named
/// like the database so that serde's messages read the same.
mod persisted {
    use super::TileEntry;
    use serde::{Deserialize, Serialize};

    #[derive(Serialize, Deserialize)]
    pub(super) struct TileDatabase {
        pub(super) entries: Vec<TileEntry>,
    }
}

impl Serialize for TileDatabase {
    fn to_value(&self) -> serde::value::Value {
        persisted::TileDatabase {
            entries: self.entries(),
        }
        .to_value()
    }
}

impl Deserialize for TileDatabase {
    /// Rejects a row the index cannot hold, as the binary decoder does
    /// (such as a tile with no extent or a zero one).
    fn from_value(v: &serde::value::Value) -> Result<TileDatabase, serde::Error> {
        let persisted = persisted::TileDatabase::from_value(v)?;
        TileDatabase::from_entries(&persisted.entries)
            .map_err(|e| serde::Error::msg(format!("TileDatabase: {e}")))
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

/// The rows `dataset` records, in order: one per record on a catalog GPU.
pub(crate) fn rows_of(dataset: &KernelDataset) -> Vec<TileEntry> {
    let rows = dataset.records().iter().filter_map(|record| {
        let spec = neusight_gpu::catalog::gpu(&record.gpu).ok()?;
        Some(TileEntry {
            class: record.op.op_class(),
            output_dims: record.op.output_dims(),
            gemm_k: gemm_k_of(&record.op),
            num_sms: spec.num_sms(),
            l2_bytes: spec.l2_bytes(),
            tile: record.launch.tile.clone(),
            split_k: record.launch.split_k,
        })
    });
    rows.collect()
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

/// Marks an absent position: a shape without a GEMM depth, or a cell of
/// a group with fewer than two split axes.
pub(crate) const NO_K: u32 = u32::MAX;

/// Rows name a launch, and a GPU of their group, by a `u16` id.
pub(crate) const MAX_IDS: usize = 1 << 16;

/// Most output dims a row may have (kernel outputs have at most four).
pub(crate) const MAX_RANK: u64 = 255;

/// Refuses a tile with no extent or a zero one: it covers no output.
pub(crate) fn check_tile(tile: &[u64]) -> Result<(), String> {
    if tile.is_empty() || tile.contains(&0) {
        return Err(format!("{tile:?} has an empty or zero extent"));
    }
    Ok(())
}

/// The rows of one `(family, rank)`, deduplicated by shape and GPU.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TileGroup {
    pub(crate) class: OpClass,
    pub(crate) rank: usize,
    /// Distinct values of output axis 0, then axis 1, …, then the distinct
    /// GEMM depths; axis `a` owns `values[starts[a]..starts[a + 1]]` and
    /// the depths own `values[starts[rank]..]`.
    pub(crate) values: Vec<u64>,
    pub(crate) starts: Vec<usize>,
    /// The output axes the shapes are bucketed on: the two with the most
    /// distinct values, most first (one for rank 1, none for rank 0).
    pub(crate) split: Vec<usize>,
    /// Outer bucket `i` (the shapes at the `i`-th value of `split[0]`)
    /// owns cells `outer_starts[i]..outer_starts[i + 1]`. A group with no
    /// split axis has one outer bucket.
    pub(crate) outer_starts: Vec<usize>,
    /// One cell per distinct pair of values on the split axes, in value
    /// order: the position in `values` of the value on `split[1]` (or
    /// [`NO_K`] with no second split axis), and the cell's first shape.
    /// A cell's shapes run to the next cell's first shape; a last, empty
    /// cell closes the list.
    pub(crate) cells: Vec<(u32, u32)>,
    /// `rank` positions into `values` per shape, shape after shape.
    pub(crate) shape_dims: Vec<u32>,
    /// Position of each shape's GEMM depth in `values`, or [`NO_K`].
    pub(crate) shape_k: Vec<u32>,
    /// Shape `s` owns `rows[row_starts[s]..row_starts[s + 1]]`.
    pub(crate) row_starts: Vec<usize>,
    /// `(entry index, GPU slot, launch id)` of every row, in entry order
    /// per shape.
    pub(crate) rows: Vec<(u32, u16, u16)>,
    /// The distinct `(num_sms, l2_bytes)` pairs; a slot indexes this.
    pub(crate) gpus: Vec<(u32, f64)>,
}

impl TileGroup {
    /// Indexes `members`, the rows of `entries` of `class` and rank
    /// `rank`, given each entry's launch id. More than [`MAX_IDS`]
    /// distinct GPUs are refused.
    fn build(
        (class, rank): (OpClass, usize),
        entries: &[TileEntry],
        members: &[u32],
        launch_of: &[u16],
    ) -> Result<TileGroup, String> {
        // Each axis's distinct values in order, the GEMM depths last.
        let mut values = Vec::new();
        let mut starts = vec![0];
        for axis in 0..=rank {
            let value = |e: &TileEntry| {
                if axis < rank {
                    Some(e.output_dims[axis])
                } else {
                    e.gemm_k
                }
            };
            let mut run: Vec<u64> = members
                .iter()
                .filter_map(|&i| value(&entries[i as usize]))
                .collect();
            run.sort_unstable();
            run.dedup();
            values.extend(run);
            starts.push(values.len());
        }
        let position = |axis: usize, v: u64| {
            let run = &values[starts[axis]..starts[axis + 1]];
            pos(starts[axis] + run.binary_search(&v).expect("every value is tabled"))
        };

        // The distinct shapes and GPUs in order of first appearance, and
        // each shape's rows.
        type Shape = (Vec<u32>, u32, Vec<(u32, u16, u16)>);
        let (mut shape_of, mut shapes) = (HashMap::new(), Vec::<Shape>::new());
        let (mut gpu_of, mut gpus) = (HashMap::new(), Vec::new());
        for &i in members {
            let e = &entries[i as usize];
            let slot = *gpu_of
                .entry((e.num_sms, e.l2_bytes.to_bits()))
                .or_insert_with(|| {
                    gpus.push((e.num_sms, e.l2_bytes));
                    gpus.len() - 1
                });
            if slot == MAX_IDS {
                return Err(format!("more than {MAX_IDS} distinct GPUs in a group"));
            }
            let dims: Vec<u32> = (0..rank).map(|a| position(a, e.output_dims[a])).collect();
            let k = e.gemm_k.map_or(NO_K, |k| position(rank, k));
            let shape = *shape_of.entry((dims, k)).or_insert_with_key(|(dims, k)| {
                shapes.push((dims.clone(), *k, Vec::new()));
                shapes.len() - 1
            });
            shapes[shape]
                .2
                .push((i, slot as u16, launch_of[i as usize]));
        }

        // Bucket the shapes on the split axes; a stable sort keeps first
        // appearance within each cell.
        let split = split_axes(&starts);
        let cell_of = |dims: &[u32]| {
            let at = |level: usize| split.get(level).map_or(NO_K, |&a| dims[a]);
            (at(0), at(1))
        };
        shapes.sort_by_key(|(dims, _, _)| cell_of(dims));
        let outer_values = split.first().map_or(1, |&a| starts[a + 1] - starts[a]);
        let mut outer_starts = Vec::with_capacity(outer_values + 1);
        let mut cells = Vec::new();
        let mut shape_dims = Vec::with_capacity(shapes.len() * rank);
        let mut shape_k = Vec::with_capacity(shapes.len());
        let mut row_starts = Vec::with_capacity(shapes.len() + 1);
        let mut rows = Vec::with_capacity(members.len());
        let mut last_cell = None;
        for (s, (dims, k, shape_rows)) in shapes.into_iter().enumerate() {
            let cell = cell_of(&dims);
            if last_cell != Some(cell) {
                let outer = split.first().map_or(0, |&a| cell.0 as usize - starts[a]);
                outer_starts.resize(outer + 1, cells.len());
                cells.push((cell.1, pos(s)));
                last_cell = Some(cell);
            }
            shape_dims.extend(dims);
            shape_k.push(k);
            row_starts.push(rows.len());
            rows.extend(shape_rows);
        }
        outer_starts.resize(outer_values + 1, cells.len());
        cells.push((NO_K, pos(shape_k.len())));
        row_starts.push(rows.len());
        Ok(TileGroup {
            class,
            rank,
            values,
            starts,
            split,
            outer_starts,
            cells,
            shape_dims,
            shape_k,
            row_starts,
            rows,
            gpus,
        })
    }

    /// `(distance, entry index, launch)` of the nearest entry: the lowest
    /// entry index among those at the minimum distance. Distances are never NaN
    /// (`log_dist` clamps its operands to positive values, and entry L2
    /// sizes are finite), so this order is total and picks the row the
    /// scan's first-row-wins order picks.
    #[allow(clippy::cast_precision_loss)]
    fn nearest(&self, dims: &[u64], k: Option<u64>, spec: &GpuSpec) -> Option<(f64, usize, u16)> {
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

        // Buckets nearest first on the split axes, walking out from the
        // query's place among each axis's values. A cell's terms on the
        // split axes bound every distance in it from below, so a bucket or
        // cell whose bound exceeds the best distance so far holds no
        // winner and is skipped (see the module documentation).
        let level = |l: usize| {
            self.split.get(l).map(|&a| {
                let run = &self.values[self.starts[a]..self.starts[a + 1]];
                (self.starts[a], run.partition_point(|&v| v < dims[a]))
            })
        };
        let (outer_start, outer_split) = level(0).unwrap_or((0, 0));
        let inner_query = level(1).map_or(0, |(start, at)| start + at);
        let outer_bound = |i: usize| {
            if self.split.is_empty() {
                0.0
            } else {
                dist_of[outer_start + i]
            }
        };
        let inner_bound = |c: usize| match self.cells[c].0 {
            NO_K => 0.0,
            p => dist_of[p as usize],
        };
        let mut best = None;
        let outer_count = self.outer_starts.len() - 1;
        nearest_first(outer_count, outer_split, outer_bound, |i| {
            let outer = outer_bound(i);
            if exceeds(outer, best) {
                return;
            }
            let first = self.outer_starts[i];
            let cells = &self.cells[first..self.outer_starts[i + 1]];
            let inner_split = cells.partition_point(|&(p, _)| (p as usize) < inner_query);
            nearest_first(
                cells.len(),
                inner_split,
                |c| inner_bound(first + c),
                |c| {
                    let bound = outer + inner_bound(first + c);
                    if exceeds(bound, best) {
                        return;
                    }
                    let shapes = self.cells[first + c].1..self.cells[first + c + 1].1;
                    for shape in shapes {
                        self.score(shape as usize, &dist_of, k.is_some(), &gpu_dist, &mut best);
                    }
                },
            );
        });
        best.map(|(dist, entry, launch)| (dist, entry as usize, launch))
    }

    /// Scores every row of `shape` against the query, keeping the nearest
    /// (lowest entry on a tie) in `best`.
    fn score(
        &self,
        shape: usize,
        dist_of: &[f64],
        has_k: bool,
        gpu_dist: &[(f64, f64)],
        best: &mut Best,
    ) {
        let mut base = 0.0;
        for &p in &self.shape_dims[shape * self.rank..(shape + 1) * self.rank] {
            base += dist_of[p as usize];
        }
        let shape_k = self.shape_k[shape];
        if has_k && shape_k != NO_K {
            base += dist_of[shape_k as usize];
        }
        // The GPU terms are non-negative and rounding is monotone, so no
        // row of this shape can reach a smaller or equal distance.
        if exceeds(base, *best) {
            return;
        }
        for &(entry, slot, launch) in &self.rows[self.row_starts[shape]..self.row_starts[shape + 1]]
        {
            let (sm, l2) = gpu_dist[usize::from(slot)];
            let dist = base + sm + l2;
            if best.is_none_or(|(d, e, _)| dist < d || (dist == d && entry < e)) {
                *best = Some((dist, entry, launch));
            }
        }
    }

    /// Checks, in one pass, that this group as stored is the one
    /// [`TileGroup::build`] makes of its rows: every position lies on its
    /// axis, every run closes at its table's end, every shape sits in the
    /// bucket and cell its positions name, every value and GPU is used,
    /// and shapes, rows and GPUs are in canonical order. Only the shapes
    /// of a cell, and the GPUs, are sorted, to find repeats. Marks the
    /// group's entries in `seen`, refusing one out of range or seen
    /// before, and lowers `launch_first[l]` to the first entry naming
    /// launch `l`. Returns the group's first entry.
    fn check(&self, seen: &mut [bool], launch_first: &mut [u32]) -> Result<u32, String> {
        let (rank, starts, values) = (self.rank, &self.starts, &self.values);
        if rank as u64 > MAX_RANK {
            return Err(format!("output rank {rank} exceeds {MAX_RANK}"));
        }
        if self.gpus.len() > MAX_IDS {
            return Err(format!("more than {MAX_IDS} distinct GPUs in a group"));
        }
        if starts.len() != rank + 2 || !splits(starts, values.len(), false) {
            return Err(format!(
                "axis starts {starts:?} do not split {} values into {} axes",
                values.len(),
                rank + 1
            ));
        }
        let axis = |a: usize| starts[a]..starts[a + 1];
        if let Some(a) = (0..=rank).find(|&a| values[axis(a)].windows(2).any(|w| w[0] >= w[1])) {
            return Err(format!("axis {a}'s values are not strictly ascending"));
        }
        if self.split != split_axes(starts) {
            return Err(format!(
                "split axes {:?} are not the two with the most values",
                self.split
            ));
        }
        let shapes = self.shape_k.len();
        let cells = self.cells.len().saturating_sub(1);
        let outer_values = self.split.first().map_or(1, |&a| axis(a).len());
        if shapes == 0 {
            return Err("the group holds no shape".into());
        }
        if self.outer_starts.len() != outer_values + 1 || !splits(&self.outer_starts, cells, true) {
            return Err("outer buckets do not split the cells".into());
        }
        let last = self.cells.last().map(|&(p, s)| (p, s as usize));
        if self.cells.first().map(|c| c.1) != Some(0)
            || last != Some((NO_K, shapes))
            || self.cells.windows(2).any(|w| w[0].1 >= w[1].1)
        {
            return Err("cells do not split the shapes".into());
        }
        if self.shape_dims.len() != rank * shapes
            || self.row_starts.len() != shapes + 1
            || !splits(&self.row_starts, self.rows.len(), true)
        {
            return Err("shapes do not split the rows".into());
        }

        let mut used = vec![false; values.len()];
        let mut gpu_first = vec![u32::MAX; self.gpus.len()];
        let mut first = u32::MAX;
        let mut keys: Vec<(&[u32], u32)> = Vec::new();
        let (outer_axis, inner_axis) = (self.split.first(), self.split.get(1));
        for i in 0..outer_values {
            let mut last_inner = None;
            for c in self.outer_starts[i]..self.outer_starts[i + 1] {
                let (inner, from) = self.cells[c];
                let placed =
                    inner_axis.map_or(inner == NO_K, |&a| axis(a).contains(&(inner as usize)));
                if !placed || last_inner.is_some_and(|l| inner <= l) {
                    return Err(format!("cell {c} is out of place in outer bucket {i}"));
                }
                last_inner = Some(inner);
                keys.clear();
                let mut prev_first = None;
                for s in from as usize..self.cells[c + 1].1 as usize {
                    let dims = &self.shape_dims[s * rank..(s + 1) * rank];
                    let k = self.shape_k[s];
                    let on_axes = (dims.iter().enumerate())
                        .all(|(a, &p)| axis(a).contains(&(p as usize)))
                        && (k == NO_K || axis(rank).contains(&(k as usize)));
                    let in_cell = outer_axis.is_none_or(|&a| dims[a] as usize == starts[a] + i)
                        && inner_axis.is_none_or(|&a| dims[a] == inner);
                    if !on_axes || !in_cell {
                        return Err(format!("shape {s} lies off its axes or outside cell {c}"));
                    }
                    for &p in dims.iter().chain((k != NO_K).then_some(&k)) {
                        used[p as usize] = true;
                    }
                    let rows = &self.rows[self.row_starts[s]..self.row_starts[s + 1]];
                    if prev_first.is_some_and(|f| rows[0].0 <= f) {
                        return Err(format!(
                            "shapes of cell {c} are not in order of first entry"
                        ));
                    }
                    prev_first = Some(rows[0].0);
                    keys.push((dims, k));
                    if rows.windows(2).any(|w| w[0].0 >= w[1].0) {
                        return Err(format!("rows of shape {s} are not in entry order"));
                    }
                    first = first.min(rows[0].0);
                    for &(entry, slot, launch) in rows {
                        match seen.get_mut(entry as usize) {
                            Some(seen @ false) => *seen = true,
                            _ => return Err(format!("entry {entry} is out of range or repeated")),
                        }
                        let gpu = gpu_first.get_mut(usize::from(slot));
                        let (Some(gpu), Some(l)) = (gpu, launch_first.get_mut(usize::from(launch)))
                        else {
                            return Err(format!(
                                "entry {entry} names GPU slot {slot} or launch {launch}, \
                                 out of range"
                            ));
                        };
                        *gpu = (*gpu).min(entry);
                        *l = (*l).min(entry);
                    }
                }
                if !distinct(&mut keys) {
                    return Err(format!("cell {c} holds a shape twice"));
                }
            }
        }
        if let Some(p) = used.iter().position(|&u| !u) {
            return Err(format!("no shape uses value {p}"));
        }
        let mut gpus: Vec<_> = (self.gpus.iter())
            .map(|&(sms, l2)| (sms, l2.to_bits()))
            .collect();
        if !first_appearance(&gpu_first)
            || !distinct(&mut gpus)
            || self.gpus.iter().any(|&(_, l2)| !l2.is_finite())
        {
            return Err(
                "GPUs are not distinct, finite, each used, in order of first appearance".into(),
            );
        }
        Ok(first)
    }
}

/// The output axes shapes are bucketed on: of the axes whose values
/// start at `starts` (the GEMM depths last), the two with the most
/// distinct values, most first, the lower axis first on a tie.
fn split_axes(starts: &[usize]) -> Vec<usize> {
    let mut split: Vec<usize> = (0..starts.len() - 2).collect();
    split.sort_by_key(|&a| std::cmp::Reverse(starts[a + 1] - starts[a]));
    split.truncate(2);
    split
}

/// Whether `starts` runs from 0 to `total` without falling; `strict`
/// also refuses an empty run.
fn splits(starts: &[usize], total: usize, strict: bool) -> bool {
    starts.first() == Some(&0)
        && starts.last() == Some(&total)
        && (starts.windows(2)).all(|w| w[0] < w[1] || (!strict && w[0] == w[1]))
}

/// Whether no two of `items` are equal.
fn distinct<T: Ord>(items: &mut [T]) -> bool {
    items.sort_unstable();
    items.windows(2).all(|w| w[0] != w[1])
}

/// Whether ids were numbered in order of first appearance, given the
/// first entry naming each (`u32::MAX` for none): every id is named, and
/// an id's first entry comes after the one before it.
fn first_appearance(first: &[u32]) -> bool {
    first.last().is_none_or(|&f| f != u32::MAX) && first.windows(2).all(|w| w[0] < w[1])
}

/// The nearest row so far: `(distance, entry index, launch)`.
type Best = Option<(f64, u32, u16)>;

/// Whether a lower bound rules out beating or tying `best`.
fn exceeds(bound: f64, best: Best) -> bool {
    best.is_some_and(|(d, _, _)| bound > d)
}

/// Calls `visit` on each of `0..len` once, nearest first: walking out
/// from `split` (the first index at or above the query), it takes
/// whichever neighbour has the smaller `bound`.
fn nearest_first(
    len: usize,
    split: usize,
    bound: impl Fn(usize) -> f64,
    mut visit: impl FnMut(usize),
) {
    let (mut left, mut right) = (split, split);
    while left > 0 || right < len {
        if right == len || (left > 0 && bound(left - 1) <= bound(right)) {
            left -= 1;
            visit(left);
        } else {
            visit(right);
            right += 1;
        }
    }
}

impl TileDatabase {
    /// Builds the database from profiled kernel records.
    #[must_use]
    pub fn from_records(dataset: &KernelDataset) -> TileDatabase {
        TileDatabase::from_entries(&rows_of(dataset)).expect("profiled launches fit the index")
    }

    /// A database of `entries`, in order. A row the index cannot hold is
    /// refused: an output rank above [`MAX_RANK`], a tile with an empty
    /// or zero extent, an L2 size that is not finite, or more than
    /// [`MAX_IDS`] distinct launches, or distinct GPUs in one group.
    pub(crate) fn from_entries(entries: &[TileEntry]) -> Result<TileDatabase, String> {
        let (mut launch_ids, mut launches) = (HashMap::new(), Vec::new());
        let mut launch_of = Vec::with_capacity(entries.len());
        let mut members: Vec<((OpClass, usize), Vec<u32>)> = Vec::new();
        for (row, e) in entries.iter().enumerate() {
            let rank = e.output_dims.len();
            if rank as u64 > MAX_RANK {
                return Err(format!("output rank {rank} exceeds {MAX_RANK}"));
            }
            check_tile(e.tile.dims()).map_err(|err| format!("tile row {row}: {err}"))?;
            if !e.l2_bytes.is_finite() {
                return Err(format!(
                    "tile row {row}: L2 size {} is not finite",
                    e.l2_bytes
                ));
            }
            let launch = *launch_ids.entry((&e.tile, e.split_k)).or_insert_with(|| {
                launches.push((e.tile.clone(), e.split_k));
                launches.len() - 1
            });
            if launch == MAX_IDS {
                return Err(format!("more than {MAX_IDS} distinct launches"));
            }
            launch_of.push(launch as u16);
            match members.iter_mut().find(|(key, _)| *key == (e.class, rank)) {
                Some((_, rows)) => rows.push(pos(row)),
                None => members.push(((e.class, rank), vec![pos(row)])),
            }
        }
        let groups = (members.iter())
            .map(|(key, rows)| TileGroup::build(*key, entries, rows, &launch_of))
            .collect::<Result<_, _>>()?;
        Ok(TileDatabase { groups, launches })
    }

    /// The database whose index is `groups` over `launches`, as stored,
    /// holding `rows` rows. It is refused unless it is exactly the index
    /// [`TileDatabase::from_entries`] builds of its own entries: the
    /// entry indices form a permutation of `0..rows`, and groups and
    /// launches are distinct and in order of first appearance (see
    /// [`TileGroup::check`] for the rest).
    pub(crate) fn from_index(
        rows: usize,
        groups: Vec<TileGroup>,
        launches: Vec<(TileShape, u64)>,
    ) -> Result<TileDatabase, String> {
        if launches.len() > MAX_IDS {
            return Err(format!("more than {MAX_IDS} distinct launches"));
        }
        let mut seen = vec![false; rows];
        let mut launch_first = vec![u32::MAX; launches.len()];
        let mut last_first = None;
        for (i, g) in groups.iter().enumerate() {
            // The groups before this one are distinct, so there are no
            // more of them than family and rank pairs.
            if groups[..i]
                .iter()
                .any(|h| (h.class, h.rank) == (g.class, g.rank))
            {
                let (class, rank) = (g.class.name(), g.rank);
                return Err(format!("group {i} repeats family {class} of rank {rank}"));
            }
            let first =
                (g.check(&mut seen, &mut launch_first)).map_err(|e| format!("group {i}: {e}"))?;
            if last_first.is_some_and(|f| first <= f) {
                return Err("groups are not in order of first appearance".into());
            }
            last_first = Some(first);
        }
        if let Some(entry) = seen.iter().position(|&s| !s) {
            return Err(format!("no row holds entry {entry}"));
        }
        let mut keys: Vec<_> = (launches.iter())
            .map(|(tile, k)| (tile.dims(), *k))
            .collect();
        if !first_appearance(&launch_first) || !distinct(&mut keys) {
            return Err(
                "launches are not distinct, each used, in order of first appearance".into(),
            );
        }
        Ok(TileDatabase { groups, launches })
    }

    /// The rows, in recorded order, one [`TileEntry`] each.
    #[must_use]
    pub(crate) fn entries(&self) -> Vec<TileEntry> {
        let mut entries = vec![None; self.len()];
        for g in &self.groups {
            for (shape, &k) in g.shape_k.iter().enumerate() {
                let at = &g.shape_dims[shape * g.rank..(shape + 1) * g.rank];
                let output_dims: Vec<u64> = at.iter().map(|&p| g.values[p as usize]).collect();
                let gemm_k = (k != NO_K).then(|| g.values[k as usize]);
                for &(entry, slot, launch) in &g.rows[g.row_starts[shape]..g.row_starts[shape + 1]]
                {
                    let (num_sms, l2_bytes) = g.gpus[usize::from(slot)];
                    let (tile, split_k) = self.launches[usize::from(launch)].clone();
                    entries[entry as usize] = Some(TileEntry {
                        class: g.class,
                        output_dims: output_dims.clone(),
                        gemm_k,
                        num_sms,
                        l2_bytes,
                        tile,
                        split_k,
                    });
                }
            }
        }
        entries
            .into_iter()
            .map(|e| e.expect("every entry index names one row"))
            .collect()
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.groups.iter().map(|g| g.rows.len()).sum()
    }

    /// Whether the database is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(distance, entry index, launch)` of the closest row of `class`
    /// and rank `dims.len()`, by log-space distance over output dims,
    /// GEMM depth `k`, SM count and L2 size.
    fn nearest(
        &self,
        class: OpClass,
        dims: &[u64],
        k: Option<u64>,
        spec: &GpuSpec,
    ) -> Option<(f64, usize, &(TileShape, u64))> {
        let group = self
            .groups
            .iter()
            .find(|g| (g.class, g.rank) == (class, dims.len()))?;
        let (dist, entry, launch) = group.nearest(dims, k, spec)?;
        Some((dist, entry, &self.launches[usize::from(launch)]))
    }

    /// Finds the tile of the closest recorded kernel (log-space distance
    /// over output dims, GEMM depth, SM count and L2 size), clamped to the
    /// query's output. Returns `None` when no same-family, same-rank entry
    /// exists.
    #[must_use]
    pub fn lookup(&self, op: &OpDesc, spec: &GpuSpec) -> Option<TileShape> {
        let dims = op.output_dims();
        let (_, _, (tile, _)) = self.nearest(op.op_class(), &dims, gemm_k_of(op), spec)?;
        Some(TileShape::clamp(tile.dims(), &dims))
    }

    /// Like [`TileDatabase::lookup`] but also returns the nearest entry's
    /// split-K factor (1 when falling back to the family default).
    #[must_use]
    pub fn launch_for(&self, op: &OpDesc, spec: &GpuSpec) -> (TileShape, u64) {
        let dims = op.output_dims();
        match self.nearest(op.op_class(), &dims, gemm_k_of(op), spec) {
            Some((_, _, (tile, split_k))) => {
                (TileShape::clamp(tile.dims(), &dims), (*split_k).max(1))
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
        entries: &[TileEntry],
        class: OpClass,
        dims: &[u64],
        k: Option<u64>,
        spec: &GpuSpec,
    ) -> Option<(f64, usize)> {
        let mut best: Option<(f64, usize)> = None;
        for (i, row) in entries.iter().enumerate() {
            if row.class != class || row.output_dims.len() != dims.len() {
                continue;
            }
            let mut dist = 0.0;
            for (&a, &b) in dims.iter().zip(&row.output_dims) {
                dist += log_dist(a as f64, b as f64);
            }
            if let (Some(ka), Some(kb)) = (k, row.gemm_k) {
                dist += log_dist(ka as f64, kb as f64);
            }
            dist += log_dist(f64::from(spec.num_sms()), f64::from(row.num_sms));
            dist += log_dist(spec.l2_bytes(), row.l2_bytes);
            if best.as_ref().is_none_or(|(bd, _)| dist < *bd) {
                best = Some((dist, i));
            }
        }
        best
    }

    /// Asserts the index picks the scan's row at a bitwise-equal distance.
    /// `entries` are the database's.
    pub(crate) fn assert_row_matches_scan(
        db: &TileDatabase,
        entries: &[TileEntry],
        class: OpClass,
        dims: &[u64],
        k: Option<u64>,
        spec: &GpuSpec,
    ) -> Option<(f64, usize)> {
        let got = db.nearest(class, dims, k, spec);
        let want = brute_force(entries, class, dims, k, spec);
        assert_eq!(
            got.map(|(d, i, _)| (d.to_bits(), i)),
            want.map(|(d, i)| (d.to_bits(), i)),
            "{class:?} {dims:?} k={k:?} on {}",
            spec.name()
        );
        want
    }

    /// Asserts every public query agrees with the scan for `op`.
    /// `entries` are the database's.
    fn assert_matches_scan(db: &TileDatabase, entries: &[TileEntry], op: &OpDesc, spec: &GpuSpec) {
        let dims = op.output_dims();
        let (class, k) = (op.op_class(), gemm_k_of(op));
        let want = match assert_row_matches_scan(db, entries, class, &dims, k, spec) {
            Some((_, i)) => (entries[i].tile.clamped_to(&dims), entries[i].split_k.max(1)),
            None => (TileDatabase::default_tile(op), 1),
        };
        assert_eq!(db.launch_for(op, spec), want, "{op} on {}", spec.name());
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

    /// The full sweep's launches profiled on the five training GPUs, as
    /// `collect_training_set` records them.
    pub(crate) static STANDARD_RECORDS: LazyLock<KernelDataset> = LazyLock::new(|| {
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
        KernelDataset::new(records)
    });

    /// The standard-scale database, built from [`STANDARD_RECORDS`].
    pub(crate) static STANDARD_DB: LazyLock<TileDatabase> =
        LazyLock::new(|| TileDatabase::from_records(&STANDARD_RECORDS));

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
        let tile = db.launch_for(&op, &v100).0;
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
        assert_eq!(db.launch_for(&op, &v100).0, TileDatabase::default_tile(&op));
        // So does a family the database has no rows of.
        let embedding = OpDesc::embedding(128, 128, 1000);
        for (db, op) in [(&db, &op), (&db, &embedding), (&*TINY_DB, &embedding)] {
            assert_eq!(db.lookup(op, &v100), None);
            assert_eq!(
                db.launch_for(op, &v100),
                (TileDatabase::default_tile(op), 1)
            );
            assert_matches_scan(db, &db.entries(), op, &v100);
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
        let json = serde_json::to_string(&db).unwrap();
        let persisted = PersistedDatabase {
            entries: db.entries(),
        };
        assert_eq!(json, serde_json::to_string(&persisted).unwrap());
        let back: TileDatabase = serde_json::from_str(&json).unwrap();
        assert_eq!(db, back);

        let v100 = catalog::gpu("V100").unwrap();
        for op in table4_kernels().iter().take(40) {
            assert_eq!(back.launch_for(op, &v100), db.launch_for(op, &v100));
        }
    }

    /// The columns serialize to exactly the JSON of the entry list, which
    /// is what `model_fingerprint` hashes, and read back to the same
    /// columns.
    #[test]
    fn columns_serialize_to_the_entry_list_json() {
        let ds = neusight_data::collect_training_set(
            &neusight_data::training_gpus(),
            neusight_data::SweepScale::Tiny,
            DType::F32,
        );
        let entries = rows_of(&ds);
        let db = TileDatabase::from_records(&ds);
        assert_eq!(db.len(), entries.len());
        assert_eq!(db.entries(), entries);
        let json = serde_json::to_string(&db).unwrap();
        assert_eq!(
            json,
            serde_json::to_string(&PersistedDatabase { entries }).unwrap()
        );
        let back: TileDatabase = serde_json::from_str(&json).unwrap();
        assert_eq!(back, db);
        // A row without a split-K still defaults to 1.
        let legacy = json.replace(",\"split_k\":1}", "}");
        assert_ne!(legacy, json);
        assert_eq!(serde_json::from_str::<TileDatabase>(&legacy).unwrap(), db);
        // A tile with a zero extent is refused, as the binary decoder
        // refuses it.
        let zero = json.replacen("\"tile\":[", "\"tile\":[0,", 1);
        let err = serde_json::from_str::<TileDatabase>(&zero).unwrap_err();
        assert!(err.to_string().contains("tile row 0"), "{err}");
    }

    /// Every distinct kernel of the Table 4 zoo at batch 1–16: inference,
    /// fused inference and training graphs.
    fn zoo_kernels() -> Vec<OpDesc> {
        let mut seen = HashSet::new();
        let mut ops = Vec::new();
        for model in neusight_graph::config::table4() {
            for batch in 1..=16 {
                let inference = neusight_graph::inference_graph(&model, batch);
                let fused = neusight_graph::fuse_graph(&inference);
                let training = neusight_graph::training_graph(&model, batch);
                for graph in [&inference, &fused, &training] {
                    for op in graph.kernels() {
                        if seen.insert(op.clone()) {
                            ops.push(op.clone());
                        }
                    }
                }
            }
        }
        ops
    }

    /// The pruned search against the scan it replaces, on the standard
    /// database, for every zoo kernel on every catalog GPU (including
    /// the three held out of training).
    #[test]
    fn index_matches_scan_on_standard_database_for_table4_kernels() {
        let db = &*STANDARD_DB;
        let entries = db.entries();
        let ops = zoo_kernels();
        assert!(ops.iter().any(|op| matches!(op, OpDesc::Fused(_))));
        assert!(table4_kernels().iter().all(|op| ops.contains(op)));
        let gpus = all_gpus();
        assert_eq!(gpus.len(), 8);
        for spec in &gpus {
            for op in &ops {
                assert_matches_scan(db, &entries, op, spec);
            }
        }
    }

    /// The built index is the canonical one that a stored index is
    /// checked against.
    #[test]
    fn built_index_passes_the_stored_index_checks() {
        let db = &*STANDARD_DB;
        assert!(db.groups.len() > 1);
        let back = TileDatabase::from_index(db.len(), db.groups.clone(), db.launches.clone());
        assert_eq!(back.as_ref(), Ok(db));
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
            assert_matches_scan(&TINY_DB, &TINY_DB.entries(), &op, &spec);
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
            let db = db_of(rows.clone());
            let spec = &all_gpus()[gpu];
            for class in [OpClass::Bmm, OpClass::FullyConnected] {
                assert_row_matches_scan(&db, &rows, class, &dims, k, spec);
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

    pub(crate) fn synthetic_row() -> impl Strategy<Value = TileEntry> {
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
        TileDatabase::from_entries(&entries).expect("the index holds these rows")
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
        assert_matches_scan(&db, &db.entries(), &op, &a100);
        assert_eq!(
            db.nearest(OpClass::Elementwise, &[100], None, &a100)
                .unwrap()
                .1,
            1
        );
        assert_eq!(db.launch_for(&op, &a100).0, TileShape::new(vec![2]));

        // Identical rows: the first one recorded wins.
        let db = db_of(vec![
            row(vec![400], None, here, 7),
            row(vec![100], None, here, 5),
            row(vec![100], None, here, 6),
        ]);
        assert_matches_scan(&db, &db.entries(), &op, &a100);
        assert_eq!(db.launch_for(&op, &a100).0, TileShape::new(vec![5]));
    }

    /// An exact three-way tie across buckets: the pruned search meets
    /// the lowest row last, in the bucket it visits third, and must still
    /// visit that bucket, whose bound equals the best distance.
    #[test]
    fn ties_across_buckets_go_to_the_first_recorded_row() {
        let a100 = catalog::gpu("A100-40GB").unwrap();
        let here = (a100.num_sms(), a100.l2_bytes());
        let ln2_sq = log_dist(100.0, 50.0);
        assert_eq!(ln2_sq, log_dist(100.0, 200.0));
        let db = db_of(vec![
            row(vec![100, 800], None, here, 1),
            row(vec![200, 100], None, here, 2),
            row(vec![50, 100], None, here, 3),
            row(vec![100, 50], None, here, 4),
        ]);
        let query = [100, 100];
        // Both axes have three values, so axis 0 is the outer one. The
        // search visits its value 100 (row 3), then 50 (row 2), then 200
        // (row 1); all three rows lie ln²2 away.
        assert_row_matches_scan(
            &db,
            &db.entries(),
            OpClass::Elementwise,
            &query,
            None,
            &a100,
        );
        let nearest = db.nearest(OpClass::Elementwise, &query, None, &a100);
        assert_eq!(nearest.map(|(d, i, _)| (d, i)), Some((ln2_sq, 1)));
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
                assert_row_matches_scan(&db, &db.entries(), OpClass::Elementwise, &dims, k, &a100);
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
        let rebuilt = db_of(db.entries());
        assert_eq!(db, rebuilt);
        let copy = db.clone();
        assert_eq!(copy, db);
        let h100 = catalog::gpu("H100").unwrap();
        for op in table4_kernels().iter().take(40) {
            assert_eq!(copy.plan_launch(op, &h100), db.plan_launch(op, &h100));
            assert_eq!(rebuilt.plan_launch(op, &h100), db.plan_launch(op, &h100));
        }
        let mut fewer = db.entries();
        fewer.pop();
        assert_ne!(db_of(fewer), db);
    }
}
