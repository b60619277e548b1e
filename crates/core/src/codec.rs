//! The binary predictor artifact: a little-endian encoding of a trained
//! [`NeuSight`] that loads by copying bits instead of parsing text.
//!
//! [`NeuSight::save`] and [`Registry::publish`](crate::Registry::publish)
//! write these bytes as the payload of the checksummed
//! [`neusight_guard::envelope`]; readers choose the decoder from the
//! payload's leading tag. A payload without a tag is JSON, as every
//! artifact written before this layout was, and still loads through
//! serde.
//!
//! Model payload, version 2 (raw IEEE-754 bits for floats). The tile
//! section is the database's search index itself (see
//! [`crate::tiledb`]), every field fixed-width:
//!
//! ```text
//! tag       4 bytes  b"NSM2"
//! dtype     u8       element type used for traffic accounting
//! families  u64      then per family, in name order:
//!   class             u8
//!   validation_smape  f32
//!   scaler width      u64, then that many f32 means and f32 stds
//!   layers            u64, then per dense layer, input layer first:
//!     in, out         u64 each
//!     relu            u8 (0 or 1)
//!     weights         in × out f32, row-major
//!     biases          out f32
//! tile rows n u64
//! groups    u32, then per (family, rank) group, each table a u32 count
//! and its items:
//!   class             u8
//!   rank              u32
//!   values            u64 each: each output axis's distinct values
//!                     ascending, then the GEMM depths'
//!   starts            u32 each (rank + 2): where each axis's values start
//!   split             u32 each: the bucketed output axes
//!   outer_starts      u32 each: each outer bucket's first cell
//!   cells             (u32 position on the second split axis, u32
//!                     first shape) each, and a closing (u32::MAX, shapes)
//!   shape_dims        u32 each: rank value positions per shape
//!   shape_k           u32 each: the GEMM depth's position, or u32::MAX
//!   row_starts        u32 each: each shape's first row, and the row count
//!   rows              (u32 entry index, u16 GPU slot, u16 launch) each
//!   gpus              (u32 SM count, f64 L2 bytes) each
//! launches  u32, then per launch: tile rank u32, tile dims u64 each,
//!           split-K u64
//! ```
//!
//! The decoder only checks and copies: it does no hashing, sorting or
//! interning of rows. [`TileDatabase::from_index`] checks every invariant
//! the search relies on and that the index is in canonical order, so a
//! decoded database equals the one built from its rows, and encoding it
//! again writes the same bytes.
//!
//! Version 1 (`b"NSM1"`), written by earlier builds, still loads. Its
//! weights are laid out as above; its tile section is the rows as
//! columns, read into rows and indexed as [`TileDatabase::from_entries`]
//! does:
//!
//! ```text
//! tile rows n u64, then columns of n rows each:
//!   class             n × u8
//!   output rank       n × varint, then every row's output dims, varint
//!   has GEMM depth    n × u8 (0 or 1), then each present depth, varint
//!   SM count          n × varint
//!   L2 bytes          n × f64
//!   tile rank         n × varint, then every row's tile dims, varint
//!   split-K           n × varint
//! ```
//!
//! A varint is unsigned LEB128: seven bits per byte, low bits first, the
//! top bit set on every byte but the last. Any other version is refused
//! as an unsupported model payload version.
//!
//! A registry payload is `b"NSR1"`, the manifest's JSON length as `u64`,
//! the manifest JSON, then a model payload.
//!
//! The decoder trusts nothing: it checks every count against the bytes
//! that remain before allocating, checks that layer and scaler shapes fit
//! together, refuses what the index's narrowed ids cannot hold (more than
//! 2³² tile rows, 2¹⁶ distinct launches, or 2¹⁶ distinct GPUs in one
//! family and rank, or an output rank above 255), rejects trailing bytes,
//! and reports every failure as [`CoreError::Format`] without panicking.

use crate::error::{CoreError, Result};
use crate::framework::NeuSight;
use crate::predictor::KernelPredictor;
use crate::tiledb::{check_tile, TileDatabase, TileEntry, TileGroup};
use neusight_gpu::{DType, OpClass, TileShape};
use neusight_nn::{Matrix, Mlp, StandardScaler};
use std::collections::BTreeMap;

/// Leading tag of a binary model payload, as this build writes it.
pub const MODEL_TAG: [u8; 4] = *b"NSM2";

/// Leading tag of a version-1 model payload, which still loads.
const LEGACY_MODEL_TAG: [u8; 4] = *b"NSM1";

/// Leading tag of a binary registry payload (manifest + model).
pub const REGISTRY_TAG: [u8; 4] = *b"NSR1";

/// Whether `payload` is a binary model payload of any version: its tag
/// starts `NSM`. [`decode`] reads versions 1 and 2 and refuses others.
#[must_use]
pub fn is_model(payload: &[u8]) -> bool {
    payload.starts_with(&MODEL_TAG[..3])
}

/// Wire codes of [`OpClass`]: a class is stored as its index here.
const CLASSES: [OpClass; 6] = [
    OpClass::Bmm,
    OpClass::FullyConnected,
    OpClass::Elementwise,
    OpClass::Softmax,
    OpClass::LayerNorm,
    OpClass::MemoryBound,
];

/// Wire codes of [`DType`].
const DTYPES: [DType; 6] = [
    DType::F16,
    DType::BF16,
    DType::F32,
    DType::F64,
    DType::I32,
    DType::I64,
];

fn code_of<T: PartialEq>(table: &[T], value: &T) -> u8 {
    let i = table
        .iter()
        .position(|v| v == value)
        .expect("every variant has a wire code");
    u8::try_from(i).expect("wire tables are short")
}

fn format_error(what: impl Into<String>) -> CoreError {
    CoreError::Format(format!("binary predictor: {}", what.into()))
}

/// Appends little-endian fields to a buffer.
struct Writer(Vec<u8>);

impl Writer {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    /// An index-table position or count, as a `u32`.
    fn position(&mut self, v: usize) {
        self.u32(u32::try_from(v).expect("index tables hold fewer than 2^32 items"));
    }

    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn len(&mut self, n: usize) {
        self.u64(n as u64);
    }

    fn f32s(&mut self, values: &[f32]) {
        self.0.reserve(values.len() * 4);
        for v in values {
            self.0.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// A `u32` count, then each item, written by `item`.
    fn table<T>(&mut self, items: &[T], item: impl Fn(&mut Writer, &T)) {
        self.position(items.len());
        items.iter().for_each(|v| item(self, v));
    }
}

/// Reads little-endian fields from a byte slice, checking every length
/// against what remains.
struct Reader<'a> {
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        if n > self.bytes.len() {
            return Err(format_error(format!(
                "{what} needs {n} bytes, {} remain",
                self.bytes.len()
            )));
        }
        let (head, rest) = self.bytes.split_at(n);
        self.bytes = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N]> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N, what)?);
        Ok(out)
    }

    fn u8(&mut self, what: &str) -> Result<u8> {
        Ok(self.array::<1>(what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array(what)?))
    }

    fn u64(&mut self, what: &str) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array(what)?))
    }

    fn f32(&mut self, what: &str) -> Result<f32> {
        Ok(f32::from_le_bytes(self.array(what)?))
    }

    /// A `u64` count of items that take at least `min_item_bytes` each,
    /// rejected when the remaining bytes cannot hold that many.
    fn count(&mut self, min_item_bytes: usize, what: &str) -> Result<usize> {
        let n = self.u64(what)?;
        self.fits(n, min_item_bytes, what)
    }

    /// `n`, when the remaining bytes can hold that many items of at least
    /// `min_item_bytes` each.
    fn fits(&self, n: u64, min_item_bytes: usize, what: &str) -> Result<usize> {
        let fits = usize::try_from(n).ok().filter(|&n| {
            n.checked_mul(min_item_bytes)
                .is_some_and(|b| b <= self.bytes.len())
        });
        fits.ok_or_else(|| {
            format_error(format!(
                "{what} {n} does not fit in the {} bytes that remain",
                self.bytes.len()
            ))
        })
    }

    fn f32s(&mut self, n: usize, what: &str) -> Result<Vec<f32>> {
        let bytes = n
            .checked_mul(4)
            .ok_or_else(|| format_error(format!("{what}: {n} floats overflow")))?;
        Ok(self
            .take(bytes, what)?
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    /// A `u32` count, then that many `N`-byte items, each read by `item`.
    fn table<const N: usize, T>(
        &mut self,
        what: &str,
        item: impl Fn([u8; N]) -> T,
    ) -> Result<Vec<T>> {
        let n = self.u32(what)?;
        let n = self.fits(u64::from(n), N, what)?;
        let items = self.take(n * N, what)?.chunks_exact(N);
        Ok(items
            .map(|c| item(c.try_into().expect("N-byte chunks")))
            .collect())
    }

    /// One unsigned LEB128 varint: at most ten bytes and 64 bits.
    fn varint(&mut self, what: &str) -> Result<u64> {
        let mut v = 0u64;
        for (i, &byte) in self.bytes.iter().take(10).enumerate() {
            let bits = u64::from(byte & 0x7f);
            if i == 9 && bits > 1 {
                break;
            }
            v |= bits << (7 * i);
            if byte & 0x80 == 0 {
                self.bytes = &self.bytes[i + 1..];
                return Ok(v);
            }
        }
        Err(format_error(format!(
            "{what} runs past the bytes that remain or past 64 bits"
        )))
    }

    /// `n` varints. Each takes a byte or more, so a count the bytes
    /// cannot hold fails before it allocates much.
    fn varints(&mut self, n: u64, what: &str) -> Result<Vec<u64>> {
        (0..n).map(|_| self.varint(what)).collect()
    }
}

/// A 0-or-1 flag byte.
fn flag_of(code: u8, what: &str) -> Result<bool> {
    match code {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(format_error(format!("{what} is {code}, not 0 or 1"))),
    }
}

/// The family with wire code `code`.
fn class_of(code: u8, what: &str) -> Result<OpClass> {
    CLASSES
        .get(usize::from(code))
        .copied()
        .ok_or_else(|| format_error(format!("{what}: unknown family code {code}")))
}

/// Encodes a trained framework as a model payload.
#[must_use]
pub fn encode(ns: &NeuSight) -> Vec<u8> {
    let mut w = encode_weights(ns, MODEL_TAG);
    encode_index(&mut w, ns.tile_database());
    w.0
}

/// The tag, dtype and family predictors of a model payload.
fn encode_weights(ns: &NeuSight, tag: [u8; 4]) -> Writer {
    let mut w = Writer(tag.to_vec());
    w.u8(code_of(&DTYPES, &ns.dtype()));
    w.len(ns.predictors().len());
    for predictor in ns.predictors().values() {
        encode_predictor(&mut w, predictor);
    }
    w
}

fn encode_predictor(w: &mut Writer, predictor: &KernelPredictor) {
    w.u8(code_of(&CLASSES, &predictor.class()));
    w.f32s(&[predictor.validation_smape()]);
    let scaler = predictor.scaler();
    w.len(scaler.dim());
    w.f32s(scaler.means());
    w.f32s(scaler.stds());
    let layers = predictor.mlp().layers();
    w.len(layers.len());
    for (weight, bias, relu) in layers {
        w.len(weight.rows());
        w.len(weight.cols());
        w.u8(u8::from(relu));
        w.f32s(weight.as_slice());
        w.f32s(bias);
    }
}

/// The tile section of a version-2 payload: the index as it is held.
fn encode_index(w: &mut Writer, db: &TileDatabase) {
    w.len(db.len());
    w.position(db.groups.len());
    for g in &db.groups {
        w.u8(code_of(&CLASSES, &g.class));
        w.position(g.rank);
        w.table(&g.values, |w, &v| w.u64(v));
        w.table(&g.starts, |w, &p| w.position(p));
        w.table(&g.split, |w, &a| w.position(a));
        w.table(&g.outer_starts, |w, &c| w.position(c));
        w.table(&g.cells, |w, &(p, s)| {
            w.u32(p);
            w.u32(s);
        });
        w.table(&g.shape_dims, |w, &p| w.u32(p));
        w.table(&g.shape_k, |w, &p| w.u32(p));
        w.table(&g.row_starts, |w, &r| w.position(r));
        w.table(&g.rows, |w, &(entry, slot, launch)| {
            w.u32(entry);
            w.0.extend_from_slice(&slot.to_le_bytes());
            w.0.extend_from_slice(&launch.to_le_bytes());
        });
        w.table(&g.gpus, |w, &(sms, l2)| {
            w.u32(sms);
            w.u64(l2.to_bits());
        });
    }
    w.table(&db.launches, |w, (tile, split_k)| {
        w.table(tile.dims(), |w, &d| w.u64(d));
        w.u64(*split_k);
    });
}

/// Decodes an artifact payload into a framework: a binary model payload
/// when it starts with a model tag (see [`is_model`]), JSON otherwise.
///
/// # Errors
///
/// [`CoreError::Format`] for payloads that are neither a well-formed
/// model payload of version 1 or 2 nor a serialized framework.
pub fn decode(payload: &[u8]) -> Result<NeuSight> {
    if !is_model(payload) {
        let json = std::str::from_utf8(payload)
            .map_err(|e| CoreError::Format(format!("artifact payload is not UTF-8: {e}")))?;
        return serde_json::from_str(json).map_err(|e| CoreError::Format(e.to_string()));
    }
    let (tag, body) = payload.split_at(payload.len().min(MODEL_TAG.len()));
    let tiles = match <[u8; 4]>::try_from(tag) {
        Ok(MODEL_TAG) => decode_index,
        Ok(LEGACY_MODEL_TAG) => decode_columns,
        _ => {
            return Err(format_error(format!(
                "unsupported model payload version `{}`",
                tag.escape_ascii()
            )))
        }
    };
    let mut r = Reader { bytes: body };
    let code = r.u8("dtype")?;
    let dtype = DTYPES
        .get(usize::from(code))
        .copied()
        .ok_or_else(|| format_error(format!("unknown dtype code {code}")))?;
    let families = r.count(1, "family count")?;
    let mut predictors = BTreeMap::new();
    for _ in 0..families {
        let predictor = decode_predictor(&mut r)?;
        let name = predictor.class().name();
        if predictors.insert(name.to_owned(), predictor).is_some() {
            return Err(format_error(format!("family `{name}` appears twice")));
        }
    }
    let tiledb = tiles(&mut r)?;
    if !r.bytes.is_empty() {
        return Err(format_error(format!(
            "{} trailing bytes after the tile database",
            r.bytes.len()
        )));
    }
    Ok(NeuSight::from_parts(predictors, tiledb, dtype))
}

fn decode_predictor(r: &mut Reader<'_>) -> Result<KernelPredictor> {
    let class = class_of(r.u8("family")?, "family")?;
    let validation_smape = r.f32("validation SMAPE")?;
    let width = r.count(8, "scaler width")?;
    let means = r.f32s(width, "scaler means")?;
    let stds = r.f32s(width, "scaler stds")?;
    let scaler =
        StandardScaler::from_parts(means, stds).map_err(|e| format_error(e.to_string()))?;
    let depth = r.count(17, "layer count")?;
    let mut layers = Vec::with_capacity(depth);
    for _ in 0..depth {
        let inputs = r.count(4, "layer inputs")?;
        let outputs = r.count(4, "layer outputs")?;
        let relu = flag_of(r.u8("ReLU flag")?, "ReLU flag")?;
        let weights = inputs
            .checked_mul(outputs)
            .ok_or_else(|| format_error(format!("a {inputs}x{outputs} layer overflows")))?;
        let weight = Matrix::try_from_vec(inputs, outputs, r.f32s(weights, "weights")?)
            .map_err(|e| format_error(e.to_string()))?;
        let bias = r.f32s(outputs, "biases")?;
        layers.push((weight, bias, relu));
    }
    let mlp = Mlp::from_layers(layers).map_err(|e| format_error(e.to_string()))?;
    KernelPredictor::from_parts(class, mlp, scaler, validation_smape)
}

/// The tile row count that opens either version's tile section; each row
/// takes at least `min_row_bytes`.
fn row_count(r: &mut Reader<'_>, min_row_bytes: usize) -> Result<usize> {
    let rows = r.u64("tile row count")?;
    if rows > u64::from(u32::MAX) {
        return Err(format_error(format!("tile row count {rows} exceeds u32")));
    }
    r.fits(rows, min_row_bytes, "tile row count")
}

/// The tile section of a version-2 payload: the index, copied and
/// checked (see [`TileDatabase::from_index`]).
fn decode_index(r: &mut Reader<'_>) -> Result<TileDatabase> {
    fn positions(b: [u8; 4]) -> usize {
        u32::from_le_bytes(b) as usize
    }
    fn pair(b: [u8; 8]) -> (u32, u32) {
        let v = u64::from_le_bytes(b);
        (v as u32, (v >> 32) as u32)
    }
    let rows = row_count(r, 8)?;
    // A group takes at least a class byte, its rank and ten table counts.
    let groups = r.u32("group count")?;
    let mut groups = Vec::with_capacity(r.fits(u64::from(groups), 45, "group count")?);
    for _ in 0..groups.capacity() {
        groups.push(TileGroup {
            class: class_of(r.u8("tile family")?, "tile family")?,
            rank: r.u32("output rank")? as usize,
            values: r.table("axis values", u64::from_le_bytes)?,
            starts: r.table("axis starts", positions)?,
            split: r.table("split axes", positions)?,
            outer_starts: r.table("outer buckets", positions)?,
            cells: r.table("cells", pair)?,
            shape_dims: r.table("shape dims", u32::from_le_bytes)?,
            shape_k: r.table("shape depths", u32::from_le_bytes)?,
            row_starts: r.table("row starts", positions)?,
            rows: r.table("tile rows", |b: [u8; 8]| {
                let (entry, ids) = pair(b);
                (entry, ids as u16, (ids >> 16) as u16)
            })?,
            gpus: r.table("GPUs", |[a, b, c, d, l2 @ ..]: [u8; 12]| {
                (u32::from_le_bytes([a, b, c, d]), f64::from_le_bytes(l2))
            })?,
        });
    }
    // A launch takes at least its tile rank and its split-K.
    let launches = r.u32("launch count")?;
    let mut launches = Vec::with_capacity(r.fits(u64::from(launches), 12, "launch count")?);
    for l in 0..launches.capacity() {
        let tile = r.table("tile dims", u64::from_le_bytes)?;
        check_tile(&tile).map_err(|e| format_error(format!("launch {l}: {e}")))?;
        launches.push((TileShape::new(tile), r.u64("split-K")?));
    }
    TileDatabase::from_index(rows, groups, launches)
        .map_err(|e| format_error(format!("tile index: {e}")))
}

/// The tile section of a version-1 payload: the rows as columns, read
/// into rows and indexed.
fn decode_columns(r: &mut Reader<'_>) -> Result<TileDatabase> {
    // Each row takes at least 14 bytes: class, rank, has-k, SM count, L2
    // bytes, tile rank, split-K.
    let n = row_count(r, 14)?;
    let classes = r.take(n, "tile family")?;
    let ranks = r.varints(n as u64, "output rank")?;
    let dims: Vec<Vec<u64>> = (ranks.iter())
        .map(|&rank| r.varints(rank, "output dims"))
        .collect::<Result<_>>()?;
    let flags = r.take(n, "GEMM depth flag")?.iter();
    let depths = (flags.map(|&flag| flag_of(flag, "GEMM depth flag")))
        .map(|has| has?.then(|| r.varint("GEMM depths")).transpose())
        .collect::<Result<Vec<_>>>()?;
    let sms = r.varints(n as u64, "SM count")?;
    let l2 = r.take(8 * n, "L2 bytes")?.chunks_exact(8);
    let tile_ranks = r.varints(n as u64, "tile rank")?;
    let tiles: Vec<Vec<u64>> = (tile_ranks.iter())
        .map(|&rank| r.varints(rank, "tile dims"))
        .collect::<Result<_>>()?;
    let split_ks = r.varints(n as u64, "split-K")?;
    let columns = (classes.iter().zip(dims).zip(depths).zip(sms).zip(l2))
        .zip(tiles.into_iter().zip(split_ks));
    let mut entries = Vec::with_capacity(n);
    for (row, (((((&code, output_dims), gemm_k), sms), l2), (tile, split_k))) in columns.enumerate()
    {
        check_tile(&tile).map_err(|e| format_error(format!("tile row {row}: {e}")))?;
        entries.push(TileEntry {
            class: class_of(code, "tile family")?,
            output_dims,
            gemm_k,
            num_sms: u32::try_from(sms)
                .map_err(|_| format_error(format!("SM count {sms} exceeds u32")))?,
            l2_bytes: f64::from_le_bytes(l2.try_into().expect("8-byte chunks")),
            tile: TileShape::new(tile),
            split_k,
        });
    }
    TileDatabase::from_entries(&entries).map_err(format_error)
}

/// Encodes a registry payload: the manifest JSON, length-prefixed, ahead
/// of the model payload.
#[must_use]
pub(crate) fn encode_registry(manifest_json: &[u8], model: &NeuSight) -> Vec<u8> {
    let mut w = Writer(Vec::new());
    w.0.extend_from_slice(&REGISTRY_TAG);
    w.len(manifest_json.len());
    w.0.extend_from_slice(manifest_json);
    w.0.extend(encode(model));
    w.0
}

/// Splits a registry payload into its manifest JSON and its binary model
/// payload, of any version (see [`is_model`]).
///
/// # Errors
///
/// [`CoreError::Format`] when either tag is missing or the manifest
/// length runs past the payload.
pub(crate) fn split_registry(payload: &[u8]) -> Result<(&[u8], &[u8])> {
    let body = payload
        .strip_prefix(&REGISTRY_TAG)
        .ok_or_else(|| format_error("registry payload lacks its tag"))?;
    let mut r = Reader { bytes: body };
    let len = r.count(1, "manifest length")?;
    let manifest = r.take(len, "manifest")?;
    if !is_model(r.bytes) {
        return Err(format_error(
            "registry payload does not hold a binary model",
        ));
    }
    Ok((manifest, r.bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::NeuSightConfig;
    use crate::registry::model_fingerprint;
    use crate::tiledb::tests::{all_gpus, assert_row_matches_scan, synthetic_row};
    use crate::tiledb::tests::{table4_kernels, STANDARD_DB, STANDARD_RECORDS};
    use crate::tiledb::{MAX_IDS, MAX_RANK, NO_K};
    use neusight_data::{collect_training_set, training_gpus, SweepScale};
    use proptest::prelude::*;
    use std::path::PathBuf;
    use std::sync::OnceLock;

    fn trained() -> &'static NeuSight {
        static MODEL: OnceLock<NeuSight> = OnceLock::new();
        MODEL.get_or_init(|| {
            let ds = collect_training_set(&training_gpus(), SweepScale::Tiny, DType::F32);
            NeuSight::train(&ds, &NeuSightConfig::tiny()).expect("trainable")
        })
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("neusight-codec-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    impl Writer {
        fn varint(&mut self, mut v: u64) {
            while v >= 0x80 {
                self.0.push((v as u8) | 0x80);
                v >>= 7;
            }
            self.0.push(v as u8);
        }

        fn varints(&mut self, values: impl Iterator<Item = u64>) {
            values.for_each(|v| self.varint(v));
        }
    }

    /// The version-1 encoding of `ns`, as earlier builds wrote it.
    fn encode_v1(ns: &NeuSight) -> Vec<u8> {
        let mut w = encode_weights(ns, LEGACY_MODEL_TAG);
        encode_columns(&mut w, &ns.tile_database().entries());
        w.0
    }

    /// The version-1 tile section: the rows as columns.
    fn encode_columns(w: &mut Writer, rows: &[TileEntry]) {
        w.len(rows.len());
        w.0.extend(rows.iter().map(|row| code_of(&CLASSES, &row.class)));
        w.varints(rows.iter().map(|row| row.output_dims.len() as u64));
        w.varints(rows.iter().flat_map(|row| row.output_dims.iter().copied()));
        w.0.extend(rows.iter().map(|row| u8::from(row.gemm_k.is_some())));
        w.varints(rows.iter().filter_map(|row| row.gemm_k));
        w.varints(rows.iter().map(|row| u64::from(row.num_sms)));
        w.0.extend(rows.iter().flat_map(|row| row.l2_bytes.to_le_bytes()));
        w.varints(rows.iter().map(|row| row.tile.dims().len() as u64));
        w.varints(rows.iter().flat_map(|row| row.tile.dims().iter().copied()));
        w.varints(rows.iter().map(|row| row.split_k));
    }

    /// Asserts `back` forecasts every kernel of the Table 4 inference,
    /// fused and training graphs on every catalog GPU bit for bit as `ns`
    /// does, and fingerprints identically.
    fn assert_same_model(ns: &NeuSight, back: &NeuSight) {
        assert_eq!(
            model_fingerprint(back).unwrap(),
            model_fingerprint(ns).unwrap()
        );
        let gpus = all_gpus();
        assert_eq!(gpus.len(), 8);
        for spec in &gpus {
            for op in &table4_kernels() {
                let want = ns.predict_op_uncached(op, spec).unwrap();
                let got = back.predict_op_uncached(op, spec).unwrap();
                assert_eq!(got.to_bits(), want.to_bits(), "{op} on {}", spec.name());
            }
        }
    }

    #[test]
    fn save_load_keeps_the_fingerprint_and_every_table4_forecast() {
        let ns = trained();
        let path = scratch("binary.json");
        ns.save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let payload = neusight_guard::envelope::unwrap_envelope(&bytes).unwrap();
        assert!(payload.starts_with(&MODEL_TAG));
        assert_eq!(payload, encode(ns).as_slice());
        let back = NeuSight::load(&path).unwrap();
        assert!(back.tile_database().entries() == ns.tile_database().entries());
        assert_same_model(ns, &back);
        // Encoding is a pure function of the model.
        assert_eq!(encode(&back), encode(ns));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn json_payload_in_an_envelope_still_loads() {
        let ns = trained();
        let path = scratch("json-envelope.json");
        let json = serde_json::to_string(ns).unwrap();
        neusight_guard::envelope::write_artifact(&path, json.as_bytes()).unwrap();
        let back = NeuSight::load(&path).unwrap();
        assert_same_model(ns, &back);
        let _ = std::fs::remove_file(&path);
    }

    /// A version-1 payload written by an earlier build loads to the model
    /// its version-2 twin loads to: the standard database with the tiny
    /// model's predictors, the same fingerprint and Table 4 forecasts.
    #[test]
    fn legacy_and_current_payloads_decode_to_the_same_model() {
        let predictors = trained().predictors().clone();
        let ns = NeuSight::from_parts(predictors, STANDARD_DB.clone(), DType::F32);
        let legacy = decode(&encode_v1(&ns)).unwrap();
        let current = decode(&encode(&ns)).unwrap();
        assert!(*legacy.tile_database() == *STANDARD_DB);
        assert!(*current.tile_database() == *STANDARD_DB);
        assert_same_model(&legacy, &current);
        assert_same_model(&ns, &current);
        // A legacy model saves as version 2.
        assert_eq!(encode(&legacy), encode(&ns));
    }

    #[test]
    fn unknown_model_versions_are_refused_by_name() {
        let mut payload = encode(trained());
        for tag in [*b"NSM0", *b"NSM3", *b"NSM\xff"] {
            payload[..4].copy_from_slice(&tag);
            assert!(is_model(&payload));
            let msg = decode_err(&payload);
            let want = format!("unsupported model payload version `{}`", tag.escape_ascii());
            assert!(msg.contains(&want), "{msg}");
        }
        assert!(decode_err(b"NSM").contains("unsupported model payload version `NSM`"));
        // A registry holds a model of either version.
        for model in [encode(trained()), encode_v1(trained())] {
            let mut payload = REGISTRY_TAG.to_vec();
            payload.extend_from_slice(&2u64.to_le_bytes());
            payload.extend_from_slice(b"{}");
            payload.extend_from_slice(&model);
            assert_eq!(split_registry(&payload).unwrap(), (&b"{}"[..], &model[..]));
        }
    }

    /// Offset of the first family's layer count in a model payload.
    fn first_layer_count_offset(ns: &NeuSight) -> usize {
        let p = ns.predictors().values().next().unwrap();
        // tag, dtype, family count, class, SMAPE, scaler width, scaler.
        4 + 1 + 8 + 1 + 4 + 8 + 8 * p.scaler().dim()
    }

    fn decode_err(payload: &[u8]) -> String {
        match decode(payload) {
            Err(CoreError::Format(msg)) => msg,
            Err(other) => panic!("expected a format error, got {other}"),
            Ok(_) => panic!("a damaged payload decoded"),
        }
    }

    /// Bytes of the encoded tile section of `ns`.
    fn tile_section_len(ns: &NeuSight) -> usize {
        let mut w = Writer(Vec::new());
        encode_index(&mut w, ns.tile_database());
        w.0.len()
    }

    #[test]
    fn huge_length_fields_are_rejected_before_allocating() {
        let ns = trained();
        let good = encode(ns);
        let patch = |at: usize, bytes: &[u8]| {
            let mut bad = good.clone();
            bad[at..at + bytes.len()].copy_from_slice(bytes);
            bad
        };
        let layers = first_layer_count_offset(ns);
        for (at, what) in [
            (5, "family count"),
            (14 + 4, "scaler width"),
            (layers, "layer count"),
        ] {
            for v in [u64::MAX, u64::MAX / 4, good.len() as u64] {
                let msg = decode_err(&patch(at, &v.to_le_bytes()));
                assert!(msg.contains(what), "{what} = {v}: {msg}");
            }
        }
        // The first layer's input width, the tile row count, the group
        // count and the first group's value count.
        let msg = decode_err(&patch(layers + 8, &u64::MAX.to_le_bytes()));
        assert!(msg.contains("layer inputs"), "{msg}");
        let rows_at = good.len() - tile_section_len(ns);
        let msg = decode_err(&patch(rows_at, &(u64::from(u32::MAX)).to_le_bytes()));
        assert!(msg.contains("tile row count"), "{msg}");
        for (at, what) in [(rows_at + 8, "group count"), (rows_at + 17, "axis values")] {
            let msg = decode_err(&patch(at, &u32::MAX.to_le_bytes()));
            assert!(
                msg.contains(&format!("{what} 4294967295 does not fit")),
                "{msg}"
            );
        }
    }

    #[test]
    fn trailing_and_missing_bytes_are_rejected() {
        let ns = trained();
        let mut long = encode(ns);
        long.push(0);
        assert!(decode_err(&long).contains("trailing"));
        let good = encode(ns);
        for cut in [MODEL_TAG.len(), 5, 13, good.len() / 2, good.len() - 1] {
            decode_err(&good[..cut]);
        }
    }

    #[test]
    fn shapes_that_do_not_fit_are_rejected() {
        let ns = trained();
        let good = encode(ns);
        let layers = first_layer_count_offset(ns);
        // The first layer takes one input fewer than the scaler gives:
        // the bytes still line up, so only the shape check can object.
        let first = ns.predictors().values().next().unwrap().mlp();
        let (w, _, _) = first.layers().next().unwrap();
        let (rows, cols) = (w.rows(), w.cols());
        let mut bad = Vec::new();
        bad.extend_from_slice(&good[..layers + 8]);
        bad.extend_from_slice(&((rows - 1) as u64).to_le_bytes());
        bad.extend_from_slice(&good[layers + 16..layers + 25]);
        bad.extend_from_slice(&good[layers + 25 + 4 * cols..]);
        let msg = decode_err(&bad);
        assert!(msg.contains("expected"), "{msg}");
        // A ReLU flag that is neither 0 nor 1.
        let mut bad = good.clone();
        bad[layers + 24] = 2;
        assert!(decode_err(&bad).contains("ReLU flag"));
        // An unknown family code.
        let mut bad = good.clone();
        bad[13] = CLASSES.len() as u8;
        assert!(decode_err(&bad).contains("unknown family code"));
    }

    /// One FC row, observed on a GPU of `num_sms` SMs and 6 MB of L2 with
    /// `tile` on every axis.
    fn fc_row(output_dims: Vec<u64>, gemm_k: Option<u64>, num_sms: u32, tile: u64) -> TileEntry {
        TileEntry {
            class: OpClass::FullyConnected,
            tile: TileShape::new(vec![tile; output_dims.len()]),
            output_dims,
            gemm_k,
            num_sms,
            l2_bytes: 6e6,
            split_k: 1,
        }
    }

    /// `n` FC rows, row `i` observed on `gpu(i)` with tile `[tile(i)]`.
    fn fc_rows(n: u64, gpu: impl Fn(u64) -> u32, tile: impl Fn(u64) -> u64) -> Vec<TileEntry> {
        (0..n)
            .map(|i| fc_row(vec![64], Some(32), gpu(i), tile(i)))
            .collect()
    }

    /// A version-1 model payload with no families and the tile rows
    /// `rows`.
    fn rows_payload_v1(rows: &[TileEntry]) -> Vec<u8> {
        let mut w = Writer(LEGACY_MODEL_TAG.to_vec());
        w.u8(code_of(&DTYPES, &DType::F32));
        w.len(0);
        encode_columns(&mut w, rows);
        w.0
    }

    /// A model payload with no families and the tile database `db`, which
    /// need not be well formed.
    fn db_payload(db: &TileDatabase) -> Vec<u8> {
        let mut w = Writer(MODEL_TAG.to_vec());
        w.u8(code_of(&DTYPES, &DType::F32));
        w.len(0);
        encode_index(&mut w, db);
        w.0
    }

    fn db_of(rows: &[TileEntry]) -> TileDatabase {
        TileDatabase::from_entries(rows).expect("the index holds these rows")
    }

    /// A tile with no extent, or a zero one, is refused in either
    /// version: as the row's tile in version 1, as a launch's in 2.
    #[test]
    fn empty_or_zero_tile_extents_are_rejected() {
        let row = fc_row(vec![64, 64], Some(32), 80, 32);
        let v1 = rows_payload_v1(std::slice::from_ref(&row));
        let ns = decode(&v1).unwrap();
        assert_eq!(ns.tile_database().entries(), std::slice::from_ref(&row));
        // The last row's tile rank, then its dims and split-K, one byte each.
        let (rank_at, end) = (v1.len() - 4, v1.len());
        let empty = [&v1[..rank_at], &[0, 1][..]].concat();
        let zero = [&v1[..end - 2], &[0, 1][..]].concat();
        for bad in [empty, zero] {
            let msg = decode_err(&bad);
            assert!(
                msg.contains("tile row 0: ") && msg.contains("zero extent"),
                "{msg}"
            );
        }

        let v2 = db_payload(&db_of(&[row]));
        assert!(decode(&v2).is_ok());
        // The launch table closes the payload: tile rank, dims, split-K.
        let end = v2.len();
        let empty = [&v2[..end - 28], &0u32.to_le_bytes(), &v2[end - 8..]].concat();
        let mut zero = v2.clone();
        zero[end - 16..end - 8].fill(0);
        for bad in [empty, zero] {
            let msg = decode_err(&bad);
            assert!(
                msg.contains("launch 0: ") && msg.contains("zero extent"),
                "{msg}"
            );
        }
    }

    /// Values the index narrows are refused, at one past what the
    /// narrowed type holds, as format errors: in version 1 as the rows
    /// are indexed, in version 2 as the index is read.
    #[test]
    fn values_beyond_the_narrowed_types_are_refused() {
        let ids = MAX_IDS as u64;
        let sms = |i: u64| u32::try_from(i + 1).unwrap();
        let launches = fc_rows(ids, |_| 80, |i| i + 1);
        let gpus = fc_rows(ids, sms, |_| 8);
        // Launch ids are u16: 2^16 distinct launches fit, one more does not.
        assert!(decode(&rows_payload_v1(&launches)).is_ok());
        let msg = decode_err(&rows_payload_v1(&fc_rows(ids + 1, |_| 80, |i| i + 1)));
        assert!(msg.contains("distinct launches"), "{msg}");
        let mut db = db_of(&launches);
        assert!(decode(&db_payload(&db)).is_ok());
        db.launches.push((TileShape::new(vec![ids + 1]), 1));
        let msg = decode_err(&db_payload(&db));
        assert!(msg.contains("more than 65536 distinct launches"), "{msg}");
        // GPU slots are u16 per group.
        assert!(decode(&rows_payload_v1(&gpus)).is_ok());
        let msg = decode_err(&rows_payload_v1(&fc_rows(ids + 1, sms, |_| 8)));
        assert!(msg.contains("distinct GPUs"), "{msg}");
        let mut db = db_of(&gpus);
        assert!(decode(&db_payload(&db)).is_ok());
        db.groups[0].gpus.push((sms(ids), 6e6));
        let msg = decode_err(&db_payload(&db));
        assert!(msg.contains("more than 65536 distinct GPUs"), "{msg}");
        // Row indices are u32: the count is refused before the bytes it
        // would need are looked for. It sits after the tag, the dtype and
        // the family count in both versions.
        let one = [fc_row(vec![64], Some(32), 80, 8)];
        for mut payload in [rows_payload_v1(&one), db_payload(&db_of(&one))] {
            payload[13..21].copy_from_slice(&(1u64 << 32).to_le_bytes());
            let msg = decode_err(&payload);
            let want = "tile row count 4294967296 exceeds u32";
            assert!(msg.contains(want), "{msg}");
        }
        // An output rank beyond `MAX_RANK`.
        let mut row = fc_row(vec![64], Some(32), 80, 8);
        row.output_dims = vec![1; MAX_RANK as usize + 1];
        let msg = decode_err(&rows_payload_v1(&[row]));
        assert!(msg.contains("output rank 256 exceeds 255"), "{msg}");
        let mut db = db_of(&one);
        db.groups[0].rank = MAX_RANK as usize + 1;
        let msg = decode_err(&db_payload(&db));
        assert!(msg.contains("output rank 256 exceeds 255"), "{msg}");
    }

    /// The standard-sweep database reads back to the same rows in either
    /// version, and writes the same bytes again.
    #[test]
    fn standard_database_round_trips_byte_identically() {
        let entries = STANDARD_DB.entries();
        assert_eq!(entries, crate::tiledb::rows_of(&STANDARD_RECORDS));
        let payload = db_payload(&STANDARD_DB);
        let back = decode(&payload).unwrap();
        assert!(*back.tile_database() == *STANDARD_DB);
        assert!(back.tile_database().entries() == entries);
        assert_eq!(encode(&back), payload);
        let legacy = decode(&rows_payload_v1(&entries)).unwrap();
        assert_eq!(encode(&legacy), payload);
    }

    #[test]
    fn varints_round_trip_and_reject_overflow() {
        let values = [
            0,
            1,
            127,
            128,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX,
        ];
        let mut w = Writer(Vec::new());
        for &v in &values {
            w.varint(v);
        }
        let mut r = Reader { bytes: &w.0 };
        assert_eq!(r.varints(values.len() as u64, "v").unwrap(), values);
        assert!(r.bytes.is_empty());
        let too_long = [0xffu8; 11];
        assert!(Reader { bytes: &too_long }.varint("v").is_err());
        let mut past_64 = [0xffu8; 10];
        past_64[9] = 0x02;
        assert!(Reader { bytes: &past_64 }.varint("v").is_err());
    }

    /// Rows of two FC groups (ranks 2 and 3) and a softmax group over
    /// three GPUs and four launches. Rows 0 and 1 share a cell of the
    /// rank-2 group with different depths; rows 0 and 3 share a shape.
    fn broken_base() -> TileDatabase {
        let row = |dims: &[u64], k, sms, tile| fc_row(dims.to_vec(), k, sms, tile);
        let mut softmax = row(&[8, 1024], None, 80, 1);
        softmax.class = OpClass::Softmax;
        db_of(&[
            row(&[64, 64], Some(32), 80, 32),
            row(&[64, 64], Some(64), 108, 64),
            row(&[128, 64], Some(32), 80, 32),
            row(&[64, 64], Some(32), 108, 32),
            softmax,
            row(&[128, 256], None, 56, 64),
            row(&[2, 64, 64], Some(32), 80, 16),
        ])
    }

    /// A hand-broken index is refused, one case per invariant the search
    /// and `entries()` rely on or that keeps the index canonical.
    #[test]
    fn hand_broken_indices_are_refused() {
        type Edit = fn(&mut TileDatabase);
        let base = broken_base();
        let fc = &base.groups[0];
        assert_eq!(
            (fc.rank, fc.split.as_slice(), fc.values.len()),
            (2, &[0, 1][..], 6)
        );
        assert_eq!(fc.cells, [(2, 0), (2, 2), (3, 3), (NO_K, 4)]);
        assert_eq!(
            fc.rows.iter().map(|r| r.0).collect::<Vec<_>>(),
            [0, 3, 1, 2, 5]
        );
        assert!(decode(&db_payload(&base)).unwrap().tile_database() == &base);
        let cases: [(&str, Edit); 24] = [
            // Positions lie on their axes.
            ("shape 0 lies off its axes", |db| {
                db.groups[0].shape_dims[1] = 0
            }),
            ("shape 0 lies off its axes", |db| {
                db.groups[0].shape_k[0] = 0
            }),
            // Each axis's values strictly ascend.
            ("axis 0's values are not strictly ascending", |db| {
                db.groups[0].values.swap(0, 1);
            }),
            ("axis 2's values are not strictly ascending", |db| {
                db.groups[0].values[5] = 32;
            }),
            // Runs are monotone and close at their table's length.
            ("axis starts", |db| db.groups[0].starts[1] = 5),
            ("outer buckets do not split the cells", |db| {
                db.groups[0].outer_starts[1] = 3;
            }),
            ("cells do not split the shapes", |db| {
                db.groups[0].cells[3].1 = 5
            }),
            ("cells do not split the shapes", |db| {
                db.groups[0].cells[1].1 = 0
            }),
            ("shapes do not split the rows", |db| {
                db.groups[0].row_starts[1] = 0
            }),
            ("shapes do not split the rows", |db| {
                db.groups[0].row_starts[4] = 4
            }),
            // Each shape sits in the bucket and cell it names.
            ("shape 2 lies off its axes or outside cell 1", |db| {
                db.groups[0].shape_dims[4] = 0;
            }),
            ("shape 3 lies off its axes or outside cell 2", |db| {
                db.groups[0].shape_dims[7] = 2;
            }),
            ("cell 1 is out of place in outer bucket 1", |db| {
                db.groups[0].cells[1].0 = NO_K;
            }),
            // GPU slots and launch ids are in range.
            ("names GPU slot 3", |db| db.groups[0].rows[0].1 = 3),
            ("launch 4, out of range", |db| db.groups[0].rows[0].2 = 4),
            // The entries form a permutation of 0..n.
            ("entry 7 is out of range", |db| db.groups[2].rows[0].0 = 7),
            ("entry 0 is out of range or repeated", |db| {
                db.groups[1].rows[0].0 = 0
            }),
            // Canonical order: rows, shapes, groups, GPUs and launches.
            ("rows of shape 0 are not in entry order", |db| {
                db.groups[0].rows.swap(0, 1);
            }),
            ("shapes of cell 0 are not in order of first entry", |db| {
                db.groups[0].rows[0].0 = 1;
                db.groups[0].rows[2].0 = 0;
            }),
            ("groups are not in order of first appearance", |db| {
                db.groups.swap(1, 2);
            }),
            ("GPUs are not distinct", |db| {
                let g = &mut db.groups[0];
                g.gpus.swap(0, 1);
                g.rows
                    .iter_mut()
                    .for_each(|r| r.1 = [1, 0, 2][usize::from(r.1)]);
            }),
            ("launches are not distinct", |db| {
                db.launches.swap(0, 1);
                for g in &mut db.groups {
                    g.rows
                        .iter_mut()
                        .for_each(|r| r.2 = [1, 0, 2, 3][usize::from(r.2)]);
                }
            }),
            // The split axes are the canonical ones.
            ("split axes [1, 0]", |db| db.groups[0].split = vec![1, 0]),
            // Every value is used.
            ("no shape uses value 6", |db| {
                let g = &mut db.groups[0];
                g.values.push(9000);
                g.starts[3] += 1;
            }),
        ];
        for (want, edit) in cases {
            let mut db = base.clone();
            edit(&mut db);
            let msg = decode_err(&db_payload(&db));
            assert!(
                msg.contains("tile index: ") && msg.contains(want),
                "{want}: {msg}"
            );
        }
        // Distinct groups, shapes, GPUs and launches: what the builder
        // would merge.
        let cases: [(&str, Edit); 6] = [
            ("group 2 repeats family fc of rank 2", |db| {
                db.groups[2].class = OpClass::FullyConnected;
                db.groups[2].rank = 2;
            }),
            ("cell 0 holds a shape twice", |db| {
                db.groups[0].shape_k[1] = 4
            }),
            ("GPUs are not distinct", |db| {
                db.groups[0].gpus[1] = db.groups[0].gpus[0]
            }),
            ("GPUs are not distinct, finite", |db| {
                db.groups[0].gpus[0].1 = f64::NAN
            }),
            ("launches are not distinct", |db| {
                db.launches[1] = db.launches[0].clone()
            }),
            ("group 0: the group holds no shape", |db| {
                let g = &mut db.groups[0];
                (g.values, g.starts, g.shape_k) = (vec![], vec![0; 4], vec![]);
            }),
        ];
        for (want, edit) in cases {
            let mut db = base.clone();
            edit(&mut db);
            let msg = decode_err(&db_payload(&db));
            assert!(
                msg.contains("tile index: ") && msg.contains(want),
                "{want}: {msg}"
            );
        }
        // A row count the rows do not fill.
        let mut payload = db_payload(&base);
        payload[13..21].copy_from_slice(&8u64.to_le_bytes());
        assert!(decode_err(&payload).contains("no row holds entry 7"));
    }

    /// The version-2 payload of the tiny model's database, and where its
    /// tile section starts.
    fn tiny_payload() -> &'static (Vec<u8>, usize) {
        static PAYLOAD: OnceLock<(Vec<u8>, usize)> = OnceLock::new();
        PAYLOAD.get_or_init(|| (db_payload(trained().tile_database()), 13))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Synthetic rows round-trip through version 2: the same
        /// database, the same bytes again, and queries that match the
        /// scan over the rows.
        #[test]
        fn synthetic_rows_round_trip_and_match_the_scan(
            rows in prop::collection::vec(synthetic_row(), 1..40),
            dims in prop::collection::vec(prop::sample::select(vec![1u64, 7, 16, 100, 4096]), 1..5),
            k in prop::sample::select(vec![None, Some(1u64), Some(64), Some(9000)]),
            gpu in 0usize..8,
        ) {
            let db = db_of(&rows);
            let payload = db_payload(&db);
            let back = decode(&payload).unwrap();
            prop_assert!(back.tile_database() == &db);
            prop_assert_eq!(encode(&back), payload);
            let spec = &all_gpus()[gpu];
            for class in [OpClass::Bmm, OpClass::FullyConnected] {
                assert_row_matches_scan(back.tile_database(), &rows, class, &dims, k, spec);
            }
        }

        /// A byte flipped in, or a cut through, the tile section is an
        /// error or decodes to the database its own rows build.
        #[test]
        fn damaged_tile_sections_fail_or_stay_canonical(
            at in 0.0f64..1.0,
            mask in 1u8..=255,
            cut in prop::sample::select(vec![false, true]),
        ) {
            let (good, start) = tiny_payload();
            let at = start + (at * (good.len() - start) as f64) as usize;
            let bad = if cut {
                good[..at].to_vec()
            } else {
                let mut bad = good.clone();
                bad[at] ^= mask;
                bad
            };
            match decode(&bad) {
                Ok(ns) => {
                    let db = ns.tile_database();
                    prop_assert!(!cut);
                    prop_assert!(*db == TileDatabase::from_entries(&db.entries()).unwrap());
                }
                Err(CoreError::Format(_)) => {}
                Err(other) => prop_assert!(false, "expected a format error, got {}", other),
            }
        }
    }

    #[test]
    fn registry_payload_splits_into_manifest_and_model() {
        let ns = trained();
        let payload = encode_registry(b"{\"m\":1}", ns);
        let (manifest, model) = split_registry(&payload).unwrap();
        assert_eq!(manifest, b"{\"m\":1}");
        assert_eq!(model, encode(ns).as_slice());
        let mut bad = payload.clone();
        bad[4..12].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(split_registry(&bad).is_err());
        assert!(split_registry(&payload[..payload.len() - model.len()]).is_err());
    }
}
