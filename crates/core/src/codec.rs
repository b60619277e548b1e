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
//! Model payload (`u64` counts, raw IEEE-754 bits for floats):
//!
//! ```text
//! tag       4 bytes  b"NSM1"
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
//! tile rows n u64, then the tile database as columns of n rows each:
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
//! top bit set on every byte but the last. Tile-database integers are
//! small, so the ~16.7k-row standard database takes a few hundred KB.
//! The decoder hands each value to the database's index as it reads it
//! (see [`crate::tiledb`]), so no column is held; the columns are written
//! back from the index in row order, the same bytes as were read.
//!
//! A registry payload is `b"NSR1"`, the manifest's JSON length as `u64`,
//! the manifest JSON, then a model payload.
//!
//! The decoder trusts nothing: it checks every count against the bytes
//! that remain before allocating, checks that layer and scaler shapes fit
//! together, refuses what the index's narrowed ids cannot hold (more than
//! 2³² tile rows, 2¹⁶ distinct launches, or 2¹⁶ distinct GPUs in one
//! family and rank), rejects trailing bytes, and reports every failure as
//! [`CoreError::Format`] without panicking.

use crate::error::{CoreError, Result};
use crate::framework::NeuSight;
use crate::predictor::KernelPredictor;
use crate::tiledb::{Builder, TileEntry};
use neusight_gpu::{DType, OpClass};
use neusight_nn::{Matrix, Mlp, StandardScaler};
use std::collections::BTreeMap;

/// Leading tag of a binary model payload.
pub const MODEL_TAG: [u8; 4] = *b"NSM1";

/// Leading tag of a binary registry payload (manifest + model).
pub const REGISTRY_TAG: [u8; 4] = *b"NSR1";

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

/// Reads little-endian fields from a byte slice, checking every length
/// against what remains.
#[derive(Clone, Copy)]
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

    /// One varint. A one-byte varint takes one comparison; a longer one
    /// up to eight bytes is read from one 8-byte window without a branch
    /// per byte.
    #[inline(always)]
    fn varint(&mut self, what: &str) -> Result<u64> {
        let rest = self.bytes;
        let (v, len) = match rest.first() {
            Some(&byte) if byte < 0x80 => (u64::from(byte), 1),
            _ => match rest.first_chunk().and_then(|&window| leb128_word(window)) {
                Some(read) => read,
                None => leb128(rest).ok_or_else(|| bad_varint(rest, what))?,
            },
        };
        self.bytes = &rest[len..];
        Ok(v)
    }

    /// A reader of the next `n` varints, past which this one moves: a
    /// column read alongside a later one. A varint ends at each byte
    /// below 0x80, so this only counts those; reading the column checks
    /// the values.
    fn varints(&mut self, n: usize, what: &str) -> Result<Reader<'a>> {
        let mut ends = (self.bytes.iter().enumerate()).filter(|&(_, &byte)| byte < 0x80);
        let len = n
            .checked_sub(1)
            .map_or(Some(0), |last| ends.nth(last).map(|(at, _)| at + 1));
        let len = len.ok_or_else(|| too_long(n as u64, what, self.bytes.len()))?;
        let (column, rest) = self.bytes.split_at(len);
        self.bytes = rest;
        Ok(Reader { bytes: column })
    }
}

/// The unsigned LEB128 varint at the start of `bytes`, and its length;
/// `None` when it runs past `bytes` or past 64 bits.
#[inline]
fn leb128(bytes: &[u8]) -> Option<(u64, usize)> {
    let mut v = 0u64;
    for (i, &byte) in bytes.iter().take(10).enumerate() {
        let bits = u64::from(byte & 0x7f);
        if i == 9 && bits > 1 {
            return None;
        }
        v |= bits << (7 * i);
        if byte & 0x80 == 0 {
            return Some((v, i + 1));
        }
    }
    None
}

/// The varint at the start of an 8-byte window, and its length, without
/// a branch per byte; `None` when it is longer than the window.
#[inline(always)]
fn leb128_word(window: [u8; 8]) -> Option<(u64, usize)> {
    let w = u64::from_le_bytes(window);
    // A clear top bit ends the varint: the lowest one marks its last byte.
    let stops = !w & 0x8080_8080_8080_8080;
    if stops == 0 {
        return None;
    }
    let len = (stops.trailing_zeros() as usize + 1) / 8;
    // Keep the varint's bytes, drop their top bits, and close the gaps:
    // pairs of 7-bit groups, then of 14, then of 28.
    let x = w & (stops ^ (stops - 1)) & 0x7f7f_7f7f_7f7f_7f7f;
    let x = (x & 0x007f_007f_007f_007f) | ((x & 0x7f00_7f00_7f00_7f00) >> 1);
    let x = (x & 0x0000_3fff_0000_3fff) | ((x & 0x3fff_0000_3fff_0000) >> 2);
    let x = (x & 0x0000_0000_0fff_ffff) | ((x & 0x0fff_ffff_0000_0000) >> 4);
    Some((x, len))
}

/// The failure of [`leb128`] on `rest`. Fewer than ten bytes cannot
/// overflow, so they ran out.
#[cold]
#[inline(never)]
fn bad_varint(rest: &[u8], what: &str) -> CoreError {
    if rest.len() < 10 {
        format_error(format!(
            "{what} runs past the {} bytes that remain",
            rest.len()
        ))
    } else {
        format_error(format!("{what} overflows 64 bits"))
    }
}

#[cold]
#[inline(never)]
fn too_long(n: u64, what: &str, remain: usize) -> CoreError {
    format_error(format!(
        "{n} {what} do not fit in the {remain} bytes that remain"
    ))
}

/// A 0-or-1 flag byte.
#[inline]
fn flag_of(code: u8, what: &str) -> Result<bool> {
    #[cold]
    #[inline(never)]
    fn not_a_flag(code: u8, what: &str) -> CoreError {
        format_error(format!("{what} is {code}, not 0 or 1"))
    }
    match code {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(not_a_flag(code, what)),
    }
}

/// The family with wire code `code`.
#[inline]
fn class_of(code: u8, what: &str) -> Result<OpClass> {
    #[cold]
    #[inline(never)]
    fn unknown(code: u8, what: &str) -> CoreError {
        format_error(format!("{what}: unknown family code {code}"))
    }
    CLASSES
        .get(usize::from(code))
        .copied()
        .ok_or_else(|| unknown(code, what))
}

/// Encodes a trained framework as a model payload.
#[must_use]
pub fn encode(ns: &NeuSight) -> Vec<u8> {
    let mut w = Writer(Vec::new());
    w.0.extend_from_slice(&MODEL_TAG);
    w.u8(code_of(&DTYPES, &ns.dtype()));
    w.len(ns.predictors().len());
    for predictor in ns.predictors().values() {
        encode_predictor(&mut w, predictor);
    }
    encode_tiledb(&mut w, &ns.tile_database().entries());
    w.0
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

fn encode_tiledb(w: &mut Writer, rows: &[TileEntry]) {
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

/// Decodes an artifact payload into a framework: a binary model payload
/// when it starts with [`MODEL_TAG`], JSON otherwise.
///
/// # Errors
///
/// [`CoreError::Format`] for payloads that are neither a well-formed
/// model payload nor a serialized framework.
pub fn decode(payload: &[u8]) -> Result<NeuSight> {
    decode_unindexed(payload).map(|index| index())
}

/// [`decode`] but for the tile index, which the returned closure builds
/// from what was read: the caller may free the payload first.
pub(crate) fn decode_unindexed(payload: &[u8]) -> Result<Box<dyn FnOnce() -> NeuSight>> {
    let Some(body) = payload.strip_prefix(&MODEL_TAG) else {
        let json = std::str::from_utf8(payload)
            .map_err(|e| CoreError::Format(format!("artifact payload is not UTF-8: {e}")))?;
        let ns = serde_json::from_str(json).map_err(|e| CoreError::Format(e.to_string()))?;
        return Ok(Box::new(move || ns));
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
    let tiledb = decode_tiledb(&mut r)?;
    if !r.bytes.is_empty() {
        return Err(format_error(format!(
            "{} trailing bytes after the tile database",
            r.bytes.len()
        )));
    }
    Ok(Box::new(move || {
        NeuSight::from_parts(predictors, tiledb.finish(), dtype)
    }))
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

fn decode_tiledb(r: &mut Reader<'_>) -> Result<Builder> {
    // Each row takes at least 14 bytes: class, rank, has-k, SM count, L2
    // bytes, tile rank, split-K. Each value goes to the index as it is
    // read; a column needed alongside a later one is read again.
    let rows = r.u64("tile row count")?;
    if rows > u64::from(u32::MAX) {
        return Err(exceeds_u32(rows, "tile row count"));
    }
    let n = r.fits(rows, 14, "tile row count")?;
    let mut b = Builder::default();
    let classes = r.take(n, "tile family")?;
    // Each output dim takes a byte or more: check before indexing a row.
    let mut dims = 0u64;
    for &code in classes {
        let rank = r.varint("output rank")?;
        dims = dims.saturating_add(rank);
        if dims > r.bytes.len() as u64 {
            return Err(too_long(dims, "output dims", r.bytes.len()));
        }
        b.row(class_of(code, "tile family")?, rank)
            .map_err(format_error)?;
    }
    b.rows_added();
    for row in 0..n {
        b.dims(row, std::iter::repeat_with(|| r.varint("output dims")))?;
    }
    for (row, &flag) in r.take(n, "GEMM depth flag")?.iter().enumerate() {
        if flag_of(flag, "GEMM depth flag")? {
            b.depth(row, r.varint("GEMM depths")?);
        }
    }
    let mut sms = r.varints(n, "SM count")?;
    for (row, l2) in r.take(8 * n, "L2 bytes")?.chunks_exact(8).enumerate() {
        let v = sms.varint("SM count")?;
        let num_sms = u32::try_from(v).map_err(|_| exceeds_u32(v, "SM count"))?;
        let l2_bytes = f64::from_le_bytes(l2.try_into().expect("8-byte chunks"));
        b.gpu(row, num_sms, l2_bytes).map_err(format_error)?;
    }
    let mut ranks = r.varints(n, "tile rank")?;
    let (mut count, mut dims) = (ranks, 0usize);
    for _ in 0..n {
        dims = dims.saturating_add(count.varint("tile rank")? as usize);
    }
    let mut extents = r.varints(dims, "tile dims")?;
    let mut tile = Vec::new();
    for row in 0..n {
        tile.clear();
        for _ in 0..ranks.varint("tile rank")? {
            tile.push(extents.varint("tile dims")?);
        }
        b.launch(row, &tile, r.varint("split-K")?)
            .map_err(format_error)?;
    }
    Ok(b)
}

#[cold]
#[inline(never)]
fn exceeds_u32(v: u64, what: &str) -> CoreError {
    format_error(format!("{what} {v} exceeds u32"))
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
/// payload.
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
    if !r.bytes.starts_with(&MODEL_TAG) {
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
    use crate::tiledb::tests::{all_gpus, entry_list, table4_kernels};
    use crate::tiledb::tests::{STANDARD_DB, STANDARD_RECORDS};
    use crate::tiledb::{MAX_IDS, MAX_RANK};
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

    #[test]
    fn huge_length_fields_are_rejected_before_allocating() {
        let ns = trained();
        let good = encode(ns);
        let patch = |at: usize, v: u64| {
            let mut bad = good.clone();
            bad[at..at + 8].copy_from_slice(&v.to_le_bytes());
            bad
        };
        let layers = first_layer_count_offset(ns);
        for (at, what) in [
            (5, "family count"),
            (14 + 4, "scaler width"),
            (layers, "layer count"),
        ] {
            for v in [u64::MAX, u64::MAX / 4, good.len() as u64] {
                let msg = decode_err(&patch(at, v));
                assert!(msg.contains(what), "{what} = {v}: {msg}");
            }
        }
        // The first layer's input width, and the tile row count.
        let msg = decode_err(&patch(layers + 8, u64::MAX));
        assert!(msg.contains("layer inputs"), "{msg}");
        let rows_at = good.len() - tiledb_len(ns) - 8;
        let msg = decode_err(&patch(rows_at, u64::MAX));
        assert!(msg.contains("tile row count"), "{msg}");
    }

    /// Bytes of the encoded tile database after its row count.
    fn tiledb_len(ns: &NeuSight) -> usize {
        let mut w = Writer(Vec::new());
        encode_tiledb(&mut w, &ns.tile_database().entries());
        w.0.len() - 8
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

    /// A model payload with no families and one tile row whose tile is
    /// `tile`.
    fn one_row_payload(tile: &[u64]) -> Vec<u8> {
        let mut w = Writer(MODEL_TAG.to_vec());
        w.u8(code_of(&DTYPES, &DType::F32));
        w.len(0);
        w.len(1);
        w.u8(code_of(&CLASSES, &OpClass::FullyConnected));
        w.varint(2);
        w.varint(64);
        w.varint(64);
        w.u8(1);
        w.varint(32);
        w.varint(80);
        w.0.extend_from_slice(&6e6f64.to_le_bytes());
        w.varint(tile.len() as u64);
        for &d in tile {
            w.varint(d);
        }
        w.varint(1);
        w.0
    }

    #[test]
    fn empty_or_zero_tile_extents_are_rejected() {
        let ns = decode(&one_row_payload(&[32, 64])).unwrap();
        let entry = &ns.tile_database().entries()[0];
        assert_eq!(entry.output_dims, [64, 64]);
        assert_eq!(entry.gemm_k, Some(32));
        assert_eq!(entry.tile.dims(), [32, 64]);
        for tile in [&[][..], &[32, 0][..]] {
            assert!(decode_err(&one_row_payload(tile)).contains("zero extent"));
        }
    }

    /// A model payload with no families and the tile rows `rows`.
    fn rows_payload(rows: &[TileEntry]) -> Vec<u8> {
        let mut w = Writer(MODEL_TAG.to_vec());
        w.u8(code_of(&DTYPES, &DType::F32));
        w.len(0);
        encode_tiledb(&mut w, rows);
        w.0
    }

    /// `n` FC rows, row `i` observed on `gpu(i)` with tile `[tile(i)]`.
    fn fc_rows(n: u64, gpu: impl Fn(u64) -> u32, tile: impl Fn(u64) -> u64) -> Vec<TileEntry> {
        (0..n)
            .map(|i| TileEntry {
                class: OpClass::FullyConnected,
                output_dims: vec![64, 64],
                gemm_k: Some(32),
                num_sms: gpu(i),
                l2_bytes: 6e6,
                tile: neusight_gpu::TileShape::new(vec![tile(i)]),
                split_k: 1,
            })
            .collect()
    }

    /// Values the index narrows are refused, at one past what the
    /// narrowed type holds, as format errors.
    #[test]
    fn values_beyond_the_narrowed_types_are_refused() {
        let ids = MAX_IDS as u64;
        // Launch ids are u16: 2^16 distinct launches fit, one more does not.
        assert!(decode(&rows_payload(&fc_rows(ids, |_| 80, |i| i + 1))).is_ok());
        let msg = decode_err(&rows_payload(&fc_rows(ids + 1, |_| 80, |i| i + 1)));
        assert!(msg.contains("distinct launches"), "{msg}");
        // GPU slots are u16 per group.
        let sms = |i: u64| u32::try_from(i + 1).unwrap();
        assert!(decode(&rows_payload(&fc_rows(ids, sms, |_| 8))).is_ok());
        let msg = decode_err(&rows_payload(&fc_rows(ids + 1, sms, |_| 8)));
        assert!(msg.contains("distinct GPUs"), "{msg}");
        // Row indices are u32: the count is refused before the bytes it
        // would need are looked for.
        let mut rows = rows_payload(&fc_rows(1, |_| 80, |_| 8));
        rows[13..21].copy_from_slice(&(1u64 << 32).to_le_bytes());
        let msg = decode_err(&rows);
        assert!(
            msg.contains("tile row count 4294967296 exceeds u32"),
            "{msg}"
        );
        // An output rank beyond `MAX_RANK`.
        let mut row = fc_rows(1, |_| 80, |_| 8);
        row[0].output_dims = vec![1; MAX_RANK as usize + 1];
        let msg = decode_err(&rows_payload(&row));
        assert!(msg.contains("output rank 256 exceeds 255"), "{msg}");
    }

    /// The standard-sweep database reads back to the same rows, and
    /// writes the same bytes again.
    #[test]
    fn standard_database_round_trips_byte_identically() {
        let entries = STANDARD_DB.entries();
        assert_eq!(entries, entry_list(&STANDARD_RECORDS));
        let payload = rows_payload(&entries);
        let back = decode(&payload).unwrap();
        assert!(*back.tile_database() == *STANDARD_DB);
        assert!(back.tile_database().entries() == entries);
        assert_eq!(encode(&back), payload);
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
        for &v in &values {
            assert_eq!(r.varint("v").unwrap(), v);
        }
        assert!(r.bytes.is_empty());
        let too_long = [0xffu8; 11];
        assert!(Reader { bytes: &too_long }.varint("v").is_err());
        let mut past_64 = [0xffu8; 10];
        past_64[9] = 0x02;
        assert!(Reader { bytes: &past_64 }.varint("v").is_err());
    }

    proptest! {
        /// The windowed varint read takes what byte-by-byte LEB128 takes,
        /// on any bytes: the same values, the same bytes left, the same
        /// failure; and a column of `n` of them reads the same values.
        #[test]
        fn varint_columns_match_varint_by_varint(
            bytes in prop::collection::vec(
                prop::sample::select(vec![0u8, 1, 0x7f, 0x80, 0x81, 0xff]),
                0..40,
            ),
            n in 0usize..24,
        ) {
            let mut fast = Reader { bytes: &bytes };
            let mut rest: &[u8] = &bytes;
            let mut got = Vec::new();
            let mut want = Vec::new();
            for _ in 0..n {
                got.push(fast.varint("v").map_err(|e| e.to_string()));
                want.push(match leb128(rest) {
                    Some((v, len)) => {
                        rest = &rest[len..];
                        Ok(v)
                    }
                    None => Err(bad_varint(rest, "v").to_string()),
                });
                if want.last().is_some_and(|v| v.is_err()) {
                    break;
                }
                prop_assert_eq!(fast.bytes, rest);
            }
            prop_assert_eq!(&got, &want);
            let mut whole = Reader { bytes: &bytes };
            match whole.varints(n, "v") {
                Ok(mut column) => {
                    for v in &want {
                        prop_assert_eq!(column.varint("v").ok(), v.clone().ok());
                    }
                    if want.iter().all(|v| v.is_ok()) {
                        prop_assert!(column.bytes.is_empty());
                        prop_assert_eq!(whole.bytes, rest);
                    }
                }
                Err(_) => {
                    prop_assert!(want.last().is_some_and(|v| v.is_err()));
                    prop_assert!(bytes.iter().filter(|&&byte| byte < 0x80).count() < n);
                }
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
