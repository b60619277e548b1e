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
//!
//! A registry payload is `b"NSR1"`, the manifest's JSON length as `u64`,
//! the manifest JSON, then a model payload.
//!
//! The decoder trusts nothing: it checks every count against the bytes
//! that remain before allocating, checks that layer and scaler shapes fit
//! together, rejects trailing bytes, and reports every failure as
//! [`CoreError::Format`] without panicking.

use crate::error::{CoreError, Result};
use crate::framework::NeuSight;
use crate::predictor::KernelPredictor;
use crate::tiledb::{TileDatabase, TileRows};
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

    fn flag(&mut self, what: &str) -> Result<bool> {
        flag_of(self.u8(what)?, what)
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

    fn f64s(&mut self, n: usize, what: &str) -> Result<Vec<f64>> {
        let bytes = n
            .checked_mul(8)
            .ok_or_else(|| format_error(format!("{what}: {n} floats overflow")))?;
        Ok(self
            .take(bytes, what)?
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
            .collect())
    }

    /// One varint; the decoder reads its varints by the column.
    #[cfg(test)]
    fn varint(&mut self, what: &str) -> Result<u64> {
        let (v, len) = leb128(self.bytes).ok_or_else(|| bad_varint(self.bytes, what))?;
        self.bytes = &self.bytes[len..];
        Ok(v)
    }

    /// A column of `n` one-byte codes, each read by `item`.
    fn byte_column<T>(
        &mut self,
        n: usize,
        what: &str,
        item: impl Fn(u8) -> Result<T>,
    ) -> Result<Vec<T>> {
        let codes = self.take(n, what)?;
        let mut out = Vec::with_capacity(n);
        for &code in codes {
            out.push(item(code)?);
        }
        Ok(out)
    }

    /// A column of `n` varints, each converted by `item`. A one-byte
    /// varint takes one comparison; a longer one up to eight bytes is
    /// read from one 8-byte window without a branch per byte.
    fn varint_column<T>(
        &mut self,
        n: usize,
        what: &str,
        mut item: impl FnMut(u64) -> Result<T>,
    ) -> Result<Vec<T>> {
        // Each varint takes a byte or more: check before allocating.
        let bytes = self.bytes;
        if n > bytes.len() {
            return Err(too_long(n, what, bytes.len()));
        }
        let mut at = 0;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let rest = &bytes[at..];
            let (v, len) = match rest.first() {
                Some(&byte) if byte < 0x80 => (u64::from(byte), 1),
                _ => match rest.first_chunk().and_then(|&window| leb128_word(window)) {
                    Some(read) => read,
                    None => leb128(rest).ok_or_else(|| bad_varint(rest, what))?,
                },
            };
            at += len;
            out.push(item(v)?);
        }
        self.bytes = &bytes[at..];
        Ok(out)
    }

    fn varints(&mut self, n: usize, what: &str) -> Result<Vec<u64>> {
        self.varint_column(n, what, Ok)
    }

    /// `n` varint run lengths, as the running totals that end each run.
    fn run_ends(&mut self, n: usize, what: &str) -> Result<Vec<u32>> {
        let mut total = 0u32;
        self.varint_column(n, what, |len| {
            total = u32::try_from(len)
                .ok()
                .and_then(|len| total.checked_add(len))
                .ok_or_else(|| runs_overflow(what))?;
            Ok(total)
        })
    }

    fn class(&mut self, what: &str) -> Result<OpClass> {
        class_of(self.u8(what)?, what)
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
fn too_long(n: usize, what: &str, remain: usize) -> CoreError {
    format_error(format!(
        "{n} {what} do not fit in the {remain} bytes that remain"
    ))
}

#[cold]
#[inline(never)]
fn runs_overflow(what: &str) -> CoreError {
    format_error(format!("{what}s overflow"))
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
    encode_tiledb(&mut w, ns.tile_database().rows());
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

fn encode_tiledb(w: &mut Writer, rows: &TileRows) {
    let n = rows.len();
    w.len(n);
    for class in &rows.class {
        w.u8(code_of(&CLASSES, class));
    }
    for i in 0..n {
        w.varint(rows.dims(i).len() as u64);
    }
    for &d in &rows.dims {
        w.varint(d);
    }
    for k in &rows.gemm_k {
        w.u8(u8::from(k.is_some()));
    }
    for &k in rows.gemm_k.iter().flatten() {
        w.varint(k);
    }
    for &sms in &rows.num_sms {
        w.varint(u64::from(sms));
    }
    for l2 in &rows.l2_bytes {
        w.0.extend_from_slice(&l2.to_le_bytes());
    }
    for i in 0..n {
        w.varint(rows.tile(i).len() as u64);
    }
    for &d in &rows.tiles {
        w.varint(d);
    }
    for &split_k in &rows.split_k {
        w.varint(split_k);
    }
}

/// Decodes an artifact payload into a framework: a binary model payload
/// when it starts with [`MODEL_TAG`], JSON otherwise.
///
/// # Errors
///
/// [`CoreError::Format`] for payloads that are neither a well-formed
/// model payload nor a serialized framework.
pub fn decode(payload: &[u8]) -> Result<NeuSight> {
    let Some(body) = payload.strip_prefix(&MODEL_TAG) else {
        let json = std::str::from_utf8(payload)
            .map_err(|e| CoreError::Format(format!("artifact payload is not UTF-8: {e}")))?;
        return serde_json::from_str(json).map_err(|e| CoreError::Format(e.to_string()));
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
    Ok(NeuSight::from_parts(predictors, tiledb, dtype))
}

fn decode_predictor(r: &mut Reader<'_>) -> Result<KernelPredictor> {
    let class = r.class("family")?;
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
        let relu = r.flag("ReLU flag")?;
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

fn decode_tiledb(r: &mut Reader<'_>) -> Result<TileDatabase> {
    // Each row takes at least 14 bytes: class, rank, has-k, SM count,
    // L2 bytes, tile rank, split-K. The columns are read straight into
    // the database's own, each in one loop.
    let n = r.count(14, "tile row count")?;
    let class = r.byte_column(n, "tile family", |code| class_of(code, "tile family"))?;
    let dim_ends = r.run_ends(n, "output rank")?;
    let dims = r.varints(run_total(&dim_ends), "output dims")?;
    let mut gemm_k = r.byte_column(n, "GEMM depth flag", |code| {
        Ok(flag_of(code, "GEMM depth flag")?.then_some(0))
    })?;
    let depths = r.varints(gemm_k.iter().flatten().count(), "GEMM depths")?;
    for (k, depth) in gemm_k.iter_mut().flatten().zip(depths) {
        *k = depth;
    }
    let num_sms = r.varint_column(n, "SM count", |v| {
        u32::try_from(v).map_err(|_| exceeds_u32(v, "SM count"))
    })?;
    let l2_bytes = r.f64s(n, "L2 bytes")?;
    let tile_ends = r.run_ends(n, "tile rank")?;
    let tiles = r.varints(run_total(&tile_ends), "tile dims")?;
    let split_k = r.varints(n, "split-K")?;

    let rows = TileRows {
        class,
        dim_ends,
        dims,
        gemm_k,
        num_sms,
        l2_bytes,
        tile_ends,
        tiles,
        split_k,
    };
    // Every run of tile extents is non-empty and holds no zero.
    let empty_run = rows.tile_ends.first() == Some(&0)
        || rows.tile_ends.windows(2).any(|pair| pair[0] == pair[1]);
    if empty_run || rows.tiles.contains(&0) {
        return Err(empty_tile(&rows));
    }
    Ok(TileDatabase::from_rows(rows))
}

#[cold]
#[inline(never)]
fn exceeds_u32(v: u64, what: &str) -> CoreError {
    format_error(format!("{what} {v} exceeds u32"))
}

/// Names the first row whose tile has an empty or zero extent.
#[cold]
#[inline(never)]
fn empty_tile(rows: &TileRows) -> CoreError {
    let i = (0..rows.len())
        .find(|&i| rows.tile(i).is_empty() || rows.tile(i).contains(&0))
        .expect("some tile row is empty or has a zero extent");
    format_error(format!(
        "tile row {i}: tile {:?} has an empty or zero extent",
        rows.tile(i)
    ))
}

/// Items in the runs a column of run ends describes.
fn run_total(ends: &[u32]) -> usize {
    ends.last().map_or(0, |&end| end as usize)
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
    use crate::tiledb::tests::{all_gpus, table4_kernels};
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
        encode_tiledb(&mut w, ns.tile_database().rows());
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
        /// A varint column reads what one varint after another does, on
        /// any bytes: the same values, the same bytes left, the same
        /// failure.
        #[test]
        fn varint_columns_match_varint_by_varint(
            bytes in prop::collection::vec(
                prop::sample::select(vec![0u8, 1, 0x7f, 0x80, 0x81, 0xff]),
                0..40,
            ),
            n in 0usize..24,
        ) {
            let mut column = Reader { bytes: &bytes };
            let got = column.varints(n, "v").map_err(|e| e.to_string());
            let mut single = Reader { bytes: &bytes };
            let want = if n > bytes.len() {
                Err(too_long(n, "v", bytes.len()).to_string())
            } else {
                (0..n)
                    .map(|_| single.varint("v"))
                    .collect::<Result<Vec<_>>>()
                    .map_err(|e| e.to_string())
            };
            prop_assert_eq!(&got, &want);
            if got.is_ok() {
                prop_assert_eq!(column.bytes, single.bytes);
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
