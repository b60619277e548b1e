//! The checksummed artifact envelope: `magic + schema_version +
//! payload_len + checksum + payload`.
//!
//! Layout (little-endian, 24-byte header):
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"NSG1"
//! 4       4     schema_version  (u32: 2 when written, 1 still read)
//! 8       8     payload_len     (u64, bytes of payload)
//! 16      8     checksum        (u64, over the payload, by version)
//! 24      …     payload         (the artifact's own bytes)
//! ```
//!
//! The version names the checksum. Version 1 is FNV-1a ([`fnv1a`]), one
//! byte at a time; version 2, which [`wrap`] writes, is [`lane_hash`],
//! four independent lanes over the payload's little-endian `u64` words,
//! about ten times faster on a model-sized payload. Any other version is
//! refused.
//!
//! Both checksums are built from steps that are bijections of their hash
//! state for a fixed input, and of their input for a fixed state, so a
//! corruption confined to one checksum unit (one byte under FNV-1a, one
//! 8-byte word or the tail under the lane hash) always changes the
//! checksum: single-bit and single-byte corruption detection is exact,
//! not probabilistic. Header corruption is caught field by field (magic,
//! version, length) before the checksum is even consulted.
//!
//! Legacy artifacts written before the envelope are bare JSON; they are
//! read through transparently (first non-whitespace byte `{` or `[`),
//! with a warning and the `guard.artifact.legacy.total` counter.

use neusight_obs as obs;
use std::fmt;
use std::io;
use std::path::Path;
use std::sync::{Arc, OnceLock};

/// Envelope magic: "NeuSight Guard, layout 1".
pub const MAGIC: [u8; 4] = *b"NSG1";

/// Envelope schema version that [`wrap`] writes: the payload checksum is
/// [`lane_hash`].
pub const SCHEMA_VERSION: u32 = 2;

/// The first envelope schema version, still read: the payload checksum
/// is [`fnv1a`].
pub const FNV1A_VERSION: u32 = 1;

/// Header length in bytes (magic + version + payload_len + checksum).
pub const HEADER_LEN: usize = 24;

fn legacy_total() -> &'static Arc<obs::Counter> {
    static CELL: OnceLock<Arc<obs::Counter>> = OnceLock::new();
    CELL.get_or_init(|| obs::metrics::counter(crate::metric_names::ARTIFACT_LEGACY))
}

/// FNV-1a over `bytes` (64-bit, offset basis 0xCBF2_9CE4_8422_2325).
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Independent lanes of [`lane_hash`].
const LANES: usize = 4;

/// Each lane's starting state (the first 256 fraction bits of π).
const LANE_SEEDS: [u64; LANES] = [
    0x243F_6A88_85A3_08D3,
    0x1319_8A2E_0370_7344,
    0xA409_3822_299F_31D0,
    0x082E_FA98_EC4E_6C89,
];

/// One lane step: `rotl((h XOR w) × φ, 29)` with φ = 0x9E37_79B9_7F4A_7C15.
/// XOR with `w`, an odd multiplier and a rotation are each bijections,
/// so the step is a bijection of `h` for a fixed `w` and of `w` for a
/// fixed `h`.
#[inline(always)]
fn lane_step(h: u64, word: u64) -> u64 {
    (h ^ word)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(29)
}

/// The little-endian `u64` at word `i` of `bytes`.
#[inline(always)]
fn word(bytes: &[u8], i: usize) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&bytes[8 * i..8 * i + 8]);
    u64::from_le_bytes(w)
}

/// The version-2 payload checksum: a word-parallel hash.
///
/// - Word `i` of the payload (its bytes `8i..8i+8`, little-endian) is
///   folded by [`lane_step`] into lane `i mod 4`; the lanes start at
///   [`LANE_SEEDS`] and never depend on one another, so their multiplies
///   overlap.
/// - The fold starts from the payload length, takes lanes 0 to 3 in
///   turn, then the 0–7 tail bytes past the last whole word, zero-padded
///   to a little-endian word, each with the same step.
/// - MurmurHash3's 64-bit finalizer mixes the result.
///
/// Every stage is a bijection in the value it takes in, so any change
/// confined to one word or to the tail changes the checksum.
#[must_use]
pub fn lane_hash(bytes: &[u8]) -> u64 {
    let mut lanes = LANE_SEEDS;
    let mut blocks = bytes.chunks_exact(8 * LANES);
    for block in &mut blocks {
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = lane_step(*lane, word(block, i));
        }
    }
    let rest = blocks.remainder();
    let whole = rest.len() / 8;
    for (i, lane) in lanes.iter_mut().enumerate().take(whole) {
        *lane = lane_step(*lane, word(rest, i));
    }
    let mut tail = [0u8; 8];
    tail[..rest.len() - 8 * whole].copy_from_slice(&rest[8 * whole..]);
    let mut h = bytes.len() as u64;
    for lane in lanes {
        h = lane_step(h, lane);
    }
    h = lane_step(h, u64::from_le_bytes(tail));
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^ (h >> 33)
}

/// The payload checksum of envelope `version`, or `None` for a version
/// this build does not read.
fn checksum_of(version: u32) -> Option<fn(&[u8]) -> u64> {
    match version {
        FNV1A_VERSION => Some(fnv1a),
        SCHEMA_VERSION => Some(lane_hash),
        _ => None,
    }
}

/// Typed artifact-integrity failures.
#[derive(Debug)]
#[non_exhaustive]
pub enum GuardError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file is neither an envelope nor legacy JSON.
    BadMagic {
        /// First bytes actually found (up to 4).
        found: Vec<u8>,
    },
    /// The file is shorter than its header claims (or than the header
    /// itself).
    Truncated {
        /// Bytes the envelope requires.
        expected: usize,
        /// Bytes actually present.
        actual: usize,
    },
    /// The payload hash does not match the recorded checksum.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u64,
        /// The payload's checksum as read, by the header's version.
        actual: u64,
    },
    /// The envelope was written by an incompatible schema version.
    VersionMismatch {
        /// Newest version this build reads ([`SCHEMA_VERSION`]); it also
        /// reads every version from [`FNV1A_VERSION`] up.
        expected: u32,
        /// Version recorded in the header.
        actual: u32,
    },
}

impl fmt::Display for GuardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GuardError::Io(e) => write!(f, "artifact i/o error: {e}"),
            GuardError::BadMagic { found } => {
                write!(f, "bad artifact magic {found:02x?} (not an envelope, not JSON)")
            }
            GuardError::Truncated { expected, actual } => {
                write!(f, "truncated artifact: need {expected} bytes, have {actual}")
            }
            GuardError::ChecksumMismatch { expected, actual } => write!(
                f,
                "artifact checksum mismatch: header says {expected:#018x}, payload hashes to {actual:#018x}"
            ),
            GuardError::VersionMismatch { expected, actual } => write!(
                f,
                "artifact schema version {actual} not supported (this build reads versions {FNV1A_VERSION} to {expected})"
            ),
        }
    }
}

impl std::error::Error for GuardError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GuardError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for GuardError {
    fn from(e: io::Error) -> GuardError {
        GuardError::Io(e)
    }
}

/// A successfully decoded artifact, borrowing its payload from the bytes
/// it was decoded from: a model load holds one copy of the artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decoded<'a> {
    /// The artifact payload, in whatever layout its writer chose (a
    /// binary predictor, or JSON).
    pub payload: &'a [u8],
    /// Whether this was a legacy bare-JSON file (no checksum verified).
    pub legacy: bool,
}

/// Wraps `payload` in a version-2 ([`SCHEMA_VERSION`]) envelope.
#[must_use]
pub fn wrap(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&SCHEMA_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&lane_hash(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Verifies and strips the envelope header, returning the payload. A
/// version-1 envelope is checked with [`fnv1a`], a version-2 one with
/// [`lane_hash`].
///
/// # Errors
///
/// [`GuardError::Truncated`] when bytes are missing,
/// [`GuardError::BadMagic`] / [`GuardError::VersionMismatch`] for header
/// corruption, [`GuardError::ChecksumMismatch`] for payload corruption.
pub fn unwrap_envelope(bytes: &[u8]) -> Result<&[u8], GuardError> {
    if bytes.len() < HEADER_LEN {
        return Err(GuardError::Truncated {
            expected: HEADER_LEN,
            actual: bytes.len(),
        });
    }
    if bytes[0..4] != MAGIC {
        return Err(GuardError::BadMagic {
            found: bytes[0..4].to_vec(),
        });
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    let Some(checksum) = checksum_of(version) else {
        return Err(GuardError::VersionMismatch {
            expected: SCHEMA_VERSION,
            actual: version,
        });
    };
    let payload_len = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    let expected_total =
        HEADER_LEN.saturating_add(usize::try_from(payload_len).unwrap_or(usize::MAX));
    if bytes.len() != expected_total {
        return Err(GuardError::Truncated {
            expected: expected_total,
            actual: bytes.len(),
        });
    }
    let recorded = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
    let payload = &bytes[HEADER_LEN..];
    let actual = checksum(payload);
    if recorded != actual {
        return Err(GuardError::ChecksumMismatch {
            expected: recorded,
            actual,
        });
    }
    Ok(payload)
}

/// Whether the bytes look like a legacy bare-JSON artifact.
fn looks_like_legacy_json(bytes: &[u8]) -> bool {
    bytes
        .iter()
        .find(|b| !b.is_ascii_whitespace())
        .is_some_and(|b| *b == b'{' || *b == b'[')
}

/// Decodes artifact bytes: verified envelope payload, or — for legacy
/// bare-JSON files — the bytes as-is with `legacy` set, a warning
/// printed, and the `guard.artifact.legacy.total` counter bumped.
/// `origin` names the artifact in the warning (typically its path).
///
/// # Errors
///
/// Envelope verification failures (see [`unwrap_envelope`]); bytes that
/// are neither an envelope nor JSON-shaped yield [`GuardError::BadMagic`].
pub fn decode<'a>(bytes: &'a [u8], origin: &str) -> Result<Decoded<'a>, GuardError> {
    if bytes.starts_with(&MAGIC) {
        return Ok(Decoded {
            payload: unwrap_envelope(bytes)?,
            legacy: false,
        });
    }
    if looks_like_legacy_json(bytes) {
        legacy_total().inc();
        eprintln!(
            "neusight-guard: `{origin}` is a legacy unchecksummed artifact; \
             rewrite it (e.g. re-save) to enable corruption detection"
        );
        return Ok(Decoded {
            payload: bytes,
            legacy: true,
        });
    }
    Err(GuardError::BadMagic {
        found: bytes.iter().take(4).copied().collect(),
    })
}

/// Writes `payload` to `path` wrapped in an envelope.
///
/// # Errors
///
/// Underlying I/O failures.
pub fn write_artifact(path: &Path, payload: &[u8]) -> Result<(), GuardError> {
    std::fs::write(path, wrap(payload))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_known_vectors() {
        // Canonical FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a(b"foobar"), 0x85944171F73967E8);
    }

    #[test]
    fn lane_hash_known_vectors() {
        // The definition in the module documentation and DESIGN.md: empty
        // (tail only), shorter than a word, a word and a tail, and one
        // whole block of four words plus a word and a tail.
        assert_eq!(lane_hash(b""), 0xEE4E_14DC_494B_0AE9);
        assert_eq!(lane_hash(b"a"), 0xF79A_8399_DEA3_7EE0);
        assert_eq!(lane_hash(b"foobar"), 0xD9D5_ED5A_8ECC_F37C);
        assert_eq!(
            lane_hash(b"0123456789abcdef0123456789abcdef0123456789"),
            0x3255_E2AC_6DE0_0A98
        );
    }

    #[test]
    fn wrap_writes_version_2_with_the_lane_hash() {
        let enveloped = wrap(b"foobar");
        assert_eq!(&enveloped[0..4], b"NSG1");
        assert_eq!(enveloped[4..8], 2u32.to_le_bytes());
        assert_eq!(enveloped[8..16], 6u64.to_le_bytes());
        assert_eq!(enveloped[16..24], 0xD9D5_ED5A_8ECC_F37Cu64.to_le_bytes());
        assert_eq!(&enveloped[24..], b"foobar");
    }

    /// `payload` in a version-1 envelope, as builds before version 2
    /// wrote it: an FNV-1a checksum.
    fn wrap_v1(payload: &[u8]) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        out.extend_from_slice(&FNV1A_VERSION.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&fnv1a(payload).to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    #[test]
    fn version_1_is_checked_with_fnv1a() {
        let payload = br#"{"kind":"predictor","weights":[1.0,2.0]}"#;
        let v1 = wrap_v1(payload);
        assert_eq!(unwrap_envelope(&v1).unwrap(), payload);
        assert_eq!(decode(&v1, "test").unwrap().payload, payload);
        // A version-1 header over a lane-hash checksum is refused, and so
        // is a version-2 header over an FNV-1a one.
        let mut crossed = wrap(payload);
        crossed[4..8].copy_from_slice(&FNV1A_VERSION.to_le_bytes());
        assert!(matches!(
            unwrap_envelope(&crossed).unwrap_err(),
            GuardError::ChecksumMismatch { .. }
        ));
        let mut crossed = v1.clone();
        crossed[4..8].copy_from_slice(&SCHEMA_VERSION.to_le_bytes());
        assert!(matches!(
            unwrap_envelope(&crossed).unwrap_err(),
            GuardError::ChecksumMismatch { .. }
        ));
        let mut corrupt = v1;
        let last = corrupt.len() - 1;
        corrupt[last] ^= 1;
        assert!(unwrap_envelope(&corrupt).is_err());
    }

    /// About a kilobyte of varied bytes, not a whole number of words, so
    /// that the tail is hashed too.
    fn kilobyte() -> Vec<u8> {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        (0..1027)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state.to_le_bytes()[0]
            })
            .collect()
    }

    #[test]
    fn every_single_bit_flip_of_a_version_2_envelope_is_refused() {
        let enveloped = wrap(&kilobyte());
        for index in 0..enveloped.len() {
            for bit in 0..8 {
                let mut corrupt = enveloped.clone();
                corrupt[index] ^= 1 << bit;
                assert!(
                    unwrap_envelope(&corrupt).is_err(),
                    "bit {bit} of byte {index} flipped and the envelope verified"
                );
            }
        }
    }

    #[test]
    fn every_truncation_of_a_version_2_envelope_is_refused() {
        let enveloped = wrap(&kilobyte());
        for len in 0..enveloped.len() {
            assert!(
                matches!(
                    unwrap_envelope(&enveloped[..len]).unwrap_err(),
                    GuardError::Truncated { .. }
                ),
                "length {len}"
            );
        }
    }

    #[test]
    fn version_3_is_refused() {
        let mut enveloped = wrap(&kilobyte());
        enveloped[4..8].copy_from_slice(&3u32.to_le_bytes());
        let err = unwrap_envelope(&enveloped).unwrap_err();
        assert!(
            matches!(
                err,
                GuardError::VersionMismatch {
                    expected: SCHEMA_VERSION,
                    actual: 3
                }
            ),
            "{err}"
        );
        assert!(err.to_string().contains("reads versions 1 to 2"), "{err}");
    }

    #[test]
    fn round_trip() {
        let payload = br#"{"kind":"predictor","weights":[1.0,2.0]}"#;
        let enveloped = wrap(payload);
        assert_eq!(unwrap_envelope(&enveloped).unwrap(), payload);
        let decoded = decode(&enveloped, "test").unwrap();
        assert_eq!(decoded.payload, payload);
        assert!(!decoded.legacy);
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let payload = br#"{"weights":[0.25,0.5,0.75],"bias":1.0}"#;
        let enveloped = wrap(payload);
        for index in 0..enveloped.len() {
            for delta in [1u8, 0x80] {
                let mut corrupt = enveloped.clone();
                corrupt[index] ^= delta;
                // Detection = envelope rejects it, or it falls through to
                // the legacy path where the payload is no longer valid
                // JSON (a flipped magic byte can look like `{`, but the
                // remaining binary header cannot parse as JSON).
                match decode(&corrupt, "test") {
                    Err(_) => {}
                    Ok(decoded) => {
                        assert!(
                            decoded.legacy,
                            "byte {index} flip accepted as a valid envelope"
                        );
                        assert_ne!(
                            decoded.payload, payload,
                            "byte {index} flip returned the original payload via legacy"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn truncation_is_detected_at_every_length() {
        let enveloped = wrap(br#"{"x":1}"#);
        for len in 0..enveloped.len() {
            let err = unwrap_envelope(&enveloped[..len]).unwrap_err();
            assert!(
                matches!(err, GuardError::Truncated { .. }),
                "length {len}: {err}"
            );
        }
    }

    #[test]
    fn version_mismatch_is_typed() {
        let mut enveloped = wrap(b"{}");
        enveloped[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            unwrap_envelope(&enveloped).unwrap_err(),
            GuardError::VersionMismatch {
                expected: SCHEMA_VERSION,
                actual: 99
            }
        ));
    }

    #[test]
    fn checksum_mismatch_is_typed() {
        let mut enveloped = wrap(b"{\"y\":2}");
        let last = enveloped.len() - 1;
        enveloped[last] ^= 0xFF;
        assert!(matches!(
            unwrap_envelope(&enveloped).unwrap_err(),
            GuardError::ChecksumMismatch { .. }
        ));
    }

    #[test]
    fn legacy_json_reads_through_with_counter() {
        let _guard = crate::test_lock::hold();
        neusight_obs::reset();
        neusight_obs::set_enabled(true);
        let before = legacy_total().get();
        let decoded = decode(br#"  {"legacy":true}"#, "test").unwrap();
        assert!(decoded.legacy);
        assert_eq!(decoded.payload, br#"  {"legacy":true}"#);
        assert_eq!(legacy_total().get(), before + 1);
        neusight_obs::set_enabled(false);
    }

    #[test]
    fn garbage_is_bad_magic() {
        assert!(matches!(
            decode(b"\x00\x01\x02garbage", "test").unwrap_err(),
            GuardError::BadMagic { .. }
        ));
    }

    #[test]
    fn file_round_trip_and_missing_file() {
        let mut path = std::env::temp_dir();
        path.push(format!("neusight-guard-env-{}.json", std::process::id()));
        write_artifact(&path, b"{\"k\":3}").unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let decoded = decode(&bytes, "test").unwrap();
        assert_eq!(decoded.payload, b"{\"k\":3}");
        std::fs::remove_file(&path).unwrap();
        let missing = std::fs::read(&path).unwrap_err();
        assert!(matches!(GuardError::from(missing), GuardError::Io(_)));
    }
}
