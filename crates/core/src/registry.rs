//! Versioned predictor registry: a directory of NSG1-enveloped model
//! artifacts, each carrying a manifest (version, parent lineage, training
//! fingerprint, golden-set MAPE) alongside the serialized framework.
//!
//! The registry replaces the single-file `neusight-predictor.json` load
//! for deployments that hot-reload weights: every artifact is
//! `<dir>/<version>.json` (the suffix is what the scan selects by), the
//! payload is a registry payload of the binary [`codec`](crate::codec)
//! layout (the manifest as length-prefixed JSON, then the model's bits)
//! wrapped in the checksummed guard envelope, and versions order
//! lexicographically (use a zero-padded convention such as `v0003` so the
//! lexicographic latest is the numeric latest). Artifacts published
//! before the binary layout carry a [`VersionedArtifact`] JSON payload
//! and still load.

use crate::codec;
use crate::error::{CoreError, Result};
use crate::framework::NeuSight;
use neusight_guard::envelope;
use neusight_obs as obs;
use serde::{Deserialize, Serialize};
use std::fs;
use std::path::{Path, PathBuf};

/// Most bytes a version string may occupy in a manifest or file name.
pub const MAX_VERSION_BYTES: usize = 64;

/// Deployment metadata carried next to the serialized framework inside a
/// registry artifact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelManifest {
    /// Registry version tag (also the artifact's file stem).
    pub version: String,
    /// Version this model was trained from, if any (lineage).
    #[serde(default)]
    pub parent: Option<String>,
    /// FNV-1a fingerprint of the serialized framework JSON: two
    /// artifacts with the same fingerprint carry bit-identical weights.
    pub fingerprint: u64,
    /// Golden-set MAPE recorded at publish time (fraction, not percent),
    /// if the publisher evaluated one.
    #[serde(default)]
    pub golden_mape: Option<f64>,
}

/// A registry artifact: manifest + the framework itself. Also the JSON
/// payload of artifacts published before the binary layout.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VersionedArtifact {
    /// Deployment metadata.
    pub manifest: ModelManifest,
    /// The trained framework.
    pub model: NeuSight,
}

/// A scanned registry entry (manifest only — the model stays on disk
/// until [`Registry::load`]).
#[derive(Debug, Clone)]
pub struct RegistryEntry {
    /// The artifact's manifest.
    pub manifest: ModelManifest,
    /// Where the artifact lives.
    pub path: PathBuf,
}

/// A `models/` directory of versioned predictor artifacts.
#[derive(Debug, Clone)]
pub struct Registry {
    dir: PathBuf,
}

/// Rejects version tags that cannot serve as file stems or metric labels.
fn validate_version(version: &str) -> Result<()> {
    if version.is_empty() || version.len() > MAX_VERSION_BYTES {
        return Err(CoreError::InvalidInput(format!(
            "field `version`: must be 1..={MAX_VERSION_BYTES} bytes, got {} bytes",
            version.len()
        )));
    }
    if !version
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
    {
        return Err(CoreError::InvalidInput(format!(
            "field `version`: `{version}` may only contain [A-Za-z0-9._-]"
        )));
    }
    Ok(())
}

/// Decodes one registry artifact file into its manifest + model. The
/// guard envelope catches corruption and truncation; the payload's
/// leading tag picks the decoder (binary registry payload, or a
/// [`VersionedArtifact`] JSON document from before the binary layout),
/// and the model's recomputed weight fingerprint must match the
/// manifest.
///
/// # Errors
///
/// I/O errors, envelope errors (bad magic, checksum, truncation), and
/// format errors for payloads that are not a versioned artifact.
pub fn load_artifact(path: &Path) -> Result<VersionedArtifact> {
    let bytes = fs::read(path)?;
    let decoded = envelope::decode(&bytes, &path.display().to_string()).map_err(|e| match e {
        neusight_guard::GuardError::Io(io) => CoreError::Io(io),
        other => CoreError::Format(other.to_string()),
    })?;
    let artifact = if decoded.payload.starts_with(&codec::REGISTRY_TAG) {
        let (manifest, model) = codec::split_registry(decoded.payload)?;
        let manifest = std::str::from_utf8(manifest)
            .map_err(|e| CoreError::Format(format!("registry manifest is not UTF-8: {e}")))?;
        let manifest: ModelManifest =
            serde_json::from_str(manifest).map_err(|e| CoreError::Format(e.to_string()))?;
        VersionedArtifact {
            manifest,
            model: codec::decode(model)?,
        }
    } else {
        let json = std::str::from_utf8(decoded.payload)
            .map_err(|e| CoreError::Format(format!("registry payload is not UTF-8: {e}")))?;
        serde_json::from_str(json).map_err(|e| CoreError::Format(e.to_string()))?
    };
    validate_version(&artifact.manifest.version)?;
    let recomputed = model_fingerprint(&artifact.model)?;
    if recomputed != artifact.manifest.fingerprint {
        return Err(CoreError::Format(format!(
            "{}: weight fingerprint {recomputed:#018x} does not match manifest {:#018x}",
            path.display(),
            artifact.manifest.fingerprint
        )));
    }
    Ok(artifact)
}

/// FNV-1a fingerprint of a framework's canonical JSON serialization.
///
/// # Errors
///
/// Propagates serialization failures.
pub fn model_fingerprint(model: &NeuSight) -> Result<u64> {
    let json = serde_json::to_string(model).map_err(|e| CoreError::Format(e.to_string()))?;
    Ok(envelope::fnv1a(json.as_bytes()))
}

impl Registry {
    /// Wraps a registry directory. The directory need not exist yet —
    /// [`Registry::publish`] creates it, and [`Registry::scan`] of a
    /// missing directory is an empty registry.
    #[must_use]
    pub fn open(dir: impl Into<PathBuf>) -> Registry {
        Registry { dir: dir.into() }
    }

    /// The registry directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The path an artifact for `version` lives (or would live) at.
    #[must_use]
    pub fn path_of(&self, version: &str) -> PathBuf {
        self.dir.join(format!("{version}.json"))
    }

    /// Scans the registry, returning valid entries sorted by version
    /// (lexicographic ascending). Files that fail to decode are skipped
    /// and counted on `model.registry.invalid` — one corrupt candidate
    /// must never take the whole registry down — and a missing directory
    /// is an empty registry.
    ///
    /// # Errors
    ///
    /// Propagates directory-listing I/O errors.
    pub fn scan(&self) -> Result<Vec<RegistryEntry>> {
        let mut entries = Vec::new();
        let listing = match fs::read_dir(&self.dir) {
            Ok(listing) => listing,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(entries),
            Err(e) => return Err(CoreError::Io(e)),
        };
        for dirent in listing {
            let path = dirent?.path();
            if path.extension().and_then(|e| e.to_str()) != Some("json") || !path.is_file() {
                continue;
            }
            match load_artifact(&path) {
                Ok(artifact) => entries.push(RegistryEntry {
                    manifest: artifact.manifest,
                    path,
                }),
                Err(e) => {
                    obs::metrics::counter("model.registry.invalid").inc();
                    obs::event!(
                        "model_registry_skip",
                        path = path.display().to_string(),
                        error = e.to_string()
                    );
                }
            }
        }
        entries.sort_by(|a, b| a.manifest.version.cmp(&b.manifest.version));
        Ok(entries)
    }

    /// The lexicographically-latest valid entry, if any.
    ///
    /// # Errors
    ///
    /// Propagates directory-listing I/O errors.
    pub fn latest(&self) -> Result<Option<RegistryEntry>> {
        Ok(self.scan()?.into_iter().next_back())
    }

    /// Loads the artifact registered under `version`.
    ///
    /// # Errors
    ///
    /// I/O, envelope, and format errors; also fails when the artifact's
    /// embedded version disagrees with the file name it was loaded by.
    pub fn load(&self, version: &str) -> Result<VersionedArtifact> {
        validate_version(version)?;
        let artifact = load_artifact(&self.path_of(version))?;
        if artifact.manifest.version != version {
            return Err(CoreError::Format(format!(
                "registry file `{version}.json` carries manifest version `{}`",
                artifact.manifest.version
            )));
        }
        Ok(artifact)
    }

    /// Publishes a model under `version`, computing the weight
    /// fingerprint and writing the envelope-wrapped artifact atomically
    /// (via the guard's write-then-rename).
    ///
    /// # Errors
    ///
    /// Rejects invalid version tags; propagates serialization and I/O
    /// errors.
    pub fn publish(
        &self,
        version: &str,
        parent: Option<&str>,
        golden_mape: Option<f64>,
        model: &NeuSight,
    ) -> Result<RegistryEntry> {
        validate_version(version)?;
        if let Some(parent) = parent {
            validate_version(parent)?;
        }
        let manifest = ModelManifest {
            version: version.to_owned(),
            parent: parent.map(str::to_owned),
            fingerprint: model_fingerprint(model)?,
            golden_mape,
        };
        let manifest_json =
            serde_json::to_string(&manifest).map_err(|e| CoreError::Format(e.to_string()))?;
        let payload = codec::encode_registry(manifest_json.as_bytes(), model);
        let path = self.path_of(version);
        fs::create_dir_all(&self.dir)?;
        envelope::write_artifact(&path, &payload).map_err(|e| match e {
            neusight_guard::GuardError::Io(io) => CoreError::Io(io),
            other => CoreError::Format(other.to_string()),
        })?;
        obs::metrics::counter("model.registry.published").inc();
        Ok(RegistryEntry { manifest, path })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::NeuSightConfig;
    use neusight_data::{collect_training_set, training_gpus, SweepScale};
    use neusight_gpu::{catalog, DType, OpDesc};
    use std::sync::OnceLock;

    fn trained() -> NeuSight {
        static MODEL: OnceLock<NeuSight> = OnceLock::new();
        MODEL
            .get_or_init(|| {
                let ds = collect_training_set(&training_gpus(), SweepScale::Tiny, DType::F32);
                NeuSight::train(&ds, &NeuSightConfig::tiny()).expect("trainable")
            })
            .clone()
    }

    fn temp_registry(tag: &str) -> Registry {
        let dir =
            std::env::temp_dir().join(format!("neusight-registry-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        Registry::open(dir)
    }

    #[test]
    fn publish_load_round_trip_preserves_weights_and_manifest() {
        let registry = temp_registry("roundtrip");
        let ns = trained();
        let entry = registry
            .publish("v0001", None, Some(0.25), &ns)
            .expect("publish");
        assert_eq!(entry.manifest.version, "v0001");
        assert_eq!(entry.manifest.parent, None);
        assert_eq!(entry.manifest.golden_mape, Some(0.25));
        let back = registry.load("v0001").expect("load");
        assert_eq!(back.manifest, entry.manifest);
        // The re-serialized weights fingerprint identically: the
        // round-trip is canonical, so load-time verification is exact.
        assert_eq!(
            model_fingerprint(&back.model).unwrap(),
            entry.manifest.fingerprint
        );
        let spec = catalog::gpu("T4").unwrap();
        let op = OpDesc::bmm(4, 256, 256, 128);
        assert_eq!(
            ns.predict_op(&op, &spec).unwrap().to_bits(),
            back.model.predict_op(&op, &spec).unwrap().to_bits()
        );
        let _ = fs::remove_dir_all(registry.dir());
    }

    #[test]
    fn scan_sorts_versions_and_latest_wins_lexicographically() {
        let registry = temp_registry("scan");
        let ns = trained();
        registry.publish("v0002", Some("v0001"), None, &ns).unwrap();
        registry.publish("v0001", None, None, &ns).unwrap();
        registry.publish("v0010", Some("v0002"), None, &ns).unwrap();
        let entries = registry.scan().unwrap();
        let versions: Vec<&str> = entries
            .iter()
            .map(|e| e.manifest.version.as_str())
            .collect();
        assert_eq!(versions, ["v0001", "v0002", "v0010"]);
        assert_eq!(
            registry.latest().unwrap().unwrap().manifest.version,
            "v0010"
        );
        assert_eq!(
            entries[2].manifest.parent.as_deref(),
            Some("v0002"),
            "lineage survives the round trip"
        );
        let _ = fs::remove_dir_all(registry.dir());
    }

    #[test]
    fn missing_directory_is_an_empty_registry() {
        let registry = Registry::open("/nonexistent/neusight-models");
        assert!(registry.scan().unwrap().is_empty());
        assert!(registry.latest().unwrap().is_none());
    }

    #[test]
    fn corrupt_entries_are_skipped_not_fatal() {
        let registry = temp_registry("corrupt");
        let ns = trained();
        registry.publish("v0001", None, None, &ns).unwrap();
        registry.publish("v0002", None, None, &ns).unwrap();
        // Flip one payload byte of v0002: the envelope checksum rejects
        // it, the scan keeps going, and v0001 is still the latest.
        let path = registry.path_of("v0002");
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        let entries = registry.scan().unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(
            registry.latest().unwrap().unwrap().manifest.version,
            "v0001"
        );
        assert!(registry.load("v0002").is_err());
        let _ = fs::remove_dir_all(registry.dir());
    }

    #[test]
    fn truncated_entries_are_rejected() {
        let registry = temp_registry("truncated");
        let ns = trained();
        registry.publish("v0001", None, None, &ns).unwrap();
        let path = registry.path_of("v0001");
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
        assert!(matches!(
            registry.load("v0001").unwrap_err(),
            CoreError::Format(_)
        ));
        assert!(registry.scan().unwrap().is_empty());
        let _ = fs::remove_dir_all(registry.dir());
    }

    #[test]
    fn version_tags_are_validated() {
        let registry = temp_registry("versions");
        let ns = trained();
        assert!(registry.publish("", None, None, &ns).is_err());
        assert!(registry.publish("v1/evil", None, None, &ns).is_err());
        assert!(registry.publish("..", None, None, &ns).is_ok());
        assert!(registry
            .publish(&"v".repeat(MAX_VERSION_BYTES + 1), None, None, &ns)
            .is_err());
        assert!(registry.load("v1/../../etc").is_err());
        let _ = fs::remove_dir_all(registry.dir());
    }

    #[test]
    fn fingerprint_mismatch_is_detected() {
        // A manifest whose fingerprint disagrees with the weights is a
        // tampered or miswritten artifact, even when the envelope
        // checksum is intact (the tamper happened before sealing).
        let registry = temp_registry("fingerprint");
        let ns = trained();
        let mut other = ns.clone();
        other.map_predictor_parameters(|w| w * 1.5);
        let manifest = ModelManifest {
            version: "v0001".to_owned(),
            parent: None,
            fingerprint: model_fingerprint(&other).unwrap(),
            golden_mape: None,
        };
        let artifact = VersionedArtifact {
            manifest,
            model: ns,
        };
        let json = serde_json::to_string(&artifact).unwrap();
        fs::create_dir_all(registry.dir()).unwrap();
        envelope::write_artifact(&registry.path_of("v0001"), json.as_bytes()).unwrap();
        let err = registry.load("v0001").unwrap_err();
        assert!(err.to_string().contains("fingerprint"), "{err}");
        let _ = fs::remove_dir_all(registry.dir());
    }

    #[test]
    fn binary_payload_fingerprint_mismatch_is_detected() {
        // The same tamper as above, sealed in the binary registry layout.
        let registry = temp_registry("fingerprint-binary");
        let ns = trained();
        let mut other = ns.clone();
        other.map_predictor_parameters(|w| w * 1.5);
        let manifest = ModelManifest {
            version: "v0001".to_owned(),
            parent: None,
            fingerprint: model_fingerprint(&other).unwrap(),
            golden_mape: None,
        };
        let json = serde_json::to_string(&manifest).unwrap();
        fs::create_dir_all(registry.dir()).unwrap();
        let payload = codec::encode_registry(json.as_bytes(), &ns);
        envelope::write_artifact(&registry.path_of("v0001"), &payload).unwrap();
        let err = registry.load("v0001").unwrap_err();
        assert!(err.to_string().contains("fingerprint"), "{err}");
        let _ = fs::remove_dir_all(registry.dir());
    }
}
