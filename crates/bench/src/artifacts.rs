//! Train-once artifact caching.
//!
//! Training the standard predictors takes CPU minutes, so every experiment
//! binary shares one cached build under `artifacts/` at the workspace
//! root: the measured kernel dataset, the trained NeuSight framework, and
//! the trained baselines. NeuSight is cached in its binary artifact
//! layout through [`NeuSight::save`] / [`NeuSight::load`]; the dataset
//! and the baselines are cached as JSON. Deleting the directory forces a
//! rebuild.

use neusight_baselines::habitat::HabitatConfig;
use neusight_baselines::{HabitatBaseline, LiBaseline, RooflineBaseline};
use neusight_core::{CoreError, NeuSight, NeuSightConfig};
use neusight_data::{collect_training_set, SweepScale};
use neusight_gpu::{DType, KernelDataset};
use neusight_sim::SimulatedGpu;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Root of the artifact cache (`<workspace>/artifacts`).
#[must_use]
pub fn artifacts_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../artifacts")
        .components()
        .collect()
}

/// A trained predictor suite sharing one measured dataset.
pub struct Suite {
    /// The measured kernel dataset the predictors were trained on.
    pub dataset: KernelDataset,
    /// NeuSight, trained on the dataset.
    pub neusight: NeuSight,
    /// The Habitat-style baseline, trained on the same dataset.
    pub habitat: HabitatBaseline,
    /// The Li et al. regression baseline, fitted on the same dataset.
    pub li: LiBaseline,
    /// The analytical roofline baseline (no training).
    pub roofline: RooflineBaseline,
}

fn log(msg: &str) {
    eprintln!("[artifacts] {msg}");
}

/// Reads a cached artifact: checksummed envelope or (with a warning
/// counter) a legacy bare-JSON file from before the envelope existed.
/// Corrupt or unreadable caches are treated as a miss — the artifact is
/// simply rebuilt.
fn load_json<T: serde::de::DeserializeOwned>(path: &Path) -> Option<T> {
    let bytes = fs::read(path).ok()?;
    let origin = path.display().to_string();
    let decoded = match neusight_guard::envelope::decode(&bytes, &origin) {
        Ok(decoded) => decoded,
        Err(e) => {
            log(&format!("warning: ignoring corrupt cache {origin}: {e}"));
            return None;
        }
    };
    let text = std::str::from_utf8(decoded.payload).ok()?;
    serde_json::from_str(text).ok()
}

fn save_json<T: serde::Serialize>(path: &Path, value: &T) {
    if let Some(parent) = path.parent() {
        let _ = fs::create_dir_all(parent);
    }
    match serde_json::to_string(value) {
        Ok(json) => {
            if let Err(e) = neusight_guard::envelope::write_artifact(path, json.as_bytes()) {
                log(&format!("warning: could not cache {}: {e}", path.display()));
            }
        }
        Err(e) => log(&format!(
            "warning: could not serialize {}: {e}",
            path.display()
        )),
    }
}

/// Loads (or measures) the kernel dataset for a named GPU fleet.
fn dataset_for(tag: &str, gpus: &[SimulatedGpu]) -> KernelDataset {
    let path = artifacts_dir().join(tag).join("dataset.json");
    if let Some(ds) = load_json::<KernelDataset>(&path) {
        log(&format!("loaded {} ({} records)", path.display(), ds.len()));
        return ds;
    }
    log(&format!(
        "measuring the §6.1 sweep on {} GPUs (one-time)…",
        gpus.len()
    ));
    let start = Instant::now();
    let ds = collect_training_set(gpus, SweepScale::Standard, DType::F32);
    log(&format!(
        "collected {} records in {:.1}s",
        ds.len(),
        start.elapsed().as_secs_f64()
    ));
    save_json(&path, &ds);
    ds
}

/// Reads a cached NeuSight through [`NeuSight::load`]; like
/// [`load_json`], a corrupt cache is a miss.
fn load_neusight(path: &Path) -> Option<NeuSight> {
    match NeuSight::load(path) {
        Ok(ns) => Some(ns),
        Err(CoreError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => None,
        Err(e) => {
            log(&format!(
                "warning: ignoring corrupt cache {}: {e}",
                path.display()
            ));
            None
        }
    }
}

fn save_neusight(path: &Path, ns: &NeuSight) {
    if let Err(e) = ns.save(path) {
        log(&format!("warning: could not cache {}: {e}", path.display()));
    }
}

/// Loads or trains one predictor, caching it under `tag/name` with
/// `load` and `save`.
fn cached<T>(
    tag: &str,
    name: &str,
    load: fn(&Path) -> Option<T>,
    save: fn(&Path, &T),
    build: impl FnOnce() -> T,
) -> T {
    let path = artifacts_dir().join(tag).join(name);
    if let Some(value) = load(&path) {
        log(&format!("loaded {}", path.display()));
        return value;
    }
    log(&format!("training {name} (one-time)…"));
    let start = Instant::now();
    let value = build();
    log(&format!(
        "trained {name} in {:.1}s",
        start.elapsed().as_secs_f64()
    ));
    save(&path, &value);
    value
}

/// The standard suite: §6.1 sweep measured on all five training GPUs,
/// NeuSight + Habitat + Li trained on it. Cached under
/// `artifacts/standard/`.
#[must_use]
pub fn standard_suite() -> Suite {
    let gpus = neusight_data::training_gpus();
    suite_for("standard", &gpus)
}

/// The pre-Ampere suite of Figure 2: trained only on P4, P100, V100 and
/// T4 (every Ampere-and-later GPU is out of distribution). Cached under
/// `artifacts/pre-ampere/`.
#[must_use]
pub fn pre_ampere_suite() -> Suite {
    let gpus: Vec<SimulatedGpu> = neusight_data::training_gpus()
        .into_iter()
        .filter(|g| g.spec().year() < 2020)
        .collect();
    suite_for("pre-ampere", &gpus)
}

fn suite_for(tag: &str, gpus: &[SimulatedGpu]) -> Suite {
    let dataset = dataset_for(tag, gpus);
    let neusight = cached(tag, "neusight.json", load_neusight, save_neusight, || {
        NeuSight::train(&dataset, &NeuSightConfig::standard()).expect("standard training set")
    });
    let habitat = cached(tag, "habitat.json", load_json, save_json, || {
        HabitatBaseline::train(&dataset, DType::F32, &HabitatConfig::standard())
            .expect("standard training set")
    });
    let li = cached(tag, "li.json", load_json, save_json, || {
        LiBaseline::train(&dataset).expect("standard training set")
    });
    Suite {
        dataset,
        neusight,
        habitat,
        li,
        roofline: RooflineBaseline::new(DType::F32),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifacts_dir_is_workspace_relative() {
        let dir = artifacts_dir();
        assert!(dir.ends_with("artifacts"));
    }
}
