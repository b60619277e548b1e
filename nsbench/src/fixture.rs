//! The standard predictor the servers load: trained from this checkout's
//! own code, never carried over from another build.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use neusight_core::{NeuSight, NeuSightConfig};
use neusight_data::SweepScale;
use neusight_gpu::DType;

/// Timings of one fixture build.
pub struct Build {
    pub bytes: Vec<u8>,
    pub collect_s: f64,
    pub train_s: f64,
}

/// `neusight train --scale standard`, in-process so that collection and
/// training are timed apart.
pub fn build(scratch: &Path) -> Result<Build, String> {
    let t = Instant::now();
    let data = neusight_data::collect_training_set(
        &neusight_data::training_gpus(),
        SweepScale::Standard,
        DType::F32,
    );
    let collect_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let ns = NeuSight::train(&data, &NeuSightConfig::standard()).map_err(|e| e.to_string())?;
    let train_s = t.elapsed().as_secs_f64();
    let tmp = scratch.join(format!("fixture-{}.tmp", std::process::id()));
    ns.save(&tmp).map_err(|e| e.to_string())?;
    let bytes = fs::read(&tmp).map_err(|e| e.to_string())?;
    let _ = fs::remove_file(&tmp);
    Ok(Build {
        bytes,
        collect_s,
        train_s,
    })
}

/// FNV-1a over a file.
fn fnv1a(path: &Path) -> io::Result<u64> {
    Ok(fs::read(path)?.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    }))
}

/// Path of the fixture for this runner binary. Training is bit-exact, so
/// the fixture is a pure function of the code that trains it: it is
/// keyed by the hash of this executable, and any change to the code gets
/// a fresh one.
fn path_for_this_build(dir: &Path) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let key = fnv1a(&exe).map_err(|e| format!("cannot hash {}: {e}", exe.display()))?;
    Ok(dir.join(format!("standard-{key:016x}.nsg")))
}

/// Returns the fixture, building it first when this build has none. The
/// returned build is `Some` when it was made now.
pub fn ensure(dir: &Path) -> Result<(PathBuf, Option<Build>), String> {
    fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let path = path_for_this_build(dir)?;
    if path.exists() {
        return Ok((path, None));
    }
    eprintln!("nsbench: training the standard predictor for this build (about 40 s)");
    let built = build(dir)?;
    let tmp = path.with_extension("partial");
    fs::write(&tmp, &built.bytes).map_err(|e| e.to_string())?;
    fs::rename(&tmp, &path).map_err(|e| e.to_string())?;
    Ok((path, Some(built)))
}
