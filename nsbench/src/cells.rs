//! The request space: capacity-planning cells, the dashboard key set,
//! and the references every served answer is checked against.

use neusight_bench::evalsets;
use neusight_gpu::{catalog, DType};
use neusight_serve::{PredictRequest, PredictResponse, PredictService};
use neusight_sim::SimulatedGpu;

/// Batch sizes a planner sweeps, in both modes: every batch size of the
/// evaluation grids (`evalsets::inference_batches` and
/// `evalsets::training_batches`, Figures 7 and 8) over all models.
fn batches() -> Vec<u64> {
    let mut batches: Vec<u64> = evalsets::models()
        .iter()
        .flat_map(|m| {
            evalsets::inference_batches(m)
                .into_iter()
                .chain(evalsets::training_batches(m))
        })
        .collect();
    batches.sort_unstable();
    batches.dedup();
    batches
}

/// Size of the dashboard key set.
pub const DASH_KEYS: usize = 16;

/// One (model, GPU, batch, inference/training) forecast.
#[derive(Clone, Debug)]
pub struct Cell {
    pub model: String,
    pub gpu: String,
    pub batch: u64,
    pub train: bool,
    /// The GPU is held out of training (Table 3 test split).
    pub ood_gpu: bool,
}

impl Cell {
    pub fn request(&self) -> PredictRequest {
        PredictRequest {
            model: self.model.clone(),
            gpu: self.gpu.clone(),
            batch: self.batch,
            train: self.train,
            fused: false,
            detail: false,
        }
    }

    pub fn body(&self) -> String {
        format!(
            "{{\"model\":\"{}\",\"gpu\":\"{}\",\"batch\":{},\"train\":{}}}",
            self.model, self.gpu, self.batch, self.train
        )
    }
}

/// Every feasible cell over the six Table 4 models, all eight catalog
/// GPUs and the sweep's batch sizes, in a fixed order. Cells that do not
/// fit are left out (their forecasts extrapolate far beyond anything
/// trained). Feasibility is `evalsets::feasible`: the model fits the
/// GPU's memory, and training needs at least 24 GB.
pub fn universe() -> Vec<Cell> {
    let batches = batches();
    let mut cells = Vec::new();
    for model in evalsets::models() {
        for gpu in evalsets::gpus() {
            for train in [false, true] {
                for &batch in &batches {
                    if evalsets::feasible(&model, batch, &gpu, train) {
                        cells.push(Cell {
                            model: model.name.clone(),
                            gpu: gpu.name().to_owned(),
                            batch,
                            train,
                            ood_gpu: catalog::is_out_of_distribution(gpu.name()),
                        });
                    }
                }
            }
        }
    }
    cells
}

/// The dashboard's fixed key set: an even stride through the universe,
/// so it spans models, GPUs and both modes.
pub fn dash_keys(universe: &[Cell]) -> Vec<Cell> {
    let stride = universe.len() as f64 / DASH_KEYS as f64;
    (0..DASH_KEYS)
        .map(|i| universe[(i as f64 * stride) as usize].clone())
        .collect()
}

/// The body the server must send for each cell, computed in-process by
/// the same public call the dispatcher makes, one request per batch.
pub fn reference_bodies(service: &PredictService, cells: &[&Cell]) -> Result<Vec<String>, String> {
    cells
        .iter()
        .map(|cell| {
            let mut out = service.predict_batch_serialized(&[cell.request()]);
            match out.pop() {
                Some(Ok(body)) => Ok(body.to_string()),
                Some(Err(e)) => Err(format!(
                    "reference failed for {}: {}",
                    cell.body(),
                    e.message
                )),
                None => Err("reference returned no body".to_owned()),
            }
        })
        .collect()
}

/// Mean absolute % error of the served `total_ms` against the simulator's
/// run of the same cell, as (all, in-distribution GPUs, held-out GPUs),
/// and the number of bodies that were not a forecast (already counted as
/// failed by the caller's checks).
pub fn forecast_mape(
    cells: &[Cell],
    bodies: &[String],
) -> Result<((f64, f64, f64), usize), String> {
    let mut all = Vec::new();
    let mut ind = Vec::new();
    let mut ood = Vec::new();
    let mut unparsable = 0;
    for (cell, body) in cells.iter().zip(bodies) {
        let Ok(served) = serde_json::from_str::<PredictResponse>(body) else {
            unparsable += 1;
            continue;
        };
        let spec = catalog::gpu(&cell.gpu).map_err(|e| e.to_string())?;
        let graph = neusight_graph::workload_graph(&cell.model, cell.batch, cell.train)
            .map_err(|e| e.to_string())?;
        let measured_ms = SimulatedGpu::new(spec)
            .execute_graph(&graph, DType::F32)
            .total_s
            * 1e3;
        let ape = 100.0 * (served.total_ms - measured_ms).abs() / measured_ms;
        all.push(ape);
        if cell.ood_gpu {
            ood.push(ape);
        } else {
            ind.push(ape);
        }
    }
    let mean = crate::stats::mean;
    Ok(((mean(&all), mean(&ind), mean(&ood)), unparsable))
}
