//! What the service keeps per distinct workload it has answered. A
//! forecast reads only a graph's kernel table and its node → kernel
//! sequence, so the service caches each workload's `KernelPlan` (about
//! 5 bytes a node plus the table) and drops the built `Graph` (about
//! 213 bytes a node with its names, inputs and per-node op copies).
//!
//! A counting global allocator tracks the bytes the test's own thread
//! holds live. The test serves one request for each distinct graph
//! behind a capacity-planning sweep of every feasible (model, batch,
//! mode) cell, all on one GPU and in-process, so every allocation the
//! service keeps is made on this thread.

use neusight_core::{NeuSight, NeuSightConfig};
use neusight_gpu::{catalog, DType};
use neusight_graph::config;
use neusight_serve::{PredictRequest, PredictService};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the bytes each thread holds live.
struct LiveBytes;

thread_local! {
    /// Bytes allocated and not yet freed by this thread (a free of memory
    /// another thread allocated counts here too).
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn grow(bytes: isize) {
    let _ = LIVE.try_with(|live| live.set(live.get() + bytes));
}

/// An allocation size as a signed byte count.
fn signed(size: usize) -> isize {
    isize::try_from(size).unwrap_or(isize::MAX)
}

// SAFETY: every call is forwarded unchanged to `System`; the bookkeeping
// touches only a const-initialised thread-local `Cell` and never
// allocates.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(signed(layout.size()));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(signed(layout.size()));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(signed(new_size) - signed(layout.size()));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-signed(layout.size()));
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: LiveBytes = LiveBytes;

/// Most bytes the service may keep after answering every sweep graph
/// once: its plans, the response memo's bodies, the per-kernel
/// prediction cache and the maps that index them. Caching plans keeps
/// 0.33 MB here; caching each built `Graph` instead kept 6.1 MB.
const RETAINED_BUDGET: isize = 1_000_000;

/// Batch sizes a capacity planner sweeps: the inference and training
/// batch sizes of the paper's evaluation grids.
const SWEEP_BATCHES: [u64; 5] = [1, 2, 4, 8, 16];

/// Each distinct (model, batch, training) graph that fits some catalog
/// GPU in f32, training only on GPUs of 24 GB or more.
fn sweep_graphs() -> Vec<(String, u64, bool)> {
    let gpus: Vec<_> = catalog::all().into_iter().map(|e| e.spec).collect();
    let mut graphs = Vec::new();
    for model in config::table4() {
        for train in [false, true] {
            for batch in SWEEP_BATCHES {
                let fits = gpus.iter().any(|gpu| {
                    (!train || gpu.memory_gb() >= 24.0)
                        && neusight_sim::memory::fits(&model, batch, DType::F32, train, gpu)
                });
                if fits {
                    graphs.push((model.name.clone(), batch, train));
                }
            }
        }
    }
    graphs
}

fn request(model: &str, batch: u64, train: bool) -> PredictRequest {
    PredictRequest {
        model: model.to_owned(),
        gpu: "H100".to_owned(),
        batch,
        train,
        fused: false,
        detail: false,
    }
}

#[test]
fn answered_workloads_keep_plans_not_graphs() {
    let data = neusight_data::collect_training_set(
        &neusight_data::training_gpus(),
        neusight_data::SweepScale::Tiny,
        DType::F32,
    );
    let ns = NeuSight::train(&data, &NeuSightConfig::tiny()).expect("tiny training");
    let service = PredictService::new(ns);
    let graphs = sweep_graphs();
    assert_eq!(graphs.len(), 46, "the sweep's distinct graphs");

    // One answer outside the sweep first, so that lazily registered
    // metrics and the GPU lookup are not counted as per-workload state.
    let warm = service.predict_batch_serialized(&[request("resnet50", 1, false)]);
    assert!(warm[0].is_ok());

    let before = LIVE.with(Cell::get);
    for (model, batch, train) in &graphs {
        let answer = service.predict_batch_serialized(&[request(model, *batch, *train)]);
        assert!(answer[0].is_ok(), "{model} batch {batch} train {train}");
    }
    let retained = LIVE.with(Cell::get) - before;
    println!("{} sweep graphs retain {retained} bytes", graphs.len());
    assert!(
        retained <= RETAINED_BUDGET,
        "answering {} workloads retained {retained} bytes (budget {RETAINED_BUDGET})",
        graphs.len()
    );
}
