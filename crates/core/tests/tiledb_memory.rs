//! What a decoded tile database keeps. The database holds its rows only
//! as its search index: per row an entry index, a GPU slot and a launch
//! id (8 bytes), plus each group's distinct values, shapes and GPUs and
//! one table of distinct launches. Holding the rows as columns as well
//! (u64 dims and tiles, an `Option<u64>` GEMM depth and an f64 L2 size
//! per row) kept about 1.58 MB for the standard sweep's 16,710 rows.
//!
//! A counting global allocator tracks the bytes the test's own thread
//! holds live across a decode of the standard-sweep model payload and one
//! lookup, so everything the decoded model keeps is counted.

use neusight_core::{codec, NeuSight, NeuSightConfig};
use neusight_data::{collect_training_set, training_gpus, SweepScale};
use neusight_gpu::{catalog, DType, OpClass, OpDesc};
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

/// Most bytes a decoded model with the standard-sweep tile database and
/// one small family predictor may keep, its search index built.
const RETAINED_BUDGET: isize = 300_000;

#[test]
fn decoded_standard_database_keeps_only_its_index() {
    let data = collect_training_set(&training_gpus(), SweepScale::Standard, DType::F32);
    // One small family predictor: the database is built from every
    // record, whatever families are trained.
    let mut config = NeuSightConfig::tiny();
    config
        .per_class
        .retain(|name, _| name == OpClass::Softmax.name());
    let model = NeuSight::train(&data, &config).expect("trainable");
    assert_eq!(model.tile_database().len(), 16_710);
    let payload = codec::encode(&model);
    drop((model, data));

    let base = LIVE.with(Cell::get);
    let decoded = codec::decode(&payload).expect("the payload decodes");
    let h100 = catalog::gpu("H100").expect("H100");
    let launch = decoded
        .tile_database()
        .plan_launch(&OpDesc::bmm(16, 2048, 2048, 128), &h100)
        .expect("a launch");
    assert!(launch.num_tiles > 0);
    let kept = LIVE.with(Cell::get) - base;
    assert!(
        kept <= RETAINED_BUDGET,
        "the decoded model keeps {kept} bytes (budget {RETAINED_BUDGET})"
    );
    println!("decoded model keeps {kept} bytes");
    assert_eq!(codec::encode(&decoded), payload);
}
