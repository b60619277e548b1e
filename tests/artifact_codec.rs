//! Robustness of the binary predictor decoder against damage the
//! envelope checksum cannot see: the payload is truncated, byte-flipped
//! or given absurd length fields, then re-sealed in a valid envelope so
//! only the decoder stands between the bytes and the model.
//!
//! `NeuSight::load` must return an error or a model, never panic, and
//! never make an allocation larger than a small multiple of the file: a
//! length field is checked against the bytes that remain before anything
//! is allocated for it. A counting global allocator records the largest
//! single allocation made on the test's own thread, and the peak of the
//! bytes that thread holds live: a load keeps one copy of the artifact.

use neusight::core::{codec, CoreError, NeuSight, NeuSightConfig};
use neusight::gpu::{catalog, DType, OpDesc};
use neusight::guard::envelope;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;
use std::sync::OnceLock;

/// The system allocator, noting the largest request made on each thread
/// and the peak of the bytes each thread holds live.
struct LargestRequest;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
    /// Bytes allocated and not yet freed by this thread (a free of memory
    /// another thread allocated counts here too), and their peak.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

fn grow(bytes: isize) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + bytes);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

/// An allocation size as a signed byte count.
fn signed(size: usize) -> isize {
    isize::try_from(size).unwrap_or(isize::MAX)
}

// SAFETY: every call is forwarded unchanged to `System`; the bookkeeping
// touches only const-initialised thread-local `Cell`s and never
// allocates.
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        grow(signed(layout.size()));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        grow(signed(layout.size()));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        grow(signed(new_size) - signed(layout.size()));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-signed(layout.size()));
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: LargestRequest = LargestRequest;

/// No allocation while loading may exceed this many times the file's
/// size. Decoding the pristine file stays well inside it.
const ALLOCATION_BOUND: usize = 16;

fn trained() -> &'static NeuSight {
    static MODEL: OnceLock<NeuSight> = OnceLock::new();
    MODEL.get_or_init(|| {
        let data = neusight::data::collect_training_set(
            &neusight::data::training_gpus(),
            neusight::data::SweepScale::Tiny,
            DType::F32,
        );
        NeuSight::train(&data, &NeuSightConfig::tiny()).expect("trainable")
    })
}

fn payload() -> &'static [u8] {
    static PAYLOAD: OnceLock<Vec<u8>> = OnceLock::new();
    PAYLOAD.get_or_init(|| codec::encode(trained()))
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("neusight-artifact-codec-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(name)
}

/// Seals `payload` in a valid envelope, loads it, and checks the outcome:
/// a format error, or a model that still forecasts without panicking.
/// Returns whether it loaded.
fn load_sealed(payload: &[u8], name: &str) -> Result<bool, TestCaseError> {
    let path = scratch(name);
    let sealed = envelope::wrap(payload);
    std::fs::write(&path, &sealed).expect("write");
    LARGEST.with(|largest| largest.set(0));
    let loaded = NeuSight::load(&path);
    let largest = LARGEST.with(Cell::get);
    prop_assert!(
        largest <= ALLOCATION_BOUND * sealed.len(),
        "loading a {}-byte file allocated {largest} bytes at once",
        sealed.len()
    );
    match loaded {
        Ok(ns) => {
            // A flipped weight or tile extent may move the forecast, but
            // forecasting must still answer rather than panic.
            let h100 = catalog::gpu("H100").expect("H100");
            for op in [OpDesc::bmm(4, 256, 256, 64), OpDesc::fc(8, 512, 2048)] {
                let _ = ns.predict_op(&op, &h100);
            }
            Ok(true)
        }
        Err(CoreError::Format(_)) => Ok(false),
        Err(other) => Err(TestCaseError::fail(format!(
            "expected a format error, got {other}"
        ))),
    }
}

#[test]
fn pristine_payload_loads_within_the_allocation_bound() {
    assert!(load_sealed(payload(), "pristine.json").expect("pristine"));
}

/// Loading holds the file's bytes once: beyond the model it returns, the
/// peak live heap of `NeuSight::load` may exceed the file by less than
/// half the payload. A second copy of the payload would add all of it.
#[test]
fn load_holds_one_copy_of_the_payload() {
    let path = scratch("one-copy.json");
    let sealed = envelope::wrap(payload());
    std::fs::write(&path, &sealed).expect("write");
    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let ns = NeuSight::load(&path).expect("pristine loads");
    let peak = PEAK.with(Cell::get) - base;
    let kept = LIVE.with(Cell::get) - base;
    drop(ns);
    let transient = peak - kept;
    let bound = signed(sealed.len() + payload().len() / 2);
    assert!(
        transient < bound,
        "loading a {}-byte file held {transient} bytes beyond the {kept}-byte model at its peak \
         (bound {bound})",
        sealed.len()
    );
}

#[test]
fn u64_max_length_fields_are_rejected() {
    let good = payload();
    // The family count sits after the tag and the dtype byte; the first
    // family's scaler width after its class byte and SMAPE.
    for at in [5, 18] {
        let mut bad = good.to_vec();
        bad[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let loaded = load_sealed(&bad, &format!("max-{at}.json")).expect("no panic");
        assert!(!loaded, "a u64::MAX length at byte {at} loaded");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn truncated_payloads_are_errors(cut in 0.0f64..1.0) {
        let good = payload();
        let cut = (cut * good.len() as f64) as usize;
        let loaded = load_sealed(&good[..cut], "truncated.json")?;
        prop_assert!(!loaded, "a payload cut to {cut} of {} bytes loaded", good.len());
    }

    #[test]
    fn flipped_payloads_load_or_fail_cleanly(
        flips in prop::collection::vec((0.0f64..1.0, 1u8..=255, 0u8..4), 1..5),
    ) {
        let good = payload();
        let mut bad = good.to_vec();
        for (at, mask, region) in flips {
            // Half the flips land in the structural prefix (tag, counts,
            // first scaler and layer header), the rest anywhere.
            let span = if region < 2 { 64.min(bad.len()) } else { bad.len() };
            let at = (at * span as f64) as usize;
            bad[at] ^= mask;
        }
        load_sealed(&bad, "flipped.json")?;
    }
}
