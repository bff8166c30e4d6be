//! Proves the telemetry layer's headline claim: with metrics *enabled*,
//! the block-processing hot path performs zero heap allocations in
//! steady state.
//!
//! A counting allocator wraps the system allocator for this whole test
//! crate (integration tests are separate crates, so the counter cannot
//! leak into other suites). After a warm-up pass has sized every
//! internal scratch buffer, the measured `process_into` calls — and the
//! raw histogram/event-ring record paths — must leave the allocation
//! counter untouched.
//!
//! The counter is per thread: the test harness runs sibling tests in
//! parallel, and their allocations must not land in another test's
//! measured window. Every measured window is single-threaded, so a
//! per-thread count still sees every allocation the measured code makes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// Counts every allocation and reallocation; frees are not counted
/// (a free in the hot path would imply a previous allocation anyway).
struct CountingAlloc;

thread_local! {
    // `const` initialiser: no lazy registration, so counting never
    // allocates (which would recurse into the allocator).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns how many allocations it performed on this
/// thread.
fn allocations_during<F: FnMut()>(mut f: F) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn instrumented_block_path_is_allocation_free_in_steady_state() {
    use ddc_core::{chain_metrics_for, ChainSpec, FixedDdc, MetricsHandle};

    let spec = ChainSpec::registry()
        .iter()
        .find(|s| s.name == "drm")
        .expect("drm spec in registry")
        .clone()
        .tuned(10e6);
    let decim = spec.total_decimation() as usize;

    // Deterministic full-scale-ish stimulus; realism is irrelevant here,
    // only the control flow through every stage matters.
    let adc: Vec<i32> = (0..decim * 16)
        .map(|k| ((k * 37) % 255) as i32 - 127)
        .collect();

    let metrics = Arc::new(chain_metrics_for(&spec));
    let mut ddc = FixedDdc::from_spec(spec.clone())
        .with_metrics(MetricsHandle::enabled(Arc::clone(&metrics)));
    assert!(ddc.metrics().is_enabled());
    let mut out = Vec::with_capacity(adc.len() / decim + 16);

    // Warm-up: sizes the output vector and any internal scratch.
    for _ in 0..4 {
        out.clear();
        ddc.process_into(&adc, &mut out);
    }
    assert!(!out.is_empty(), "warm-up produced no output");
    let blocks_before = metrics.chain.blocks.get();

    let allocs = allocations_during(|| {
        for _ in 0..8 {
            out.clear();
            ddc.process_into(&adc, &mut out);
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state instrumented process_into allocated {allocs} time(s)"
    );

    // The run above must have been *observed*, not silently untelemetered:
    // eight whole-chain blocks plus eight per-stage blocks per stage.
    assert_eq!(metrics.chain.blocks.get(), blocks_before + 8);
    for stage in &metrics.stages {
        assert!(
            stage.blocks.get() >= 8,
            "stage {} recorded only {} blocks",
            stage.name,
            stage.blocks.get()
        );
        assert_eq!(stage.latency_ns.count(), stage.blocks.get());
    }
}

#[test]
fn traced_block_path_is_allocation_free_in_steady_state() {
    use ddc_core::{ChainSpec, FixedDdc};
    use ddc_obs::{TraceHandle, TraceSink};

    let spec = ChainSpec::registry()
        .iter()
        .find(|s| s.name == "drm")
        .expect("drm spec in registry")
        .clone()
        .tuned(10e6);
    let decim = spec.total_decimation() as usize;
    let adc: Vec<i32> = (0..decim * 16)
        .map(|k| ((k * 41) % 255) as i32 - 127)
        .collect();

    let sink = Arc::new(TraceSink::new(2, 1024));
    let mut ddc = FixedDdc::from_spec(spec.clone());
    ddc.set_tracer(TraceHandle::enabled(Arc::clone(&sink)));
    let mut out = Vec::with_capacity(adc.len() / decim + 16);

    // Warm-up: sizes the output vector and any internal scratch (the
    // span-name table was interned by set_tracer, before measurement).
    for k in 0..4u64 {
        out.clear();
        ddc.process_into_traced(&adc, &mut out, k + 1, 0);
    }
    assert!(!out.is_empty(), "warm-up produced no output");
    let produced_before = sink.produced();

    let allocs = allocations_during(|| {
        for k in 0..8u64 {
            out.clear();
            // Alternate stamped and unstamped blocks, the shape 1-in-N
            // head sampling produces: both sides of the branch must be
            // allocation-free.
            let trace_id = if k.is_multiple_of(2) { 0x1000 + k } else { 0 };
            ddc.process_into_traced(&adc, &mut out, trace_id, 0);
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state traced process_into allocated {allocs} time(s)"
    );

    // The stamped blocks must actually have been recorded: one
    // whole-block span pair per stage per traced block.
    let stages = spec.stages.len() as u64;
    assert_eq!(
        sink.produced() - produced_before,
        4 * stages * 2,
        "each of the 4 stamped blocks records begin+end per stage"
    );
}

#[test]
fn span_ring_push_and_drain_do_not_allocate() {
    use ddc_obs::{span_kind, TraceSink};

    let sink = TraceSink::new(1, 64);
    // Warm-up: this thread's first record allocates its ring.
    sink.push_at(0, 1, 1, span_kind::BEGIN, 0, 0);

    let allocs = allocations_during(|| {
        for k in 0..10_000u64 {
            sink.push_at(k, k, k, span_kind::INSTANT, 0, 0);
        }
    });
    assert_eq!(allocs, 0, "span push allocated {allocs} time(s)");
    assert_eq!(sink.produced(), 10_001);

    // The ring wrapped; a drain into a pre-reserved vec must stay
    // allocation-free and account for every overwritten span.
    let mut spans = Vec::with_capacity(64);
    let newly_dropped = allocations_during(|| {
        let dropped = sink.drain(&mut spans);
        assert!(dropped > 0, "wrapping the ring reported no drops");
    });
    assert_eq!(newly_dropped, 0, "drain into reserved vec allocated");
    assert!(!spans.is_empty());
    assert_eq!(sink.dropped() + spans.len() as u64, 10_001);
}

#[test]
fn histogram_record_and_event_ring_push_do_not_allocate() {
    use ddc_obs::{kind, EventRing, LogHistogram};

    let hist = LogHistogram::new();
    let ring = EventRing::new(64);

    // Warm-up (construction above already allocated; that is fine —
    // build-time allocation is explicitly allowed).
    hist.record(1);
    ring.push(kind::JOB_DONE, 0, 0);

    let allocs = allocations_during(|| {
        for k in 0..10_000u64 {
            hist.record(k);
            ring.push(kind::JOB_DONE, k, k * 2);
        }
    });
    assert_eq!(allocs, 0, "record/push allocated {allocs} time(s)");
    assert_eq!(hist.count(), 10_001);
    assert_eq!(ring.produced(), 10_001);

    // The ring wrapped many times over; a drain must account for every
    // overwritten event as dropped, and with pre-reserved capacity the
    // drain itself stays allocation-free too.
    let mut events = Vec::with_capacity(64);
    let newly_dropped = allocations_during(|| {
        let dropped = ring.drain_into(&mut events);
        assert!(dropped > 0, "wrapping the ring reported no drops");
    });
    assert_eq!(newly_dropped, 0, "drain into reserved vec allocated");
    assert!(!events.is_empty());
    assert_eq!(ring.dropped() + events.len() as u64, 10_001);
}

#[test]
fn samples_codec_is_allocation_free_in_steady_state() {
    use ddc_server::wire::{decode_header, decode_samples_into, FrameBuf};

    let samples: Vec<i32> = (0..21_504).map(|k| (k * 40_503) ^ (k << 7)).collect();
    let mut fb = FrameBuf::new();
    let mut scratch: Vec<i32> = Vec::new();
    // Warm-up at the largest batch and trailer: sizes both buffers.
    fb.encode_samples_traced(0, 0, &samples, 1);
    let h = decode_header(&fb.header).expect("valid header");
    decode_samples_into(&h, &fb.payload, &mut scratch).expect("valid payload");

    let allocs = allocations_during(|| {
        for k in 0..64u32 {
            let batch = &samples[..samples.len() - (k as usize % 8) * 1000];
            if k % 2 == 0 {
                fb.encode_samples(k, u64::from(k), batch);
            } else {
                fb.encode_samples_traced(k, u64::from(k), batch, u64::from(k));
            }
            let h = decode_header(&fb.header).expect("valid header");
            scratch.clear();
            let (index, _) =
                decode_samples_into(&h, &fb.payload, &mut scratch).expect("valid payload");
            assert_eq!(index, u64::from(k));
            assert_eq!(scratch.len(), batch.len());
        }
    });
    assert_eq!(
        allocs, 0,
        "samples encode/decode allocated {allocs} time(s)"
    );
}
