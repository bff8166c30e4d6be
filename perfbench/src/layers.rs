//! Per-layer replays: the benchmark times calls into each layer's
//! public functions on the run's own stimulus, outside the server and
//! off the service clock. Nothing inside the program is instrumented.
//!
//! Every pass walks the same batches; for each batch the layers run
//! back to back (wire encode first, so the input is cache-warm for all
//! of them), each with its own state, and each layer's output is
//! checked against the whole chain's.

use crate::alloc_count::counted;
use crate::stats::{median, SpanLog};
use crate::workload::{Stimulus, Workload};
use ddc_core::cic::CicDecimator;
use ddc_core::fir::SequentialFir;
use ddc_core::mixer::{FixedMixer, Iq};
use ddc_core::nco::LutNco;
use ddc_core::{ChainSpec, DdcFarm, FixedDdc, FusedFrontEnd, StageSpec};
use ddc_dsp::firdes::quantize_taps;
use ddc_obs::TraceSink;
use ddc_server::queue::BoundedQueue;
use ddc_server::wire::{
    decode_header, decode_payload, decode_samples_into, Frame, FrameBuf, IqTiming,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Input samples each replay pass covers.
const PASS_SAMPLES: usize = 16 << 20;
/// Passes per replay; each metric is the median over passes.
const PASSES: usize = 3;
/// Operations per timed block in the queue and span micro-loops.
const BLOCK_OPS: usize = 1000;
/// Timed blocks per pass in those micro-loops.
const BLOCKS: usize = 100;

/// Per-layer readings, per input sample / batch / frame as named.
#[derive(Clone, Debug, Default)]
pub struct LayerReadings {
    pub chain_ns_per_sample: f64,
    pub chain_allocs_per_batch: f64,
    pub frontend_ns_per_sample: f64,
    pub cic_ns_per_sample: f64,
    pub fir_ns_per_sample: f64,
    pub engine_submit_ns_per_sample: f64,
    pub engine_handoff_ns: f64,
    pub engine_allocs_per_batch: f64,
    pub wire_encode_samples_ns_per_sample: f64,
    pub wire_decode_samples_ns_per_sample: f64,
    pub wire_encode_iq_ns: f64,
    pub wire_decode_iq_ns: f64,
    pub wire_allocs_per_frame: f64,
    pub queue_push_pop_ns: f64,
    pub obs_span_ns: f64,
    /// Every replayed layer reproduced the chain's output.
    pub exact: bool,
}

impl LayerReadings {
    pub fn stage_sum_ratio(&self) -> f64 {
        (self.frontend_ns_per_sample + self.cic_ns_per_sample + self.fir_ns_per_sample)
            / self.chain_ns_per_sample
    }
}

/// The chain's three stages, built exactly as `FixedDdc::from_spec`
/// builds them, run stage by stage.
struct Stages {
    front: FusedFrontEnd,
    cic: [CicDecimator; 2],
    fir: [SequentialFir; 2],
    a: [Vec<i64>; 2],
    b: [Vec<i64>; 2],
    c: [Vec<i64>; 2],
}

impl Stages {
    fn new(spec: &ChainSpec) -> Stages {
        let f = spec.format;
        let cic = |st: &StageSpec| match *st {
            StageSpec::Cic {
                order,
                decim,
                diff_delay,
            } => CicDecimator::with_diff_delay(order, decim, diff_delay, f.data_bits, f.data_bits),
            _ => panic!("the DRM preset is CIC, CIC, FIR; got {:?}", spec.stages),
        };
        let StageSpec::Fir { taps, decim } = &spec.stages[2] else {
            panic!("the DRM preset is CIC, CIC, FIR; got {:?}", spec.stages);
        };
        let coeffs = quantize_taps(taps, f.coeff_bits, f.coeff_frac());
        let fir = || SequentialFir::new(&coeffs, *decim, f.data_bits, f.coeff_bits, f.fir_acc_bits);
        Stages {
            front: FusedFrontEnd::from_parts(
                LutNco::new(spec.tuning_word(), f.lut_addr_bits, f.coeff_bits),
                FixedMixer::new(f.data_bits, f.coeff_bits),
                cic(&spec.stages[0]),
                cic(&spec.stages[0]),
            ),
            cic: [cic(&spec.stages[1]), cic(&spec.stages[1])],
            fir: [fir(), fir()],
            a: Default::default(),
            b: Default::default(),
            c: Default::default(),
        }
    }
}

/// Accumulated times of one pass, ns.
#[derive(Default)]
struct Pass {
    chain: f64,
    front: f64,
    cic: f64,
    fir: f64,
    engine: f64,
    handoff: Vec<f64>,
    enc_samples: f64,
    dec_samples: f64,
    enc_iq: f64,
    dec_iq: f64,
    chain_allocs: u64,
    engine_allocs: u64,
    wire_allocs: u64,
    samples: usize,
    batches: usize,
}

/// Largest farm sub-batch a latency session submits: a quarter
/// budget's worth of input, at least one output's worth (the server's
/// documented derivation, replicated because it is private).
fn latency_chunk(spec: &ChainSpec, budget_us: u32) -> usize {
    const CHUNK_CAP: usize = 1 << 22;
    let quarter = spec.input_rate * f64::from(budget_us) * 1e-6 / 4.0;
    let floor = (spec.total_decimation() as usize).clamp(1, CHUNK_CAP);
    (quarter as usize).clamp(floor, CHUNK_CAP)
}

fn elapsed_ns(t0: Instant, t1: Instant) -> f64 {
    t1.duration_since(t0).as_nanos() as f64
}

/// Replays every layer on `w`'s stimulus; records one span per layer
/// call per batch into `spans`.
pub fn replay(w: &Workload, stim: &Stimulus, spans: &mut SpanLog) -> LayerReadings {
    let spec = stim.spec(0);
    let mut exact = true;
    let mut passes = Vec::new();
    let batches = (PASS_SAMPLES / w.batch_samples).max(1);
    let chunk = w.qos.budget_us().map(|b| latency_chunk(&spec, b));
    // One farm channel, set up as the server sets up its farm.
    let sink = Arc::new(TraceSink::new(16, 4096));
    let farm = DdcFarm::with_workers(vec![spec.clone()], 1)
        .with_telemetry()
        .with_tracing(Arc::clone(&sink), 0);
    let mut ddc = FixedDdc::from_spec(spec.clone());
    let mut st = Stages::new(&spec);
    let mut chain_out: Vec<Iq> = Vec::new();
    let mut samples_fb = FrameBuf::new();
    let mut iq_fb = FrameBuf::new();
    let mut scratch: Vec<i32> = Vec::new();
    // The ack trailers this workload's server attaches.
    let timing = w.qos.budget_us().map(|_| IqTiming {
        queue_wait_ns: 12_345,
        service_ns: 67_890,
    });

    let mut next = 0u64;
    for pass in 0..=PASSES {
        let mut p = Pass::default();
        for _ in 0..batches {
            let b = next;
            next += 1;
            let x = stim.batch(0, b);
            let trace_id = if w.trace_interval > 0 && b.is_multiple_of(u64::from(w.trace_interval))
            {
                ddc_obs::SERVER_TRACE_BIT | (b + 1)
            } else {
                0
            };

            // Wire, Samples frame: client encode, server decode.
            let t0 = Instant::now();
            samples_fb.encode_samples(b as u32, b, x);
            let t1 = Instant::now();
            let (decoded, a_dec) = counted(|| {
                let h = decode_header(&samples_fb.header).expect("own header");
                scratch.clear();
                decode_samples_into(&h, &samples_fb.payload, &mut scratch)
            });
            let t2 = Instant::now();
            exact &= decoded.is_ok() && scratch == x;
            p.enc_samples += elapsed_ns(t0, t1);
            p.dec_samples += elapsed_ns(t1, t2);
            spans.record("wire.encode_samples", b, t0, t1);
            spans.record("wire.decode_samples", b, t1, t2);

            // Chain.
            chain_out.clear();
            let t0 = Instant::now();
            let ((), a_chain) = counted(|| ddc.process_into(x, &mut chain_out));
            let t1 = Instant::now();
            let chain_ns = elapsed_ns(t0, t1);
            p.chain += chain_ns;
            spans.record("chain.process_into", b, t0, t1);

            // The same chain, stage by stage.
            for v in st.a.iter_mut().chain(&mut st.b).chain(&mut st.c) {
                v.clear();
            }
            let t0 = Instant::now();
            let [ai, aq] = &mut st.a;
            st.front.process_block(x, ai, aq);
            let t1 = Instant::now();
            for k in 0..2 {
                st.cic[k].process_block(&st.a[k], &mut st.b[k]);
            }
            let t2 = Instant::now();
            for k in 0..2 {
                st.fir[k].process_block(&st.b[k], &mut st.c[k]);
            }
            let t3 = Instant::now();
            p.front += elapsed_ns(t0, t1);
            p.cic += elapsed_ns(t1, t2);
            p.fir += elapsed_ns(t2, t3);
            spans.record("stage.frontend", b, t0, t1);
            spans.record("stage.cic5", b, t1, t2);
            spans.record("stage.fir", b, t2, t3);
            exact &= st.c[0].len() == chain_out.len()
                && chain_out
                    .iter()
                    .zip(st.c[0].iter().zip(&st.c[1]))
                    .all(|(o, (&i, &q))| o.i == i && o.q == q);

            // Engine, on the submission path the server uses for this
            // session kind. The Arc stands for the server's decode
            // scratch: built off the clock and, as in the server, still
            // held after the call, so the call never frees it.
            let input = Arc::new(x.to_vec());
            let _scratch = Arc::clone(&input);
            let t0 = Instant::now();
            let (out, a_eng) = counted(|| match chunk {
                Some(c) => {
                    let mut pairs = Vec::new();
                    farm.submit_channel_chunked_traced(0, x, c, &mut pairs, trace_id)
                        .map(|()| pairs)
                }
                None => farm.submit_channel_shared_traced(0, input, trace_id),
            });
            let t1 = Instant::now();
            let engine_ns = elapsed_ns(t0, t1);
            p.engine += engine_ns;
            p.handoff.push(engine_ns - chain_ns);
            spans.record("engine.submit", b, t0, t1);
            exact &= out.as_deref() == Some(&chain_out[..]);

            // Wire, Iq frame: server encode, client decode.
            let t0 = Instant::now();
            let ((), a_enc) = counted(|| {
                iq_fb.encode_iq(b as u32, b, 0, &chain_out, timing, trace_id);
            });
            let t1 = Instant::now();
            let frame = decode_header(&iq_fb.header)
                .ok()
                .and_then(|h| decode_payload(&h, &iq_fb.payload).ok());
            let t2 = Instant::now();
            p.enc_iq += elapsed_ns(t0, t1);
            p.dec_iq += elapsed_ns(t1, t2);
            spans.record("wire.encode_iq", b, t0, t1);
            spans.record("wire.decode_iq", b, t1, t2);
            exact &= matches!(&frame, Some(Frame::Iq(p)) if p.batch_index == b
                && p.timing == timing && p.trace_id == trace_id
                && p.pairs.iter().zip(&chain_out).all(|(g, e)| g.0 == e.i && g.1 == e.q)
                && p.pairs.len() == chain_out.len());
            black_box(frame);

            p.chain_allocs += a_chain;
            p.engine_allocs += a_eng;
            p.wire_allocs += a_dec + a_enc;
            p.samples += x.len();
            p.batches += 1;
        }
        // Pass 0 warms caches, allocator and branch predictors.
        if pass > 0 {
            passes.push(p);
        }
    }
    farm.shutdown();

    let per = |f: &dyn Fn(&Pass) -> f64| {
        let mut v: Vec<f64> = passes.iter().map(f).collect();
        median(&mut v)
    };
    let mut r = LayerReadings {
        chain_ns_per_sample: per(&|p| p.chain / p.samples as f64),
        chain_allocs_per_batch: per(&|p| p.chain_allocs as f64 / p.batches as f64),
        frontend_ns_per_sample: per(&|p| p.front / p.samples as f64),
        cic_ns_per_sample: per(&|p| p.cic / p.samples as f64),
        fir_ns_per_sample: per(&|p| p.fir / p.samples as f64),
        engine_submit_ns_per_sample: per(&|p| p.engine / p.samples as f64),
        engine_handoff_ns: per(&|p| median(&mut p.handoff.clone())),
        engine_allocs_per_batch: per(&|p| p.engine_allocs as f64 / p.batches as f64),
        wire_encode_samples_ns_per_sample: per(&|p| p.enc_samples / p.samples as f64),
        wire_decode_samples_ns_per_sample: per(&|p| p.dec_samples / p.samples as f64),
        wire_encode_iq_ns: per(&|p| p.enc_iq / p.batches as f64),
        wire_decode_iq_ns: per(&|p| p.dec_iq / p.batches as f64),
        wire_allocs_per_frame: per(&|p| p.wire_allocs as f64 / (2 * p.batches) as f64),
        exact,
        ..LayerReadings::default()
    };
    r.queue_push_pop_ns = queue_push_pop_ns(stim, spans);
    r.obs_span_ns = span_ns(spans);
    r
}

/// Times one item's trip through an uncontended `BoundedQueue`
/// (`push_wait` then `pop` on one thread), shaped like a server batch.
fn queue_push_pop_ns(stim: &Stimulus, spans: &mut SpanLog) -> f64 {
    struct Batch {
        _samples: Arc<Vec<i32>>,
        _index: u64,
        _arrived: Instant,
        _trace_id: u64,
    }
    let q = BoundedQueue::new(8);
    let mut item = Batch {
        _samples: Arc::new(stim.batch(0, 0).to_vec()),
        _index: 0,
        _arrived: Instant::now(),
        _trace_id: 0,
    };
    let mut per_pass = Vec::new();
    for pass in 0..=PASSES {
        let mut total = Duration::ZERO;
        for blk in 0..BLOCKS {
            let t0 = Instant::now();
            for _ in 0..BLOCK_OPS {
                let _ = black_box(q.push_wait(item));
                item = q.pop().expect("the queue is never closed");
            }
            let t1 = Instant::now();
            total += t1 - t0;
            spans.record("queue.push_pop x1000", blk as u64, t0, t1);
        }
        if pass > 0 {
            per_pass.push(total.as_nanos() as f64 / (BLOCKS * BLOCK_OPS) as f64);
        }
    }
    median(&mut per_pass)
}

/// Times `TraceSink::span` on a sink shaped like the server's.
fn span_ns(spans: &mut SpanLog) -> f64 {
    let sink = TraceSink::new(16, 4096);
    let name = sink.register_name("perfbench");
    let mut per_pass = Vec::new();
    for pass in 0..=PASSES {
        let mut total = Duration::ZERO;
        for blk in 0..BLOCKS {
            let t0 = Instant::now();
            for i in 0..BLOCK_OPS as u64 {
                sink.span(64, i + 1, name, i, i + 10);
            }
            let t1 = Instant::now();
            total += t1 - t0;
            spans.record("obs.span x1000", blk as u64, t0, t1);
        }
        if pass > 0 {
            per_pass.push(total.as_nanos() as f64 / (BLOCKS * BLOCK_OPS) as f64);
        }
    }
    median(&mut per_pass)
}
