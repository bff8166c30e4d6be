//! The benchmark's workloads and the seeded stimulus they send.
//!
//! Every workload runs the DRM preset; each session gets its own tune
//! frequency. The program only ever sees the generated ADC words.

use ddc_core::spec::DRM_INPUT_RATE;
use ddc_core::ChainSpec;
use ddc_dsp::signal::{adc_quantize, Mix, SampleSource, Tone, WhiteNoise};
use ddc_server::wire::{ConfigPreset, QosProfile};

/// How a session paces its batches.
#[derive(Clone, Copy, Debug)]
pub enum Pacing {
    /// Closed loop: keep this many batches outstanding; send the next
    /// one only when an ack arrives.
    Closed { outstanding: usize },
    /// Open loop: send on a fixed schedule of this many input samples
    /// per second, whether or not acks keep up.
    Open { rate_sps: f64 },
}

/// One traffic mix.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub sessions: usize,
    pub batch_samples: usize,
    pub pacing: Pacing,
    pub qos: QosProfile,
    /// Server-side trace head-sampling interval (0 = off).
    pub trace_interval: u32,
}

/// The latency budget `deadline_paced` negotiates, microseconds.
pub const DEADLINE_BUDGET_US: u32 = 2000;

pub const WORKLOADS: [Workload; 4] = [
    // Per-sample work dominates; the only mix that keeps both
    // processor threads busy.
    Workload {
        name: "bulk_2x",
        sessions: 2,
        batch_samples: 21504,
        pacing: Pacing::Closed { outstanding: 4 },
        qos: QosProfile::Throughput,
        trace_interval: 0,
    },
    // Per-frame costs dominate: one 2-pair batch in flight, so every
    // ack is a whole round trip through socket, poll and dispatch.
    Workload {
        name: "small_pingpong",
        sessions: 1,
        batch_samples: 5376,
        pacing: Pacing::Closed { outstanding: 1 },
        qos: QosProfile::Throughput,
        trace_interval: 0,
    },
    // Per-frame costs dominate: 2 output pairs per batch at about a
    // quarter of bulk capacity. Kept out of BENCHMARK.json: a backlog
    // here can fill the session queue, and a server whose read then
    // never resumes hangs the trial, so its failed count is not
    // repeatable (`server.stalls` shows it).
    Workload {
        name: "small_paced",
        sessions: 1,
        batch_samples: 5376,
        pacing: Pacing::Open { rate_sps: 20.0e6 },
        qos: QosProfile::Throughput,
        trace_interval: 0,
    },
    // Latency QoS with server-side span sampling: chunked farm
    // submission, timing trailers, deadline flushes and trace rings.
    Workload {
        name: "deadline_paced",
        sessions: 1,
        batch_samples: 21504,
        pacing: Pacing::Open {
            rate_sps: DRM_INPUT_RATE / 4.0,
        },
        qos: QosProfile::Latency {
            budget_us: DEADLINE_BUDGET_US,
        },
        trace_interval: 16,
    },
];

pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Distinct stimulus blocks per run; batches cycle through them, so
/// the client never generates samples while the clock runs.
const POOL_BLOCKS: usize = 32;

/// The seeded input of one run: a pool of ADC blocks and one tune
/// frequency per session.
pub struct Stimulus {
    pool: Vec<i32>,
    batch_samples: usize,
    tunes: Vec<f64>,
}

/// SplitMix64: a seed-to-parameter mixer, so nearby seeds give
/// unrelated stimuli.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A value in `[lo, hi)` on a 1 kHz grid, derived from `h`.
fn pick_hz(h: u64, lo: f64, hi: f64) -> f64 {
    let steps = ((hi - lo) / 1e3) as u64;
    lo + (h % steps) as f64 * 1e3
}

impl Stimulus {
    pub fn new(w: &Workload, seed: u64) -> Stimulus {
        let spec = ChainSpec::drm_reference();
        let fs = spec.input_rate;
        let tone_hz = pick_hz(mix64(seed), 1.0e6, 30.0e6);
        let mut src = Mix(
            Tone::new(tone_hz, fs, 0.5, 0.3),
            WhiteNoise::new(mix64(seed ^ 0x5EED), 0.15),
        );
        let pool = adc_quantize(
            &src.take_vec(POOL_BLOCKS * w.batch_samples),
            spec.format.data_bits,
        );
        let tunes = (0..w.sessions)
            .map(|k| pick_hz(mix64(seed.wrapping_add(k as u64 + 1)), 2.0e6, 30.0e6))
            .collect();
        Stimulus {
            pool,
            batch_samples: w.batch_samples,
            tunes,
        }
    }

    pub fn tune(&self, session: usize) -> f64 {
        self.tunes[session]
    }

    /// Session `session`'s batch `index`. Sessions start at different
    /// pool offsets, so their inputs differ as well as their tunes.
    pub fn batch(&self, session: usize, index: u64) -> &[i32] {
        let block = (index as usize + 11 * session) % POOL_BLOCKS;
        &self.pool[block * self.batch_samples..(block + 1) * self.batch_samples]
    }

    /// The chain spec the server builds for session `session`.
    pub fn spec(&self, session: usize) -> ChainSpec {
        ConfigPreset::Drm.to_spec(self.tune(session))
    }
}
