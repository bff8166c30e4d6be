//! perfbench — the service benchmark of the streaming DDC.
//!
//! ```text
//! perfbench --server PATH --workload NAME --seed N --seconds S --trace 0|1
//!           [--commit ID] [--out DIR]
//! perfbench --server PATH --self-test [--seed N]
//! ```
//!
//! A run is a series of trials. Each trial spawns the release
//! `ddc_server` binary, configures the workload's sessions over TCP
//! loopback (two client threads at most), streams through a warm-up
//! and a timed window, drains, shuts the server down and checks every
//! acked I/Q pair bit-exact against a local `FixedDdc`. `--seconds`
//! is the total length of the timed windows. End-to-end metrics are
//! medians over trials (CPU per sample is pooled) and pass only
//! through the wire protocol and the server binary.
//!
//! `--trace 1` repeats the run with client spans recorded, replays
//! each layer's public calls on the same stimulus, reads per-thread
//! server counters from `/proc`, and prints the per-layer metrics
//! instead; the spans go to `DIR/trace_<workload>.json` (Chrome
//! trace-event format). The last stdout line is always the result
//! object `{"correct", "attempted", "failed", "metrics"}`.
//!
//! `--self-test` stops the server with SIGSTOP halfway through one
//! `bulk_2x` window and checks that the watchdog ends the trial by its
//! deadline with the stall counted and the unacked batches failed.

mod alloc_count;
mod layers;
mod procfs;
mod stats;
mod trial;
mod workload;

use layers::LayerReadings;
use stats::{median, quantile, SpanLog};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trial::{TrialPlan, TrialResult};
use workload::{Stimulus, Workload};

#[global_allocator]
static ALLOC: alloc_count::Counting = alloc_count::Counting;

/// Streaming before the timed window of each trial.
const WARMUP: Duration = Duration::from_millis(200);
/// Timed window of one trial; a run is `--seconds` worth of them.
const WINDOW: Duration = Duration::from_millis(500);
const DRAIN_GRACE: Duration = Duration::from_millis(500);
const SHUTDOWN_DEADLINE: Duration = Duration::from_secs(1);
const SETUP_DEADLINE: Duration = Duration::from_secs(2);
/// Wall-clock budget for all trials of one invocation. A run whose
/// trials keep hitting their deadlines stops starting new ones here,
/// so the whole invocation ends within three minutes.
const RUN_BUDGET: Duration = Duration::from_secs(150);
/// Longest a trial can take: every phase at its deadline, plus
/// start-up and verification.
const TRIAL_WORST: Duration = Duration::from_millis(
    (ARRIVAL_SPREAD.as_millis() + WARMUP.as_millis() + WINDOW.as_millis()) as u64
        + (SETUP_DEADLINE.as_millis() + DRAIN_GRACE.as_millis() + SHUTDOWN_DEADLINE.as_millis())
            as u64
        + 1000,
);
/// Clients arrive at a seeded random point this wide after the server
/// starts (see `trial::run`).
const ARRIVAL_SPREAD: Duration = Duration::from_millis(10);
/// Bounds of the stage-sum check: the three stages run one by one
/// must cost the whole chain within 10%.
const STAGE_SUM_TOLERANCE: f64 = 0.10;

struct Args {
    server: String,
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    commit: String,
    out: Option<String>,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        server: String::new(),
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        commit: "unknown".into(),
        out: None,
        self_test: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut k = 0;
    while k < argv.len() {
        let flag = argv[k].as_str();
        if flag == "--self-test" {
            a.self_test = true;
            k += 1;
            continue;
        }
        let v = argv
            .get(k + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {v:?}"))
        };
        match flag {
            "--server" => a.server = v.clone(),
            "--workload" => a.workload = v.clone(),
            "--seed" => a.seed = num(v)?,
            "--seconds" => a.seconds = num(v)?.max(1),
            "--trace" => a.trace = num(v)? != 0,
            "--commit" => a.commit = v.clone(),
            "--out" => a.out = Some(v.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
        k += 2;
    }
    if a.server.is_empty() {
        return Err("--server is required".into());
    }
    if !a.self_test && workload::by_name(&a.workload).is_none() {
        let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("--workload must be one of {names:?}"));
    }
    Ok(a)
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a set of trials measured.
#[derive(Default)]
struct Summary {
    setup_s: f64,
    throughput_msps: f64,
    latency_p50_us: f64,
    latency_p90_us: f64,
    latency_p99_us: f64,
    latency_samples: u64,
    cpu_ns_per_sample: f64,
    group_ns_per_sample: [f64; 3],
    ctxsw_per_batch: f64,
    peak_rss_mib: f64,
    attempted: u64,
    failed: u64,
    mismatched: u64,
    stalls: u64,
    shutdown_hangs: u64,
    shutdown_s: f64,
    send_us_p50: f64,
    gen_lag_us_p99: f64,
    deadline_miss_frac: f64,
    queue_hwm: u32,
    trace_dropped: u64,
}

impl Summary {
    fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    fn end_to_end(&self) -> Vec<Metric> {
        vec![
            m("setup_s", self.setup_s, "s"),
            m("throughput_msps", self.throughput_msps, "Ms/s"),
            m("latency_p50_us", self.latency_p50_us, "us"),
            m("latency_p90_us", self.latency_p90_us, "us"),
            m("server_cpu_ns_per_sample", self.cpu_ns_per_sample, "ns"),
            m("server_peak_rss_mb", self.peak_rss_mib, "MiB"),
        ]
    }
}

fn summarize(w: &Workload, trials: &[TrialResult]) -> Summary {
    let budget_ns = w.qos.budget_us().map(|b| u64::from(b) * 1000);
    let mut s = Summary::default();
    let (mut thr, mut p50, mut p90, mut p99) = (vec![], vec![], vec![], vec![]);
    let (mut setup, mut rss, mut shutdown) = (vec![], vec![], vec![]);
    let (mut send_us, mut lag_us) = (vec![], vec![]);
    let (mut samples, mut batches, mut window_sent, mut misses) = (0u64, 0u64, 0u64, 0u64);
    let (mut cpu_ticks, mut group_ticks, mut ctxsw) = (0u64, [0u64; 3], 0u64);
    for t in trials {
        let Some(setup_s) = t.setup_s else {
            // No window: the set-up itself is the operation that failed.
            s.stalls += 1;
            s.attempted += 1;
            s.failed += 1;
            continue;
        };
        setup.push(setup_s);
        rss.push(t.peak_rss_bytes as f64 / (1u64 << 20) as f64);
        match t.shutdown_s {
            Some(v) => shutdown.push(v),
            None if !t.stalled => s.shutdown_hangs += 1,
            None => {}
        }
        s.stalls += u64::from(t.stalled);
        let in_window = |ns: u64| ns >= t.w0_ns && ns < t.w1_ns;
        let mut lat = Vec::new();
        let mut trial_samples = 0u64;
        for log in &t.sessions {
            let mut ack_of = vec![None; log.sent.len()];
            for a in &log.acks {
                s.mismatched += u64::from(!a.exact);
                if a.exact && in_window(a.recv_ns) {
                    trial_samples += w.batch_samples as u64;
                    batches += 1;
                }
                if let Some(slot) = ack_of.get_mut(a.batch as usize) {
                    *slot = Some(a);
                }
            }
            s.attempted += log.sent.len() as u64;
            s.failed += ack_of
                .iter()
                .filter(|a| !a.is_some_and(|a| a.exact))
                .count() as u64;
            for (sent, ack) in log.sent.iter().zip(&ack_of) {
                if !in_window(sent.due_ns) {
                    continue;
                }
                window_sent += 1;
                send_us.push(sent.end_ns.saturating_sub(sent.start_ns) as f64 / 1e3);
                lag_us.push(sent.start_ns.saturating_sub(sent.due_ns) as f64 / 1e3);
                match ack.filter(|a| a.exact) {
                    Some(a) => {
                        let ns = a.recv_ns.saturating_sub(sent.due_ns);
                        lat.push(ns as f64 / 1e3);
                        misses += u64::from(budget_ns.is_some_and(|b| ns > b));
                    }
                    None => misses += 1,
                }
            }
            s.queue_hwm = s.queue_hwm.max(log.queue_hwm);
            s.trace_dropped += log.trace_dropped;
        }
        let window_s = (t.w1_ns - t.w0_ns) as f64 * 1e-9;
        thr.push(trial_samples as f64 / window_s / 1e6);
        samples += trial_samples;
        s.latency_samples += lat.len() as u64;
        if !lat.is_empty() {
            p50.push(quantile(&mut lat, 0.50));
            p90.push(quantile(&mut lat, 0.90));
            p99.push(quantile(&mut lat, 0.99));
        }
        cpu_ticks += t.cpu.cpu_ticks;
        for (g, v) in group_ticks.iter_mut().zip(t.cpu.group_ticks) {
            *g += v;
        }
        ctxsw += t.cpu.ctxsw;
    }
    let per_sample = |ticks: u64| ticks as f64 * procfs::TICK_NS / samples.max(1) as f64;
    s.setup_s = median(&mut setup);
    s.throughput_msps = median(&mut thr);
    s.latency_p50_us = median(&mut p50);
    s.latency_p90_us = median(&mut p90);
    s.latency_p99_us = median(&mut p99);
    s.cpu_ns_per_sample = per_sample(cpu_ticks);
    s.group_ns_per_sample = group_ticks.map(per_sample);
    s.ctxsw_per_batch = ctxsw as f64 / batches.max(1) as f64;
    s.peak_rss_mib = median(&mut rss);
    s.shutdown_s = median(&mut shutdown);
    s.send_us_p50 = median(&mut send_us);
    s.gen_lag_us_p99 = quantile(&mut lag_us, 0.99);
    s.deadline_miss_frac = if budget_ns.is_some() {
        misses as f64 / window_sent.max(1) as f64
    } else {
        0.0
    };
    s
}

/// Seeded client arrival delay of trial `k`, uniform over
/// `[0, ARRIVAL_SPREAD)`.
fn arrival_delay(seed: u64, k: usize) -> Duration {
    let h = workload::mix64(seed ^ (k as u64).wrapping_mul(0xA076_1D64_78BD_642F));
    ARRIVAL_SPREAD.mul_f64((h >> 11) as f64 / (1u64 << 53) as f64)
}

fn run_trials(
    args: &Args,
    w: &Workload,
    stim: &Stimulus,
    plan: &TrialPlan,
    span_origin: Instant,
    deadline: Instant,
) -> Result<Vec<TrialResult>, String> {
    let n = ((args.seconds as f64 / WINDOW.as_secs_f64()).round() as usize).max(1);
    let mut trials = Vec::with_capacity(n);
    for k in 0..n {
        if Instant::now() + TRIAL_WORST > deadline {
            println!("# {}: run budget spent after {k} of {n} trials", w.name);
            break;
        }
        let t = trial::run(
            &args.server,
            w,
            stim,
            plan,
            arrival_delay(args.seed, k),
            span_origin,
        )?;
        let s = summarize(w, std::slice::from_ref(&t));
        println!(
            "# {} trial {k}: {} sent, {} failed, setup {:.2} ms, {:.2} Ms/s, p50 {:.1} us, p90 {:.1} us, p99 {:.1} us, cpu {:.2} ns/sample, shutdown {}",
            w.name,
            s.attempted,
            s.failed,
            s.setup_s * 1e3,
            s.throughput_msps,
            s.latency_p50_us,
            s.latency_p90_us,
            s.latency_p99_us,
            s.cpu_ns_per_sample,
            t.shutdown_s
                .map_or_else(|| "none".to_string(), |v| format!("{:.2} ms", v * 1e3))
        );
        if t.stalled {
            let when = if t.setup_s.is_none() {
                "set-up outlived its deadline"
            } else {
                "acks missing at the drain deadline"
            };
            println!("# stall: {} trial {k}: {when}; server killed", w.name);
        }
        for (j, log) in t.sessions.iter().enumerate() {
            if let Some(e) = &log.error {
                println!("# {} trial {k} session {j}: {e}", w.name);
            }
        }
        trials.push(t);
    }
    Ok(trials)
}

fn print_metrics(workload: &str, label: &str, metrics: &[Metric]) {
    for x in metrics {
        println!(
            "{workload:<15} {label:<7} {:<36} {:>14.4} {}",
            x.name, x.value, x.unit
        );
    }
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            let v = if x.value.is_finite() { x.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                x.name, x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn plan(traced: bool) -> TrialPlan {
    TrialPlan {
        warmup: WARMUP,
        window: WINDOW,
        drain_grace: DRAIN_GRACE,
        shutdown_deadline: SHUTDOWN_DEADLINE,
        setup_deadline: SETUP_DEADLINE,
        traced,
        stop_server_after: None,
    }
}

fn run(args: &Args) -> Result<(), String> {
    let w = workload::by_name(&args.workload).expect("checked in parse_args");
    let stim = Stimulus::new(&w, args.seed);
    let host = procfs::host_record(&args.commit, args.seed);
    println!("# host {host}");
    println!(
        "# workload {}: {} session(s), {}-sample batches, {:?}, {:?}",
        w.name, w.sessions, w.batch_samples, w.pacing, w.qos
    );
    let start = Instant::now();
    // The traced run, when there is one, gets the second half.
    let share = if args.trace { 2 } else { 1 };
    let budget = start + RUN_BUDGET / share;
    let untraced = run_trials(args, &w, &stim, &plan(false), start, budget)?;
    let base = summarize(&w, &untraced);
    let e2e = base.end_to_end();
    print_metrics(w.name, "e2e", &e2e);
    println!(
        "{:<15} {:<7} {:<36} {:>14} count",
        w.name, "e2e", "latency_samples", base.latency_samples
    );
    println!(
        "{:<15} {:<7} {:<36} {:>14.6} frac",
        w.name,
        "e2e",
        "failed_frac",
        base.failed_frac()
    );
    if !args.trace {
        let correct = base.mismatched == 0;
        println!(
            "{}",
            result_json(correct, base.attempted, base.failed, &e2e)
        );
        return Ok(());
    }

    let traced = run_trials(args, &w, &stim, &plan(true), start, start + RUN_BUDGET)?;
    let tr = summarize(&w, &traced);
    let mut logs: Vec<SpanLog> = Vec::new();
    for log in traced.into_iter().flat_map(|t| t.spans) {
        match logs.iter_mut().find(|l| l.track == log.track) {
            Some(l) => l.spans.extend(log.spans),
            None => logs.push(log),
        }
    }
    let mut replay_spans = SpanLog::new(start, true, "layer replay");
    let l = layers::replay(&w, &stim, &mut replay_spans);
    logs.push(replay_spans);

    let ratio = l.stage_sum_ratio();
    let stage_sum_ok = (ratio - 1.0).abs() <= STAGE_SUM_TOLERANCE;
    let per_layer = per_layer_metrics(&w, &base, &tr, &l);
    print_metrics(w.name, "layer", &per_layer);
    if !stage_sum_ok {
        println!(
            "# stage-sum check failed: the stages cost {ratio:.3} of the chain \
             (allowed 1 ± {STAGE_SUM_TOLERANCE})"
        );
    }
    if !l.exact {
        println!("# a replayed layer did not reproduce the chain's output");
    }
    if let Some(dir) = &args.out {
        let path = format!("{dir}/trace_{}.json", w.name);
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, stats::chrome_json(&logs, &host)))
            .map_err(|e| format!("write {path}: {e}"))?;
        println!("# spans written to {path}");
    }
    let correct = base.mismatched == 0 && tr.mismatched == 0 && stage_sum_ok && l.exact;
    let (attempted, failed) = (base.attempted + tr.attempted, base.failed + tr.failed);
    println!("{}", result_json(correct, attempted, failed, &per_layer));
    Ok(())
}

/// The per-layer metrics: the layer replays, the traced run's client
/// and `/proc` readings, and the traced run against the untraced one.
fn per_layer_metrics(w: &Workload, base: &Summary, tr: &Summary, l: &LayerReadings) -> Vec<Metric> {
    let batch = w.batch_samples as f64;
    // What the median batch spent outside the client, wire, queue and
    // engine costs the replays account for: socket, poll, dispatch and
    // wake-up time.
    let accounted_ns = l.wire_decode_samples_ns_per_sample * batch
        + l.queue_push_pop_ns
        + l.engine_submit_ns_per_sample * batch
        + l.wire_encode_iq_ns
        + l.wire_decode_iq_ns;
    let unattributed_us = tr.latency_p50_us - tr.send_us_p50 - accounted_ns / 1e3;
    let overhead = (tr.latency_p50_us / base.latency_p50_us - 1.0)
        .abs()
        .max((tr.throughput_msps / base.throughput_msps - 1.0).abs());
    let [shard, proc_, farm] = tr.group_ns_per_sample;
    vec![
        m("chain.ns_per_sample", l.chain_ns_per_sample, "ns"),
        m("chain.allocs_per_batch", l.chain_allocs_per_batch, "count"),
        m("frontend.ns_per_sample", l.frontend_ns_per_sample, "ns"),
        m("cic.ns_per_sample", l.cic_ns_per_sample, "ns"),
        m("fir.ns_per_sample", l.fir_ns_per_sample, "ns"),
        m("chain.stage_sum_ratio", l.stage_sum_ratio(), "ratio"),
        m(
            "engine.submit_ns_per_sample",
            l.engine_submit_ns_per_sample,
            "ns",
        ),
        m("engine.handoff_ns", l.engine_handoff_ns, "ns"),
        m(
            "engine.allocs_per_batch",
            l.engine_allocs_per_batch,
            "count",
        ),
        m(
            "wire.encode_samples_ns_per_sample",
            l.wire_encode_samples_ns_per_sample,
            "ns",
        ),
        m(
            "wire.decode_samples_ns_per_sample",
            l.wire_decode_samples_ns_per_sample,
            "ns",
        ),
        m("wire.encode_iq_ns", l.wire_encode_iq_ns, "ns"),
        m("wire.decode_iq_ns", l.wire_decode_iq_ns, "ns"),
        m("wire.allocs_per_frame", l.wire_allocs_per_frame, "count"),
        m("queue.push_pop_ns", l.queue_push_pop_ns, "ns"),
        m("queue.hwm", f64::from(tr.queue_hwm), "count"),
        m("obs.span_ns", l.obs_span_ns, "ns"),
        m("obs.trace_dropped", tr.trace_dropped as f64, "count"),
        m("server.shard_cpu_ns_per_sample", shard, "ns"),
        m("server.proc_cpu_ns_per_sample", proc_, "ns"),
        m("server.farm_cpu_ns_per_sample", farm, "ns"),
        m("server.ctxsw_per_batch", tr.ctxsw_per_batch, "count"),
        m("server.unattributed_us", unattributed_us, "us"),
        m("server.stalls", tr.stalls as f64, "count"),
        m("server.shutdown_hangs", tr.shutdown_hangs as f64, "count"),
        m("server.shutdown_s", tr.shutdown_s, "s"),
        m("client.send_us_p50", tr.send_us_p50, "us"),
        m("client.gen_lag_us_p99", tr.gen_lag_us_p99, "us"),
        m("client.latency_p99_us", tr.latency_p99_us, "us"),
        m("client.deadline_miss_frac", tr.deadline_miss_frac, "frac"),
        m("client.latency_samples", tr.latency_samples as f64, "count"),
        m("failed_frac", tr.failed_frac(), "frac"),
        m("bench.trace_overhead_frac", overhead, "frac"),
    ]
}

/// SIGSTOPs the server halfway through one `bulk_2x` window; passes
/// if the watchdog ends the trial by its deadline with one stall and
/// a non-zero failed fraction.
fn self_test(args: &Args) -> Result<bool, String> {
    let w = workload::by_name("bulk_2x").expect("bulk_2x exists");
    let stim = Stimulus::new(&w, args.seed);
    let mut p = plan(false);
    p.stop_server_after = Some(WINDOW / 2);
    let t0 = Instant::now();
    let t = trial::run(&args.server, &w, &stim, &p, Duration::ZERO, t0)?;
    let took = t0.elapsed();
    let s = summarize(&w, std::slice::from_ref(&t));
    let bound = TRIAL_WORST;
    println!("self-test: trial took {took:?} (bound {bound:?})");
    println!(
        "self-test: server.stalls {} failed_frac {:.6}",
        s.stalls,
        s.failed_frac()
    );
    let pass = s.stalls == 1 && s.failed_frac() > 0.0 && took <= bound && s.mismatched == 0;
    println!("self-test: {}", if pass { "PASS" } else { "FAIL" });
    Ok(pass)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let r = if args.self_test {
        self_test(&args)
    } else {
        run(&args).map(|()| true)
    };
    match r {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
