//! One trial: spawn `ddc_server`, configure the workload's sessions,
//! stream through a warm-up and a timed window, drain, shut the server
//! down, then check every acked batch bit-exact against `FixedDdc`.
//!
//! A watchdog bounds every phase. If the set-up outlives its deadline,
//! or acks are still missing when the drain deadline passes, the trial
//! counts as stalled: the server is killed (which unblocks the client
//! threads) and every unacked batch counts as failed. A server that
//! outlives its shutdown deadline after stdin EOF is killed too, and
//! its shutdown time is not recorded.

use crate::procfs::{self, ProcSnap};
use crate::stats::SpanLog;
use crate::workload::{Pacing, Stimulus, Workload};
use ddc_core::FixedDdc;
use ddc_server::client::{ClientError, ClientReceiver, ClientSender};
use ddc_server::wire::{Backpressure, ConfigPreset, Frame};
use ddc_server::Client;
use std::io::{self, BufRead, BufReader};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

/// Timing of one trial's phases.
#[derive(Clone, Copy, Debug)]
pub struct TrialPlan {
    pub warmup: Duration,
    pub window: Duration,
    /// How long after the window the outstanding acks may take.
    pub drain_grace: Duration,
    /// How long the server may take to exit after stdin EOF.
    pub shutdown_deadline: Duration,
    /// How long spawn-to-last-Configure-ack may take.
    pub setup_deadline: Duration,
    /// Record client spans and scrape the server's trace rings.
    pub traced: bool,
    /// Self-test: SIGSTOP the server this long into the window.
    pub stop_server_after: Option<Duration>,
}

#[derive(Clone, Copy, Debug)]
pub struct SendRec {
    /// When the batch was due: its schedule slot (open loop) or the
    /// start of its send (closed loop), ns from the trial origin.
    pub due_ns: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Clone, Copy, Debug)]
pub struct AckRec {
    pub batch: u64,
    pub recv_ns: u64,
    pub pairs_at: usize,
    pub n_pairs: usize,
    /// Set by verification.
    pub exact: bool,
}

/// What one session's client threads saw.
#[derive(Default)]
pub struct SessionLog {
    /// Indexed by batch id.
    pub sent: Vec<SendRec>,
    pub acks: Vec<AckRec>,
    pub pairs: Vec<(i64, i64)>,
    pub queue_hwm: u32,
    pub trace_dropped: u64,
    pub error: Option<String>,
}

pub struct TrialResult {
    /// `None` when the set-up outlived its deadline.
    pub setup_s: Option<f64>,
    /// `None` when the server outlived its shutdown deadline.
    pub shutdown_s: Option<f64>,
    pub stalled: bool,
    pub w0_ns: u64,
    pub w1_ns: u64,
    /// Server counter growth over the timed window.
    pub cpu: ProcSnap,
    pub peak_rss_bytes: u64,
    pub sessions: Vec<SessionLog>,
    pub spans: Vec<SpanLog>,
}

/// A spawned `ddc_server` and the pipes that keep it alive.
struct ServerProc {
    child: Child,
    stdin: Option<ChildStdin>,
    /// Held open so the server's exit message never hits a closed pipe.
    stdout: BufReader<ChildStdout>,
}

impl ServerProc {
    fn spawn(server_bin: &str) -> io::Result<ServerProc> {
        let mut child = Command::new(server_bin)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(ServerProc {
            child,
            stdin,
            stdout,
        })
    }

    /// Waits for the start-up banner and returns the bound address.
    fn address(&mut self) -> io::Result<String> {
        let mut line = String::new();
        self.stdout.read_line(&mut line)?;
        // "ddc-server listening on 127.0.0.1:PORT (N session slots); ..."
        line.split_whitespace()
            .skip_while(|w| *w != "on")
            .nth(1)
            .map(str::to_string)
            .ok_or_else(|| io::Error::other(format!("unexpected server banner {line:?}")))
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Closes stdin and waits for the exit; `None` if the deadline
    /// passed first (the server is then killed).
    fn shutdown(&mut self, deadline: Duration) -> Option<f64> {
        let t0 = Instant::now();
        drop(self.stdin.take());
        loop {
            if let Ok(Some(_)) = self.child.try_wait() {
                return Some(t0.elapsed().as_secs_f64());
            }
            if t0.elapsed() >= deadline {
                self.kill();
                return None;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            self.kill();
        }
    }
}

fn ns_since(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// What every client thread of a trial shares.
#[derive(Clone, Copy)]
struct Stream<'a> {
    stim: &'a Stimulus,
    origin: Instant,
    /// End of the window: no batch goes out at or after it.
    w1_ns: u64,
    /// Ask for a scrape of the server's trace rings with the final stats.
    scrape_trace: bool,
}

impl Stream<'_> {
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn at(&self, ns: u64) -> Instant {
        self.origin + Duration::from_nanos(ns)
    }

    /// The requests a session sends once its stream has ended: the
    /// final stats (queue high-water mark) and, in the traced run, a
    /// trace scrape (its drop count).
    fn final_requests(&self) -> Vec<Frame> {
        let mut v = vec![Frame::StatsRequest];
        if self.scrape_trace {
            v.push(Frame::TraceRequest);
        }
        v
    }
}

/// Receive-side bookkeeping shared by both loop shapes.
struct Receiving {
    log: SessionLog,
    origin: Instant,
    scrape_trace: bool,
    stats_seen: bool,
    trace_seen: bool,
}

impl Receiving {
    fn new(st: &Stream) -> Receiving {
        Receiving {
            log: SessionLog::default(),
            origin: st.origin,
            scrape_trace: st.scrape_trace,
            stats_seen: false,
            trace_seen: false,
        }
    }

    /// Files one receive result; false when the session must end (a
    /// transport error or a frame it cannot accept, both logged).
    fn take(&mut self, received: Result<Frame, ClientError>) -> bool {
        let recv_ns = ns_since(self.origin);
        let frame = match received {
            Ok(f) => f,
            Err(e) => {
                self.log.error = Some(format!("recv: {e}"));
                return false;
            }
        };
        match frame {
            Frame::Iq(p) => {
                let at = self.log.pairs.len();
                self.log.pairs.extend_from_slice(&p.pairs);
                self.log.acks.push(AckRec {
                    batch: p.batch_index,
                    recv_ns,
                    pairs_at: at,
                    n_pairs: p.pairs.len(),
                    exact: false,
                });
            }
            Frame::StatsReport(r) => {
                self.log.queue_hwm = r.queue_hwm;
                self.stats_seen = true;
            }
            Frame::TraceReport(t) => {
                self.log.trace_dropped = t.dropped;
                self.trace_seen = true;
            }
            other => {
                self.log.error = Some(format!("unexpected frame {other:?}"));
                return false;
            }
        }
        true
    }

    /// The replies to [`Stream::final_requests`] are in.
    fn replies_in(&self) -> bool {
        self.stats_seen && (self.trace_seen || !self.scrape_trace)
    }
}

/// Closed loop on one connection: keep `outstanding` batches in
/// flight until the window closes, then collect the rest and the
/// final replies.
fn closed_loop(
    mut client: Client,
    session: usize,
    outstanding: usize,
    st: Stream,
    spans: &mut SpanLog,
) -> SessionLog {
    let mut rx = Receiving::new(&st);
    let mut in_flight = 0usize;
    loop {
        while in_flight < outstanding && ns_since(st.origin) < st.w1_ns {
            let b = rx.log.sent.len() as u64;
            let t0 = Instant::now();
            if let Err(e) = client.send_samples(b, st.stim.batch(session, b)) {
                rx.log.error = Some(format!("send: {e}"));
                return rx.log;
            }
            let t1 = Instant::now();
            rx.log.sent.push(SendRec {
                due_ns: st.ns(t0),
                start_ns: st.ns(t0),
                end_ns: st.ns(t1),
            });
            spans.record("client.send", b, t0, t1);
            in_flight += 1;
        }
        if in_flight == 0 {
            break;
        }
        let acked = rx.log.acks.len();
        if !rx.take(client.recv()) {
            return rx.log;
        }
        if let Some(a) = rx.log.acks.get(acked) {
            in_flight -= 1;
            if let Some(s) = rx.log.sent.get(a.batch as usize) {
                spans.record("client.rtt", a.batch, st.at(s.due_ns), st.at(a.recv_ns));
            }
        }
    }
    for f in st.final_requests() {
        if let Err(e) = client.send(&f) {
            rx.log.error = Some(format!("send: {e}"));
            return rx.log;
        }
    }
    while !rx.replies_in() && rx.take(client.recv()) {}
    rx.log
}

/// Open-loop sender: batch `b` is due at `b · period`; sends stop at
/// the end of the window. Publishes how many batches went out before
/// sending the final requests.
fn open_sender(
    mut tx: ClientSender,
    period_ns: f64,
    st: Stream,
    sent_total: &AtomicU64,
    spans: &mut SpanLog,
) -> (Vec<SendRec>, Option<String>) {
    let mut sent = Vec::new();
    let mut error = None;
    for b in 0u64.. {
        let due_ns = (b as f64 * period_ns) as u64;
        if due_ns >= st.w1_ns {
            break;
        }
        sleep_until(st.at(due_ns));
        let t0 = Instant::now();
        if let Err(e) = tx.send_samples(b, st.stim.batch(0, b)) {
            error = Some(format!("send: {e}"));
            break;
        }
        let t1 = Instant::now();
        sent.push(SendRec {
            due_ns,
            start_ns: st.ns(t0),
            end_ns: st.ns(t1),
        });
        spans.record("client.send", b, t0, t1);
    }
    sent_total.store(sent.len() as u64, Ordering::SeqCst);
    if error.is_none() {
        for f in st.final_requests() {
            if let Err(e) = tx.send(&f) {
                error = Some(format!("send: {e}"));
                break;
            }
        }
    }
    (sent, error)
}

/// Open-loop receiver: files acks until every sent batch is acked and
/// the final replies are in, or the connection dies.
fn open_receiver(mut rx_half: ClientReceiver, st: Stream, sent_total: &AtomicU64) -> SessionLog {
    let mut rx = Receiving::new(&st);
    // The final requests go out after `sent_total` is published, so
    // once their replies are in, the total is known.
    let done = |rx: &Receiving| {
        rx.replies_in() && rx.log.acks.len() as u64 >= sent_total.load(Ordering::SeqCst)
    };
    while !done(&rx) && rx.take(rx_half.recv()) {}
    rx.log
}

fn connect(w: &Workload, stim: &Stimulus, addr: &str, k: usize) -> Result<Client, String> {
    let mut c =
        Client::connect(addr, &format!("perfbench-{k}")).map_err(|e| format!("connect: {e}"))?;
    c.set_qos(w.qos);
    c.set_trace_interval(w.trace_interval);
    c.configure(ConfigPreset::Drm, stim.tune(k), Backpressure::Block, 0)
        .map_err(|e| format!("configure: {e}"))?;
    Ok(c)
}

/// Kills `pid` unless `cancel` fires (or hangs up) within `deadline`;
/// returns whether it killed.
fn watchdog(pid: u32, deadline: Duration, cancel: mpsc::Receiver<()>) -> bool {
    if let Err(RecvTimeoutError::Timeout) = cancel.recv_timeout(deadline) {
        let _ = Command::new("kill")
            .args(["-KILL", &pid.to_string()])
            .status();
        return true;
    }
    false
}

/// Runs one trial. The clients connect `arrival_delay` after the
/// server announces itself, so their arrival does not lock onto the
/// phase of the server's start-up timers; that wait is not part of
/// the set-up time. A set-up that outlives its deadline counts as a
/// stalled trial with no batches. `Err` only for a server that cannot
/// be started or configured — the benchmark itself is then broken.
pub fn run(
    server_bin: &str,
    w: &Workload,
    stim: &Stimulus,
    plan: &TrialPlan,
    arrival_delay: Duration,
    span_origin: Instant,
) -> Result<TrialResult, String> {
    let t_spawn = Instant::now();
    let mut server = ServerProc::spawn(server_bin).map_err(|e| format!("spawn server: {e}"))?;
    let pid = server.pid();
    let (cancel, cancelled) = mpsc::channel();
    let (setup, killed) = std::thread::scope(|s| {
        let dog = s.spawn(|| watchdog(pid, plan.setup_deadline, cancelled));
        let setup = (|| {
            let addr = server
                .address()
                .map_err(|e| format!("server banner: {e}"))?;
            let to_banner = t_spawn.elapsed();
            std::thread::sleep(arrival_delay);
            let t_connect = Instant::now();
            let clients = (0..w.sessions)
                .map(|k| connect(w, stim, &addr, k))
                .collect::<Result<Vec<_>, _>>()?;
            Ok::<_, String>((clients, (to_banner + t_connect.elapsed()).as_secs_f64()))
        })();
        let _ = cancel.send(());
        (setup, dog.join().expect("watchdog thread panicked"))
    });
    if killed {
        server.kill();
        return Ok(TrialResult {
            setup_s: None,
            shutdown_s: None,
            stalled: true,
            w0_ns: 0,
            w1_ns: 0,
            cpu: ProcSnap::default(),
            peak_rss_bytes: 0,
            sessions: Vec::new(),
            spans: Vec::new(),
        });
    }
    let (clients, setup_s) = setup?;

    let origin = Instant::now();
    let st = Stream {
        stim,
        origin,
        w1_ns: (plan.warmup + plan.window).as_nanos() as u64,
        scrape_trace: plan.traced && w.trace_interval > 0,
    };
    let (mut w0_ns, mut w1_ns) = (0, 0);
    let sent_total = AtomicU64::new(u64::MAX);
    let mut stalled = false;
    let mut cpu = ProcSnap::default();
    let mut peak_rss_bytes = 0;

    let (sessions, spans) = std::thread::scope(|s| {
        let mut handles = Vec::new();
        let mut open_handles = None;
        match w.pacing {
            Pacing::Closed { outstanding } => {
                for (k, c) in clients.into_iter().enumerate() {
                    handles.push(s.spawn(move || {
                        let mut spans = SpanLog::new(span_origin, plan.traced, "client");
                        let log = closed_loop(c, k, outstanding, st, &mut spans);
                        (log, spans)
                    }));
                }
            }
            Pacing::Open { rate_sps } => {
                let c = clients.into_iter().next().expect("one open-loop session");
                let (tx, rx) = c.split();
                let period_ns = w.batch_samples as f64 / rate_sps * 1e9;
                let sent_total = &sent_total;
                let snd = s.spawn(move || {
                    let mut spans = SpanLog::new(span_origin, plan.traced, "client.sender");
                    let r = open_sender(tx, period_ns, st, sent_total, &mut spans);
                    (r, spans)
                });
                let rcv = s.spawn(move || open_receiver(rx, st, sent_total));
                open_handles = Some((snd, rcv));
            }
        }

        // The window runs between the two readings, as they happened.
        sleep_until(origin + plan.warmup);
        w0_ns = ns_since(origin);
        let before = procfs::snapshot(pid).unwrap_or_default();
        if let Some(after) = plan.stop_server_after {
            sleep_until(origin + plan.warmup + after);
            let _ = Command::new("kill")
                .args(["-STOP", &pid.to_string()])
                .status();
        }
        sleep_until(origin + plan.warmup + plan.window);
        w1_ns = ns_since(origin);
        cpu = procfs::snapshot(pid).unwrap_or_default().since(&before);
        peak_rss_bytes = procfs::peak_rss_bytes(pid).unwrap_or(0);

        // Watchdog: the drain must finish by the deadline.
        let deadline = origin + plan.warmup + plan.window + plan.drain_grace;
        loop {
            let finished = match &open_handles {
                Some((a, b)) => a.is_finished() && b.is_finished(),
                None => handles.iter().all(|h| h.is_finished()),
            };
            if finished {
                break;
            }
            if Instant::now() >= deadline {
                stalled = true;
                server.kill();
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }

        match open_handles {
            Some((snd, rcv)) => {
                let ((sent, send_err), spans) = snd.join().expect("sender thread panicked");
                let mut log = rcv.join().expect("receiver thread panicked");
                log.sent = sent;
                if log.error.is_none() {
                    log.error = send_err;
                }
                (vec![log], vec![spans])
            }
            None => handles
                .into_iter()
                .map(|h| h.join().expect("session thread panicked"))
                .unzip(),
        }
    });

    let shutdown_s = if stalled {
        None
    } else {
        server.shutdown(plan.shutdown_deadline)
    };
    let mut r = TrialResult {
        setup_s: Some(setup_s),
        shutdown_s,
        stalled,
        w0_ns,
        w1_ns,
        cpu,
        peak_rss_bytes,
        sessions,
        spans,
    };
    verify(&mut r, stim);
    Ok(r)
}

/// Marks every ack that matches a local `FixedDdc` fed the same
/// batches in the same order. Runs after the trial, off the clock;
/// sessions verify in parallel.
fn verify(r: &mut TrialResult, stim: &Stimulus) {
    std::thread::scope(|s| {
        for (k, log) in r.sessions.iter_mut().enumerate() {
            s.spawn(move || {
                let mut ddc = FixedDdc::from_spec(stim.spec(k));
                let mut out = Vec::new();
                let mut last: Option<u64> = None;
                for a in log.acks.iter_mut() {
                    // Acks arrive in batch order; a batch the server
                    // dropped never ran, so it is skipped here too.
                    if last.is_some_and(|l| a.batch <= l) || a.batch as usize >= log.sent.len() {
                        a.exact = false;
                        continue;
                    }
                    last = Some(a.batch);
                    out.clear();
                    ddc.process_into(stim.batch(k, a.batch), &mut out);
                    let got = &log.pairs[a.pairs_at..a.pairs_at + a.n_pairs];
                    a.exact = out.len() == got.len()
                        && out.iter().zip(got).all(|(e, g)| e.i == g.0 && e.q == g.1);
                }
            });
        }
    });
}
