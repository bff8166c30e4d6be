//! The sharded readiness runtime: listener, shard loops, processor
//! pool, session registry, channel-slot allocation and graceful
//! shutdown.
//!
//! The server owns one [`DdcFarm`] with `max_sessions` channels. A
//! connection claims a free channel slot at Configure time (binding the
//! session's `DdcConfig` to it via `reconfigure_channel`) and returns
//! it when the session ends, so the worker pool is shared by every
//! session while channel state stays strictly per-session — the same
//! organisation as the GC4016's four hard channels behind one ADC bus,
//! scaled to however many slots the host can serve.
//!
//! Thread shape (replacing the old two-threads-per-connection model):
//!
//! ```text
//!            ┌─ shard 0 ─ poller ── conns {a, b, …}
//! accept ────┼─ shard 1 ─ poller ── conns {c, d, …}   ──▶ Dispatch ──▶ processor pool ──▶ farm
//!            └─ …      (N readiness loops)                 (P threads, one conn at a time)
//! ```
//!
//! Shards own all socket I/O and poller interest bookkeeping; sessions
//! whose queues hold work are handed to the processor pool through a
//! [`Dispatch`] queue, with a per-connection `scheduled` flag ensuring
//! at most one processor drives a session at a time (preserving
//! in-order Iq acknowledgements). Thread count is now a function of
//! the host, not the session count, so hundreds of concurrent
//! sessions cost hundreds of sockets — not hundreds of threads.

use crate::queue::{BoundedQueue, Pop, Push};
use crate::session::{
    frame_name, server_hello, Bank, Batch, Conn, EndKind, FlushState, LatencyCtl, MetricsSource,
    Notice, Reader, Role, SessionObs, SessionState, ShardMailbox, OUT_HWM, READ_BUDGET, READ_CHUNK,
};
use crate::sys::{fd_of, Event, Interest, Poller};
use crate::wire::{
    decode_header, decode_payload, decode_samples_into, error_code, metrics_format, Backpressure,
    ChainPlan, ErrorFrame, Frame, FrameBuf, IqTiming, MetricsReport, QosProfile, TraceReport,
    HEADER_LEN, VERSION,
};
use ddc_core::{ChannelizerFarm, DdcConfig, DdcFarm};
use ddc_obs::{kind, Counter, EventRing, MetricsSnapshot, SpanEvent, TraceSink};
use std::collections::{HashMap, VecDeque};
use std::io::Read;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables of one server instance.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Concurrent sessions = farm channels (slots).
    pub max_sessions: usize,
    /// Worker threads for the farm; 0 = one per host core, capped at
    /// the slot count.
    pub workers: usize,
    /// I/O shard threads multiplexing the sockets; 0 = one per host
    /// core, capped at 4 (a shard comfortably drives hundreds of
    /// non-blocking sessions).
    pub io_shards: usize,
    /// Processor threads draining session queues into the farm; 0 =
    /// one per host core, clamped to [2, 8].
    pub processors: usize,
    /// Queue capacity used when Configure asks for 0.
    pub default_queue_cap: usize,
    /// Hard ceiling on the per-session queue capacity.
    pub max_queue_cap: usize,
    /// Artificial per-batch processing delay — a fault-injection knob
    /// that simulates an overloaded backend so backpressure paths can
    /// be exercised deterministically in tests. Zero in production.
    pub processing_delay: Duration,
    /// Implementation banner sent in the server's Hello.
    pub banner: String,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_sessions: 8,
            workers: 0,
            io_shards: 0,
            processors: 0,
            default_queue_cap: 8,
            max_queue_cap: 64,
            processing_delay: Duration::ZERO,
            banner: format!("ddc-server/{}", env!("CARGO_PKG_VERSION")),
        }
    }
}

/// Shared server state: the farm, the slot free-list, and the
/// lifecycle flags.
/// Span tracks are display rows only; they never pick a ring (every
/// recording thread has its own). Tracks below this base belong to farm
/// workers (one per worker plus one for inline jobs); session-level
/// spans (ingest, queue-wait, service, egress) land on
/// `SESSION_TRACK_BASE + id % 0x10000`, so each session renders as its
/// own Perfetto process row. Collisions between long-lived sessions
/// merely share a display row — span identity always comes from the
/// trace/span IDs, never the track.
const SESSION_TRACK_BASE: u32 = 64;

/// Interned span-name indices for the session-level trace points.
#[derive(Clone, Copy)]
struct TraceNames {
    ingest: u16,
    queue_wait: u16,
    service: u16,
    egress: u16,
}

struct ServerState {
    farm: DdcFarm,
    /// Server-wide span sink: farm workers and sessions all record
    /// into it, each thread into its own ring; a TraceRequest drains
    /// them.
    trace: Arc<TraceSink>,
    trace_names: TraceNames,
    /// Single-consumer drain guard for TraceRequest (ring cursors are
    /// not safe under concurrent drains).
    trace_drain: Mutex<Vec<SpanEvent>>,
    cfg: ServerConfig,
    free_slots: Mutex<Vec<usize>>,
    stop: AtomicBool,
    sessions_started: AtomicU64,
    /// Accepted connections that could not be set up (socket mode /
    /// poller registration) — each one also got a structured Error
    /// frame instead of a silent drop.
    accept_failures: Counter,
    /// Telemetry handles of live sessions, keyed by session id. Weak:
    /// the connection owns the data; a dead entry just disappears
    /// from the next snapshot.
    session_obs: Mutex<Vec<(u64, Weak<SessionObs>)>>,
    /// Live channelizer banks keyed by spec name. A bank is owned by
    /// its ingest session and removed when that session's drain
    /// epilogue runs.
    banks: Mutex<HashMap<String, Arc<Bank>>>,
    /// Server lifecycle events (session open/close).
    events: EventRing,
    /// Live (registered, not yet closed) connections, with a condvar
    /// so shutdown can wait for the drain instead of polling joins.
    active: Mutex<usize>,
    active_cv: Condvar,
}

impl ServerState {
    fn claim_slot(&self) -> Option<usize> {
        self.free_slots.lock().unwrap().pop()
    }

    fn release_slot(&self, slot: usize) {
        self.free_slots.lock().unwrap().push(slot);
    }

    fn register_session(&self, id: u64, obs: &Arc<SessionObs>) {
        let mut reg = self.session_obs.lock().unwrap();
        reg.retain(|(_, w)| w.strong_count() > 0);
        reg.push((id, Arc::downgrade(obs)));
        self.events.push(kind::SESSION_OPEN, id, 0);
        *self.active.lock().unwrap() += 1;
    }

    fn unregister_session(&self, id: u64) {
        self.session_obs.lock().unwrap().retain(|(k, _)| *k != id);
        self.events.push(kind::SESSION_CLOSE, id, 0);
        let mut g = self.active.lock().unwrap();
        *g = g.saturating_sub(1);
        self.active_cv.notify_all();
    }
}

impl MetricsSource for ServerState {
    /// One coherent snapshot across every layer: the farm's per-stage/
    /// per-channel/per-worker metrics, then server-level gauges, then
    /// each live session's frame-codec and queue telemetry.
    fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.farm.metrics_snapshot().unwrap_or_default();
        snap.push_counter(
            "ddc_server_sessions_started_total",
            self.sessions_started.load(Ordering::Relaxed),
        );
        let live: Vec<(u64, Arc<SessionObs>)> = {
            let reg = self.session_obs.lock().unwrap();
            reg.iter()
                .filter_map(|(id, w)| w.upgrade().map(|o| (*id, o)))
                .collect()
        };
        snap.push_counter("ddc_server_sessions_active", live.len() as u64);
        snap.push_counter(
            "ddc_server_free_slots",
            self.free_slots.lock().unwrap().len() as u64,
        );
        snap.push_counter(
            "ddc_server_accept_failures_total",
            self.accept_failures.get(),
        );
        snap.push_counter("ddc_server_events_produced_total", self.events.produced());
        snap.push_counter("ddc_server_events_dropped_total", self.events.dropped());
        snap.push_counter("ddc_trace_spans_produced_total", self.trace.produced());
        snap.push_counter("ddc_trace_spans_dropped_total", self.trace.dropped());
        // Channelizer banks, each under its own bank="name" label so
        // concurrently live banks never collide in one scrape.
        let banks: Vec<Arc<Bank>> = self.banks.lock().unwrap().values().cloned().collect();
        for bank in banks {
            if let Some(m) = &bank.metrics {
                m.snapshot_labeled(&mut snap, Some(&bank.name));
            }
        }
        for (id, obs) in live {
            let l = format!("{{session=\"{id}\"}}");
            snap.push_hist(
                format!("ddc_session_decode_ns{l}"),
                obs.decode_ns.snapshot(),
            );
            snap.push_hist(
                format!("ddc_session_encode_ns{l}"),
                obs.encode_ns.snapshot(),
            );
            snap.push_hist(
                format!("ddc_session_queue_depth{l}"),
                obs.queue_depth.snapshot(),
            );
            snap.push_counter(
                format!("ddc_session_drops_total{{session=\"{id}\",mode=\"oldest\"}}"),
                obs.drops_oldest.get(),
            );
            snap.push_counter(
                format!("ddc_session_drops_total{{session=\"{id}\",mode=\"reject\"}}"),
                obs.drops_reject.get(),
            );
            snap.push_counter(
                format!("ddc_session_stats_requests_total{l}"),
                obs.stats_requests.get(),
            );
            snap.push_counter(
                format!("ddc_session_metrics_requests_total{l}"),
                obs.metrics_requests.get(),
            );
            // Latency family: exported only for sessions that
            // negotiated a latency QoS budget, so throughput scrapes
            // stay byte-identical to earlier builds.
            let budget_us = obs.latency_budget_us.load(Ordering::Relaxed);
            if budget_us > 0 {
                snap.push_counter(format!("ddc_latency_budget_us{l}"), budget_us);
                snap.push_hist(format!("ddc_latency_e2e_ns{l}"), obs.e2e_ns.snapshot());
                snap.push_counter(
                    format!("ddc_latency_deadline_misses_total{l}"),
                    obs.deadline_misses.get(),
                );
            }
        }
        snap
    }
}

/// Hand-off queue between the shard threads (producers: sessions with
/// queued batches) and the processor pool.
struct Dispatch {
    q: Mutex<(VecDeque<Arc<Conn>>, bool)>,
    cv: Condvar,
}

impl Dispatch {
    fn new() -> Arc<Dispatch> {
        Arc::new(Dispatch {
            q: Mutex::new((VecDeque::new(), false)),
            cv: Condvar::new(),
        })
    }

    /// Queues `conn` for a processor unless it is already queued or
    /// being processed (the `scheduled` flag is the mutual exclusion:
    /// at most one processor owns a session at a time, so Iq
    /// acknowledgements stay in batch order).
    fn schedule(&self, conn: &Arc<Conn>) {
        if !conn.scheduled.swap(true, Ordering::SeqCst) {
            let mut g = self.q.lock().unwrap();
            g.0.push_back(Arc::clone(conn));
            drop(g);
            self.cv.notify_one();
        }
    }

    fn pop(&self) -> Option<Arc<Conn>> {
        let mut g = self.q.lock().unwrap();
        loop {
            if let Some(c) = g.0.pop_front() {
                return Some(c);
            }
            if g.1 {
                return None;
            }
            g = self.cv.wait(g).unwrap();
        }
    }

    fn close(&self) {
        self.q.lock().unwrap().1 = true;
        self.cv.notify_all();
    }
}

/// A running streaming server. Dropping the handle performs a hard
/// shutdown; call [`ServerHandle::shutdown`] for the graceful path.
pub struct ServerHandle {
    local_addr: SocketAddr,
    state: Arc<ServerState>,
    accept_thread: Option<JoinHandle<()>>,
    shards: Vec<(Arc<ShardMailbox>, Option<JoinHandle<()>>)>,
    processors: Vec<JoinHandle<()>>,
    dispatch: Arc<Dispatch>,
}

/// Binds the streaming service and starts accepting connections.
/// `addr` may use port 0 for an ephemeral port; the bound address is
/// available via [`ServerHandle::local_addr`].
pub fn serve<A: ToSocketAddrs>(addr: A, cfg: ServerConfig) -> std::io::Result<ServerHandle> {
    assert!(cfg.max_sessions >= 1, "server needs at least one slot");
    assert!(cfg.default_queue_cap >= 1 && cfg.max_queue_cap >= cfg.default_queue_cap);
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local_addr = listener.local_addr()?;

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let n_shards = if cfg.io_shards == 0 {
        cores.min(4)
    } else {
        cfg.io_shards
    };
    let n_procs = if cfg.processors == 0 {
        cores.clamp(2, 8)
    } else {
        cfg.processors
    };

    // Placeholder configs; every slot is rebuilt by reconfigure_channel
    // when a session claims it.
    let configs: Vec<DdcConfig> = (0..cfg.max_sessions).map(|_| DdcConfig::drm(0.0)).collect();
    let farm = if cfg.workers == 0 {
        DdcFarm::new(configs)
    } else {
        DdcFarm::with_workers(configs, cfg.workers)
    };
    // Telemetry on from the start: the overhead is block-granular
    // relaxed atomics (gated under 1% by the benchmark suite), and a
    // live MetricsRequest endpoint is part of the service contract.
    let farm = farm.with_telemetry();
    // Span tracing is compiled in but costs one u64 compare per block
    // until a batch actually carries a trace ID (head-sampled). Farm
    // workers render on tracks 0..workers+1; session spans start at
    // SESSION_TRACK_BASE. Each recording thread gets its own
    // 4096-event ring on its first span.
    let trace = Arc::new(TraceSink::new(16, 4096));
    let trace_names = TraceNames {
        ingest: trace.register_name("ingest"),
        queue_wait: trace.register_name("queue_wait"),
        service: trace.register_name("service"),
        egress: trace.register_name("egress"),
    };
    let farm = farm.with_tracing(Arc::clone(&trace), 0);
    let state = Arc::new(ServerState {
        farm,
        trace,
        trace_names,
        trace_drain: Mutex::new(Vec::new()),
        free_slots: Mutex::new((0..cfg.max_sessions).rev().collect()),
        cfg,
        stop: AtomicBool::new(false),
        sessions_started: AtomicU64::new(0),
        accept_failures: Counter::default(),
        session_obs: Mutex::new(Vec::new()),
        banks: Mutex::new(HashMap::new()),
        events: EventRing::new(256),
        active: Mutex::new(0),
        active_cv: Condvar::new(),
    });
    let dispatch = Dispatch::new();

    let mut shards = Vec::with_capacity(n_shards);
    for k in 0..n_shards {
        let poller = Poller::new()?;
        let mailbox = ShardMailbox::new(poller.waker());
        let thread = {
            let state = Arc::clone(&state);
            let dispatch = Arc::clone(&dispatch);
            let mailbox = Arc::clone(&mailbox);
            std::thread::Builder::new()
                .name(format!("ddc-shard-{k}"))
                .spawn(move || shard_loop(poller, mailbox, state, dispatch))
                .expect("cannot spawn shard thread")
        };
        shards.push((mailbox, Some(thread)));
    }

    let mut processors = Vec::with_capacity(n_procs);
    for k in 0..n_procs {
        let state = Arc::clone(&state);
        let dispatch = Arc::clone(&dispatch);
        processors.push(
            std::thread::Builder::new()
                .name(format!("ddc-proc-{k}"))
                .spawn(move || processor_loop(state, dispatch))
                .expect("cannot spawn processor thread"),
        );
    }

    let accept_thread = {
        let state = Arc::clone(&state);
        let mailboxes: Vec<Arc<ShardMailbox>> = shards.iter().map(|(m, _)| Arc::clone(m)).collect();
        std::thread::Builder::new()
            .name("ddc-accept".into())
            .spawn(move || accept_loop(listener, state, mailboxes))
            .expect("cannot spawn accept thread")
    };

    Ok(ServerHandle {
        local_addr,
        state,
        accept_thread: Some(accept_thread),
        shards,
        processors,
        dispatch,
    })
}

// ------------------------------------------------------------- accept

fn accept_loop(listener: TcpListener, state: Arc<ServerState>, shards: Vec<Arc<ShardMailbox>>) {
    let mut next = 0usize;
    while !state.stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = stream.set_nodelay(true);
                if let Err(e) = stream.set_nonblocking(true) {
                    reject_setup_failure(&state, stream, &e);
                    continue;
                }
                let id = state.sessions_started.fetch_add(1, Ordering::Relaxed);
                let obs = Arc::new(SessionObs::default());
                let mailbox = Arc::clone(&shards[next % shards.len()]);
                next = next.wrapping_add(1);
                let conn = Conn::new(id, stream, Arc::clone(&mailbox), Arc::clone(&obs));
                state.register_session(id, &obs);
                mailbox.post(Notice::Accept(conn));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// Accept-time setup failure: count it and tell the peer with a
/// structured Error frame before closing (the old runtime dropped the
/// connection silently).
fn reject_setup_failure(state: &ServerState, mut stream: TcpStream, err: &std::io::Error) {
    state.accept_failures.inc();
    let mut fb = FrameBuf::new();
    fb.encode(
        &Frame::Error(ErrorFrame {
            code: error_code::SESSION_SETUP,
            message: format!("session setup failed: {err}"),
        }),
        0,
    );
    let _ = stream.set_nonblocking(false);
    let _ = fb.write_to(&mut stream);
    let _ = stream.shutdown(Shutdown::Both);
}

// ------------------------------------------------------------- shards

/// Shard-local bookkeeping for one registered connection.
struct ShardEntry {
    conn: Arc<Conn>,
    interest: Interest,
}

/// What the read pump asks the shard to do with the fd afterwards.
enum ReadOutcome {
    /// Keep current interest.
    Continue,
    /// Block-policy pause: disarm read until the processor frees room.
    Pause,
    /// Input side ended: disarm read; the drain (or the flush) will
    /// finish the teardown.
    Drain,
}

/// Largest farm sub-batch a latency session may submit in one job:
/// a quarter-budget's worth of input samples, so decode, queue wait,
/// processing and egress together fit inside the budget with headroom.
/// Floored at one output word per chunk (below the total decimation a
/// chunk could produce nothing and the ack would still wait for the
/// whole batch) and capped to keep degenerate budgets from disabling
/// chunking arithmetic.
fn latency_chunk_samples(input_rate: f64, total_decimation: u32, budget_us: u32) -> usize {
    /// Upper bound on the derived chunk, samples.
    const CHUNK_CAP: usize = 1 << 22;
    let quarter = input_rate * f64::from(budget_us) * 1e-6 / 4.0;
    // The floor must itself respect the cap: ChainSpec::validate only
    // bounds the decimation product to fit u32, so a valid spec can
    // exceed 2^22 — an uncapped floor would invert the clamp range and
    // panic on the shard thread (one bad Configure killing every
    // session on the shard).
    let floor = (total_decimation as usize).clamp(1, CHUNK_CAP);
    (quarter as usize).clamp(floor, CHUNK_CAP)
}

/// A duration as whole nanoseconds, saturating at `u64::MAX` (584
/// years — only a frozen clock gets near it, but the wire field is
/// fixed-width).
fn saturating_ns(d: Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

fn shard_loop(
    poller: Poller,
    mailbox: Arc<ShardMailbox>,
    state: Arc<ServerState>,
    dispatch: Arc<Dispatch>,
) {
    let mut conns: HashMap<u64, ShardEntry> = HashMap::new();
    let mut events: Vec<Event> = Vec::new();
    let mut notices: Vec<Notice> = Vec::new();
    loop {
        // Throughput sessions let the poller sleep until readiness;
        // latency sessions bound the sleep so queued-but-unwritten
        // output is flushed on a deadline (a fraction of the tightest
        // budget) instead of waiting for the next readiness event.
        let timeout = conns
            .values()
            .filter_map(|e| e.conn.latency.get().map(|l| l.budget_us))
            .min()
            .map(|us| Duration::from_micros(u64::from(us / 4).clamp(1_000, 10_000)));
        if poller.wait(&mut events, timeout).is_err() {
            std::thread::sleep(Duration::from_millis(1));
        }
        mailbox.drain_into(&mut notices);
        for n in notices.drain(..) {
            match n {
                Notice::Accept(conn) => {
                    let fd = fd_of(&conn.stream);
                    match poller.add(fd, conn.id, Interest::READ) {
                        Ok(()) => {
                            let id = conn.id;
                            conns.insert(
                                id,
                                ShardEntry {
                                    conn,
                                    interest: Interest::READ,
                                },
                            );
                            // The client's Hello may already be queued
                            // in the kernel; with level-triggered
                            // polling the next wait reports it.
                        }
                        Err(e) => {
                            state.accept_failures.inc();
                            conn.enqueue(&Frame::Error(ErrorFrame {
                                code: error_code::SESSION_SETUP,
                                message: format!("session setup failed: {e}"),
                            }));
                            let _ = conn.flush();
                            let _ = conn.stream.shutdown(Shutdown::Both);
                            state.unregister_session(conn.id);
                        }
                    }
                }
                Notice::ResumeRead(id) => {
                    if let Some(entry) = conns.get_mut(&id) {
                        conn_set_interest(
                            &poller,
                            entry,
                            Interest {
                                read: true,
                                ..entry.interest
                            },
                        );
                        let conn = Arc::clone(&entry.conn);
                        handle_readable(&poller, &mut conns, &state, &dispatch, &conn);
                    }
                }
                Notice::WriteReady(id) => {
                    if let Some(entry) = conns.get_mut(&id) {
                        conn_set_interest(
                            &poller,
                            entry,
                            Interest {
                                write: true,
                                ..entry.interest
                            },
                        );
                    }
                }
                Notice::Deregister(id) => {
                    do_close(&poller, &mut conns, &state, id);
                }
                Notice::DrainAll => {
                    let ids: Vec<u64> = conns.keys().copied().collect();
                    for id in ids {
                        server_drain(&poller, &mut conns, &state, &dispatch, id);
                    }
                }
                Notice::HardCloseAll => {
                    for entry in conns.values() {
                        let _ = entry.conn.stream.shutdown(Shutdown::Both);
                    }
                }
                Notice::Exit => {
                    let ids: Vec<u64> = conns.keys().copied().collect();
                    for id in ids {
                        do_close(&poller, &mut conns, &state, id);
                    }
                    return;
                }
            }
        }
        for &ev in &events {
            let Some(entry) = conns.get(&ev.token) else {
                continue;
            };
            let conn = Arc::clone(&entry.conn);
            if ev.readable {
                handle_readable(&poller, &mut conns, &state, &dispatch, &conn);
            }
            if ev.writable && conns.contains_key(&ev.token) {
                handle_writable(&poller, &mut conns, &state, &dispatch, &conn);
            }
        }
        // Deadline flush: push any latency session's pending output to
        // the socket now rather than on the next readiness event.
        if timeout.is_some() {
            let due: Vec<Arc<Conn>> = conns
                .values()
                .filter(|e| e.conn.latency.get().is_some() && e.conn.out_pending() > 0)
                .map(|e| Arc::clone(&e.conn))
                .collect();
            for conn in due {
                flush_on_shard(&poller, &mut conns, &state, &dispatch, &conn);
            }
        }
    }
}

fn conn_set_interest(poller: &Poller, entry: &mut ShardEntry, want: Interest) {
    if entry.interest != want {
        let _ = poller.modify(fd_of(&entry.conn.stream), entry.conn.id, want);
        entry.interest = want;
    }
}

/// Deregisters, shuts and forgets one connection. The only place a
/// session leaves the shard map.
fn do_close(
    poller: &Poller,
    conns: &mut HashMap<u64, ShardEntry>,
    state: &Arc<ServerState>,
    id: u64,
) {
    let Some(entry) = conns.remove(&id) else {
        return;
    };
    if let Some(Role::Subscriber { bank, channel }) = entry.conn.role.get() {
        // Eager unsubscribe (the Weak would also be pruned lazily at
        // the next delivery): a closed subscriber stops costing the
        // ingest's delivery loop anything.
        if let Some(list) = bank.subs.lock().unwrap().get_mut(channel) {
            list.retain(|w| w.upgrade().is_some_and(|c| c.id != id));
        }
    }
    let _ = poller.del(fd_of(&entry.conn.stream));
    let _ = entry.conn.stream.shutdown(Shutdown::Both);
    {
        let mut r = entry.conn.reader.lock().unwrap();
        r.state = SessionState::Closed;
        r.buf = Vec::new();
        r.filled = 0;
        r.pos = 0;
    }
    state.unregister_session(id);
}

/// Server-initiated drain of one session (graceful shutdown): behaves
/// exactly as if the client had half-closed — accepted batches still
/// process and acknowledge, then the connection closes.
fn server_drain(
    poller: &Poller,
    conns: &mut HashMap<u64, ShardEntry>,
    state: &Arc<ServerState>,
    dispatch: &Arc<Dispatch>,
    id: u64,
) {
    let Some(entry) = conns.get_mut(&id) else {
        return;
    };
    let conn = Arc::clone(&entry.conn);
    let outcome = {
        let mut r = conn.reader.lock().unwrap();
        if matches!(r.state, SessionState::Draining | SessionState::Closed) {
            ReadOutcome::Continue
        } else {
            end_input(&mut r, &conn, dispatch, EndKind::Disconnected)
        }
    };
    apply_outcome(poller, conns, state, dispatch, &conn, outcome);
}

fn handle_readable(
    poller: &Poller,
    conns: &mut HashMap<u64, ShardEntry>,
    state: &Arc<ServerState>,
    dispatch: &Arc<Dispatch>,
    conn: &Arc<Conn>,
) {
    let outcome = pump_read(state, dispatch, conn);
    apply_outcome(poller, conns, state, dispatch, conn, outcome);
}

fn apply_outcome(
    poller: &Poller,
    conns: &mut HashMap<u64, ShardEntry>,
    state: &Arc<ServerState>,
    dispatch: &Arc<Dispatch>,
    conn: &Arc<Conn>,
    outcome: ReadOutcome,
) {
    if let Some(entry) = conns.get_mut(&conn.id) {
        match outcome {
            ReadOutcome::Continue => {}
            ReadOutcome::Pause | ReadOutcome::Drain => {
                conn_set_interest(
                    poller,
                    entry,
                    Interest {
                        read: false,
                        ..entry.interest
                    },
                );
            }
        }
    }
    flush_on_shard(poller, conns, state, dispatch, conn);
}

/// Shard-side flush: performs the writes and applies the follow-up
/// directly (no mailbox round-trip) — arming or disarming write
/// interest, finishing the close, and releasing a processor that
/// paused on outbound backlog.
fn handle_writable(
    poller: &Poller,
    conns: &mut HashMap<u64, ShardEntry>,
    state: &Arc<ServerState>,
    dispatch: &Arc<Dispatch>,
    conn: &Arc<Conn>,
) {
    flush_on_shard(poller, conns, state, dispatch, conn);
}

fn flush_on_shard(
    poller: &Poller,
    conns: &mut HashMap<u64, ShardEntry>,
    state: &Arc<ServerState>,
    dispatch: &Arc<Dispatch>,
    conn: &Arc<Conn>,
) {
    if !conns.contains_key(&conn.id) {
        return;
    }
    match conn.flush() {
        FlushState::Done => {
            do_close(poller, conns, state, conn.id);
            return;
        }
        FlushState::Pending => {
            if let Some(entry) = conns.get_mut(&conn.id) {
                conn_set_interest(
                    poller,
                    entry,
                    Interest {
                        write: true,
                        ..entry.interest
                    },
                );
            }
        }
        FlushState::Idle => {
            if let Some(entry) = conns.get_mut(&conn.id) {
                conn_set_interest(
                    poller,
                    entry,
                    Interest {
                        write: false,
                        ..entry.interest
                    },
                );
            }
        }
    }
    if conn.out_pending() <= OUT_HWM && conn.awaiting_drain.swap(false, Ordering::SeqCst) {
        dispatch.schedule(conn);
    }
}

// ---------------------------------------------------------- read pump

enum ParseStep {
    /// Not enough buffered bytes for the next header/payload.
    NeedMore,
    /// Block-policy pause: leave the pending frame un-consumed.
    Pause,
    /// The input side is over (error texts already queued).
    End(EndKind),
}

/// Reads and parses until the socket would block, the per-event budget
/// is spent, the session pauses, or the input side ends.
fn pump_read(state: &Arc<ServerState>, dispatch: &Arc<Dispatch>, conn: &Arc<Conn>) -> ReadOutcome {
    let mut r = conn.reader.lock().unwrap();
    if matches!(r.state, SessionState::Draining | SessionState::Closed) {
        return ReadOutcome::Continue;
    }
    let mut budget = READ_BUDGET;
    let mut drained = false;
    let outcome = loop {
        match parse_frames(state, dispatch, conn, &mut r) {
            ParseStep::NeedMore => {}
            ParseStep::Pause => break ReadOutcome::Pause,
            ParseStep::End(kind) => break end_input(&mut r, conn, dispatch, kind),
        }
        // A short read means the socket buffer is empty: skip the
        // speculative read that would just return WouldBlock — the
        // level-triggered poll re-reports the fd when bytes arrive.
        if drained || budget == 0 {
            break ReadOutcome::Continue;
        }
        // Make room for the next read without re-zeroing: compact the
        // consumed prefix in place, and only grow (zero-filling the new
        // tail once) when a frame genuinely straddles the whole buffer.
        if r.buf.len() - r.filled < READ_CHUNK {
            compact(&mut r);
            if r.buf.len() - r.filled < READ_CHUNK {
                let need = r.filled + READ_CHUNK;
                r.buf.resize(need, 0);
            }
        }
        let start = r.filled;
        let want = r.buf.len() - start;
        match (&conn.stream).read(&mut r.buf[start..]) {
            Ok(0) => break end_input(&mut r, conn, dispatch, EndKind::Disconnected),
            Ok(n) => {
                r.filled += n;
                budget = budget.saturating_sub(n);
                drained = n < want;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                break ReadOutcome::Continue;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break end_input(&mut r, conn, dispatch, EndKind::Disconnected),
        }
    };
    compact(&mut r);
    outcome
}

/// Moves the unconsumed tail of the read buffer to the front. Safe at
/// any point: a validated-but-unconsumed header lives in `r.header`
/// (owned), never as an offset into `buf`.
fn compact(r: &mut Reader) {
    if r.pos > 0 {
        let (pos, filled) = (r.pos, r.filled);
        r.buf.copy_within(pos..filled, 0);
        r.filled -= pos;
        r.pos = 0;
    }
}

/// Transitions the input side into Draining and arranges for the
/// epilogue to run: streaming sessions close their queue and go
/// through the processor (drain accepted batches, then
/// `finish_conn`); pre-Configure sessions just flush out and close.
fn end_input(
    r: &mut Reader,
    conn: &Arc<Conn>,
    dispatch: &Arc<Dispatch>,
    kind: EndKind,
) -> ReadOutcome {
    if kind == EndKind::Graceful {
        conn.graceful.store(true, Ordering::Release);
    }
    r.state = SessionState::Draining;
    if let Some(q) = conn.queue.get() {
        q.close();
        dispatch.schedule(conn);
    } else {
        if kind == EndKind::Graceful && conn.role.get().is_some() {
            // A subscriber has no queue to drain; answer its graceful
            // Shutdown inline so the client sees a clean end-of-stream.
            conn.enqueue(&Frame::Shutdown);
        }
        conn.set_close_after_flush();
    }
    ReadOutcome::Drain
}

/// Consumes as many complete frames from the read buffer as possible,
/// running the protocol state machine on each.
fn parse_frames(
    state: &Arc<ServerState>,
    dispatch: &Arc<Dispatch>,
    conn: &Arc<Conn>,
    r: &mut Reader,
) -> ParseStep {
    loop {
        if r.header.is_none() {
            if r.filled - r.pos < HEADER_LEN {
                return ParseStep::NeedMore;
            }
            let hb: [u8; HEADER_LEN] = r.buf[r.pos..r.pos + HEADER_LEN].try_into().unwrap();
            match decode_header(&hb) {
                Ok(h) => {
                    r.header = Some(h);
                    r.pos += HEADER_LEN;
                }
                Err(e) => {
                    let message = match r.state {
                        SessionState::ExpectHello => format!("bad opening frame: {e}"),
                        SessionState::ExpectConfigure => format!("bad Configure frame: {e}"),
                        _ => format!("unreadable frame: {e}"),
                    };
                    conn.enqueue(&Frame::Error(ErrorFrame {
                        code: error_code::PROTOCOL,
                        message,
                    }));
                    return ParseStep::End(EndKind::Errored);
                }
            }
        }
        let h = r.header.unwrap();
        if r.filled - r.pos < h.payload_len as usize {
            return ParseStep::NeedMore;
        }

        // Block-policy admission: a full queue stops consumption right
        // here — the un-read bytes back up through TCP flow control to
        // the client, exactly like the old blocking reader. The pause
        // flag is set *before* the re-check so a concurrent pop cannot
        // slip between "queue is full" and "reader is pausing" without
        // posting the resume.
        if h.frame_type == 3
            && r.state == SessionState::Streaming
            && r.policy == Backpressure::Block
        {
            // Subscriber sessions have no queue; their Samples frames
            // are rejected below without admission control.
            if let Some(q) = conn.queue.get() {
                if q.len() >= q.capacity() {
                    conn.read_paused.store(true, Ordering::SeqCst);
                    if q.len() >= q.capacity() {
                        return ParseStep::Pause;
                    }
                    conn.read_paused.store(false, Ordering::SeqCst);
                }
            }
        }

        let start = r.pos;
        let end = start + h.payload_len as usize;
        r.pos = end;
        r.header = None;

        // The streaming-Samples hot path: decode borrowed payload bytes
        // straight into a pooled farm-input buffer, then verify the
        // checksum over the still-cached payload — no intermediate Vec.
        if h.frame_type == 3 && r.state == SessionState::Streaming {
            let Some(q) = conn.queue.get().cloned() else {
                // A subscriber's data flows outbound only.
                conn.enqueue(&Frame::Error(ErrorFrame {
                    code: error_code::PROTOCOL,
                    message: "subscriber sessions cannot send Samples".into(),
                }));
                return ParseStep::End(EndKind::Errored);
            };
            let mut scratch = conn.take_scratch();
            let decoded = {
                let payload = &r.buf[start..end];
                let t0 = Instant::now();
                let res = decode_samples_into(&h, payload, &mut scratch);
                conn.obs.decode_ns.record_duration(t0.elapsed());
                res
            };
            let (batch_index, wire_trace) = match decoded {
                Ok(ix) => ix,
                Err(e) => {
                    conn.recycle_scratch(scratch);
                    conn.enqueue(&Frame::Error(ErrorFrame {
                        code: error_code::PROTOCOL,
                        message: format!("unreadable frame: {e}"),
                    }));
                    return ParseStep::End(EndKind::Errored);
                }
            };
            if h.seq != r.expected_seq {
                conn.recycle_scratch(scratch);
                conn.enqueue(&Frame::Error(ErrorFrame {
                    code: error_code::PROTOCOL,
                    message: format!("sequence gap: expected {}, got {}", r.expected_seq, h.seq),
                }));
                return ParseStep::End(EndKind::Errored);
            }
            r.expected_seq = r.expected_seq.wrapping_add(1);
            // Trace context: a client-stamped ID wins; otherwise the
            // Configure-negotiated interval head-samples every Nth
            // accepted batch with a server-allocated ID (top bit set,
            // so the two namespaces never collide).
            let trace_id = if wire_trace != 0 {
                wire_trace
            } else {
                let n = conn.trace_interval.load(Ordering::Relaxed);
                if n != 0
                    && conn
                        .trace_count
                        .fetch_add(1, Ordering::Relaxed)
                        .is_multiple_of(u64::from(n))
                {
                    state.trace.alloc_trace_id()
                } else {
                    0
                }
            };
            if trace_id != 0 {
                let track = SESSION_TRACK_BASE + (conn.id % 0x10000) as u32;
                state
                    .trace
                    .instant(track, trace_id, state.trace_names.ingest);
            }
            let batch = Batch {
                index: batch_index,
                samples: Arc::new(scratch),
                arrived: Instant::now(),
                trace_id,
            };
            let outcome = match r.policy {
                // Admission above guarantees room, and this reader is
                // the only producer, so the blocking push cannot block.
                Backpressure::Block => q.push_wait(batch),
                Backpressure::DropOldest => q.push_drop_oldest(batch),
                Backpressure::Disconnect => q.push_or_reject(batch),
            };
            match outcome {
                Push::Accepted => {
                    conn.batches_accepted.fetch_add(1, Ordering::Relaxed);
                    conn.obs.queue_depth.record(q.len() as u64);
                    dispatch.schedule(conn);
                }
                Push::Displaced(old) => {
                    // Eviction already counted by the queue; the
                    // displaced batch was never acknowledged, so the
                    // client sees it as a gap in Iq batch indices.
                    conn.batches_accepted.fetch_add(1, Ordering::Relaxed);
                    conn.obs.drops_oldest.inc();
                    conn.obs.queue_depth.record(q.len() as u64);
                    conn.recycle_batch(old);
                    dispatch.schedule(conn);
                }
                Push::Full(batch) => {
                    conn.obs.drops_reject.inc();
                    conn.enqueue(&Frame::Error(ErrorFrame {
                        code: error_code::QUEUE_OVERFLOW,
                        message: format!(
                            "queue full at batch {} under disconnect policy",
                            batch.index
                        ),
                    }));
                    return ParseStep::End(EndKind::Errored);
                }
                Push::Closed(_) => return ParseStep::End(EndKind::Disconnected),
            }
            continue;
        }

        // Control frames (and anything pre-Streaming): owned decode —
        // they are small and rare, so the extra checksum pass is noise.
        let decoded = {
            let payload = &r.buf[start..end];
            let t0 = Instant::now();
            let res = decode_payload(&h, payload);
            conn.obs.decode_ns.record_duration(t0.elapsed());
            res
        };
        match r.state {
            SessionState::ExpectHello => match decoded {
                Ok(Frame::Hello(hello)) if h.seq == 0 => {
                    if hello.proto != VERSION as u16 {
                        conn.enqueue(&Frame::Error(ErrorFrame {
                            code: error_code::PROTOCOL,
                            message: format!("unsupported protocol version {}", hello.proto),
                        }));
                        return ParseStep::End(EndKind::Errored);
                    }
                    conn.enqueue(&Frame::Hello(server_hello(&state.cfg.banner)));
                    r.state = SessionState::ExpectConfigure;
                    r.expected_seq = 1;
                }
                Ok(other) => {
                    conn.enqueue(&Frame::Error(ErrorFrame {
                        code: error_code::PROTOCOL,
                        message: format!(
                            "expected Hello with seq 0, got {} with seq {}",
                            frame_name(&other),
                            h.seq
                        ),
                    }));
                    return ParseStep::End(EndKind::Errored);
                }
                Err(e) => {
                    conn.enqueue(&Frame::Error(ErrorFrame {
                        code: error_code::PROTOCOL,
                        message: format!("bad opening frame: {e}"),
                    }));
                    return ParseStep::End(EndKind::Errored);
                }
            },
            SessionState::ExpectConfigure => match decoded {
                Ok(Frame::Configure(c)) if h.seq == 1 => {
                    if state.stop.load(Ordering::Acquire) {
                        conn.enqueue(&Frame::Error(ErrorFrame {
                            code: error_code::SHUTTING_DOWN,
                            message: "server is shutting down".into(),
                        }));
                        return ParseStep::End(EndKind::Errored);
                    }
                    let queue_cap = if c.queue_cap == 0 {
                        state.cfg.default_queue_cap
                    } else {
                        (c.queue_cap as usize).min(state.cfg.max_queue_cap)
                    };
                    // Latency QoS is enforced by chunked farm
                    // submission and the deadline flush, which exist
                    // only for chain sessions. Accepting it on other
                    // plans would negotiate a bound nothing enforces,
                    // so refuse instead of silently degrading.
                    if matches!(c.qos, QosProfile::Latency { .. })
                        && !matches!(c.plan, ChainPlan::Preset { .. } | ChainPlan::Spec(_))
                    {
                        conn.enqueue(&Frame::Error(ErrorFrame {
                            code: error_code::BAD_CONFIG,
                            message: "latency QoS requires a chain plan (preset or spec); \
                                      channelizer and subscribe sessions are throughput-only"
                                .into(),
                        }));
                        return ParseStep::End(EndKind::Errored);
                    }
                    // Server-side trace head-sampling applies to any
                    // plan that accepts Samples; harmless on
                    // subscriber sessions (they have no input).
                    conn.trace_interval
                        .store(c.trace_interval, Ordering::Relaxed);
                    match &c.plan {
                        // Chain sessions: claim a farm slot, bind the
                        // spec to it.
                        ChainPlan::Preset { .. } | ChainPlan::Spec(_) => {
                            let slot = match state.claim_slot() {
                                Some(s) => s,
                                None => {
                                    conn.enqueue(&Frame::Error(ErrorFrame {
                                        code: error_code::SERVER_FULL,
                                        message: format!(
                                            "all {} channels are in use",
                                            state.cfg.max_sessions
                                        ),
                                    }));
                                    return ParseStep::End(EndKind::Errored);
                                }
                            };
                            let spec = c
                                .plan
                                .to_spec()
                                .expect("preset/spec plans lower to a ChainSpec");
                            // Latency QoS: the chain's own group delay
                            // is a hard floor no runtime can get under,
                            // so a budget below it is a config error,
                            // not a stream of deadline misses. The farm
                            // sub-batch bound comes from the budget
                            // before the spec moves into the slot.
                            if let QosProfile::Latency { budget_us } = c.qos {
                                let group_us = spec.latency_budget().total_us();
                                if group_us > f64::from(budget_us) {
                                    conn.enqueue(&Frame::Error(ErrorFrame {
                                        code: error_code::BAD_CONFIG,
                                        message: format!(
                                            "chain group delay {group_us:.1} us exceeds \
                                             latency budget {budget_us} us"
                                        ),
                                    }));
                                    state.release_slot(slot);
                                    return ParseStep::End(EndKind::Errored);
                                }
                                let _ = conn.latency.set(LatencyCtl {
                                    budget_us,
                                    chunk_samples: latency_chunk_samples(
                                        spec.input_rate,
                                        spec.total_decimation(),
                                        budget_us,
                                    ),
                                });
                            }
                            if let Err(e) = state.farm.reconfigure_channel(slot, spec) {
                                conn.enqueue(&Frame::Error(ErrorFrame {
                                    code: error_code::BAD_CONFIG,
                                    message: format!("rejected configuration: {e}"),
                                }));
                                state.release_slot(slot);
                                return ParseStep::End(EndKind::Errored);
                            }
                            *conn.slot.lock().unwrap() = Some(slot);
                            let _ = conn.queue.set(Arc::new(BoundedQueue::new(queue_cap)));
                        }
                        // Channelizer ingest: build the bank inline
                        // (no farm slot — the bank runs on the
                        // processor pool) and publish it by name.
                        ChainPlan::Channelizer(cspec) => {
                            let farm = match ChannelizerFarm::from_spec(cspec.clone()) {
                                Ok(f) => f.with_telemetry(),
                                Err(e) => {
                                    conn.enqueue(&Frame::Error(ErrorFrame {
                                        code: error_code::BAD_CONFIG,
                                        message: format!("rejected channelizer: {e}"),
                                    }));
                                    return ParseStep::End(EndKind::Errored);
                                }
                            };
                            let bank = {
                                let mut banks = state.banks.lock().unwrap();
                                if banks.contains_key(&cspec.name) {
                                    drop(banks);
                                    conn.enqueue(&Frame::Error(ErrorFrame {
                                        code: error_code::BAD_CONFIG,
                                        message: format!(
                                            "channelizer bank \"{}\" is already live",
                                            cspec.name
                                        ),
                                    }));
                                    return ParseStep::End(EndKind::Errored);
                                }
                                let bank = Arc::new(Bank {
                                    name: cspec.name.clone(),
                                    channels: farm.enabled_channels().to_vec(),
                                    metrics: farm.metrics().cloned(),
                                    farm: Mutex::new(farm),
                                    subs: Mutex::new(HashMap::new()),
                                });
                                banks.insert(cspec.name.clone(), Arc::clone(&bank));
                                bank
                            };
                            let _ = conn.role.set(Role::Ingest(bank));
                            let _ = conn.queue.set(Arc::new(BoundedQueue::new(queue_cap)));
                        }
                        // Subscriber: attach to one enabled channel of
                        // a live bank. No input queue — data flows
                        // outbound only.
                        ChainPlan::Subscribe { name, channel } => {
                            let bank = state.banks.lock().unwrap().get(name).cloned();
                            let Some(bank) = bank else {
                                conn.enqueue(&Frame::Error(ErrorFrame {
                                    code: error_code::BAD_CONFIG,
                                    message: format!("no live channelizer bank named \"{name}\""),
                                }));
                                return ParseStep::End(EndKind::Errored);
                            };
                            let ch = *channel as usize;
                            if !bank.channels.contains(&ch) {
                                conn.enqueue(&Frame::Error(ErrorFrame {
                                    code: error_code::BAD_CONFIG,
                                    message: format!(
                                        "channel {channel} is not enabled in bank \"{name}\""
                                    ),
                                }));
                                return ParseStep::End(EndKind::Errored);
                            }
                            bank.subscribe(ch, conn);
                            let _ = conn.role.set(Role::Subscriber { bank, channel: ch });
                        }
                    }
                    r.policy = c.policy;
                    // Only chain plans reach here with a latency
                    // profile (other plan kinds were refused above);
                    // exporting the negotiated budget gates the
                    // ddc_latency_* metrics family.
                    if let QosProfile::Latency { budget_us } = c.qos {
                        conn.obs
                            .latency_budget_us
                            .store(u64::from(budget_us), Ordering::Relaxed);
                    }
                    // Configure is acknowledged with the session's
                    // (zeroed) stats so the client learns its channel
                    // binding before streaming.
                    conn.enqueue(&Frame::StatsReport(conn.stats(&state.farm)));
                    r.state = SessionState::Streaming;
                    r.expected_seq = 2;
                }
                Ok(other) => {
                    conn.enqueue(&Frame::Error(ErrorFrame {
                        code: error_code::NOT_CONFIGURED,
                        message: format!(
                            "expected Configure with seq 1, got {} with seq {}",
                            frame_name(&other),
                            h.seq
                        ),
                    }));
                    return ParseStep::End(EndKind::Errored);
                }
                Err(e) => {
                    conn.enqueue(&Frame::Error(ErrorFrame {
                        code: error_code::PROTOCOL,
                        message: format!("bad Configure frame: {e}"),
                    }));
                    return ParseStep::End(EndKind::Errored);
                }
            },
            SessionState::Streaming => {
                let frame = match decoded {
                    Ok(f) => f,
                    Err(e) => {
                        // After a framing error the byte stream cannot
                        // be trusted; report and drop the connection.
                        conn.enqueue(&Frame::Error(ErrorFrame {
                            code: error_code::PROTOCOL,
                            message: format!("unreadable frame: {e}"),
                        }));
                        return ParseStep::End(EndKind::Errored);
                    }
                };
                if h.seq != r.expected_seq {
                    conn.enqueue(&Frame::Error(ErrorFrame {
                        code: error_code::PROTOCOL,
                        message: format!(
                            "sequence gap: expected {}, got {}",
                            r.expected_seq, h.seq
                        ),
                    }));
                    return ParseStep::End(EndKind::Errored);
                }
                r.expected_seq = r.expected_seq.wrapping_add(1);
                match frame {
                    Frame::StatsRequest => {
                        conn.obs.stats_requests.inc();
                        conn.enqueue(&Frame::StatsReport(conn.stats(&state.farm)));
                    }
                    Frame::MetricsRequest { format }
                        if matches!(
                            format,
                            metrics_format::JSON
                                | metrics_format::PROMETHEUS
                                | metrics_format::BINARY
                        ) =>
                    {
                        conn.obs.metrics_requests.inc();
                        let snap = state.metrics_snapshot();
                        let body = match format {
                            metrics_format::JSON => snap.to_json().into_bytes(),
                            metrics_format::PROMETHEUS => snap.to_prometheus().into_bytes(),
                            _ => snap.encode(),
                        };
                        conn.enqueue(&Frame::MetricsReport(MetricsReport { format, body }));
                    }
                    Frame::MetricsRequest { format } => {
                        // Unknown format byte: refuse the request but
                        // keep the stream alive — metrics are advisory,
                        // not load-bearing.
                        conn.enqueue(&Frame::Error(ErrorFrame {
                            code: error_code::PROTOCOL,
                            message: format!("cannot serve metrics format {format}"),
                        }));
                    }
                    Frame::TraceRequest => {
                        // Drain every ring under the single-consumer
                        // guard and render the merged spans as a Chrome
                        // trace-event fragment (pids 1000+track).
                        let mut spans = state.trace_drain.lock().unwrap();
                        spans.clear();
                        let dropped = state.trace.drain(&mut spans);
                        let mut body = String::new();
                        state.trace.render_chrome(&spans, "server", 1000, &mut body);
                        conn.enqueue(&Frame::TraceReport(TraceReport {
                            dropped,
                            body: body.into_bytes(),
                        }));
                    }
                    Frame::Shutdown => {
                        return ParseStep::End(EndKind::Graceful);
                    }
                    other => {
                        conn.enqueue(&Frame::Error(ErrorFrame {
                            code: error_code::PROTOCOL,
                            message: format!(
                                "unexpected {:?} frame mid-stream",
                                frame_name(&other)
                            ),
                        }));
                        return ParseStep::End(EndKind::Errored);
                    }
                }
            }
            SessionState::Draining | SessionState::Closed => return ParseStep::NeedMore,
        }
    }
}

// --------------------------------------------------------- processors

fn processor_loop(state: Arc<ServerState>, dispatch: Arc<Dispatch>) {
    while let Some(conn) = dispatch.pop() {
        process_conn(&state, &dispatch, &conn);
    }
}

/// Drains one session's queue in order, submitting each batch to the
/// farm and acknowledging it with an Iq frame — until the queue runs
/// dry, the outbound backlog passes [`OUT_HWM`], or the queue drains
/// closed (then the epilogue runs). The `scheduled` flag is released
/// last, with a re-check, so work that arrived mid-release is never
/// stranded.
fn process_conn(state: &Arc<ServerState>, dispatch: &Arc<Dispatch>, conn: &Arc<Conn>) {
    let Some(q) = conn.queue.get().cloned() else {
        conn.scheduled.store(false, Ordering::SeqCst);
        return;
    };
    let channel = conn.slot.lock().unwrap().unwrap_or(0);
    loop {
        if conn.out_pending() > OUT_HWM {
            conn.awaiting_drain.store(true, Ordering::SeqCst);
            if conn.out_pending() > OUT_HWM {
                // The shard's flush clears the flag and reschedules.
                break;
            }
            conn.awaiting_drain.store(false, Ordering::SeqCst);
        }
        match q.try_pop() {
            Pop::Item(batch) => {
                if !state.cfg.processing_delay.is_zero() {
                    // Fault-injection knob: simulates an overloaded
                    // backend so tests can force queue growth
                    // deterministically.
                    std::thread::sleep(state.cfg.processing_delay);
                }
                if let Some(Role::Ingest(bank)) = conn.role.get() {
                    // Channelizer ingest: run the bank inline on this
                    // processor and fan each channel's output to its
                    // subscribers. The `scheduled` flag already
                    // guarantees one processor per session, so the
                    // farm lock never contends in steady state.
                    {
                        let mut farm = bank.farm.lock().unwrap();
                        let rows = farm.process_block(&batch.samples);
                        let mut subs = bank.subs.lock().unwrap();
                        for (row, ch) in bank.channels.iter().enumerate() {
                            let Some(list) = subs.get_mut(ch) else {
                                continue;
                            };
                            list.retain(|w| match w.upgrade() {
                                Some(sub) => {
                                    if sub.out_pending() > OUT_HWM {
                                        // A stalled subscriber loses
                                        // batches instead of growing
                                        // its backlog unboundedly; it
                                        // sees the loss as a gap in Iq
                                        // batch indices.
                                        sub.obs.drops_oldest.inc();
                                    } else {
                                        sub.enqueue_iq(batch.index, 0, &rows[row], None, 0);
                                        sub.flush_and_post();
                                    }
                                    true
                                }
                                None => false,
                            });
                        }
                    }
                    // The ingest's own ack: an empty Iq frame keeps
                    // the one-ack-per-batch contract (and drop
                    // accounting) on the ingest connection.
                    conn.enqueue_iq(batch.index, q.dropped(), &[], None, batch.trace_id);
                    conn.flush_and_post();
                    conn.recycle_batch(batch);
                    if conn.read_paused.load(Ordering::SeqCst) && q.len() < q.capacity() {
                        conn.mailbox.post(Notice::ResumeRead(conn.id));
                    }
                    continue;
                }
                // Latency sessions split the farm submission into
                // budget-bounded sub-batches (bit-exact with one whole
                // submission — channel state persists across chunks)
                // and report the queue-wait/service split on the ack.
                let service_start = Instant::now();
                let queue_wait = service_start.duration_since(batch.arrived);
                // Session-level spans for sampled batches: queue-wait
                // (batch accepted → farm start) then service, on the
                // session's own track; the per-stage kernel spans the
                // traced submission emits land on the worker tracks.
                let trace_track = SESSION_TRACK_BASE + (conn.id % 0x10000) as u32;
                let service_t0 = if batch.trace_id != 0 {
                    let now = state.trace.now_ns();
                    state.trace.span(
                        trace_track,
                        batch.trace_id,
                        state.trace_names.queue_wait,
                        now.saturating_sub(saturating_ns(queue_wait)),
                        now,
                    );
                    now
                } else {
                    0
                };
                let result = match conn.latency.get() {
                    Some(l) => {
                        let mut pairs = Vec::new();
                        state
                            .farm
                            .submit_channel_chunked_traced(
                                channel,
                                &batch.samples,
                                l.chunk_samples,
                                &mut pairs,
                                batch.trace_id,
                            )
                            .map(|()| pairs)
                    }
                    None => state.farm.submit_channel_shared_traced(
                        channel,
                        Arc::clone(&batch.samples),
                        batch.trace_id,
                    ),
                };
                match result {
                    Some(pairs) => {
                        let timing = conn.latency.get().map(|_| IqTiming {
                            queue_wait_ns: saturating_ns(queue_wait),
                            service_ns: saturating_ns(service_start.elapsed()),
                        });
                        if batch.trace_id != 0 {
                            state.trace.span(
                                trace_track,
                                batch.trace_id,
                                state.trace_names.service,
                                service_t0,
                                state.trace.now_ns(),
                            );
                        }
                        conn.enqueue_iq(batch.index, q.dropped(), &pairs, timing, batch.trace_id);
                        if batch.trace_id != 0 {
                            // The ack is queued and pushed toward the
                            // socket: the server-side end of the loop.
                            state.trace.instant(
                                trace_track,
                                batch.trace_id,
                                state.trace_names.egress,
                            );
                        }
                        conn.flush_and_post();
                        if let Some(l) = conn.latency.get() {
                            // End-to-end: frame accepted → ack queued
                            // and pushed toward the socket.
                            let e2e = batch.arrived.elapsed();
                            conn.obs.e2e_ns.record(saturating_ns(e2e));
                            if e2e.as_micros() > u128::from(l.budget_us) {
                                conn.obs.deadline_misses.inc();
                            }
                        }
                    }
                    None => {
                        // Farm halted (hard server stop): nothing more
                        // can be processed; drop the rest of the queue.
                        conn.enqueue(&Frame::Error(ErrorFrame {
                            code: error_code::SHUTTING_DOWN,
                            message: "server halted before batch was processed".into(),
                        }));
                        q.close();
                        finish_conn(state, conn);
                        conn.scheduled.store(false, Ordering::SeqCst);
                        return;
                    }
                }
                conn.recycle_batch(batch);
                if conn.read_paused.load(Ordering::SeqCst) && q.len() < q.capacity() {
                    conn.mailbox.post(Notice::ResumeRead(conn.id));
                }
            }
            Pop::Drained => {
                finish_conn(state, conn);
                conn.scheduled.store(false, Ordering::SeqCst);
                return;
            }
            Pop::TimedOut => break,
        }
    }
    conn.scheduled.store(false, Ordering::SeqCst);
    let more = (!q.is_empty() || q.is_closed())
        && !conn.awaiting_drain.load(Ordering::SeqCst)
        && !conn.finish_started.load(Ordering::SeqCst);
    if more {
        dispatch.schedule(conn);
    }
}

/// The drain epilogue, run exactly once per configured session after
/// its queue drains closed: the graceful Stats + Shutdown exchange,
/// slot release (no in-flight submission may outlive the claim — the
/// drained queue guarantees that), and the close-after-flush hand-off.
fn finish_conn(state: &Arc<ServerState>, conn: &Arc<Conn>) {
    if conn.finish_started.swap(true, Ordering::SeqCst) {
        return;
    }
    if let Some(Role::Ingest(bank)) = conn.role.get() {
        // The bank dies with its ingest: unpublish it, then end every
        // subscriber gracefully — each gets a Shutdown after its last
        // flushed Iq frame.
        state.banks.lock().unwrap().remove(&bank.name);
        let mut subs = bank.subs.lock().unwrap();
        for list in subs.values_mut() {
            for w in list.drain(..) {
                if let Some(sub) = w.upgrade() {
                    sub.enqueue(&Frame::Shutdown);
                    sub.set_close_after_flush();
                    sub.flush_and_post();
                }
            }
        }
    }
    if conn.graceful.load(Ordering::Acquire) {
        // Client-initiated shutdown: a final snapshot then the closing
        // Shutdown frame, so the client can read end-of-stream stats
        // without racing the connection teardown.
        conn.enqueue(&Frame::StatsReport(conn.stats(&state.farm)));
        conn.enqueue(&Frame::Shutdown);
    }
    if let Some(slot) = conn.slot.lock().unwrap().take() {
        state.release_slot(slot);
    }
    conn.set_close_after_flush();
    conn.flush_and_post();
}

// ------------------------------------------------------------- handle

impl ServerHandle {
    /// The address the listener is bound to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Number of sessions ever accepted.
    pub fn sessions_started(&self) -> u64 {
        self.state.sessions_started.load(Ordering::Relaxed)
    }

    /// Number of channel slots currently free.
    pub fn free_slots(&self) -> usize {
        self.state.free_slots.lock().unwrap().len()
    }

    /// The same telemetry snapshot a [`Frame::MetricsRequest`] gets —
    /// farm, server and live-session metrics in one coherent view.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        MetricsSource::metrics_snapshot(&*self.state)
    }

    /// Graceful shutdown: stop accepting, drain every live session
    /// (accepted batches finish and their Iq frames flush), close the
    /// connections, then stop the shard/processor/farm threads within
    /// `timeout`. Returns `true` if every session closed inside the
    /// deadline.
    pub fn shutdown(mut self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        self.state.stop.store(true, Ordering::Release);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        for (mailbox, _) in &self.shards {
            mailbox.post(Notice::DrainAll);
        }
        let half_deadline = Instant::now() + timeout / 2;
        let mut hard_closed = false;
        let mut all_closed = true;
        {
            let mut active = self.state.active.lock().unwrap();
            while *active > 0 {
                let now = Instant::now();
                if now >= deadline {
                    all_closed = false;
                    break;
                }
                if !hard_closed && now >= half_deadline {
                    // Past the halfway point: sever every socket so
                    // blocked peers fail fast.
                    for (mailbox, _) in &self.shards {
                        mailbox.post(Notice::HardCloseAll);
                    }
                    hard_closed = true;
                }
                let next_edge = if hard_closed { deadline } else { half_deadline };
                let wait = (next_edge - now).min(Duration::from_millis(50));
                let (guard, _) = self
                    .state
                    .active_cv
                    .wait_timeout(active, wait.max(Duration::from_millis(1)))
                    .unwrap();
                active = guard;
            }
        }
        self.stop_threads();
        all_closed
    }

    /// Tears down the runtime threads (idempotent; shared by the
    /// graceful path and Drop).
    fn stop_threads(&mut self) {
        for (mailbox, thread) in &mut self.shards {
            if thread.is_some() {
                mailbox.post(Notice::Exit);
            }
        }
        for (_, thread) in &mut self.shards {
            if let Some(t) = thread.take() {
                let _ = t.join();
            }
        }
        self.dispatch.close();
        for t in std::mem::take(&mut self.processors) {
            let _ = t.join();
        }
        // Only after the sessions are done: stop the farm's workers.
        self.state.farm.halt();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        // Hard path (handle dropped without shutdown()): stop the
        // accept loop, sever every socket, close whatever remains.
        // After shutdown() everything below is a no-op.
        self.state.stop.store(true, Ordering::Release);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        for (mailbox, thread) in &self.shards {
            if thread.is_some() {
                mailbox.post(Notice::HardCloseAll);
            }
        }
        self.stop_threads();
    }
}

#[cfg(test)]
mod tests {
    use super::latency_chunk_samples;

    #[test]
    fn latency_chunk_floor_never_exceeds_cap() {
        // Regression: a total decimation above the 2^22 chunk cap made
        // clamp's min exceed its max and panic mid-parse on the shard
        // thread — one hostile Configure killed every session on the
        // shard. Extreme-but-valid decimations must saturate instead.
        assert_eq!(latency_chunk_samples(1e6, 8_000_000, 100), 1 << 22);
        assert_eq!(latency_chunk_samples(1e6, u32::MAX, 1), 1 << 22);
        // Unaffected ranges keep their prior behaviour: a 500 µs
        // budget at the DRM input rate is a quarter-budget chunk …
        assert_eq!(latency_chunk_samples(64_512_000.0, 168, 500), 8064);
        // … and a budget worth less than one output word floors at
        // the total decimation (one output word per chunk).
        assert_eq!(latency_chunk_samples(1e3, 168, 10), 168);
    }
}
