//! One live connection as an explicit state machine, plus the shared
//! mechanisms the readiness runtime drives it with.
//!
//! The old runtime gave every session two dedicated blocking threads
//! (socket reader + processor). This module is the per-connection half
//! of its replacement: a [`Conn`] owns a non-blocking socket, a
//! [`Reader`] with partial-frame cursors (frames arrive torn at
//! arbitrary byte boundaries), and an [`Outbound`] queue of encoded
//! [`FrameBuf`]s flushed with vectored writes and a partial-write
//! cursor. The shard threads in [`crate::server`] multiplex many
//! `Conn`s over one poller each; a small processor pool drains the
//! per-session input queues into the shared farm.
//!
//! ```text
//! shard thread ──read──▶ Reader(rbuf) ──zero-copy decode──▶ BoundedQueue<Batch>
//!      ◀─────vectored flush───── Outbound(FrameBuf queue) ◀──processor pool──┘
//! ```
//!
//! Protocol policy (handshake rules, backpressure, error texts) lives
//! in [`crate::server`]; this module only provides the moving parts.

use crate::queue::BoundedQueue;
use crate::sys::Waker;
use crate::wire::{
    feature, Frame, FrameBuf, FrameHeader, Hello, IqTiming, StatsReport, HEADER_LEN, MAX_PAYLOAD,
    VERSION,
};
use ddc_core::{ChannelizerFarm, ChannelizerMetrics, DdcFarm};
use ddc_obs::{Counter, LogHistogram, MetricsSnapshot};
use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::Instant;

/// Bytes read from the socket per `read` call while pumping a session.
/// Sized so a full DRM-scale Samples frame (tens of KiB) lands in one
/// syscall. The per-connection buffer this implies is allocated zeroed
/// (`alloc_zeroed` → untouched pages stay unmapped), so idle sessions
/// do not commit it.
pub(crate) const READ_CHUNK: usize = 128 * 1024;
/// Per-readiness-event read budget: after this many bytes the shard
/// moves on to the next ready session (level-triggered polling
/// re-reports the fd, so fairness costs nothing).
pub(crate) const READ_BUDGET: usize = 256 * 1024;
/// Outbound high-water mark: above this many un-flushed bytes the
/// processor stops popping batches for the session until the shard's
/// flush drains the backlog — bounding per-session egress memory when
/// a client stops reading.
pub(crate) const OUT_HWM: usize = 1 << 20;
/// Most frames submitted to one `write_vectored` call.
const MAX_WRITE_SLICES: usize = 16;
/// Encoded-frame buffers kept for reuse per session.
const FREE_FRAMES_MAX: usize = 8;
/// Decoded-sample scratch vectors kept for reuse per session.
const SCRATCH_POOL_MAX: usize = 16;

/// Per-session telemetry, shared by the shard thread (decode times,
/// queue pressure), the egress path (encode times) and the server's
/// metrics endpoint. All fields are relaxed atomics updated at frame
/// granularity — the session data path never takes a lock for them.
#[derive(Debug, Default)]
pub struct SessionObs {
    /// Frame decode CPU time, ns (header + payload parse, no I/O).
    pub decode_ns: LogHistogram,
    /// Frame encode CPU time, ns (serialisation, no I/O).
    pub encode_ns: LogHistogram,
    /// Input-queue depth observed after each accepted push.
    pub queue_depth: LogHistogram,
    /// Batches evicted under the drop-oldest policy.
    pub drops_oldest: Counter,
    /// Batches refused under the disconnect policy (at most 1: the
    /// refusal ends the session).
    pub drops_reject: Counter,
    /// Stats requests answered.
    pub stats_requests: Counter,
    /// Metrics requests answered.
    pub metrics_requests: Counter,
    /// End-to-end batch latency, ns: Samples frame accepted → its Iq
    /// ack handed to the outbound queue. Recorded only for sessions on
    /// the latency QoS profile.
    pub e2e_ns: LogHistogram,
    /// Batches whose end-to-end latency exceeded the negotiated budget.
    pub deadline_misses: Counter,
    /// Negotiated latency budget in µs; 0 = throughput profile (the
    /// `ddc_latency_*` metrics family is exported only when non-zero).
    pub latency_budget_us: AtomicU64,
}

/// Anything that can render a point-in-time telemetry snapshot — the
/// server implements this over its farm + session registry; tests can
/// stub it.
pub trait MetricsSource: Sync {
    /// Builds the current snapshot.
    fn metrics_snapshot(&self) -> MetricsSnapshot;
}

/// Where a session is in its protocol lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SessionState {
    /// Waiting for the client Hello (seq 0).
    ExpectHello,
    /// Hello answered; waiting for Configure (seq 1).
    ExpectConfigure,
    /// Configured and bound to a farm channel; Samples flow.
    Streaming,
    /// Input side done (EOF/Shutdown/error): no more reads; accepted
    /// batches drain through the processor, then the outbound flushes.
    Draining,
    /// Fully torn down; the fd is deregistered and shut.
    Closed,
}

/// Why a session's input side ended; decides the teardown epilogue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum EndKind {
    /// Client sent Shutdown — final Stats + Shutdown after the drain.
    Graceful,
    /// Connection closed (EOF) without a Shutdown frame.
    Disconnected,
    /// Protocol violation or queue overflow; an Error frame was
    /// already queued.
    Errored,
}

/// Cross-thread messages into a shard's readiness loop. Posting wakes
/// the shard's poller, so a notice is acted on promptly even when no
/// socket is ready.
pub(crate) enum Notice {
    /// A freshly accepted connection to register and start reading.
    Accept(Arc<Conn>),
    /// A paused (block-policy) session has queue room again: re-arm
    /// read interest and re-parse already-buffered bytes.
    ResumeRead(u64),
    /// The session has un-flushed outbound bytes: arm write interest.
    WriteReady(u64),
    /// The session is fully flushed and finished: deregister and close.
    Deregister(u64),
    /// Server-initiated graceful shutdown: treat every session as if
    /// its client had half-closed (drain accepted batches, flush,
    /// close).
    DrainAll,
    /// Past the shutdown half-deadline: sever every socket so blocked
    /// peers fail fast.
    HardCloseAll,
    /// Close whatever remains and exit the shard thread.
    Exit,
}

/// A shard's mailbox: lock-free for readers of the hot path (the shard
/// only locks when woken), coalescing wakes through the poller's pipe
/// waker.
pub(crate) struct ShardMailbox {
    notices: Mutex<Vec<Notice>>,
    waker: Waker,
}

impl ShardMailbox {
    /// A mailbox wired to a shard poller's waker.
    pub(crate) fn new(waker: Waker) -> Arc<Self> {
        Arc::new(ShardMailbox {
            notices: Mutex::new(Vec::new()),
            waker,
        })
    }

    /// Posts a notice and wakes the shard.
    pub(crate) fn post(&self, n: Notice) {
        self.notices.lock().unwrap().push(n);
        self.waker.wake();
    }

    /// Moves all pending notices into `into` (cleared first).
    pub(crate) fn drain_into(&self, into: &mut Vec<Notice>) {
        into.clear();
        let mut g = self.notices.lock().unwrap();
        std::mem::swap(&mut *g, into);
    }
}

/// One live channelizer bank: a [`ChannelizerFarm`] driven by exactly
/// one ingest session's wideband Samples, fanning each enabled
/// channel's output to that channel's subscriber sessions. Registered
/// in the server's bank registry under the spec's `name` for the
/// ingest's lifetime — the bank dies (and its subscribers are shut
/// down) when the ingest session ends.
pub(crate) struct Bank {
    /// Registry key — the [`ddc_core::ChannelizerSpec`] name.
    pub name: String,
    /// The farm. Locked only by the ingest's processor per block (and
    /// briefly at Subscribe time), so subscribers never contend on it.
    pub farm: Mutex<ChannelizerFarm>,
    /// Enabled channel indices in farm-row order, cached so the
    /// delivery loop and Subscribe validation never lock `farm`.
    pub channels: Vec<usize>,
    /// Telemetry handle cloned out of the farm, so stats and the
    /// metrics endpoint read counters without locking the farm.
    pub metrics: Option<Arc<ChannelizerMetrics>>,
    /// channel index → subscribers. Weak: teardown of a subscriber
    /// needs no cooperation from the bank — dead entries are pruned
    /// lazily at each delivery and at bank teardown.
    pub subs: Mutex<HashMap<usize, Vec<Weak<Conn>>>>,
}

impl Bank {
    /// Attaches a subscriber to one enabled channel.
    pub(crate) fn subscribe(&self, channel: usize, conn: &Arc<Conn>) {
        self.subs
            .lock()
            .unwrap()
            .entry(channel)
            .or_default()
            .push(Arc::downgrade(conn));
    }
}

/// The channelizer role a session adopted at Configure time. Plain
/// chain sessions (Preset/Spec plans) never set one.
pub(crate) enum Role {
    /// Streams the wideband input that drives the bank's farm; its own
    /// Samples batches are acknowledged with empty Iq frames (channel
    /// outputs travel on the subscriber connections).
    Ingest(Arc<Bank>),
    /// Receives one channel's Iq stream; sends no Samples and owns no
    /// input queue.
    Subscriber {
        /// The bank this session is attached to.
        bank: Arc<Bank>,
        /// Enabled channel index within the bank.
        channel: usize,
    },
}

/// One accepted Samples batch queued for the processor pool. The
/// samples sit behind an `Arc` so the farm submission shares the
/// buffer instead of copying it, and the emptied vector can return to
/// the session's scratch pool afterwards.
pub(crate) struct Batch {
    /// Sender-assigned batch number (echoed on the Iq ack).
    pub index: u64,
    /// Decoded ADC samples, written straight from the wire payload.
    pub samples: Arc<Vec<i32>>,
    /// When the decoded batch was accepted into the input queue — the
    /// zero point for queue-wait and end-to-end latency accounting.
    pub arrived: Instant,
    /// Span-trace ID riding this batch (client-stamped, or
    /// server-allocated under the Configure `trace_interval` tag);
    /// 0 = unsampled. Threaded through the farm job and echoed on the
    /// Iq ack.
    pub trace_id: u64,
}

/// Latency-QoS parameters negotiated at Configure time, fixed for the
/// session's lifetime.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LatencyCtl {
    /// The budget the client asked for, µs.
    pub budget_us: u32,
    /// Largest farm sub-batch the processor submits at once, derived
    /// from the budget and the chain's input rate so a single job
    /// cannot occupy the channel for more than a budget's worth of
    /// samples.
    pub chunk_samples: usize,
}

/// The ingest half of a connection: unparsed bytes, partial-frame
/// cursors and the protocol position. Only the owning shard thread
/// locks this in steady state.
pub(crate) struct Reader {
    /// Protocol lifecycle position.
    pub state: SessionState,
    /// Socket read buffer. Kept at full length with a `filled`
    /// watermark (rather than `len` tracking the data) so refills
    /// never re-zero the spare region — the zeroing cost is paid once
    /// per growth, not once per `read`.
    pub buf: Vec<u8>,
    /// Bytes of `buf` holding unconsumed wire data.
    pub filled: usize,
    /// Parse offset into `buf[..filled]` (compacted between pump calls).
    pub pos: usize,
    /// A validated header whose payload has not fully arrived (or, for
    /// a block-policy pause, has not yet been admitted).
    pub header: Option<FrameHeader>,
    /// Next client sequence number the stream must carry.
    pub expected_seq: u32,
    /// Backpressure policy chosen at Configure time.
    pub policy: crate::wire::Backpressure,
}

/// Flush progress of a session's outbound queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FlushState {
    /// Everything queued has been written.
    Idle,
    /// The socket refused bytes (`WouldBlock`): arm write interest and
    /// retry on the next writability event.
    Pending,
    /// Everything is out (or the peer is gone) and the session asked
    /// to close after its last byte: tear the connection down.
    Done,
}

/// The egress half: encoded frames awaiting the socket, with a
/// partial-write cursor into the front frame. Frames are encoded
/// directly into recycled [`FrameBuf`]s, so the steady state neither
/// allocates nor concatenates — `write_vectored` takes the header and
/// payload segments as they are.
struct Outbound {
    frames: VecDeque<FrameBuf>,
    /// Bytes of the front frame already written.
    cursor: usize,
    /// Next server→client sequence number.
    seq: u32,
    /// Total un-flushed bytes across all queued frames.
    pending_bytes: usize,
    /// Recycled encode buffers.
    free: Vec<FrameBuf>,
    /// The write side failed: swallow writes, let the read side (or
    /// the drain epilogue) finish the teardown.
    dead: bool,
    /// Tear the connection down once the queue flushes dry.
    close_after_flush: bool,
}

/// One live connection: socket, both half-machines, the input queue
/// and the scheduling flags the shard/processor protocol uses. Shared
/// as `Arc<Conn>` between exactly one shard thread and whichever
/// processor currently owns the session (the `scheduled` flag ensures
/// at most one).
pub(crate) struct Conn {
    /// Session id (also the poller registration token).
    pub id: u64,
    /// The non-blocking socket. Reads and writes go through `&TcpStream`.
    pub stream: TcpStream,
    /// The owning shard's mailbox.
    pub mailbox: Arc<ShardMailbox>,
    /// Session telemetry (also in the server's metrics registry).
    pub obs: Arc<SessionObs>,
    /// Ingest state machine.
    pub reader: Mutex<Reader>,
    out: Mutex<Outbound>,
    /// Input queue, created at Configure time. Subscriber sessions
    /// never get one (their data flows outbound only).
    pub queue: OnceLock<Arc<BoundedQueue<Batch>>>,
    /// Channelizer role, set at Configure time for ingest/subscriber
    /// sessions; never set for plain chain sessions.
    pub role: OnceLock<Role>,
    /// Farm channel slot, claimed at Configure, released by the drain
    /// epilogue (never while a submission may be in flight).
    pub slot: Mutex<Option<usize>>,
    /// Latency-QoS parameters, set at Configure time when the client
    /// negotiated `QosProfile::Latency`; never set for throughput
    /// sessions.
    pub latency: OnceLock<LatencyCtl>,
    /// Server-side trace head-sampling interval (0 = off), set at
    /// Configure time from the `trace_interval` tag.
    pub trace_interval: AtomicU32,
    /// Accepted-batch counter driving server-side head sampling.
    pub trace_count: AtomicU64,
    /// Batches accepted into the queue (≥ batches processed).
    pub batches_accepted: AtomicU64,
    /// Client asked for a graceful Shutdown: the drain epilogue sends
    /// a final Stats + Shutdown exchange.
    pub graceful: AtomicBool,
    /// Block-policy pause: the reader stops consuming Samples until
    /// the processor frees queue room. Set *before* the final
    /// fullness re-check so the resume notice cannot be lost.
    pub read_paused: AtomicBool,
    /// The session is queued for (or held by) a processor.
    pub scheduled: AtomicBool,
    /// The processor stopped popping because the outbound backlog
    /// passed [`OUT_HWM`]; the shard's flush reschedules it.
    pub awaiting_drain: AtomicBool,
    /// The drain epilogue has run (it must run exactly once).
    pub finish_started: AtomicBool,
    scratch: Mutex<Vec<Vec<i32>>>,
}

impl Conn {
    /// Wraps an accepted, already non-blocking socket.
    pub(crate) fn new(
        id: u64,
        stream: TcpStream,
        mailbox: Arc<ShardMailbox>,
        obs: Arc<SessionObs>,
    ) -> Arc<Conn> {
        Arc::new(Conn {
            id,
            stream,
            mailbox,
            obs,
            reader: Mutex::new(Reader {
                state: SessionState::ExpectHello,
                buf: vec![0; READ_CHUNK],
                filled: 0,
                pos: 0,
                header: None,
                expected_seq: 0,
                policy: crate::wire::Backpressure::Block,
            }),
            out: Mutex::new(Outbound {
                frames: VecDeque::new(),
                cursor: 0,
                seq: 0,
                pending_bytes: 0,
                free: Vec::new(),
                dead: false,
                close_after_flush: false,
            }),
            queue: OnceLock::new(),
            role: OnceLock::new(),
            slot: Mutex::new(None),
            latency: OnceLock::new(),
            trace_interval: AtomicU32::new(0),
            trace_count: AtomicU64::new(0),
            batches_accepted: AtomicU64::new(0),
            graceful: AtomicBool::new(false),
            read_paused: AtomicBool::new(false),
            scheduled: AtomicBool::new(false),
            awaiting_drain: AtomicBool::new(false),
            finish_started: AtomicBool::new(false),
            scratch: Mutex::new(Vec::new()),
        })
    }

    /// A reusable sample buffer for the zero-copy decode path.
    pub(crate) fn take_scratch(&self) -> Vec<i32> {
        let mut v = self.scratch.lock().unwrap().pop().unwrap_or_default();
        v.clear();
        v
    }

    /// Returns an emptied sample buffer to the pool.
    pub(crate) fn recycle_scratch(&self, v: Vec<i32>) {
        let mut pool = self.scratch.lock().unwrap();
        if pool.len() < SCRATCH_POOL_MAX {
            pool.push(v);
        }
    }

    /// Reclaims a processed batch's buffer when the farm has dropped
    /// its reference (the common case: submission completed).
    pub(crate) fn recycle_batch(&self, batch: Batch) {
        if let Ok(v) = Arc::try_unwrap(batch.samples) {
            self.recycle_scratch(v);
        }
    }

    /// Queues one frame (generic two-pass encode — control frames are
    /// tiny). Sequence numbers stay gapless because allocation and
    /// queueing happen under the same lock.
    pub(crate) fn enqueue(&self, frame: &Frame) {
        let mut o = self.out.lock().unwrap();
        if o.dead {
            return;
        }
        let mut fb = o.free.pop().unwrap_or_default();
        let seq = o.seq;
        o.seq = o.seq.wrapping_add(1);
        let t0 = Instant::now();
        fb.encode(frame, seq);
        self.obs.encode_ns.record_duration(t0.elapsed());
        o.pending_bytes += fb.total_len();
        o.frames.push_back(fb);
    }

    /// Queues one Iq frame through the dedicated Iq encoder (the
    /// egress hot path).
    pub(crate) fn enqueue_iq(
        &self,
        batch_index: u64,
        dropped_total: u64,
        pairs: &[ddc_core::mixer::Iq],
        timing: Option<IqTiming>,
        trace_id: u64,
    ) {
        let mut o = self.out.lock().unwrap();
        if o.dead {
            return;
        }
        let mut fb = o.free.pop().unwrap_or_default();
        let seq = o.seq;
        o.seq = o.seq.wrapping_add(1);
        let t0 = Instant::now();
        fb.encode_iq(seq, batch_index, dropped_total, pairs, timing, trace_id);
        self.obs.encode_ns.record_duration(t0.elapsed());
        o.pending_bytes += fb.total_len();
        o.frames.push_back(fb);
    }

    /// Un-flushed outbound bytes.
    pub(crate) fn out_pending(&self) -> usize {
        self.out.lock().unwrap().pending_bytes
    }

    /// Marks the session to close once the outbound queue flushes dry.
    pub(crate) fn set_close_after_flush(&self) {
        self.out.lock().unwrap().close_after_flush = true;
    }

    /// Writes as much of the outbound queue as the socket accepts,
    /// submitting up to [`MAX_WRITE_SLICES`] header/payload segments
    /// per `write_vectored` call and keeping a byte cursor into the
    /// front frame for partial writes.
    pub(crate) fn flush(&self) -> FlushState {
        let mut o = self.out.lock().unwrap();
        loop {
            if o.dead || o.frames.is_empty() {
                break;
            }
            let r = {
                // A stack array, not a Vec: this runs on every ack.
                let mut slices = [IoSlice::new(&[]); MAX_WRITE_SLICES];
                let mut len = 0;
                for (k, f) in o.frames.iter().enumerate() {
                    if len + 2 > MAX_WRITE_SLICES {
                        break;
                    }
                    // The front frame resumes at the byte cursor.
                    let skip = if k == 0 { o.cursor } else { 0 };
                    let (head, body) = if skip < HEADER_LEN {
                        (&f.header[skip..], &f.payload[..])
                    } else {
                        (&[][..], &f.payload[skip - HEADER_LEN..])
                    };
                    for seg in [head, body] {
                        if !seg.is_empty() {
                            slices[len] = IoSlice::new(seg);
                            len += 1;
                        }
                    }
                }
                (&self.stream).write_vectored(&slices[..len])
            };
            match r {
                Ok(0) => {
                    o.dead = true;
                    o.frames.clear();
                    o.pending_bytes = 0;
                }
                Ok(mut n) => {
                    o.pending_bytes -= n.min(o.pending_bytes);
                    while n > 0 {
                        let rem = o.frames[0].total_len() - o.cursor;
                        if n >= rem {
                            n -= rem;
                            o.cursor = 0;
                            let f = o.frames.pop_front().unwrap();
                            if o.free.len() < FREE_FRAMES_MAX {
                                o.free.push(f);
                            }
                        } else {
                            o.cursor += n;
                            n = 0;
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return FlushState::Pending,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    // Peer gone mid-write: swallow remaining output and
                    // let the read side / drain epilogue finish up.
                    o.dead = true;
                    o.frames.clear();
                    o.pending_bytes = 0;
                }
            }
        }
        if o.close_after_flush {
            FlushState::Done
        } else {
            FlushState::Idle
        }
    }

    /// Flush from off-shard contexts (the processor pool): performs the
    /// writes here and posts the follow-up the shard must act on —
    /// write-interest arming or final deregistration.
    pub(crate) fn flush_and_post(self: &Arc<Self>) {
        match self.flush() {
            FlushState::Done => self.mailbox.post(Notice::Deregister(self.id)),
            FlushState::Pending => self.mailbox.post(Notice::WriteReady(self.id)),
            FlushState::Idle => {}
        }
    }

    /// Point-in-time statistics combining queue state with the farm's
    /// per-channel counters and farm-wide totals. Channelizer sessions
    /// substitute their bank's flow counters for the farm channel's
    /// (an ingest owns no farm slot; a subscriber reports the channel
    /// index it is attached to).
    pub(crate) fn stats(&self, farm: &DdcFarm) -> StatsReport {
        let totals = farm.totals();
        let q = self.queue.get();
        let base = StatsReport {
            channel: 0,
            batches_accepted: self.batches_accepted.load(Ordering::Relaxed),
            batches_dropped: q.map_or(0, |q| q.dropped()),
            samples_in: 0,
            outputs: 0,
            queue_len: q.map_or(0, |q| q.len()) as u32,
            queue_hwm: q.map_or(0, |q| q.high_water_mark()) as u32,
            busy_ns: 0,
            farm_jobs_completed: totals.jobs_completed,
            farm_steals: totals.steals,
            farm_orphans_reclaimed: totals.orphans_reclaimed,
        };
        match self.role.get() {
            Some(Role::Ingest(bank)) => {
                let (samples_in, outputs) = bank
                    .metrics
                    .as_ref()
                    .map_or((0, 0), |m| (m.samples_in.get(), m.samples_out.get()));
                StatsReport {
                    samples_in,
                    outputs,
                    ..base
                }
            }
            Some(Role::Subscriber { channel, .. }) => StatsReport {
                channel: *channel as u32,
                ..base
            },
            None => {
                let channel = self.slot.lock().unwrap().unwrap_or(0);
                let ch = farm.channel_stats(channel);
                StatsReport {
                    channel: channel as u32,
                    samples_in: ch.samples_in,
                    outputs: ch.outputs,
                    busy_ns: ch.busy.as_nanos().min(u64::MAX as u128) as u64,
                    ..base
                }
            }
        }
    }
}

pub(crate) fn frame_name(f: &Frame) -> &'static str {
    match f {
        Frame::Hello(_) => "Hello",
        Frame::Configure(_) => "Configure",
        Frame::Samples(_) => "Samples",
        Frame::Iq(_) => "Iq",
        Frame::StatsRequest => "StatsRequest",
        Frame::StatsReport(_) => "StatsReport",
        Frame::Error(_) => "Error",
        Frame::Shutdown => "Shutdown",
        Frame::MetricsRequest { .. } => "MetricsRequest",
        Frame::MetricsReport(_) => "MetricsReport",
        Frame::TraceRequest => "TraceRequest",
        Frame::TraceReport(_) => "TraceReport",
    }
}

/// The server's half of the version handshake. Advertises the metrics
/// and span-trace endpoints so clients know a MetricsRequest or
/// TraceRequest will be answered.
pub fn server_hello(banner: &str) -> Hello {
    Hello {
        proto: VERSION as u16,
        max_payload: MAX_PAYLOAD,
        info: banner.to_string(),
        features: feature::METRICS | feature::TRACE,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{decode_header, decode_payload, ErrorFrame, HEADER_LEN};
    use std::io::Read;
    use std::net::{TcpListener, TcpStream};

    fn pair() -> (TcpStream, TcpStream) {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let a = TcpStream::connect(l.local_addr().unwrap()).unwrap();
        let (b, _) = l.accept().unwrap();
        (a, b)
    }

    fn read_frames(stream: &mut TcpStream, expect: usize) -> Vec<Frame> {
        let mut frames = Vec::new();
        while frames.len() < expect {
            let mut hdr = [0u8; HEADER_LEN];
            stream.read_exact(&mut hdr).unwrap();
            let h = decode_header(&hdr).unwrap();
            let mut payload = vec![0u8; h.payload_len as usize];
            stream.read_exact(&mut payload).unwrap();
            frames.push(decode_payload(&h, &payload).unwrap());
        }
        frames
    }

    #[test]
    fn outbound_queue_flushes_multiple_frames_in_order_with_gapless_seqs() {
        let (mut client, server) = pair();
        server.set_nonblocking(true).unwrap();
        let poller = crate::sys::Poller::new().unwrap();
        let mailbox = ShardMailbox::new(poller.waker());
        let conn = Conn::new(7, server, mailbox, Arc::new(SessionObs::default()));
        for k in 0..5u16 {
            conn.enqueue(&Frame::Error(ErrorFrame {
                code: k,
                message: format!("frame {k}"),
            }));
        }
        // Drive the flush to completion (loopback may need >1 round).
        for _ in 0..100 {
            if conn.flush() == FlushState::Idle && conn.out_pending() == 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(conn.out_pending(), 0);
        let frames = read_frames(&mut client, 5);
        for (k, f) in frames.iter().enumerate() {
            match f {
                Frame::Error(e) => {
                    assert_eq!(e.code, k as u16);
                    assert_eq!(e.message, format!("frame {k}"));
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn close_after_flush_reports_done_only_when_drained() {
        let (_client, server) = pair();
        server.set_nonblocking(true).unwrap();
        let poller = crate::sys::Poller::new().unwrap();
        let mailbox = ShardMailbox::new(poller.waker());
        let conn = Conn::new(1, server, mailbox, Arc::new(SessionObs::default()));
        conn.enqueue(&Frame::Shutdown);
        conn.set_close_after_flush();
        // A tiny frame flushes immediately on a fresh socket.
        let mut done = false;
        for _ in 0..100 {
            match conn.flush() {
                FlushState::Done => {
                    done = true;
                    break;
                }
                FlushState::Pending => std::thread::sleep(std::time::Duration::from_millis(1)),
                FlushState::Idle => unreachable!("close_after_flush never reports Idle when set"),
            }
        }
        assert!(done);
    }

    #[test]
    fn scratch_pool_recycles_buffers() {
        let (_client, server) = pair();
        let poller = crate::sys::Poller::new().unwrap();
        let mailbox = ShardMailbox::new(poller.waker());
        let conn = Conn::new(2, server, mailbox, Arc::new(SessionObs::default()));
        let mut v = conn.take_scratch();
        v.extend_from_slice(&[1, 2, 3]);
        let cap = v.capacity();
        conn.recycle_scratch(v);
        let v2 = conn.take_scratch();
        assert!(v2.is_empty(), "recycled scratch is cleared");
        assert_eq!(v2.capacity(), cap, "recycled scratch keeps its allocation");
    }
}
