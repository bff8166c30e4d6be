//! Sampled end-to-end span tracing: a per-batch flight recorder.
//!
//! Aggregate counters (the [`crate::MetricsHandle`] world) answer "how
//! much"; this module answers "which batch, where, when". A
//! [`TraceSink`] records span events into the same per-writer-thread
//! seqlock rings as [`crate::EventRing`] — a span event is four words:
//! timestamp, trace ID, span ID and packed kind/name/track — plus an
//! interned span-name table built at configure time. After a thread's
//! first record, recording a span is a handful of atomic stores: no
//! locks, no heap allocation, never blocks. A [`TraceHandle`] gates
//! recording exactly like `MetricsHandle` gates metrics: disabled is a
//! single branch on an always-`None` option, and the DSP results are
//! bit-exact either way because tracing only *observes*.
//!
//! Span events come in three kinds — `begin`, `end`, `instant` — with
//! timestamps measured from the sink's origin instant, so rings
//! written by different threads merge into one timeline. Tracks are
//! event metadata only (the Chrome `pid`/`tid` an event renders on);
//! they never pick a ring. The [`TraceSink::render_chrome`] exporter
//! pairs begin/end events by span ID (orphans from ring overwrite are
//! dropped, never emitted unbalanced) and renders Chrome trace-event
//! JSON objects that Perfetto loads directly.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

use crate::ring::ThreadRings;

/// Span event kinds.
pub mod span_kind {
    /// Span opened (paired with [`END`] by span ID).
    pub const BEGIN: u8 = 1;
    /// Span closed.
    pub const END: u8 = 2;
    /// Point event (no pairing).
    pub const INSTANT: u8 = 3;
}

/// One recorded span event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// Sequence number in the recording thread's ring (gap-free per
    /// writer thread).
    pub seq: u64,
    /// Nanoseconds since the sink's origin instant.
    pub t_ns: u64,
    /// Trace this event belongs to (never 0 for recorded events).
    pub trace_id: u64,
    /// Span identity pairing begin with end (0 for instants).
    pub span_id: u64,
    /// One of [`span_kind`].
    pub kind: u8,
    /// Index into the sink's interned name table.
    pub name: u16,
    /// Logical execution track (shard, worker, client session).
    pub track: u32,
}

/// Packs kind/name/track into one payload word.
#[inline]
fn pack_meta(kind: u8, name: u16, track: u32) -> u64 {
    (kind as u64) | ((name as u64) << 8) | ((track as u64) << 24)
}

#[inline]
fn unpack_meta(meta: u64) -> (u8, u16, u32) {
    (meta as u8, (meta >> 8) as u16, (meta >> 24) as u32)
}

/// Trace IDs the sink generates itself (server-side head sampling) set
/// the top bit so they can never collide with client-stamped IDs,
/// which the wire layer requires to be nonzero and keep the top bit
/// clear.
pub const SERVER_TRACE_BIT: u64 = 1 << 63;

/// The shared span recorder: per-writer-thread rings (see
/// [`crate::EventRing`]), an interned span-name table, and the
/// span/trace ID allocators. Built once at configure time; each thread
/// allocates its ring on its first record, and recording afterwards is
/// lock-free and allocation-free.
#[derive(Debug)]
pub struct TraceSink {
    rings: ThreadRings,
    names: Mutex<Vec<String>>,
    next_span: AtomicU64,
    next_trace: AtomicU64,
}

impl TraceSink {
    /// Builds a sink whose per-thread rings hold `capacity` span events
    /// each (rounded up to a power of two, minimum 8). `writers` only
    /// reserves registry room for that many writer threads; it routes
    /// nothing, since every thread that records gets its own ring.
    pub fn new(writers: usize, capacity: usize) -> Self {
        Self {
            rings: ThreadRings::new(capacity, writers),
            names: Mutex::new(vec!["span".to_string()]),
            next_span: AtomicU64::new(1),
            next_trace: AtomicU64::new(1),
        }
    }

    /// Nanoseconds elapsed since the sink's origin.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.rings.now_ns()
    }

    /// Interns a span name and returns its index; registering the same
    /// name twice returns the same index. Configure-time only (takes a
    /// lock and may allocate). The table is capped at `u16::MAX`
    /// entries; overflow falls back to index 0 ("span").
    pub fn register_name(&self, name: &str) -> u16 {
        let mut names = self.names.lock().unwrap();
        if let Some(i) = names.iter().position(|n| n == name) {
            return i as u16;
        }
        if names.len() >= u16::MAX as usize {
            return 0;
        }
        names.push(name.to_string());
        (names.len() - 1) as u16
    }

    /// The interned name for `idx` ("span" for unknown indices).
    pub fn name_of(&self, idx: u16) -> String {
        let names = self.names.lock().unwrap();
        names
            .get(idx as usize)
            .cloned()
            .unwrap_or_else(|| "span".to_string())
    }

    /// Allocates a fresh nonzero span ID.
    #[inline]
    pub fn alloc_span_id(&self) -> u64 {
        self.next_span.fetch_add(1, Relaxed)
    }

    /// Allocates a fresh server-originated trace ID (top bit set, so
    /// it cannot collide with client-stamped IDs).
    #[inline]
    pub fn alloc_trace_id(&self) -> u64 {
        SERVER_TRACE_BIT | self.next_trace.fetch_add(1, Relaxed)
    }

    /// Total span events ever recorded, across every writer thread.
    pub fn produced(&self) -> u64 {
        self.rings.produced()
    }

    /// Total span events lost to overwrite, as counted by drains.
    pub fn dropped(&self) -> u64 {
        self.rings.dropped()
    }

    /// Records a span event at an explicit timestamp in the calling
    /// thread's ring. Never blocks and, after the thread's first
    /// record, never allocates; overwrites the thread's oldest
    /// undrained event when its ring is full.
    #[inline]
    pub fn push_at(&self, t_ns: u64, trace_id: u64, span_id: u64, kind: u8, name: u16, track: u32) {
        self.rings
            .push([t_ns, trace_id, span_id, pack_meta(kind, name, track)]);
    }

    /// Records an instant event stamped "now".
    #[inline]
    pub fn instant(&self, track: u32, trace_id: u64, name: u16) {
        self.instant_at(self.now_ns(), track, trace_id, name);
    }

    /// Records an instant event at an explicit timestamp.
    #[inline]
    pub fn instant_at(&self, t_ns: u64, track: u32, trace_id: u64, name: u16) {
        self.push_at(t_ns, trace_id, 0, span_kind::INSTANT, name, track);
    }

    /// Opens a span now and returns its ID (close with [`Self::end`]).
    #[inline]
    pub fn begin(&self, track: u32, trace_id: u64, name: u16) -> u64 {
        let span_id = self.alloc_span_id();
        self.push_at(
            self.now_ns(),
            trace_id,
            span_id,
            span_kind::BEGIN,
            name,
            track,
        );
        span_id
    }

    /// Closes a span opened with [`Self::begin`].
    #[inline]
    pub fn end(&self, track: u32, trace_id: u64, span_id: u64, name: u16) {
        self.push_at(
            self.now_ns(),
            trace_id,
            span_id,
            span_kind::END,
            name,
            track,
        );
    }

    /// Records a complete span as a begin/end pair at explicit
    /// timestamps (the common shape: the caller timed the work and
    /// emits both events after the fact).
    #[inline]
    pub fn span(&self, track: u32, trace_id: u64, name: u16, t0_ns: u64, t1_ns: u64) {
        let span_id = self.alloc_span_id();
        self.push_at(t0_ns, trace_id, span_id, span_kind::BEGIN, name, track);
        let t1_ns = t1_ns.max(t0_ns);
        self.push_at(t1_ns, trace_id, span_id, span_kind::END, name, track);
    }

    /// Drains every writer thread's ring into `out`, merged and
    /// ordered by `(t_ns, seq)`; returns the newly detected drop count.
    /// Single-consumer; allocation-free when `out` has room.
    pub fn drain(&self, out: &mut Vec<SpanEvent>) -> u64 {
        let start = out.len();
        let dropped = self.rings.drain(|seq, [t_ns, trace_id, span_id, meta]| {
            let (kind, name, track) = unpack_meta(meta);
            out.push(SpanEvent {
                seq,
                t_ns,
                trace_id,
                span_id,
                kind,
                name,
                track,
            })
        });
        out[start..].sort_unstable_by_key(|e| (e.t_ns, e.seq));
        dropped
    }

    /// Renders drained span events as Chrome trace-event JSON objects,
    /// appended to `out` as a comma-separated fragment (no enclosing
    /// brackets — the caller splices fragments into one `traceEvents`
    /// array). Returns the number of events written.
    ///
    /// Begin/end events are paired by span ID; pairs missing either
    /// side (lost to ring overwrite) are dropped so the output always
    /// balances. Each track becomes one `pid`/`tid` (offset by
    /// `pid_base`), events carry `cat` so the two sides of the wire
    /// are distinguishable, and every event's trace ID rides in
    /// `args.trace` as a hex string.
    pub fn render_chrome(
        &self,
        spans: &[SpanEvent],
        cat: &str,
        pid_base: u32,
        out: &mut String,
    ) -> usize {
        let names = self.names.lock().unwrap().clone();
        render_chrome_events(spans, &names, cat, pid_base, out)
    }
}

/// Cheap-to-clone handle the hot path consults before recording.
/// Mirrors [`crate::MetricsHandle`]: disabled is the default and costs
/// one branch on an always-`None` option.
#[derive(Clone, Debug, Default)]
pub struct TraceHandle(Option<Arc<TraceSink>>);

impl TraceHandle {
    /// The no-op handle.
    pub const fn disabled() -> Self {
        Self(None)
    }

    /// A live handle recording into `sink`.
    pub fn enabled(sink: Arc<TraceSink>) -> Self {
        Self(Some(sink))
    }

    /// Whether recording is live.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The sink to record into, if enabled.
    #[inline]
    pub fn get(&self) -> Option<&TraceSink> {
        self.0.as_deref()
    }

    /// The shared sink allocation, if enabled (for draining).
    pub fn shared(&self) -> Option<&Arc<TraceSink>> {
        self.0.as_ref()
    }
}

fn json_escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

struct Interval {
    t0: u64,
    t1: u64,
    trace_id: u64,
    name: u16,
}

/// Serialises trace events into one comma-spliced JSON fragment,
/// tracking whether a separator is needed before the next object.
struct ChromeWriter<'a> {
    out: &'a mut String,
    cat: &'a str,
    first: bool,
}

impl ChromeWriter<'_> {
    fn event(&mut self, ph: char, pid: u32, tid: u32, t_ns: u64, name: &str, trace_id: u64) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        self.out.push_str(&format!(
            "{{\"ph\":\"{ph}\",\"pid\":{pid},\"tid\":{tid},\"ts\":{:.3},\"name\":\"",
            t_ns as f64 / 1000.0
        ));
        json_escape_into(name, self.out);
        self.out.push_str("\",\"cat\":\"");
        json_escape_into(self.cat, self.out);
        self.out.push('"');
        if ph == 'i' {
            self.out.push_str(",\"s\":\"t\"");
        }
        self.out
            .push_str(&format!(",\"args\":{{\"trace\":\"{trace_id:#x}\"}}}}"));
    }
}

/// Renders span events (see [`TraceSink::render_chrome`]) against an
/// explicit name table. Exposed for renderers that drained the events
/// elsewhere.
pub fn render_chrome_events(
    spans: &[SpanEvent],
    names: &[String],
    cat: &str,
    pid_base: u32,
    out: &mut String,
) -> usize {
    let name_of = |idx: u16| -> &str {
        names
            .get(idx as usize)
            .map(String::as_str)
            .unwrap_or("span")
    };
    // Pair begin/end by span ID; orphans (lost to overwrite) drop.
    let mut pairs: HashMap<u64, (Option<&SpanEvent>, Option<&SpanEvent>)> = HashMap::new();
    let mut by_track: HashMap<u32, (Vec<Interval>, Vec<&SpanEvent>)> = HashMap::new();
    for ev in spans {
        match ev.kind {
            span_kind::BEGIN => {
                pairs.entry(ev.span_id).or_default().0.get_or_insert(ev);
            }
            span_kind::END => {
                pairs.entry(ev.span_id).or_default().1.get_or_insert(ev);
            }
            span_kind::INSTANT => {
                by_track.entry(ev.track).or_default().1.push(ev);
            }
            _ => {}
        }
    }
    for (b, e) in pairs.values() {
        if let (Some(b), Some(e)) = (b, e) {
            by_track.entry(b.track).or_default().0.push(Interval {
                t0: b.t_ns,
                t1: e.t_ns.max(b.t_ns),
                trace_id: b.trace_id,
                name: b.name,
            });
        }
    }

    let mut written = 0usize;
    let first = out.is_empty() || out.ends_with('[');
    let mut w = ChromeWriter { out, cat, first };
    let mut tracks: Vec<u32> = by_track.keys().copied().collect();
    tracks.sort_unstable();
    for track in tracks {
        let (mut intervals, mut instants) = by_track.remove(&track).unwrap();
        let pid = pid_base + track;
        for ev in instants.drain(..) {
            w.event('i', pid, track, ev.t_ns, name_of(ev.name), ev.trace_id);
            written += 1;
        }
        // Sort by (start asc, end desc) and emit with a stack sweep so
        // begin/end events nest properly per tid; a child that would
        // outlive its parent is clamped to the parent's end.
        intervals.sort_by_key(|a| (a.t0, std::cmp::Reverse(a.t1)));
        let mut stack: Vec<Interval> = Vec::new();
        for mut iv in intervals {
            while let Some(top) = stack.last() {
                if top.t1 <= iv.t0 {
                    let top = stack.pop().unwrap();
                    w.event('E', pid, track, top.t1, name_of(top.name), top.trace_id);
                    written += 1;
                } else {
                    break;
                }
            }
            if let Some(top) = stack.last() {
                iv.t1 = iv.t1.min(top.t1);
            }
            w.event('B', pid, track, iv.t0, name_of(iv.name), iv.trace_id);
            written += 1;
            stack.push(iv);
        }
        while let Some(top) = stack.pop() {
            w.event('E', pid, track, top.t1, name_of(top.name), top.trace_id);
            written += 1;
        }
    }
    written
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn span_events_roundtrip_through_ring() {
        let sink = TraceSink::new(1, 64);
        let n_ingest = sink.register_name("ingest");
        let n_service = sink.register_name("service");
        assert_ne!(n_ingest, n_service);
        assert_eq!(sink.register_name("ingest"), n_ingest);
        assert_eq!(sink.name_of(n_service), "service");

        sink.instant_at(10, 3, 0x42, n_ingest);
        sink.span(3, 0x42, n_service, 20, 50);
        let mut out = Vec::new();
        assert_eq!(sink.drain(&mut out), 0);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].kind, span_kind::INSTANT);
        assert_eq!(out[0].t_ns, 10);
        assert_eq!(out[1].kind, span_kind::BEGIN);
        assert_eq!(out[2].kind, span_kind::END);
        assert_eq!(out[1].span_id, out[2].span_id);
        assert!(out.iter().all(|e| e.trace_id == 0x42 && e.track == 3));
    }

    #[test]
    fn handle_mirrors_metrics_handle() {
        let h = TraceHandle::disabled();
        assert!(!h.is_enabled());
        assert!(h.get().is_none());
        assert!(TraceHandle::default().get().is_none());
        let sink = Arc::new(TraceSink::new(1, 8));
        let h = TraceHandle::enabled(Arc::clone(&sink));
        assert!(h.is_enabled());
        h.get().unwrap().instant(0, 1, 0);
        assert_eq!(sink.produced(), 1);
    }

    #[test]
    fn server_trace_ids_have_top_bit() {
        let sink = TraceSink::new(1, 8);
        let id = sink.alloc_trace_id();
        assert_ne!(id & SERVER_TRACE_BIT, 0);
        assert_ne!(id, SERVER_TRACE_BIT);
    }

    #[test]
    fn drain_merges_rings_in_time_order() {
        let sink = TraceSink::new(4, 16);
        // Explicit timestamps out of push order must come back sorted.
        sink.instant_at(30, 0, 1, 0);
        sink.instant_at(10, 1, 1, 0);
        sink.instant_at(20, 2, 1, 0);
        let mut out = Vec::new();
        assert_eq!(sink.drain(&mut out), 0);
        let ts: Vec<u64> = out.iter().map(|e| e.t_ns).collect();
        assert_eq!(ts, vec![10, 20, 30]);
    }

    #[test]
    fn render_chrome_balances_and_drops_orphans() {
        let sink = TraceSink::new(1, 64);
        let n = sink.register_name("service");
        sink.span(1, 0xabc, n, 100, 900);
        sink.span(1, 0xabc, n, 200, 400); // nested child
        sink.instant_at(300, 1, 0xabc, n);
        let mut spans = Vec::new();
        sink.drain(&mut spans);
        // Fabricate an orphan: a BEGIN whose END was overwritten.
        spans.push(SpanEvent {
            seq: 99,
            t_ns: 500,
            trace_id: 0xabc,
            span_id: 0xdead,
            kind: span_kind::BEGIN,
            name: n,
            track: 1,
        });
        let mut out = String::new();
        let written = sink.render_chrome(&spans, "server", 1000, &mut out);
        // 2 balanced pairs + 1 instant; orphan dropped.
        assert_eq!(written, 5);
        assert_eq!(out.matches("\"ph\":\"B\"").count(), 2);
        assert_eq!(out.matches("\"ph\":\"E\"").count(), 2);
        assert_eq!(out.matches("\"ph\":\"i\"").count(), 1);
        assert!(out.contains("\"pid\":1001"));
        assert!(out.contains("\"name\":\"service\""));
        assert!(out.contains("\"trace\":\"0xabc\""));
        assert!(!out.contains("0xdead"));
        // The fragment splices into a valid JSON array.
        let doc = format!("[{out}]");
        assert!(doc.starts_with("[{") && doc.ends_with("}]"));
        // Begin/end nest: outer B, inner B, inner E, outer E
        // (timestamps render as microseconds: 100 ns -> 0.100).
        let b_outer = out.find("\"ts\":0.100").unwrap();
        let b_inner = out.find("\"ts\":0.200").unwrap();
        let e_inner = out.find("\"ts\":0.400").unwrap();
        let e_outer = out.find("\"ts\":0.900").unwrap();
        assert!(b_outer < b_inner && b_inner < e_inner && e_inner < e_outer);
    }

    #[test]
    fn render_escapes_names() {
        let names = vec!["we\"ird\\name".to_string()];
        let spans = [SpanEvent {
            seq: 0,
            t_ns: 5,
            trace_id: 7,
            span_id: 0,
            kind: span_kind::INSTANT,
            name: 0,
            track: 0,
        }];
        let mut out = String::new();
        render_chrome_events(&spans, &names, "c", 0, &mut out);
        assert!(out.contains("we\\\"ird\\\\name"));
    }

    #[test]
    fn overflow_drops_oldest_and_counts_exactly() {
        let sink = TraceSink::new(1, 8);
        let total = 24u64;
        for i in 0..total {
            sink.push_at(i, i, i, span_kind::INSTANT, 0, 0);
        }
        let mut out = Vec::new();
        let dropped = sink.drain(&mut out);
        let cap = 8;
        assert_eq!(dropped, total - cap);
        assert_eq!(out.len() as u64, cap);
        assert_eq!(out.first().unwrap().seq, total - cap);
        assert_eq!(out.len() as u64 + sink.dropped(), sink.produced());
    }

    /// A drain delivers or counts every span published before it
    /// starts: after each drain, cumulative delivered + dropped is at
    /// least the `produced()` read just before it, while the writers
    /// keep lapping their rings.
    #[test]
    fn stress_drain_never_stays_behind_a_published_span() {
        use std::sync::atomic::Ordering::{Acquire, Release};
        for writers in 2..=4u64 {
            let sink = TraceSink::new(2, 8);
            let finished = AtomicU64::new(0);
            std::thread::scope(|s| {
                for w in 0..writers {
                    let (sink, finished) = (&sink, &finished);
                    s.spawn(move || {
                        for i in 0..20_000 {
                            sink.push_at(i, w + 1, 0, span_kind::INSTANT, 0, w as u32);
                        }
                        finished.fetch_add(1, Release);
                    });
                }
                let mut out = Vec::with_capacity(8 * writers as usize);
                let mut seen = 0u64;
                loop {
                    let last = finished.load(Acquire) == writers;
                    let p = sink.produced();
                    out.clear();
                    seen += sink.drain(&mut out) + out.len() as u64;
                    assert!(seen >= p, "drain behind: {seen} seen < {p} produced");
                    if last {
                        break;
                    }
                }
                assert_eq!(seen, sink.produced());
            });
        }
    }

    /// Every thread records into its own ring: each thread's events
    /// come back complete, numbered 0..n with no gaps.
    #[test]
    fn each_writer_thread_has_its_own_gap_free_ring() {
        const THREADS: u64 = 3;
        const N: u64 = 100;
        let sink = TraceSink::new(1, 128);
        std::thread::scope(|s| {
            for w in 0..THREADS {
                let sink = &sink;
                s.spawn(move || {
                    for i in 0..N {
                        sink.push_at(i, w + 1, i, span_kind::INSTANT, 0, 0);
                    }
                });
            }
        });
        let mut out = Vec::new();
        assert_eq!(sink.drain(&mut out), 0);
        for w in 0..THREADS {
            let mut mine: Vec<&SpanEvent> = out.iter().filter(|e| e.trace_id == w + 1).collect();
            mine.sort_by_key(|e| e.seq);
            let seqs: Vec<u64> = mine.iter().map(|e| e.seq).collect();
            assert_eq!(seqs, (0..N).collect::<Vec<_>>(), "thread {w}");
            assert!(mine.iter().all(|e| e.span_id == e.seq));
        }
    }

    proptest! {
        /// Multi-writer tear/overwrite stress: several producers hammer
        /// a small sink (one ring each, tracks shared between them) while payload
        /// invariants tie every word of a span together. After
        /// merge-and-drain: delivered + dropped == produced and no
        /// delivered span is torn.
        #[test]
        fn stress_no_torn_spans_after_merge_and_drain(
            writers in 2usize..5,
            per_writer in 100u64..2_000,
            cap in 8usize..128,
        ) {
            use std::sync::atomic::Ordering::Relaxed as R;
            let sink = Arc::new(TraceSink::new(2, cap));
            let produced_target = writers as u64 * per_writer;
            // Payload invariant derived from a single counter `a`:
            // trace = a*PHI ^ k, span = a ^ 0x5aa5, name = a as u16,
            // kind = 1 + (a % 3), track = (a % 7) as u32.
            let payload = |a: u64| {
                let kind = 1 + (a % 3) as u8;
                (
                    a.wrapping_mul(0x9E37_79B9) ^ (kind as u64),
                    a ^ 0x5aa5,
                    kind,
                    a as u16,
                    (a % 7) as u32,
                )
            };
            let stop = Arc::new(AtomicU64::new(0));
            let mut delivered = Vec::new();
            let mut drain_dropped = 0u64;
            std::thread::scope(|s| {
                for w in 0..writers as u64 {
                    let sink = Arc::clone(&sink);
                    s.spawn(move || {
                        for i in 0..per_writer {
                            let a = w * per_writer + i;
                            let (trace, span, kind, name, track) = payload(a);
                            sink.push_at(a, trace, span, kind, name, track);
                        }
                    });
                }
                let consumer = {
                    let sink = Arc::clone(&sink);
                    let stop = Arc::clone(&stop);
                    s.spawn(move || {
                        let mut out = Vec::new();
                        let mut dropped = 0;
                        while stop.load(R) == 0 {
                            dropped += sink.drain(&mut out);
                            std::thread::yield_now();
                        }
                        dropped += sink.drain(&mut out);
                        (out, dropped)
                    })
                };
                while sink.produced() < produced_target {
                    std::thread::yield_now();
                }
                stop.store(1, R);
                let (out, dropped) = consumer.join().unwrap();
                delivered = out;
                drain_dropped = dropped;
            });
            prop_assert_eq!(sink.produced(), produced_target);
            prop_assert_eq!(delivered.len() as u64 + drain_dropped, produced_target);
            prop_assert_eq!(sink.dropped(), drain_dropped);
            for ev in &delivered {
                let a = ev.t_ns;
                let (trace, span, kind, name, track) = payload(a);
                prop_assert_eq!(
                    (ev.trace_id, ev.span_id, ev.kind, ev.name, ev.track),
                    (trace, span, kind, name, track),
                    "torn span: {:?}", ev
                );
            }
        }
    }
}
