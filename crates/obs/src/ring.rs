//! Bounded lock-free event rings with drop counting.
//!
//! Both recorders in this crate — [`EventRing`] and
//! [`crate::TraceSink`] — store four-word records in `SeqRing`s:
//! bounded, overwrite-oldest seqlock rings with **exactly one writer
//! each**. The single writer is guaranteed by construction: the only
//! way to write one is `ThreadRings::push`, which hands every thread
//! its own ring on its first record (one lock and one allocation, then
//! cached in a thread-local) and keeps all of them in a registry for
//! the consumer to drain and merge. Writers therefore never block,
//! never allocate in steady state and never contend with each other; a
//! slow reader (or no reader at all) simply loses the oldest records —
//! and the loss is *counted*, never silent.
//!
//! Safety model: the rings are built entirely from `AtomicU64`s — there
//! is no `unsafe` — so a racing read can at worst observe a mixed
//! payload, and the stamp re-validation is what rejects such reads.
//! The stamp for sequence `s` is `2s + 1` while the slot is being
//! written and `2s + 2` once published; the writer advances `head` only
//! after publishing, so every sequence below `head` is published and a
//! drain never waits on a slot. Per-slot stamps strictly increase (one
//! writer, increasing sequence numbers), so a reader that observes the
//! same published stamp before and after copying the payload knows the
//! writer did not lap the slot in between. Stamp accesses use `SeqCst`,
//! payload accesses `Release`/`Acquire`, and `head` is stored with
//! `Release` after the stamp and loaded with `Acquire` by the drain.

use std::cell::RefCell;
use std::sync::atomic::{
    AtomicU64,
    Ordering::{Acquire, Relaxed, Release, SeqCst},
};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Well-known event kinds recorded by the engine and server layers.
pub mod kind {
    /// A farm channel was (re)built from a spec at startup.
    pub const CHANNEL_CONFIGURE: u64 = 1;
    /// The farm was halted (`a` = jobs completed at halt).
    pub const CHANNEL_HALT: u64 = 2;
    /// A live channel was reconfigured (`a` = channel).
    pub const CHANNEL_RECONFIGURE: u64 = 3;
    /// A queue rejected or displaced a batch (`a` = channel/session).
    pub const BACKPRESSURE_DROP: u64 = 4;
    /// A server session completed its handshake (`a` = session id).
    pub const SESSION_OPEN: u64 = 5;
    /// A server session ended (`a` = session id, `b` = batches).
    pub const SESSION_CLOSE: u64 = 6;
    /// A worker finished a block job (`a` = channel, `b` = ns).
    pub const JOB_DONE: u64 = 7;

    /// Human-readable name for a kind value.
    pub fn name(k: u64) -> &'static str {
        match k {
            CHANNEL_CONFIGURE => "channel_configure",
            CHANNEL_HALT => "channel_halt",
            CHANNEL_RECONFIGURE => "channel_reconfigure",
            BACKPRESSURE_DROP => "backpressure_drop",
            SESSION_OPEN => "session_open",
            SESSION_CLOSE => "session_close",
            JOB_DONE => "job_done",
            _ => "unknown",
        }
    }
}

/// One structured telemetry event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Sequence number in the recording thread's ring (gap-free per
    /// writer thread).
    pub seq: u64,
    /// Nanoseconds since the ring's origin instant (shared by every
    /// writer thread, so events merge into one timeline).
    pub t_ns: u64,
    /// Event kind (see [`kind`]).
    pub kind: u64,
    /// Kind-specific argument.
    pub a: u64,
    /// Kind-specific argument.
    pub b: u64,
}

#[derive(Debug, Default)]
struct Slot {
    /// 0 = never written; `2s+1` = writing seq `s`; `2s+2` = published.
    stamp: AtomicU64,
    words: [AtomicU64; 4],
}

/// A bounded single-writer seqlock ring of four-word records. Written
/// only through [`ThreadRings`], which gives each thread its own.
#[derive(Debug)]
struct SeqRing {
    slots: Box<[Slot]>,
    /// Records published so far; stored only by the owning thread,
    /// after the record's stamp.
    head: AtomicU64,
    /// Next sequence number to read (single consumer).
    cursor: AtomicU64,
}

impl SeqRing {
    fn new(capacity: usize) -> Self {
        Self {
            slots: (0..capacity).map(|_| Slot::default()).collect(),
            head: AtomicU64::new(0),
            cursor: AtomicU64::new(0),
        }
    }

    /// Publishes one record, overwriting the oldest when full. Only the
    /// owning thread calls this.
    #[inline]
    fn push(&self, words: [u64; 4]) {
        let seq = self.head.load(Relaxed);
        let slot = &self.slots[(seq as usize) & (self.slots.len() - 1)];
        slot.stamp.store(2 * seq + 1, SeqCst);
        for (w, v) in slot.words.iter().zip(words) {
            w.store(v, Release);
        }
        slot.stamp.store(2 * seq + 2, SeqCst);
        self.head.store(seq + 1, Release);
    }

    /// Hands every record published since the last drain to `emit`, in
    /// sequence order, and returns how many were lost to overwrite.
    fn drain(&self, emit: &mut impl FnMut(u64, [u64; 4])) -> u64 {
        let head = self.head.load(Acquire);
        let cap = self.slots.len() as u64;
        let mut cursor = self.cursor.load(Relaxed);
        let mut dropped = 0u64;

        // Everything the writer has lapped is gone wholesale.
        if head - cursor > cap {
            dropped += head - cap - cursor;
            cursor = head - cap;
        }

        while cursor < head {
            let slot = &self.slots[(cursor as usize) & (self.slots.len() - 1)];
            let want = 2 * cursor + 2;
            // Every sequence below `head` is published, so the stamp
            // differs from `want` only if the writer lapped the slot,
            // before the copy or during it (a torn read).
            if slot.stamp.load(SeqCst) == want {
                let words = slot.words.each_ref().map(|w| w.load(Acquire));
                if slot.stamp.load(SeqCst) == want {
                    emit(cursor, words);
                    cursor += 1;
                    continue;
                }
            }
            dropped += 1;
            cursor += 1;
        }

        self.cursor.store(cursor, Relaxed);
        dropped
    }
}

/// Source of [`ThreadRings`] identities (never reused, so a stale
/// thread-local cache entry can never match a live registry).
static NEXT_REGISTRY: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This thread's ring in every registry it has written to, keyed
    /// by registry id.
    static MINE: RefCell<Vec<(u64, Arc<SeqRing>)>> = const { RefCell::new(Vec::new()) };
}

/// A registry of per-thread [`SeqRing`]s sharing one capacity and one
/// timestamp origin: the single-writer guarantee behind both
/// recorders.
#[derive(Debug)]
pub(crate) struct ThreadRings {
    id: u64,
    capacity: usize,
    origin: Instant,
    rings: Mutex<Vec<Arc<SeqRing>>>,
    /// Records made after the thread's ring cache was torn down (thread
    /// exit); counted as produced and dropped.
    lost: AtomicU64,
    /// How much of `lost` drains have already reported.
    lost_seen: AtomicU64,
    /// Records lost to overwrite or teardown, accumulated by drains.
    dropped: AtomicU64,
}

impl ThreadRings {
    /// A registry whose rings hold `capacity` records each (rounded up
    /// to a power of two, minimum 8), with room reserved for `writers`
    /// writer threads.
    pub(crate) fn new(capacity: usize, writers: usize) -> Self {
        Self {
            id: NEXT_REGISTRY.fetch_add(1, Relaxed),
            capacity: capacity.max(8).next_power_of_two(),
            origin: Instant::now(),
            rings: Mutex::new(Vec::with_capacity(writers)),
            lost: AtomicU64::new(0),
            lost_seen: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Records per writer thread's ring (power of two).
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Nanoseconds elapsed since the registry's origin.
    #[inline]
    pub(crate) fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    /// Records into the calling thread's ring. The first record a
    /// thread makes here allocates and registers its ring; every later
    /// one is lock-free and allocation-free.
    #[inline]
    pub(crate) fn push(&self, words: [u64; 4]) {
        let pushed = MINE.try_with(|mine| {
            let mut mine = mine.borrow_mut();
            match mine.iter().find(|(id, _)| *id == self.id) {
                Some((_, ring)) => ring.push(words),
                None => self.register(&mut mine).push(words),
            }
        });
        if pushed.is_err() {
            self.lost.fetch_add(1, Relaxed);
        }
    }

    #[cold]
    #[inline(never)]
    fn register(&self, mine: &mut Vec<(u64, Arc<SeqRing>)>) -> Arc<SeqRing> {
        // A cached ring whose registry is gone has the cache as its
        // last owner.
        mine.retain(|(_, ring)| Arc::strong_count(ring) > 1);
        let ring = Arc::new(SeqRing::new(self.capacity));
        self.rings
            .lock()
            .expect("ring registry poisoned")
            .push(Arc::clone(&ring));
        mine.push((self.id, Arc::clone(&ring)));
        ring
    }

    /// Total records ever published, across every writer thread.
    pub(crate) fn produced(&self) -> u64 {
        let rings = self.rings.lock().expect("ring registry poisoned");
        let published: u64 = rings.iter().map(|r| r.head.load(Relaxed)).sum();
        published + self.lost.load(Relaxed)
    }

    /// Total records lost, as counted by drains so far.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Relaxed)
    }

    /// Hands every record published since the last drain to `emit`
    /// (ring by ring, each in sequence order) and returns how many were
    /// newly detected as lost. Single consumer: concurrent drains race
    /// on the ring cursors. A thread's first record waits for a
    /// running drain to finish.
    pub(crate) fn drain(&self, mut emit: impl FnMut(u64, [u64; 4])) -> u64 {
        let rings = self.rings.lock().expect("ring registry poisoned");
        let lost = self.lost.load(Relaxed);
        let mut dropped = lost - self.lost_seen.swap(lost, Relaxed);
        for ring in rings.iter() {
            dropped += ring.drain(&mut emit);
        }
        self.dropped.fetch_add(dropped, Relaxed);
        dropped
    }
}

/// Bounded, drop-counted recorder of [`Event`]s: one ring per writer
/// thread, merged by time on drain. See the module docs.
#[derive(Debug)]
pub struct EventRing {
    rings: ThreadRings,
}

impl EventRing {
    /// Creates a recorder whose per-thread rings hold up to `capacity`
    /// events each (rounded up to a power of two, minimum 8). Each
    /// writer thread's ring is allocated on its first push.
    pub fn new(capacity: usize) -> Self {
        Self {
            rings: ThreadRings::new(capacity, 0),
        }
    }

    /// Slot capacity of each writer thread's ring (power of two).
    pub fn capacity(&self) -> usize {
        self.rings.capacity()
    }

    /// Total events ever pushed.
    pub fn produced(&self) -> u64 {
        self.rings.produced()
    }

    /// Total events lost to overwrite, as counted by drains so far.
    pub fn dropped(&self) -> u64 {
        self.rings.dropped()
    }

    /// Records an event in the calling thread's ring. Never blocks and,
    /// after the thread's first push, never allocates; overwrites the
    /// thread's oldest undrained event when its ring is full.
    #[inline]
    pub fn push(&self, kind: u64, a: u64, b: u64) {
        self.rings.push([self.rings.now_ns(), kind, a, b]);
    }

    /// Drains every published event since the last drain into `out`,
    /// ordered by `(t_ns, seq)` across writer threads, and returns how
    /// many events were newly detected as dropped (also accumulated
    /// into [`Self::dropped`]). Allocation-free when `out` has room.
    ///
    /// Single-consumer: concurrent drains race on the ring cursors and
    /// would double-deliver; call from one thread at a time.
    pub fn drain_into(&self, out: &mut Vec<Event>) -> u64 {
        let start = out.len();
        let dropped = self.rings.drain(|seq, [t_ns, kind, a, b]| {
            out.push(Event {
                seq,
                t_ns,
                kind,
                a,
                b,
            })
        });
        out[start..].sort_unstable_by_key(|e| (e.t_ns, e.seq));
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_without_overflow() {
        let ring = EventRing::new(16);
        for i in 0..10u64 {
            ring.push(kind::JOB_DONE, i, i * 2);
        }
        let mut out = Vec::new();
        assert_eq!(ring.drain_into(&mut out), 0);
        assert_eq!(out.len(), 10);
        for (i, ev) in out.iter().enumerate() {
            assert_eq!(ev.seq, i as u64);
            assert_eq!(ev.a, i as u64);
            assert_eq!(ev.b, 2 * i as u64);
            assert_eq!(ev.kind, kind::JOB_DONE);
        }
        // Timestamps are monotone within one ring.
        assert!(out.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
    }

    #[test]
    fn drain_is_incremental() {
        let ring = EventRing::new(16);
        ring.push(1, 0, 0);
        let mut out = Vec::new();
        ring.drain_into(&mut out);
        assert_eq!(out.len(), 1);
        ring.push(2, 0, 0);
        out.clear();
        ring.drain_into(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, 2);
        assert_eq!(out[0].seq, 1);
    }

    #[test]
    fn overflow_drops_oldest_and_counts_exactly() {
        let ring = EventRing::new(8); // capacity exactly 8
        let total = 24u64;
        for i in 0..total {
            ring.push(kind::JOB_DONE, i, 0);
        }
        let mut out = Vec::new();
        let dropped = ring.drain_into(&mut out);
        assert_eq!(dropped, total - ring.capacity() as u64);
        assert_eq!(out.len(), ring.capacity());
        // The survivors are exactly the newest `capacity` events.
        assert_eq!(out.first().unwrap().seq, total - ring.capacity() as u64);
        assert_eq!(out.last().unwrap().seq, total - 1);
        assert_eq!(ring.dropped(), dropped);
        assert_eq!(out.len() as u64 + ring.dropped(), ring.produced());
    }

    #[test]
    fn merged_drain_orders_by_time() {
        // Two writer threads, so two rings, interleaved in time.
        let ring = EventRing::new(16);
        ring.push(1, 0, 0);
        std::thread::scope(|s| {
            s.spawn(|| ring.push(2, 0, 0));
        });
        ring.push(3, 0, 0);
        let mut out = Vec::new();
        let dropped = ring.drain_into(&mut out);
        assert_eq!(dropped, 0);
        assert_eq!(out.len(), 3);
        assert!(out.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
        // Each thread numbers its own events from zero.
        let seq_of = |k: u64| out.iter().find(|e| e.kind == k).unwrap().seq;
        assert_eq!((seq_of(1), seq_of(2), seq_of(3)), (0, 0, 1));
    }

    /// A drain delivers or counts every event published before it
    /// starts: after each drain, cumulative delivered + dropped is at
    /// least the `produced()` read just before it, while the writers
    /// keep lapping their rings.
    #[test]
    fn stress_drain_never_stays_behind_a_published_event() {
        for writers in 2..=4u64 {
            let ring = EventRing::new(8);
            let finished = AtomicU64::new(0);
            std::thread::scope(|s| {
                for w in 0..writers {
                    let (ring, finished) = (&ring, &finished);
                    s.spawn(move || {
                        for i in 0..20_000 {
                            ring.push(kind::JOB_DONE, w, i);
                        }
                        finished.fetch_add(1, Release);
                    });
                }
                let mut out = Vec::with_capacity(8 * writers as usize);
                let mut seen = 0u64;
                loop {
                    let last = finished.load(Acquire) == writers;
                    let p = ring.produced();
                    out.clear();
                    seen += ring.drain_into(&mut out) + out.len() as u64;
                    assert!(seen >= p, "drain behind: {seen} seen < {p} produced");
                    if last {
                        break;
                    }
                }
                assert_eq!(seen, ring.produced());
            });
        }
    }

    /// Contention stress: several producers hammer one small recorder while
    /// a consumer drains continuously. Every delivered event must be
    /// internally consistent (untorn) and the final accounting must be
    /// exact: delivered + dropped == produced.
    #[test]
    fn stress_no_tearing_and_exact_drop_accounting() {
        const WRITERS: u64 = 4;
        const PER_WRITER: u64 = 20_000;
        let ring = Arc::new(EventRing::new(64));
        let stop = Arc::new(AtomicU64::new(0));

        // A delivered event is untorn iff its payload words satisfy
        // the invariants the writers establish from (writer, i):
        // a = writer * PER_WRITER + i, b = a.wrapping_mul(0x9E37_79B9)
        // ^ kind, kind = 1 + (a % 7).
        let payload = |a: u64| {
            let k = 1 + (a % 7);
            (k, a.wrapping_mul(0x9E37_79B9) ^ k)
        };

        let mut delivered = Vec::new();
        let mut drain_dropped = 0u64;
        std::thread::scope(|s| {
            for w in 0..WRITERS {
                let ring = Arc::clone(&ring);
                s.spawn(move || {
                    for i in 0..PER_WRITER {
                        let a = w * PER_WRITER + i;
                        let (k, b) = payload(a);
                        ring.push(k, a, b);
                    }
                });
            }
            let consumer = {
                let ring = Arc::clone(&ring);
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    let mut out = Vec::new();
                    let mut dropped = 0;
                    while stop.load(Acquire) == 0 {
                        dropped += ring.drain_into(&mut out);
                        std::thread::yield_now();
                    }
                    dropped += ring.drain_into(&mut out);
                    (out, dropped)
                })
            };
            // Scope join of producers happens when the closure ends —
            // but we need producers done before signalling the
            // consumer, so spawn producers, then busy-wait on count.
            while ring.produced() < WRITERS * PER_WRITER {
                std::thread::yield_now();
            }
            stop.store(1, Release);
            let (out, dropped) = consumer.join().unwrap();
            delivered = out;
            drain_dropped = dropped;
        });

        let produced = ring.produced();
        assert_eq!(produced, WRITERS * PER_WRITER);
        assert_eq!(
            delivered.len() as u64 + drain_dropped,
            produced,
            "delivered + dropped must equal produced"
        );
        assert_eq!(ring.dropped(), drain_dropped);
        // No torn records: every payload satisfies the invariant.
        for ev in &delivered {
            let (k, b) = payload(ev.a);
            assert_eq!((ev.kind, ev.b), (k, b), "torn event: {ev:?}");
        }
        // No double delivery: within each writer, seq and a strictly
        // increase, and no event is delivered twice.
        for w in 0..WRITERS {
            let mine: Vec<&Event> = delivered.iter().filter(|e| e.a / PER_WRITER == w).collect();
            assert!(mine
                .windows(2)
                .all(|p| p[0].seq < p[1].seq && p[0].a < p[1].a));
        }
        let mut seen = std::collections::HashSet::new();
        assert!(
            delivered.iter().all(|e| seen.insert(e.a)),
            "double delivery"
        );
    }
}
