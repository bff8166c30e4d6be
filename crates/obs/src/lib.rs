//! Zero-allocation-in-steady-state telemetry for the DDC suite.
//!
//! The paper's argument is built on *measured* per-stage activity
//! (Tables 2–5); this crate is the runtime measurement layer that lets
//! the farm and the streaming server report the same quantities live,
//! at a cost the `telemetry_overhead` benchmark stage holds under 1%:
//!
//! - [`Counter`] / [`LogHistogram`]: relaxed-atomic counters and
//!   fixed-bucket base-2 log histograms, recorded once per *block*
//!   (never per sample) behind a [`MetricsHandle`] that is a no-op
//!   when telemetry is off.
//! - [`EventRing`]: bounded lock-free recorder of structured
//!   [`Event`]s — one seqlock ring per writer thread, each
//!   sequence-numbered and drop-counted, merged by time on drain.
//! - [`MetricsSnapshot`]: the export surface — JSON, Prometheus text,
//!   and a validated binary codec used by the wire protocol's
//!   `MetricsReport` frame.
//! - [`TraceSink`] / [`TraceHandle`]: sampled per-batch span tracing
//!   (begin/end/instant events with 64-bit trace/span IDs in the same
//!   per-writer-thread rings), exported as Chrome trace-event JSON for
//!   Perfetto.
//!
//! Allocation discipline: building metrics (names, histograms)
//! allocates at *configure* time, and a thread's first record into a
//! recorder allocates that thread's ring; recording in steady state
//! performs no heap allocation, takes no locks, and never blocks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hist;
mod metrics;
mod ring;
mod snapshot;
mod trace;

pub use hist::{bucket_index, bucket_upper_bound, HistSnapshot, LogHistogram, BUCKETS};
pub use metrics::{ChainMetrics, Counter, MetricsHandle, StageMetrics};
pub use ring::{kind, Event, EventRing};
pub use snapshot::{MetricsSnapshot, SnapshotDecodeError, SNAPSHOT_VERSION};
pub use trace::{
    render_chrome_events, span_kind, SpanEvent, TraceHandle, TraceSink, SERVER_TRACE_BIT,
};
