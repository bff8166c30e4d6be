//! # ddc-server — the DDC farm as a streaming network service
//!
//! The paper's GC4016 is fed by a *continuous* 64.512 MSPS ADC stream:
//! the DDC is not a batch kernel but a service with arrival-rate,
//! latency and backlog constraints. This crate gives the repo that
//! missing layer: a std-only TCP server that exposes the multi-channel
//! [`ddc_core::DdcFarm`] over a length-prefixed, checksummed binary
//! frame protocol, plus the matching client library and the `loadgen`
//! traffic generator.
//!
//! * [`wire`] — versioned frame types (Hello/Configure/Samples/Iq/
//!   Stats/Error/Shutdown) with pure, socket-free encode/decode,
//!   including the zero-copy Samples decode, the [`wire::FrameBuf`]
//!   egress encoders and the block-vectorised Fletcher-32 both use.
//! * [`queue`] — the bounded per-session input queue implementing the
//!   three backpressure policies (block, drop-oldest, disconnect).
//! * [`session`] — the per-connection state machine (handshake →
//!   configured → streaming → draining) with partial-read/partial-write
//!   cursors, driven by the readiness runtime.
//! * [`sys`] — the thin scoped-`unsafe` readiness shim: epoll on
//!   Linux, a portable `poll(2)` fallback elsewhere, plus a pipe-based
//!   cross-thread waker.
//! * [`server`] — the sharded readiness runtime: one accept thread, N
//!   I/O shard threads multiplexing non-blocking sockets, a processor
//!   pool feeding the shared farm, graceful drain-then-join shutdown.
//! * [`client`] — blocking client with sequence-checked receive,
//!   splittable for concurrent send/receive.
//!
//! No external dependencies: sockets are `std::net`, threading is
//! `std::thread`, synchronisation is `Mutex`/`Condvar`/atomics —
//! matching the repo's offline-build constraint. `unsafe` is denied
//! crate-wide and allowed in two scoped places: [`sys`], whose whole
//! job is to wrap four syscalls (`epoll_create1`/`epoll_ctl`/
//! `epoll_wait` or `poll`, plus `pipe2`) behind a safe API, and the
//! private `wire::avx2` module, which calls the AVX2 copy of the
//! Fletcher-32 block loop. That copy is chosen at run time with
//! `is_x86_feature_detected!("avx2")`, as `ddc-core` chooses its AVX2
//! FIR and front-end kernels; there is no build feature, and other
//! CPUs run the portable copy of the same source.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod queue;
pub mod server;
pub mod session;
pub mod sys;
pub mod wire;

pub use client::{Client, ClientError};
pub use server::{serve, ServerConfig, ServerHandle};
pub use wire::{Backpressure, ConfigPreset, Frame};
