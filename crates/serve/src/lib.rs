//! graphrare-serve: multi-tenant run-serving daemon for GraphRARE.
//!
//! This crate hosts many concurrent GraphRARE training runs behind a
//! small length-prefixed binary protocol ([`proto`]), served over unix
//! domain sockets and/or TCP. Each admitted run drives a stepwise
//! [`graphrare::RareDriver`] on its own worker thread, checkpoints
//! periodically into a per-tenant directory via `graphrare-store`, and
//! tags every telemetry event it emits with its `run_id`.
//!
//! Guarantees:
//!
//! - **Bit-identity**: a served run's result artifact is byte-for-byte
//!   identical to a solo `graphrare` CLI run with the same spec and
//!   seed — both build their config with [`RunSpec::to_config`] and
//!   persist through the same deterministic `save_model` path.
//! - **Admission control**: at most `max_runs` runs step concurrently
//!   and at most `max_queue` wait behind them; submissions past that
//!   get an explicit [`proto::Response::Busy`], never unbounded queues.
//! - **Crash-safe restarts**: a daemon restarted over the same state
//!   directory resumes interrupted runs from their newest checkpoint.
//! - **Robust decoding**: malformed frames (truncated, corrupted,
//!   oversized, wrong version) produce typed [`proto::ProtoError`]s or
//!   dropped connections, never panics.

#![warn(missing_docs)]

pub mod client;
pub mod proto;
pub mod server;

pub use client::Connection;
pub use proto::{ProtoError, Request, Response, RunInfo, RunSpec, RunState, StatsReport};
pub use server::{Listen, ServeConfig, Server};
