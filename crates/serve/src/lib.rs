//! Online recommendation serving runtime.
//!
//! Turns a fitted [`delrec_eval::Ranker`] into a service: clients submit
//! [`RecRequest`]s from any thread, one scheduler thread flushes whatever is
//! queued (up to `max_batch`) the moment it is free — so micro-batches grow
//! with load, not by waiting — and scores each with one
//! `score_candidates_batch` call — which fans out over the `delrec-par` pool
//! from inside the model — and ranked results come back through per-request
//! response channels. Around that core:
//!
//! - [`SessionStore`] — sharded, lock-striped per-user histories so requests
//!   send only interaction deltas; optionally durable via per-shard
//!   write-ahead logs with snapshot compaction ([`SessionStore::persistent`] /
//!   [`SessionStore::recover`]);
//! - [`ModelRegistry`] — atomic model hot-swap: [`Server::publish`] installs a
//!   newly fitted model for subsequent batches while in-flight batches drain
//!   on the generation they loaded at flush;
//! - admission control — requests naming an item outside the model's catalog
//!   fail alone at submit ([`ServeError::OutOfCatalog`]); requests whose
//!   deadline cannot be met are rejected at submit or shed at flush, never
//!   silently answered late;
//! - [`Metrics`] — lock-free counters plus log-bucketed latency histograms
//!   (p50/p95/p99).
//!
//! The correctness bar, pinned by property tests: a served response's scores
//! are bitwise identical to calling `score_candidates` directly, regardless
//! of how requests were coalesced.

#![warn(missing_docs)]

pub mod metrics;
pub mod registry;
pub mod request;
pub mod server;
pub mod session;
pub mod wal;

pub use metrics::{Metrics, MetricsSnapshot};
pub use registry::{ModelRegistry, PublishedModel};
pub use request::{ranking_of, RecRequest, RecResponse, ServeError, TopKRequest, TopKResponse};
pub use server::{Client, PersistConfig, ResponseHandle, ServeConfig, Server, TopKHandle};
pub use session::SessionStore;
pub use wal::{WalManifest, WalOptions};
