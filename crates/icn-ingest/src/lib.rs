//! # icn-ingest — streaming record ingest with fault injection
//!
//! The paper builds its antenna × service matrix `T` from two months of
//! per-hour, per-service traffic records (PAPER.md §2). This crate is the
//! front door for doing that from a *stream*: records arrive chunked,
//! possibly late, duplicated, reordered, or corrupted, and ingestion must
//! survive transient source failures and process crashes — while still
//! producing a `T` **bit-identical** to the batch construction.
//!
//! * [`record`] — the [`HourlyRecord`] schema, structural validation with
//!   per-reason quarantine classification, and the [`RecordSource`] trait.
//! * [`accumulator`] — watermark-bucketed folding: open per-hour dense
//!   slabs sealed by a lateness watermark and folded in canonical
//!   (hour, cell) order, which is what makes the result invariant to
//!   chunking, threading, and bounded reordering.
//! * [`pipeline`] — the chunked driver: bounded retry/backoff, in-order
//!   validation and accumulation, quarantine accounting, observability
//!   counters (`ingest.*` under the `ingest` stage span).
//! * [`checkpoint`] — the `icn-ingest/v1` resume format; floats travel as
//!   IEEE-754 bit patterns so a crash/restore cycle cannot lose a ulp.
//! * [`faults`] — a deterministic fault injector ([`FaultySource`]) whose
//!   per-record decisions depend only on `(seed, record index)`, making
//!   injected fault counts exactly reproducible at any chunk size.
//!
//! The determinism contract is enforced by the workspace test-suite
//! (`tests/ingest_determinism.rs`, `tests/ingest_faults.rs`) and by the
//! `icn-testkit` differential oracle comparing streaming against batch.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accumulator;
pub mod checkpoint;
pub mod faults;
pub mod pipeline;
pub mod record;

pub use accumulator::{AccumulatedTotals, StreamAccumulator};
pub use checkpoint::{Checkpoint, CHECKPOINT_SCHEMA};
pub use faults::{FaultConfig, FaultReport, FaultySource};
pub use pipeline::{IngestConfig, IngestError, IngestPipeline, IngestResult, IngestStats};
pub use record::{
    HourlyRecord, IngestSchema, QuarantineReason, RecordSource, SourceError, VecSource,
};
