//! `moca-serve` — the resident sweep service.
//!
//! One-shot binaries (`repro`, `sweep`) pay process startup, trace
//! warm-up, and matrix recomputation on every invocation. This crate
//! keeps a simulator resident behind a socket: clients submit sweeps
//! and experiments over a hand-rolled length-prefixed protocol
//! ([`proto`]); a bounded fair admission queue ([`admission`]) sheds
//! overload with structured replies instead of hanging; per-request
//! deadlines cancel cooperatively at chunk boundaries (never tearing a
//! deterministic result); and every completed result is journaled to
//! the same crash-safe checkpoint format `repro --checkpoint` uses —
//! the journal *is* the durable result cache, shared in both
//! directions.
//!
//! # Invariants
//!
//! * **Byte identity** — a served sweep CSV or experiment rendering is
//!   byte-identical to the one-shot binary's output for the same
//!   identity, at every `--jobs` value.
//! * **No accepted request is lost** — once `queued` is sent, the job
//!   runs to completion and its results are journaled, surviving
//!   client disconnects and SIGTERM drains. Only a request's own
//!   deadline cancels it.
//! * **Overload never hangs** — admission answers `overloaded`
//!   immediately when the queue or a client quota is full.
//!
//! See `DESIGN.md` § "Service architecture & failure model" for the
//! full contract, and the `moca_serve` / `moca_submit` binaries for
//! the daemon and client.

pub mod admission;
pub mod proto;
pub mod server;
pub mod spec;

pub use admission::{AdmissionQueue, Shed, ShedReason};
pub use proto::{read_frame, write_frame, FrameError, Request, Response, MAX_FRAME};
#[doc(hidden)]
pub use server::ExecutorLatch;
pub use server::{ExecutorSummary, Server, ServerConfig, EXPERIMENT_IDS};
