//! `zeroer serve` — a TCP resolution service over the stream
//! pipeline's read/write split.
//!
//! The server takes a streaming pipeline — a dedup
//! [`zeroer_stream::StreamPipeline`] or a linkage
//! [`zeroer_stream::LinkPipeline`] — splits it into its read and write
//! halves ([`zeroer_stream::SplitPipeline`]), and speaks a
//! length-prefixed JSON protocol ([`protocol`]) with three verbs:
//!
//! * **resolve** — answered on the read path ([`zeroer_stream::ReadHandle`]):
//!   epoch-pinned, lock-free against the writer, bit-identical (to
//!   `f64::to_bits`) to in-process resolution;
//! * **ingest** — admitted to the write path ([`zeroer_stream::WriteHandle`]):
//!   micro-batched into the single-writer protocol, preserving
//!   admission-order determinism;
//! * **admin** — `ping` / `stats` (byte-identical with the CLI
//!   `--stats` renderer) / `compact` / `refresh` (re-fit + snapshot
//!   swap on the writer) / `snapshot` / `shutdown`.
//!
//! Resolve and ingest requests carry a `"side":"left"|"right"` field
//! exactly when the served pipeline is linkage; a record resolves or
//! ingests against the *opposite* side's index.
//!
//! Everything is `std` + workspace crates: sockets are `std::net`, JSON
//! is the workspace's own reader/writer pair. See the crate README for
//! the wire format and the `serve.*` metric catalog.

#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod server;

pub use client::{Client, WireIngest, WireResolution};
pub use server::Server;
