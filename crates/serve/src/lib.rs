//! Batched serving for fitted sparse models.
//!
//! `rsm fit` writes a [`ModelBundle`](rsm_core::ModelBundle); this
//! crate puts one behind a socket. Clients stream batches of raw `ΔY`
//! sample points and get one prediction per point back, over a
//! length-prefixed binary frame protocol that works identically on
//! stdin/stdout, TCP, and Unix-domain sockets.
//!
//! The design splits the server into two halves:
//!
//! - [`frame`] + [`server`] — the request loop: parse bytes into
//!   frames, answer malformed input with structured error frames
//!   (never a panic, never a dead server), keep or drop the connection
//!   according to whether the stream is still framable;
//! - [`engine`] — the compute path: a pure `Frame → Frame` function
//!   over [`SparseModel::predict_rows`](rsm_core::SparseModel::predict_rows),
//!   the same evaluator the offline `rsm predict` command uses.
//!
//! Because the evaluator is shared and scores a batch on the calling
//! thread, a served prediction is bit-identical to an offline one — at
//! any `RSM_THREADS` setting. `tests/serve_equivalence.rs` at the
//! workspace root holds that contract; `crates/serve/tests/protocol.rs`
//! holds the robustness one.
//!
//! [`client`] is a minimal blocking client used by the bench harness
//! and the test suites.

// Library code reports failures as structured errors, compares floats
// exactly only through `rsm_linalg::tol`, and never drops a `Result`
// silently: each exception is a reasoned `#[expect]`. Tests may panic
// (clippy.toml), assert bit-exact results and discard cleanup errors.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![cfg_attr(
    not(test),
    deny(
        clippy::float_cmp,
        clippy::let_underscore_must_use,
        clippy::unused_result_ok
    )
)]
#![warn(missing_docs)]

pub mod client;
pub mod engine;
pub mod frame;
pub mod server;

pub use client::{Client, ClientError};
pub use engine::PredictEngine;
pub use frame::{ErrorCode, Frame};
#[cfg(unix)]
pub use server::serve_unix;
pub use server::{serve_listener, serve_stream, serve_tcp, ServeStats};
