//! The request-loop half of the server.
//!
//! This module deliberately contains no scoring logic: it reads frames,
//! hands them to a [`PredictEngine`], and writes the answer back. The
//! split keeps the loop auditable — every way a connection can end is
//! visible here — and keeps the compute path testable without sockets.
//!
//! Connection lifecycle: decode errors that keep the stream framable
//! (unknown kind, malformed payload) are answered with an error frame
//! and the loop continues; errors that lose byte alignment (bad magic,
//! truncation, oversize) are answered with one error frame and the
//! connection is closed. If the error-frame write itself fails the
//! peer is gone and the connection ends immediately. The server
//! process itself never exits on client input.

use crate::engine::PredictEngine;
use crate::frame::{read_frame, write_frame, Frame};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};

/// Counters from one connection (or one stdio session).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Predict requests answered with predictions.
    pub batches_ok: usize,
    /// Points scored across all successful batches.
    pub points: usize,
    /// Requests answered with an error frame (recoverable or fatal).
    pub errors: usize,
}

/// Serves one framed byte stream until clean EOF, a fatal decode
/// error, or a write failure. Returns per-connection counters.
///
/// # Errors
///
/// Only transport-level failures (reading or writing the stream);
/// protocol and model errors are answered in-band and never surface
/// here.
pub fn serve_stream<R: Read, W: Write>(
    engine: &PredictEngine,
    reader: &mut R,
    writer: &mut W,
) -> io::Result<ServeStats> {
    let mut stats = ServeStats::default();
    loop {
        match read_frame(reader) {
            Ok(None) => break,
            Ok(Some(request)) => {
                let response = engine.handle(&request);
                match &response {
                    Frame::Predictions { values } => {
                        stats.batches_ok += 1;
                        stats.points += values.len();
                    }
                    _ => stats.errors += 1,
                }
                write_frame(writer, &response)?;
                writer.flush()?;
            }
            Err(e) => {
                let fatal = e.is_fatal();
                if let Some(frame) = e.to_error_frame() {
                    stats.errors += 1;
                    // The peer may already be gone; a failed
                    // error-frame write means nothing more can be
                    // answered on this stream, so the connection is
                    // over regardless of whether the decode error
                    // itself was recoverable.
                    if write_frame(writer, &frame)
                        .and_then(|()| writer.flush())
                        .is_err()
                    {
                        break;
                    }
                } else if let crate::frame::DecodeError::Io(io_err) = e {
                    return Err(io_err);
                }
                if fatal {
                    break;
                }
            }
        }
    }
    Ok(stats)
}

/// A listener the serve loop can accept connections from. Implemented
/// for TCP and (on Unix) Unix-domain sockets so [`serve_listener`] is
/// written once.
pub trait Transport {
    /// The accepted bidirectional stream type.
    type Stream: Read + Write;

    /// Blocks for the next connection.
    ///
    /// # Errors
    ///
    /// Propagates the listener's accept failure.
    fn accept_conn(&self) -> io::Result<Self::Stream>;

    /// Duplicates the stream handle so reads and writes can use
    /// separate buffered wrappers.
    ///
    /// # Errors
    ///
    /// Propagates the OS handle-duplication failure.
    fn clone_stream(stream: &Self::Stream) -> io::Result<Self::Stream>;
}

impl Transport for TcpListener {
    type Stream = TcpStream;

    fn accept_conn(&self) -> io::Result<TcpStream> {
        self.accept().map(|(s, _)| s)
    }

    fn clone_stream(stream: &TcpStream) -> io::Result<TcpStream> {
        stream.try_clone()
    }
}

#[cfg(unix)]
impl Transport for UnixListener {
    type Stream = UnixStream;

    fn accept_conn(&self) -> io::Result<UnixStream> {
        self.accept().map(|(s, _)| s)
    }

    fn clone_stream(stream: &UnixStream) -> io::Result<UnixStream> {
        stream.try_clone()
    }
}

/// Accepts connections sequentially and serves each to completion.
/// Throughput comes from batching, not from concurrent connections —
/// one connection at a time is what keeps output ordering trivially
/// deterministic.
///
/// `max_conns` bounds how many connections are accepted (`None` =
/// forever); tests and the bench harness use it to make the loop
/// joinable. A connection that fails mid-stream is dropped without
/// taking the server down.
///
/// # Errors
///
/// Only listener-level accept failures; per-connection I/O errors are
/// swallowed (the next client is unaffected).
pub fn serve_listener<T: Transport>(
    engine: &PredictEngine,
    listener: &T,
    max_conns: Option<u64>,
) -> io::Result<ServeStats> {
    let mut total = ServeStats::default();
    let mut served = 0u64;
    while served < max_conns.unwrap_or(u64::MAX) {
        let stream = listener.accept_conn()?;
        served += 1;
        let mut writer = match T::clone_stream(&stream) {
            Ok(w) => w,
            Err(_) => continue,
        };
        let mut reader = io::BufReader::new(stream);
        if let Ok(stats) = serve_stream(engine, &mut reader, &mut writer) {
            total.batches_ok += stats.batches_ok;
            total.points += stats.points;
            total.errors += stats.errors;
        }
    }
    Ok(total)
}

/// Binds a TCP listener and serves it; returns the bound address
/// through `on_bound` before blocking (pass the port back to a client,
/// print it for humans).
///
/// # Errors
///
/// Bind and accept failures.
pub fn serve_tcp(
    engine: &PredictEngine,
    addr: &str,
    max_conns: Option<u64>,
    on_bound: impl FnOnce(std::net::SocketAddr),
) -> io::Result<ServeStats> {
    let listener = TcpListener::bind(addr)?;
    on_bound(listener.local_addr()?);
    serve_listener(engine, &listener, max_conns)
}

/// Binds a Unix-domain socket at `path` and serves it. The socket file
/// is removed first if it already exists (stale from a previous run)
/// and removed again on clean exit.
///
/// # Errors
///
/// Bind and accept failures.
#[cfg(unix)]
pub fn serve_unix(
    engine: &PredictEngine,
    path: &std::path::Path,
    max_conns: Option<u64>,
) -> io::Result<ServeStats> {
    if path.exists() {
        std::fs::remove_file(path)?;
    }
    let listener = UnixListener::bind(path)?;
    let stats = serve_listener(engine, &listener, max_conns);
    #[expect(
        clippy::let_underscore_must_use,
        reason = "best-effort unlink of the socket file; the serve result is what the caller needs"
    )]
    let _ = std::fs::remove_file(path);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{encode_frame, DecodeError, ErrorCode};
    use rsm_core::{ModelBundle, SparseModel};

    fn engine() -> PredictEngine {
        let bundle = ModelBundle {
            input_columns: vec!["a".into(), "b".into()],
            response: "power".into(),
            basis: "linear".into(),
            method: "OMP".into(),
            lambda: 2,
            train_error: 0.0,
            model: SparseModel::new(3, vec![(0, 2.0), (2, -1.5)]),
        };
        PredictEngine::new(bundle).unwrap()
    }

    fn run(input: &[u8]) -> (ServeStats, Vec<Frame>) {
        let e = engine();
        let mut reader = input;
        let mut out = Vec::new();
        let stats = serve_stream(&e, &mut reader, &mut out).unwrap();
        let mut frames = Vec::new();
        let mut r = &out[..];
        while let Some(f) = read_frame(&mut r).unwrap() {
            frames.push(f);
        }
        (stats, frames)
    }

    #[test]
    fn two_batches_two_answers() {
        let mut input = Vec::new();
        for pts in [vec![1.0, 2.0], vec![0.5, -0.5, 3.0, 4.0]] {
            input.extend(
                encode_frame(&Frame::Predict {
                    num_vars: 2,
                    points: pts,
                })
                .unwrap(),
            );
        }
        let (stats, frames) = run(&input);
        assert_eq!(stats.batches_ok, 2);
        assert_eq!(stats.points, 3);
        assert_eq!(stats.errors, 0);
        assert_eq!(frames.len(), 2);
        assert!(matches!(frames[0], Frame::Predictions { .. }));
    }

    #[test]
    fn recoverable_error_then_next_frame_still_served() {
        let mut input = Vec::new();
        // Wrong arity — recoverable at the engine level.
        input.extend(
            encode_frame(&Frame::Predict {
                num_vars: 5,
                points: vec![0.0; 5],
            })
            .unwrap(),
        );
        input.extend(
            encode_frame(&Frame::Predict {
                num_vars: 2,
                points: vec![1.0, 1.0],
            })
            .unwrap(),
        );
        let (stats, frames) = run(&input);
        assert_eq!(stats.errors, 1);
        assert_eq!(stats.batches_ok, 1);
        assert!(matches!(
            frames[0],
            Frame::Error {
                code: ErrorCode::WrongArity,
                ..
            }
        ));
        assert!(matches!(frames[1], Frame::Predictions { .. }));
    }

    #[test]
    fn fatal_decode_answers_once_and_closes() {
        let mut input = b"XXXXGARBAGE".to_vec();
        // A valid frame after the garbage must never be reached: the
        // stream lost alignment.
        input.extend(
            encode_frame(&Frame::Predict {
                num_vars: 2,
                points: vec![1.0, 1.0],
            })
            .unwrap(),
        );
        let (stats, frames) = run(&input);
        assert_eq!(stats.batches_ok, 0);
        assert_eq!(stats.errors, 1);
        assert_eq!(frames.len(), 1);
        assert!(matches!(
            frames[0],
            Frame::Error {
                code: ErrorCode::BadMagic,
                ..
            }
        ));
    }

    #[test]
    fn truncated_stream_answers_truncated() {
        let full = encode_frame(&Frame::Predict {
            num_vars: 2,
            points: vec![1.0, 2.0],
        })
        .unwrap();
        let (stats, frames) = run(&full[..full.len() - 3]);
        assert_eq!(stats.errors, 1);
        assert!(matches!(
            frames[0],
            Frame::Error {
                code: ErrorCode::Truncated,
                ..
            }
        ));
    }

    #[test]
    fn io_error_surfaces_as_io_error() {
        struct Broken;
        impl Read for Broken {
            fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::ConnectionReset, "boom"))
            }
        }
        let e = engine();
        let mut out = Vec::new();
        let err = serve_stream(&e, &mut Broken, &mut out).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        assert!(out.is_empty(), "no frame written for a dead transport");
        // And the DecodeError::Io variant is the fatal, frame-less one.
        assert!(DecodeError::Io(io::Error::other("x")).is_fatal());
        assert!(DecodeError::Io(io::Error::other("x"))
            .to_error_frame()
            .is_none());
    }
}
