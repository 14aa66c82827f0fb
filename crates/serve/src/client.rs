//! A minimal blocking client for the frame protocol, used by the
//! bench harness, the equivalence tests, and anything else that wants
//! predictions over a socket without hand-rolling frames.

use crate::frame::{encode_predict, read_frame, DecodeError, ErrorCode, Frame};
use std::fmt;
use std::io::{Read, Write};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed.
    Io(std::io::Error),
    /// The server's bytes could not be decoded, or it answered with an
    /// unexpected frame kind.
    Protocol(String),
    /// The server answered with a structured error frame.
    Server {
        /// Machine-readable error class.
        code: ErrorCode,
        /// Human-readable detail from the server.
        message: String,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ClientError::Server { code, message } => {
                write!(f, "server error {code:?}: {message}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<DecodeError> for ClientError {
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::Io(io) => ClientError::Io(io),
            other => ClientError::Protocol(other.to_string()),
        }
    }
}

/// A blocking request/response client over any bidirectional stream
/// (a `TcpStream`, a `UnixStream`, or an in-memory pair in tests).
#[derive(Debug)]
pub struct Client<S: Read + Write> {
    stream: S,
}

impl<S: Read + Write> Client<S> {
    /// Wraps an already-connected stream.
    pub fn new(stream: S) -> Client<S> {
        Client { stream }
    }

    /// Consumes the client and returns the underlying stream.
    pub fn into_inner(self) -> S {
        self.stream
    }

    /// Sends one batch (`points` row-major, `num_vars` per point) and
    /// waits for the answer: one prediction per point.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] carries the server's in-band error
    /// frame; [`ClientError::Protocol`] an undecodable or out-of-order
    /// response, or one with a prediction count other than the point
    /// count; [`ClientError::Io`] a dead transport or a batch the wire
    /// cannot carry.
    pub fn predict(&mut self, num_vars: usize, points: &[f64]) -> Result<Vec<f64>, ClientError> {
        self.stream.write_all(&encode_predict(num_vars, points)?)?;
        self.stream.flush()?;
        // The encoder accepted the batch, so `num_vars` divides it.
        let num_points = points.len() / num_vars;
        match read_frame(&mut self.stream)? {
            Some(Frame::Predictions { values }) if values.len() == num_points => Ok(values),
            Some(Frame::Predictions { values }) => Err(ClientError::Protocol(format!(
                "server answered {num_points} points with {} predictions",
                values.len()
            ))),
            Some(Frame::Error { code, message }) => Err(ClientError::Server { code, message }),
            Some(Frame::Predict { .. }) => Err(ClientError::Protocol(
                "server sent a predict frame as a response".to_string(),
            )),
            None => Err(ClientError::Protocol(
                "server closed the stream before answering".to_string(),
            )),
        }
    }
}
