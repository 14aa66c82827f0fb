//! The wire format: length-prefixed binary frames.
//!
//! Every message on a serving connection is one frame:
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------
//!      0     4  magic  = b"RSMP"
//!      4     1  version = 1
//!      5     1  kind    (1 = predict, 2 = predictions, 3 = error)
//!      6     4  payload length, u32 little-endian (≤ 64 MiB)
//!     10     …  payload
//! ```
//!
//! Payloads (all integers little-endian, all floats IEEE-754 binary64
//! little-endian, bit-preserving):
//!
//! - **predict** (client → server): `num_points: u32`, `num_vars: u32`,
//!   then `num_points · num_vars` doubles, row-major — a batch of raw
//!   `ΔY` sample points.
//! - **predictions** (server → client): `num_points: u32`, then
//!   `num_points` doubles. The bytes carry the exact bits the evaluator
//!   produced, so the determinism contract survives the wire.
//! - **error** (server → client): `code: u16`, then a UTF-8 message.
//!   The server answers malformed input with an error frame instead of
//!   dying; see [`ErrorCode`] for the vocabulary.
//!
//! Decoding distinguishes **fatal** errors (the byte stream can no
//! longer be framed: bad magic or version, a declared length over the
//! cap, truncation mid-frame) from **recoverable** ones (the frame was
//! consumed in full but its content is unusable: unknown kind, payload
//! shape mismatch). The server loop answers both with an error frame
//! but only closes the stream for fatal ones.

use std::io::{self, Read, Write};

/// First four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"RSMP";
/// Protocol version this build speaks.
pub const VERSION: u8 = 1;
/// Hard cap on the declared payload length (64 MiB ≈ one million
/// 8-double points). A header declaring more is answered with an
/// [`ErrorCode::Oversized`] error frame and the connection is closed —
/// the bytes are never allocated or read.
pub const MAX_PAYLOAD: u32 = 1 << 26;
/// Size of the fixed frame header.
pub const HEADER_LEN: usize = 10;

/// Frame kind byte for a predict request.
pub const KIND_PREDICT: u8 = 1;
/// Frame kind byte for a predictions response.
pub const KIND_PREDICTIONS: u8 = 2;
/// Frame kind byte for an error response.
pub const KIND_ERROR: u8 = 3;

/// Error vocabulary carried by error frames (`u16` on the wire).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame did not start with [`MAGIC`].
    BadMagic,
    /// The version byte is not [`VERSION`].
    BadVersion,
    /// Unknown frame kind (or a response kind sent to the server).
    BadKind,
    /// Declared payload length exceeds [`MAX_PAYLOAD`].
    Oversized,
    /// The stream ended mid-frame.
    Truncated,
    /// Payload bytes disagree with the declared point/var counts.
    Malformed,
    /// The batch arity does not match the model's input count.
    WrongArity,
    /// A point coordinate is NaN or infinite.
    NonFinite,
    /// The server failed internally (reported, never panicked).
    Internal,
}

impl ErrorCode {
    /// Wire encoding of the code.
    pub fn to_u16(self) -> u16 {
        match self {
            ErrorCode::BadMagic => 1,
            ErrorCode::BadVersion => 2,
            ErrorCode::BadKind => 3,
            ErrorCode::Oversized => 4,
            ErrorCode::Truncated => 5,
            ErrorCode::Malformed => 6,
            ErrorCode::WrongArity => 7,
            ErrorCode::NonFinite => 8,
            ErrorCode::Internal => 9,
        }
    }

    /// Decodes a wire code; unknown values report as `None`.
    pub fn from_u16(v: u16) -> Option<ErrorCode> {
        Some(match v {
            1 => ErrorCode::BadMagic,
            2 => ErrorCode::BadVersion,
            3 => ErrorCode::BadKind,
            4 => ErrorCode::Oversized,
            5 => ErrorCode::Truncated,
            6 => ErrorCode::Malformed,
            7 => ErrorCode::WrongArity,
            8 => ErrorCode::NonFinite,
            9 => ErrorCode::Internal,
            _ => return None,
        })
    }
}

/// A decoded frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// A batch of sample points to score: `points` is row-major with
    /// `num_vars` coordinates per point.
    Predict {
        /// Coordinates per point (the model's expected input arity).
        num_vars: usize,
        /// `num_points · num_vars` coordinates, row-major.
        points: Vec<f64>,
    },
    /// One prediction per requested point, in request order.
    Predictions {
        /// The predicted responses, bit-exact.
        values: Vec<f64>,
    },
    /// A structured error instead of a panic or a dropped connection.
    Error {
        /// Machine-readable error class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

/// Why a frame could not be decoded.
#[derive(Debug)]
pub enum DecodeError {
    /// The underlying reader failed.
    Io(io::Error),
    /// Stream ended inside a frame (header or payload).
    Truncated,
    /// First four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// Unsupported protocol version.
    BadVersion(u8),
    /// Declared payload length exceeds [`MAX_PAYLOAD`].
    Oversized(u32),
    /// Unknown frame kind byte.
    BadKind(u8),
    /// Payload shape disagrees with its declared counts.
    Malformed(String),
}

impl DecodeError {
    /// Whether the stream can keep being framed after this error.
    /// Fatal errors lose byte alignment (or the stream itself); the
    /// server answers them with one error frame and closes.
    pub fn is_fatal(&self) -> bool {
        match self {
            DecodeError::Io(_)
            | DecodeError::Truncated
            | DecodeError::BadMagic(_)
            | DecodeError::BadVersion(_)
            | DecodeError::Oversized(_) => true,
            DecodeError::BadKind(_) | DecodeError::Malformed(_) => false,
        }
    }

    /// The error frame a server sends back for this decode failure
    /// (`None` for transport-level I/O errors, where writing would
    /// fail too).
    pub fn to_error_frame(&self) -> Option<Frame> {
        let (code, message) = match self {
            DecodeError::Io(_) => return None,
            DecodeError::Truncated => (ErrorCode::Truncated, "stream ended mid-frame".to_string()),
            DecodeError::BadMagic(m) => (ErrorCode::BadMagic, format!("bad magic {m:02x?}")),
            DecodeError::BadVersion(v) => (
                ErrorCode::BadVersion,
                format!("unsupported protocol version {v} (expected {VERSION})"),
            ),
            DecodeError::Oversized(n) => (
                ErrorCode::Oversized,
                format!("declared payload of {n} bytes exceeds the {MAX_PAYLOAD}-byte cap"),
            ),
            DecodeError::BadKind(k) => (ErrorCode::BadKind, format!("unknown frame kind {k}")),
            DecodeError::Malformed(why) => (ErrorCode::Malformed, why.clone()),
        };
        Some(Frame::Error { code, message })
    }
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Io(e) => write!(f, "i/o error: {e}"),
            DecodeError::Truncated => write!(f, "stream ended mid-frame"),
            DecodeError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            DecodeError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            DecodeError::Oversized(n) => write!(f, "declared payload of {n} bytes over cap"),
            DecodeError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            DecodeError::Malformed(why) => write!(f, "malformed payload: {why}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Largest read the decoder makes into its scratch when streaming a
/// payload's doubles; a multiple of 8, so every read holds whole values.
const SCRATCH: usize = 64 * 1024;

/// Reads one frame. `Ok(None)` is a clean end of stream (EOF before
/// the first header byte); EOF anywhere inside a frame is
/// [`DecodeError::Truncated`].
///
/// The payload is never buffered whole: the count head is read and
/// checked against the declared length, then the doubles stream through
/// a scratch of at most 64 KiB straight into the frame's `Vec<f64>`. A
/// recoverable error skips the rest of the payload, so the next frame
/// starts in place.
///
/// # Errors
///
/// Any [`DecodeError`] variant; see its docs for the fatal /
/// recoverable split.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Frame>, DecodeError> {
    let mut header = [0u8; HEADER_LEN];
    let got = read_up_to(r, &mut header).map_err(DecodeError::Io)?;
    if got == 0 {
        return Ok(None);
    }
    if got < HEADER_LEN {
        return Err(DecodeError::Truncated);
    }
    let magic = [header[0], header[1], header[2], header[3]];
    if magic != MAGIC {
        return Err(DecodeError::BadMagic(magic));
    }
    if header[4] != VERSION {
        return Err(DecodeError::BadVersion(header[4]));
    }
    let kind = header[5];
    let len = u32::from_le_bytes([header[6], header[7], header[8], header[9]]);
    if len > MAX_PAYLOAD {
        return Err(DecodeError::Oversized(len));
    }
    let mut payload = Payload {
        r,
        left: len as usize,
    };
    let decoded = decode_payload(kind, &mut payload);
    if matches!(&decoded, Err(e) if !e.is_fatal()) {
        payload.skip()?;
    }
    decoded.map(Some)
}

/// Reads until `buf` is full or EOF; returns the byte count read.
fn read_up_to<R: Read>(r: &mut R, buf: &mut [u8]) -> io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

/// The unread part of one frame's payload on the stream.
struct Payload<'a, R> {
    r: &'a mut R,
    left: usize,
}

impl<R: Read> Payload<'_, R> {
    /// Fills `buf`, which must fit in the rest of the payload; EOF
    /// first is [`DecodeError::Truncated`].
    fn fill(&mut self, buf: &mut [u8]) -> Result<(), DecodeError> {
        let got = read_up_to(self.r, buf).map_err(DecodeError::Io)?;
        self.left -= got;
        if got < buf.len() {
            return Err(DecodeError::Truncated);
        }
        Ok(())
    }

    /// The next `N` bytes, or `None` when fewer are left.
    fn head<const N: usize>(&mut self) -> Result<Option<[u8; N]>, DecodeError> {
        if self.left < N {
            return Ok(None);
        }
        let mut b = [0u8; N];
        self.fill(&mut b)?;
        Ok(Some(b))
    }

    /// The rest of the payload as little-endian doubles, read through a
    /// scratch of at most [`SCRATCH`] bytes. The caller has checked that
    /// the rest is a whole number of them.
    fn floats(&mut self) -> Result<Vec<f64>, DecodeError> {
        let mut values = Vec::with_capacity(self.left / 8);
        let mut scratch = vec![0u8; self.left.min(SCRATCH)];
        while self.left > 0 {
            let chunk = &mut scratch[..self.left.min(SCRATCH)];
            self.fill(chunk)?;
            let (doubles, _) = chunk.as_chunks::<8>();
            values.extend(doubles.iter().map(|&b| f64::from_le_bytes(b)));
        }
        Ok(values)
    }

    /// The rest of the payload as bytes.
    fn rest(&mut self) -> Result<Vec<u8>, DecodeError> {
        let mut b = vec![0u8; self.left];
        self.fill(&mut b)?;
        Ok(b)
    }

    /// Reads and drops the rest of the payload.
    fn skip(&mut self) -> Result<(), DecodeError> {
        let want = self.left as u64;
        let got =
            io::copy(&mut self.r.by_ref().take(want), &mut io::sink()).map_err(DecodeError::Io)?;
        self.left = 0;
        if got < want {
            return Err(DecodeError::Truncated);
        }
        Ok(())
    }
}

/// Decodes a payload of `kind`, one decoder per frame kind. A
/// recoverable error may leave part of the payload unread.
fn decode_payload<R: Read>(kind: u8, p: &mut Payload<'_, R>) -> Result<Frame, DecodeError> {
    match kind {
        KIND_PREDICT => {
            let Some([p0, p1, p2, p3, v0, v1, v2, v3]) = p.head()? else {
                return Err(DecodeError::Malformed(
                    "predict payload shorter than its 8-byte count header".to_string(),
                ));
            };
            let num_points = u32::from_le_bytes([p0, p1, p2, p3]);
            let num_vars = u32::from_le_bytes([v0, v1, v2, v3]);
            // Two u32 counts times 8 can overflow u64, not u128.
            let want = u128::from(num_points) * u128::from(num_vars) * 8;
            if p.left as u128 != want {
                return Err(DecodeError::Malformed(format!(
                    "predict payload declares {num_points} points x {num_vars} vars \
                     ({want} bytes of coordinates) but carries {}",
                    p.left
                )));
            }
            Ok(Frame::Predict {
                num_vars: num_vars as usize,
                points: p.floats()?,
            })
        }
        KIND_PREDICTIONS => {
            let Some(head) = p.head()? else {
                return Err(DecodeError::Malformed(
                    "predictions payload shorter than its 4-byte count header".to_string(),
                ));
            };
            let num_points = u32::from_le_bytes(head);
            let want = u64::from(num_points) * 8;
            if p.left as u64 != want {
                return Err(DecodeError::Malformed(format!(
                    "predictions payload declares {num_points} values but carries {} bytes",
                    p.left
                )));
            }
            Ok(Frame::Predictions {
                values: p.floats()?,
            })
        }
        KIND_ERROR => {
            let Some(head) = p.head()? else {
                return Err(DecodeError::Malformed(
                    "error payload shorter than its 2-byte code".to_string(),
                ));
            };
            let raw = u16::from_le_bytes(head);
            let Some(code) = ErrorCode::from_u16(raw) else {
                return Err(DecodeError::Malformed(format!("unknown error code {raw}")));
            };
            let message = String::from_utf8_lossy(&p.rest()?).into_owned();
            Ok(Frame::Error { code, message })
        }
        other => Err(DecodeError::BadKind(other)),
    }
}

/// Serializes a frame into a byte vector (header + payload).
///
/// # Errors
///
/// Fails with `InvalidInput` when the frame would exceed the wire's
/// `u32` count fields or the [`MAX_PAYLOAD`] cap.
pub fn encode_frame(frame: &Frame) -> io::Result<Vec<u8>> {
    match frame {
        Frame::Predict { num_vars, points } => encode_predict(*num_vars, points),
        Frame::Predictions { values } => {
            let np = u32_count(values.len(), "num_points")?;
            let mut out = with_header(KIND_PREDICTIONS, 4 + 8 * values.len())?;
            out.extend_from_slice(&np.to_le_bytes());
            put_floats(&mut out, values);
            Ok(out)
        }
        Frame::Error { code, message } => {
            let mut out = with_header(KIND_ERROR, 2 + message.len())?;
            out.extend_from_slice(&code.to_u16().to_le_bytes());
            out.extend_from_slice(message.as_bytes());
            Ok(out)
        }
    }
}

/// Encodes a predict frame from borrowed points (`num_vars` per point,
/// row-major): the encoder behind both [`encode_frame`] and
/// [`Client::predict`](crate::Client::predict).
///
/// # Errors
///
/// As [`encode_frame`]; also `InvalidInput` when `num_vars` is zero or
/// does not divide the coordinate count.
pub(crate) fn encode_predict(num_vars: usize, points: &[f64]) -> io::Result<Vec<u8>> {
    let nv = u32_count(num_vars, "num_vars")?;
    if nv == 0 || !points.len().is_multiple_of(num_vars) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "points length is not a multiple of a positive num_vars",
        ));
    }
    let np = u32_count(points.len() / num_vars, "num_points")?;
    let mut out = with_header(KIND_PREDICT, 8 + 8 * points.len())?;
    out.extend_from_slice(&np.to_le_bytes());
    out.extend_from_slice(&nv.to_le_bytes());
    put_floats(&mut out, points);
    Ok(out)
}

/// A frame header of `kind`, in a vector sized for the header and its
/// `payload_len` bytes of payload.
fn with_header(kind: u8, payload_len: usize) -> io::Result<Vec<u8>> {
    let len = u32_count(payload_len, "payload length")?;
    if len > MAX_PAYLOAD {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("payload of {len} bytes exceeds the {MAX_PAYLOAD}-byte cap"),
        ));
    }
    let mut out = Vec::with_capacity(HEADER_LEN + payload_len);
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(kind);
    out.extend_from_slice(&len.to_le_bytes());
    Ok(out)
}

/// Appends `values` as little-endian doubles, into capacity reserved
/// by [`with_header`].
fn put_floats(out: &mut Vec<u8>, values: &[f64]) {
    out.extend(values.iter().flat_map(|v| v.to_le_bytes()));
}

/// Encodes and writes one frame (no implicit flush — callers decide
/// batching).
///
/// # Errors
///
/// Propagates [`encode_frame`] and writer errors.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> io::Result<()> {
    let bytes = encode_frame(frame)?;
    w.write_all(&bytes)
}

fn u32_count(n: usize, what: &str) -> io::Result<u32> {
    u32::try_from(n).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{what} {n} overflows u32"),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(f: &Frame) -> Frame {
        let bytes = encode_frame(f).unwrap();
        let mut r = &bytes[..];
        read_frame(&mut r).unwrap().unwrap()
    }

    #[test]
    fn predict_roundtrips_bit_exact() {
        let f = Frame::Predict {
            num_vars: 3,
            points: vec![0.1, -2.5, f64::MIN_POSITIVE, 1e300, -0.0, 7.25],
        };
        match roundtrip(&f) {
            Frame::Predict { num_vars, points } => {
                assert_eq!(num_vars, 3);
                let orig = match &f {
                    Frame::Predict { points, .. } => points,
                    _ => unreachable!(),
                };
                assert_eq!(points.len(), orig.len());
                for (a, b) in orig.iter().zip(&points) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn predictions_and_error_roundtrip() {
        let f = Frame::Predictions {
            values: vec![1.5, -0.25],
        };
        assert_eq!(roundtrip(&f), f);
        let e = Frame::Error {
            code: ErrorCode::WrongArity,
            message: "expected 5 vars".to_string(),
        };
        assert_eq!(roundtrip(&e), e);
    }

    #[test]
    fn nan_bits_survive_the_wire() {
        // NaN payload bytes must arrive intact so the engine can
        // report them; equality comparisons would lose them.
        let nan = f64::from_bits(0x7ff8_0000_dead_beef);
        let f = Frame::Predict {
            num_vars: 1,
            points: vec![nan],
        };
        match roundtrip(&f) {
            Frame::Predict { points, .. } => assert_eq!(points[0].to_bits(), nan.to_bits()),
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn clean_eof_is_none_and_midframe_eof_is_truncated() {
        let mut empty: &[u8] = &[];
        assert!(matches!(read_frame(&mut empty), Ok(None)));

        let bytes = encode_frame(&Frame::Predictions { values: vec![1.0] }).unwrap();
        for cut in 1..bytes.len() {
            let mut r = &bytes[..cut];
            assert!(
                matches!(read_frame(&mut r), Err(DecodeError::Truncated)),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn bad_magic_version_kind_oversize() {
        let good = encode_frame(&Frame::Predictions { values: vec![] }).unwrap();

        let mut bad = good.clone();
        bad[0] = b'X';
        let mut r = &bad[..];
        assert!(matches!(read_frame(&mut r), Err(DecodeError::BadMagic(_))));

        let mut bad = good.clone();
        bad[4] = 9;
        let mut r = &bad[..];
        assert!(matches!(
            read_frame(&mut r),
            Err(DecodeError::BadVersion(9))
        ));

        let mut bad = good.clone();
        bad[5] = 42;
        let mut r = &bad[..];
        assert!(matches!(read_frame(&mut r), Err(DecodeError::BadKind(42))));

        let mut bad = good.clone();
        bad[6..10].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        let mut r = &bad[..];
        let err = read_frame(&mut r);
        assert!(matches!(err, Err(DecodeError::Oversized(_))), "{err:?}");
    }

    #[test]
    fn count_mismatch_is_recoverable_malformed() {
        // Declares 2 points x 2 vars but carries one double.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(VERSION);
        bytes.push(KIND_PREDICT);
        let payload_len = 8u32 + 8;
        bytes.extend_from_slice(&payload_len.to_le_bytes());
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&1.0f64.to_le_bytes());
        let mut r = &bytes[..];
        let err = read_frame(&mut r).unwrap_err();
        assert!(matches!(err, DecodeError::Malformed(_)), "{err:?}");
        assert!(!err.is_fatal());
        assert!(matches!(
            err.to_error_frame(),
            Some(Frame::Error {
                code: ErrorCode::Malformed,
                ..
            })
        ));
    }

    #[test]
    fn fatality_split_matches_the_docs() {
        assert!(DecodeError::Truncated.is_fatal());
        assert!(DecodeError::BadMagic(*b"XXXX").is_fatal());
        assert!(DecodeError::BadVersion(0).is_fatal());
        assert!(DecodeError::Oversized(u32::MAX).is_fatal());
        assert!(!DecodeError::BadKind(7).is_fatal());
        assert!(!DecodeError::Malformed(String::new()).is_fatal());
    }

    #[test]
    fn error_codes_roundtrip() {
        for raw in 1..=9u16 {
            let code = ErrorCode::from_u16(raw).unwrap();
            assert_eq!(code.to_u16(), raw);
        }
        assert_eq!(ErrorCode::from_u16(0), None);
        assert_eq!(ErrorCode::from_u16(10), None);
    }

    #[test]
    fn encode_rejects_ragged_points() {
        let f = Frame::Predict {
            num_vars: 3,
            points: vec![1.0, 2.0],
        };
        assert!(encode_frame(&f).is_err());
        let z = Frame::Predict {
            num_vars: 0,
            points: vec![],
        };
        assert!(encode_frame(&z).is_err());
    }
}
