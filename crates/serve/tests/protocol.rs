//! Protocol robustness: every malformed input a client can send must
//! come back as a structured error frame — and must leave the server
//! alive. No panics, no silent disconnects without an answer.

use rsm_core::{ModelBundle, SparseModel};
use rsm_serve::frame::{
    encode_frame, read_frame, write_frame, HEADER_LEN, KIND_PREDICT, MAGIC, MAX_PAYLOAD, VERSION,
};
use rsm_serve::{serve_stream, serve_tcp, Client, ClientError, ErrorCode, Frame, PredictEngine};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::mpsc;

fn engine() -> PredictEngine {
    let bundle = ModelBundle {
        input_columns: vec!["a".into(), "b".into(), "c".into()],
        response: "gain".into(),
        basis: "linear".into(),
        method: "OMP".into(),
        lambda: 2,
        train_error: 0.0,
        model: SparseModel::new(4, vec![(0, 1.0), (3, -2.0)]),
    };
    PredictEngine::new(bundle).expect("engine builds")
}

/// Feeds raw bytes to the frame loop in memory; returns the decoded
/// response frames. The loop itself must never panic or error for
/// client-side garbage.
fn poke(input: &[u8]) -> Vec<Frame> {
    let e = engine();
    let mut reader = input;
    let mut out = Vec::new();
    serve_stream(&e, &mut reader, &mut out).expect("loop survives");
    let mut frames = Vec::new();
    let mut r = &out[..];
    while let Some(f) = read_frame(&mut r).expect("server output frames cleanly") {
        frames.push(f);
    }
    frames
}

fn expect_error(frames: &[Frame], idx: usize, code: ErrorCode) {
    match frames.get(idx) {
        Some(Frame::Error { code: got, .. }) => assert_eq!(*got, code, "frame {idx}"),
        other => panic!("expected {code:?} error at frame {idx}, got {other:?}"),
    }
}

/// The decoder reads a payload's doubles through a scratch of this many
/// bytes at most.
const SCRATCH: usize = 64 * 1024;

/// 3000 points x 5 vars: a predict payload of 120 008 bytes, nearly two
/// scratches, with coordinates of every sign and magnitude.
fn big_points() -> Vec<f64> {
    (0..3000 * 5)
        .map(|i| ((i as f64) * 0.61).sin() * 10f64.powi(i % 7 - 3))
        .collect()
}

/// Hands out at most `step` bytes per `read`, like a slow socket.
struct Trickle<'a> {
    bytes: &'a [u8],
    step: usize,
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = buf.len().min(self.step).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

#[test]
fn a_frame_larger_than_the_scratch_decodes_the_same_at_any_read_size() {
    let points = big_points();
    let bytes = encode_frame(&Frame::Predict {
        num_vars: 5,
        points: points.clone(),
    })
    .expect("encodes");
    assert!(
        bytes.len() - HEADER_LEN - 8 > SCRATCH,
        "the doubles fill two scratches"
    );
    for step in [1, 7, bytes.len()] {
        let mut r = Trickle {
            bytes: &bytes,
            step,
        };
        match read_frame(&mut r) {
            Ok(Some(Frame::Predict {
                num_vars,
                points: got,
            })) => {
                assert_eq!(num_vars, 5);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&points), "{step} bytes per read");
            }
            other => panic!("{step} bytes per read: {other:?}"),
        }
        assert!(
            matches!(read_frame(&mut r), Ok(None)),
            "frame consumed whole"
        );
    }
}

#[test]
fn truncated_frame_yields_truncated_error() {
    let full = encode_frame(&Frame::Predict {
        num_vars: 3,
        points: vec![1.0, 2.0, 3.0],
    })
    .expect("encodes");
    // Cut inside the header and inside the payload.
    for cut in [3, HEADER_LEN - 1, HEADER_LEN + 5, full.len() - 1] {
        let frames = poke(&full[..cut]);
        assert_eq!(frames.len(), 1, "cut at {cut}");
        expect_error(&frames, 0, ErrorCode::Truncated);
    }
    // A payload streamed through several scratches: cut inside the
    // count head, at and inside the first double, either side of the
    // first scratch boundary, and one byte short of the end. Each is
    // answered once and the connection closes.
    let big = encode_frame(&Frame::Predict {
        num_vars: 5,
        points: big_points(),
    })
    .expect("encodes");
    let floats = HEADER_LEN + 8;
    for cut in [
        HEADER_LEN + 3,
        floats,
        floats + 4,
        floats + SCRATCH - 1,
        floats + SCRATCH + 1,
        big.len() - 1,
    ] {
        let frames = poke(&big[..cut]);
        assert_eq!(frames.len(), 1, "cut at {cut}");
        expect_error(&frames, 0, ErrorCode::Truncated);
    }
}

#[test]
fn oversized_declared_length_is_rejected_without_allocation() {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&MAGIC);
    bytes.push(VERSION);
    bytes.push(KIND_PREDICT);
    // Declares ~4 GiB; the payload never follows. The server must
    // answer from the header alone (no allocation, no read attempt).
    bytes.extend_from_slice(&u32::MAX.to_le_bytes());
    let frames = poke(&bytes);
    assert_eq!(frames.len(), 1);
    expect_error(&frames, 0, ErrorCode::Oversized);

    // Just over the cap is rejected; exactly at the cap is not an
    // Oversized error (it fails as Truncated since no payload follows).
    let mut at_cap = bytes.clone();
    at_cap[6..10].copy_from_slice(&MAX_PAYLOAD.to_le_bytes());
    let frames = poke(&at_cap);
    expect_error(&frames, 0, ErrorCode::Truncated);
}

#[test]
fn bad_magic_and_bad_version_close_with_an_error_frame() {
    let good = encode_frame(&Frame::Predict {
        num_vars: 3,
        points: vec![0.0; 3],
    })
    .expect("encodes");

    let mut bad = good.clone();
    bad[..4].copy_from_slice(b"HTTP");
    let frames = poke(&bad);
    assert_eq!(frames.len(), 1);
    expect_error(&frames, 0, ErrorCode::BadMagic);

    let mut bad = good.clone();
    bad[4] = 200;
    let frames = poke(&bad);
    assert_eq!(frames.len(), 1);
    expect_error(&frames, 0, ErrorCode::BadVersion);
}

#[test]
fn recoverable_errors_leave_the_stream_serving() {
    let mut input = Vec::new();
    // 1) unknown kind — consumed in full, recoverable.
    let good = encode_frame(&Frame::Predict {
        num_vars: 3,
        points: vec![0.5, 1.5, -2.5],
    })
    .expect("encodes");
    let mut unknown_kind = good.clone();
    unknown_kind[5] = 99;
    input.extend_from_slice(&unknown_kind);
    // 2) wrong arity.
    input.extend(
        encode_frame(&Frame::Predict {
            num_vars: 2,
            points: vec![1.0, 2.0],
        })
        .expect("encodes"),
    );
    // 3) NaN payload.
    input.extend(
        encode_frame(&Frame::Predict {
            num_vars: 3,
            points: vec![0.0, f64::NAN, 1.0],
        })
        .expect("encodes"),
    );
    // 4) a response kind sent as a request.
    input.extend(encode_frame(&Frame::Predictions { values: vec![1.0] }).expect("encodes"));
    // 5) finally a valid request — it must still be answered.
    input.extend_from_slice(&good);

    let frames = poke(&input);
    assert_eq!(frames.len(), 5, "{frames:?}");
    expect_error(&frames, 0, ErrorCode::BadKind);
    expect_error(&frames, 1, ErrorCode::WrongArity);
    expect_error(&frames, 2, ErrorCode::NonFinite);
    expect_error(&frames, 3, ErrorCode::BadKind);
    assert!(
        matches!(frames[4], Frame::Predictions { ref values } if values.len() == 1),
        "the valid frame after four bad ones still gets its answer: {frames:?}"
    );
}

/// A sink that refuses every write, standing in for a peer that
/// disconnected before its error frame could be delivered.
struct DeadPeer;

impl std::io::Write for DeadPeer {
    fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
        Err(std::io::Error::new(
            std::io::ErrorKind::BrokenPipe,
            "peer gone",
        ))
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// When the error-frame write fails the connection must end cleanly:
/// no panic, no transport error surfaced, and — critically — no
/// further frames processed on a stream nobody is reading.
#[test]
fn failed_error_frame_write_ends_the_connection() {
    let e = engine();
    // A recoverable error (unknown kind) followed by a valid request.
    let good = encode_frame(&Frame::Predict {
        num_vars: 3,
        points: vec![1.0, 2.0, 3.0],
    })
    .expect("encodes");
    let mut unknown_kind = good.clone();
    unknown_kind[5] = 99;
    let mut input = unknown_kind;
    input.extend_from_slice(&good);

    let mut reader = &input[..];
    let stats = serve_stream(&e, &mut reader, &mut DeadPeer).expect("write failure is not fatal");
    assert_eq!(stats.errors, 1, "the decode error was still counted");
    assert_eq!(
        stats.batches_ok, 0,
        "the valid frame after the dead write must not be served"
    );
}

#[test]
fn count_mismatch_payload_is_recoverable() {
    // Declares 3 points x 3 vars but carries one double, followed by a
    // valid frame: malformed is recoverable, so both get answered.
    let mut input = Vec::new();
    let payload_len: u32 = 8 + 8;
    input.extend_from_slice(&MAGIC);
    input.push(VERSION);
    input.push(KIND_PREDICT);
    input.extend_from_slice(&payload_len.to_le_bytes());
    input.extend_from_slice(&3u32.to_le_bytes());
    input.extend_from_slice(&3u32.to_le_bytes());
    input.extend_from_slice(&1.0f64.to_le_bytes());
    input.extend(
        encode_frame(&Frame::Predict {
            num_vars: 3,
            points: vec![1.0, 2.0, 3.0],
        })
        .expect("encodes"),
    );
    let frames = poke(&input);
    assert_eq!(frames.len(), 2, "{frames:?}");
    expect_error(&frames, 0, ErrorCode::Malformed);
    assert!(matches!(frames[1], Frame::Predictions { .. }));

    // Counts whose byte size overflows 64 bits are a mismatch too.
    let mut input = Vec::new();
    input.extend_from_slice(&MAGIC);
    input.push(VERSION);
    input.push(KIND_PREDICT);
    input.extend_from_slice(&16u32.to_le_bytes());
    input.extend_from_slice(&u32::MAX.to_le_bytes());
    input.extend_from_slice(&u32::MAX.to_le_bytes());
    input.extend_from_slice(&1.0f64.to_le_bytes());
    let frames = poke(&input);
    assert_eq!(frames.len(), 1, "{frames:?}");
    expect_error(&frames, 0, ErrorCode::Malformed);

    // Over 64 KiB: 3000 points x 3 vars declared, one double missing.
    // The decoder skips the rest of the payload, so the next frame is
    // read from its own header.
    let carried = 3000 * 3 * 8 - 8;
    let mut input = Vec::new();
    input.extend_from_slice(&MAGIC);
    input.push(VERSION);
    input.push(KIND_PREDICT);
    input.extend_from_slice(&(8 + carried as u32).to_le_bytes());
    input.extend_from_slice(&3000u32.to_le_bytes());
    input.extend_from_slice(&3u32.to_le_bytes());
    input.extend(std::iter::repeat_n(0x3f, carried));
    input.extend(
        encode_frame(&Frame::Predict {
            num_vars: 3,
            points: vec![1.0, 2.0, 3.0],
        })
        .expect("encodes"),
    );
    let frames = poke(&input);
    assert_eq!(frames.len(), 2, "{frames:?}");
    expect_error(&frames, 0, ErrorCode::Malformed);
    assert!(
        matches!(frames[1], Frame::Predictions { ref values } if values.len() == 1),
        "{frames:?}"
    );
}

/// An in-memory server: reads come from a preloaded answer, and writes
/// are kept for inspection.
struct Canned {
    answer: io::Cursor<Vec<u8>>,
    sent: Vec<u8>,
}

impl Canned {
    fn answering(frame: &Frame) -> Canned {
        Canned {
            answer: io::Cursor::new(encode_frame(frame).expect("encodes")),
            sent: Vec::new(),
        }
    }
}

impl Read for Canned {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.answer.read(buf)
    }
}

impl Write for Canned {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.sent.extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn client_rejects_a_wrong_number_of_predictions() {
    // Two points sent, one value answered.
    let mut client = Client::new(Canned::answering(&Frame::Predictions { values: vec![1.0] }));
    match client.predict(3, &[0.0; 6]) {
        Err(ClientError::Protocol(msg)) => assert!(msg.contains("2 points"), "{msg}"),
        other => panic!("expected a protocol error, got {other:?}"),
    }
}

#[test]
fn client_decodes_a_large_answer_bit_exactly() {
    // 10 000 values (80 004 payload bytes) with special bit patterns.
    let mut values = big_points()[..10_000].to_vec();
    values[..6].copy_from_slice(&[
        -0.0,
        f64::INFINITY,
        f64::from_bits(0x7ff8_0000_dead_beef),
        f64::MIN_POSITIVE / 8.0,
        f64::MAX,
        -1e-300,
    ]);
    let points = vec![0.5; values.len()];
    let mut client = Client::new(Canned::answering(&Frame::Predictions {
        values: values.clone(),
    }));
    let got = client.predict(1, &points).expect("answer decodes");
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&got), bits(&values));
    // The request went out as one predict frame of the borrowed points.
    let sent = client.into_inner().sent;
    assert_eq!(
        read_frame(&mut &sent[..]).expect("request decodes"),
        Some(Frame::Predict {
            num_vars: 1,
            points
        })
    );
}

/// A fatal frame from one client must not take the listener down: the
/// next connection is served normally.
#[test]
fn server_survives_an_abusive_connection() {
    let e = engine();
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        serve_tcp(&e, "127.0.0.1:0", Some(3), |addr| {
            tx.send(addr).expect("report bound address");
        })
        .expect("listener survives")
    });
    let addr = rx.recv().expect("server binds");

    // Connection 1: raw garbage, then close.
    {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(b"GET / HTTP/1.1\r\n\r\n")
            .expect("send garbage");
        s.shutdown(Shutdown::Write).expect("half-close");
        let mut r = std::io::BufReader::new(s);
        match read_frame(&mut r) {
            Ok(Some(Frame::Error { code, .. })) => assert_eq!(code, ErrorCode::BadMagic),
            other => panic!("expected an error frame, got {other:?}"),
        }
    }

    // Connection 2: a frame truncated by disconnecting mid-payload.
    {
        let mut s = TcpStream::connect(addr).expect("connect");
        let full = encode_frame(&Frame::Predict {
            num_vars: 3,
            points: vec![1.0, 2.0, 3.0],
        })
        .expect("encodes");
        s.write_all(&full[..full.len() - 4]).expect("send partial");
        s.shutdown(Shutdown::Write).expect("half-close");
        let mut r = std::io::BufReader::new(s);
        match read_frame(&mut r) {
            Ok(Some(Frame::Error { code, .. })) => assert_eq!(code, ErrorCode::Truncated),
            other => panic!("expected an error frame, got {other:?}"),
        }
    }

    // Connection 3: a well-behaved client is answered as if nothing
    // happened.
    {
        let mut client = Client::new(TcpStream::connect(addr).expect("connect"));
        let values = client
            .predict(3, &[0.25, -0.5, 0.75])
            .expect("healthy client is served");
        assert_eq!(values.len(), 1);
    }

    let stats = handle.join().expect("server thread exits cleanly");
    assert_eq!(stats.batches_ok, 1);
    assert_eq!(stats.errors, 2);
}

#[test]
fn client_reports_server_errors_structurally() {
    let e = engine();
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        serve_tcp(&e, "127.0.0.1:0", Some(1), |addr| {
            tx.send(addr).expect("report bound address");
        })
        .expect("listener survives")
    });
    let addr = rx.recv().expect("server binds");
    let mut client = Client::new(TcpStream::connect(addr).expect("connect"));
    match client.predict(2, &[1.0, 2.0]) {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, ErrorCode::WrongArity);
            assert!(message.contains("expects 3"), "{message}");
        }
        other => panic!("expected a server error, got {other:?}"),
    }
    // Same connection still serves after the in-band error.
    let values = client.predict(3, &[1.0, 2.0, 3.0]).expect("still alive");
    assert_eq!(values.len(), 1);
    drop(client);
    handle.join().expect("server thread exits cleanly");
}

#[test]
fn raw_writer_interop_matches_client() {
    // Hand-rolled frames through write_frame behave exactly like the
    // Client wrapper — the protocol has no hidden client state.
    let e = engine();
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        serve_tcp(&e, "127.0.0.1:0", Some(1), |addr| {
            tx.send(addr).expect("report bound address");
        })
        .expect("listener survives")
    });
    let addr = rx.recv().expect("server binds");
    let mut s = TcpStream::connect(addr).expect("connect");
    write_frame(
        &mut s,
        &Frame::Predict {
            num_vars: 3,
            points: vec![0.1, 0.2, 0.3],
        },
    )
    .expect("writes");
    s.flush().expect("flushes");
    s.shutdown(Shutdown::Write).expect("half-close");
    let mut r = std::io::BufReader::new(s);
    match read_frame(&mut r).expect("decodes") {
        Some(Frame::Predictions { values }) => assert_eq!(values.len(), 1),
        other => panic!("expected predictions, got {other:?}"),
    }
    handle.join().expect("server thread exits cleanly");
}
