//! The serving determinism contract, end to end: a prediction that
//! crossed the wire must be **bit-identical** to one computed in
//! process with [`SparseModel::predict_point`], at every thread count.
//!
//! The server is spawned on a real TCP socket inside this process, so
//! `runtime::set_threads` reaches its compute path; the client is the
//! real frame client from `rsm-serve`. A proptest sweeps random
//! bundles and batches through the frame loop in memory.

use sparse_rsm::core::{ModelBundle, SparseModel};
use sparse_rsm::linalg::Matrix;
use sparse_rsm::runtime;
use sparse_rsm::serve::frame::{encode_frame, read_frame};
use sparse_rsm::serve::{serve_stream, serve_tcp, Client, Frame, PredictEngine};
use sparse_rsm::stats::NormalSampler;
use std::net::TcpStream;
use std::sync::mpsc;
use std::sync::Mutex;

/// The thread override is process-global, so tests that sweep it must
/// not interleave.
static THREADS_LOCK: Mutex<()> = Mutex::new(());

/// A quadratic bundle over `n` inputs with a fixed sparse support.
fn quad_bundle(n: usize) -> ModelBundle {
    let m = 1 + 2 * n + n * (n - 1) / 2;
    let coeffs = vec![
        (0, 1.25),
        (1, -0.5),
        (n, 0.375),
        (m - 1, 3.0),
        (m / 2, -0.0625),
    ];
    ModelBundle {
        input_columns: (0..n).map(|i| format!("x{i}")).collect(),
        response: "delay".to_string(),
        basis: "quadratic".to_string(),
        method: "LAR".to_string(),
        lambda: coeffs.len(),
        train_error: 0.01,
        model: SparseModel::new(m, coeffs),
    }
}

/// Row-major batch of `k` points over `n` variables.
fn batch(k: usize, n: usize, seed: u64) -> Vec<f64> {
    let mut rng = NormalSampler::seed_from_u64(seed);
    (0..k * n).map(|_| rng.sample()).collect()
}

/// Spawns a one-connection TCP server for `bundle`, returning the
/// bound address and the join handle.
fn spawn_server(bundle: ModelBundle) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let engine = PredictEngine::new(bundle).expect("engine builds");
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        serve_tcp(&engine, "127.0.0.1:0", Some(1), |addr| {
            tx.send(addr).expect("report bound address");
        })
        .expect("server runs to completion");
    });
    (rx.recv().expect("server binds"), handle)
}

#[test]
fn served_predictions_are_bit_identical_to_predict_point_at_1_and_4_threads() {
    let _guard = THREADS_LOCK.lock().unwrap();
    let n = 4;
    let bundle = quad_bundle(n);
    let dict = bundle.dictionary().expect("dictionary rebuilds");
    let points = batch(700, n, 42);

    let mut served: Vec<Vec<u64>> = Vec::new();
    for threads in [1usize, 4] {
        runtime::set_threads(threads);
        let (addr, handle) = spawn_server(bundle.clone());
        let stream = TcpStream::connect(addr).expect("connect");
        let mut client = Client::new(stream);
        let values = client.predict(n, &points).expect("server answers");
        drop(client);
        handle.join().expect("server thread exits cleanly");

        assert_eq!(values.len(), 700);
        for (i, v) in values.iter().enumerate() {
            let expect = bundle
                .model
                .predict_point(&dict, &points[i * n..(i + 1) * n]);
            assert_eq!(
                v.to_bits(),
                expect.to_bits(),
                "point {i} differs from predict_point at {threads} threads ({v} vs {expect})"
            );
        }
        served.push(values.iter().map(|v| v.to_bits()).collect());
    }
    runtime::set_threads(0);
    assert_eq!(served[0], served[1], "thread count leaked into the wire");
}

#[test]
fn multiple_batches_on_one_connection_stay_bit_exact() {
    let _guard = THREADS_LOCK.lock().unwrap();
    runtime::set_threads(2);
    let n = 3;
    let bundle = quad_bundle(n);
    let dict = bundle.dictionary().expect("dictionary rebuilds");
    let (addr, handle) = spawn_server(bundle.clone());
    let mut client = Client::new(TcpStream::connect(addr).expect("connect"));
    for (k, seed) in [(1usize, 7u64), (13, 8), (256, 9), (300, 10)] {
        let points = batch(k, n, seed);
        let values = client.predict(n, &points).expect("server answers");
        for (i, v) in values.iter().enumerate() {
            let expect = bundle
                .model
                .predict_point(&dict, &points[i * n..(i + 1) * n]);
            assert_eq!(v.to_bits(), expect.to_bits(), "batch {k} point {i}");
        }
    }
    drop(client);
    handle.join().expect("server thread exits cleanly");
    runtime::set_threads(0);
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

    /// Random bundles and batches through the in-memory frame loop:
    /// whatever comes back as a predictions frame must match the
    /// serial in-process evaluation bit for bit.
    #[test]
    fn random_bundles_roundtrip_bit_exact(
        n in 1usize..6,
        basis_pick in 0usize..2,
        k in 0usize..40,
        seed in 0u64..1_000_000,
        threads in 1usize..5,
    ) {
        let _guard = THREADS_LOCK.lock().unwrap();
        let quadratic = basis_pick == 1;
        let m = if quadratic { 1 + 2 * n + n * (n - 1) / 2 } else { 1 + n };
        // A deterministic pseudo-random support over the dictionary.
        let mut rng = NormalSampler::seed_from_u64(seed);
        let mut coeffs: Vec<(usize, f64)> = Vec::new();
        for j in 0..m {
            if rng.sample() > 0.3 {
                coeffs.push((j, rng.sample()));
            }
        }
        let bundle = ModelBundle {
            input_columns: (0..n).map(|i| format!("x{i}")).collect(),
            response: "y".to_string(),
            basis: if quadratic { "quadratic" } else { "linear" }.to_string(),
            method: "OMP".to_string(),
            lambda: coeffs.len(),
            train_error: 0.0,
            model: SparseModel::new(m, coeffs),
        };
        let dict = bundle.dictionary().expect("dictionary rebuilds");
        let points = batch(k, n, seed ^ 0xdead_beef);

        runtime::set_threads(threads);
        let engine = PredictEngine::new(bundle.clone()).expect("engine builds");
        let request = encode_frame(&Frame::Predict { num_vars: n, points: points.clone() })
            .expect("encodes");
        let mut reader = &request[..];
        let mut out = Vec::new();
        serve_stream(&engine, &mut reader, &mut out).expect("loop runs");
        runtime::set_threads(0);

        let mut r = &out[..];
        let frame = read_frame(&mut r).expect("decodes").expect("one response");
        let Frame::Predictions { values } = frame else {
            return Err(proptest::test_runner::TestCaseError::Fail(format!("got {frame:?}")));
        };
        proptest::prop_assert_eq!(values.len(), k);
        for (i, v) in values.iter().enumerate() {
            let expect = bundle.model.predict_point(&dict, &points[i * n..(i + 1) * n]);
            proptest::prop_assert_eq!(v.to_bits(), expect.to_bits(), "point {}", i);
        }
        // Matrix-path cross-check: the same batch through predict_batch
        // directly (what the engine ran) equals the wire bits.
        let matrix = Matrix::from_vec(k, n, points.clone()).expect("batch shapes");
        let direct = bundle.model.predict_batch(&dict, &matrix).expect("evaluates");
        for (a, b) in direct.iter().zip(&values) {
            proptest::prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
