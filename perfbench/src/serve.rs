//! The serve workloads: a fitted bundle behind `rsm_serve::serve_listener`
//! on loopback TCP, driven in a closed loop by one `Client` on one
//! connection — callers of the model wait for each reply.

use crate::fit::{instance_seed, Problem, ProblemSpec};
use crate::report::{self, EndToEnd, Latencies, Outcome, SolverTally};
use crate::trace::{TimedListener, Tracer};
use crate::RunCfg;
use rsm_basis::DictionaryKind;
use rsm_core::{ModelBundle, ModelOrder};
use rsm_linalg::Matrix;
use rsm_serve::frame::{encode_frame, read_frame};
use rsm_serve::{serve_listener, Client, Frame, PredictEngine, ServeStats};
use rsm_stats::NormalSampler;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Instant;

/// Points per request when a fit workload serves its held-out set.
pub const CHECK_POINTS: usize = 256;
/// Requests the traced run replays in-process through decode, handle,
/// encode and `predict_batch`.
pub const REPLAYS: usize = 100;

/// One predict request and the bits its answer must carry.
#[derive(Debug)]
pub struct Request {
    points: Vec<f64>,
    expected: Vec<u64>,
}

/// Splits the rows of `points` into requests of `per_req` points, each
/// with the `predict_point` bits of every point.
pub fn requests(bundle: &ModelBundle, points: &Matrix, per_req: usize) -> Vec<Request> {
    let dict = bundle
        .dictionary()
        .expect("bundles built by the benchmark are consistent");
    let n = points.cols();
    (0..points.rows())
        .step_by(per_req)
        .map(|lo| {
            let hi = (lo + per_req).min(points.rows());
            Request {
                points: points.as_slice()[lo * n..hi * n].to_vec(),
                expected: (lo..hi)
                    .map(|r| bundle.model.predict_point(&dict, points.row(r)).to_bits())
                    .collect(),
            }
        })
        .collect()
}

fn bits_match(values: &[f64], expected: &[u64]) -> bool {
    values.len() == expected.len() && values.iter().zip(expected).all(|(v, &e)| v.to_bits() == e)
}

/// A server thread on one loopback connection, and its client.
#[derive(Debug)]
pub struct Server {
    client: Client<TcpStream>,
    num_vars: usize,
    tracer: Option<Arc<Tracer>>,
    handle: JoinHandle<io::Result<ServeStats>>,
}

impl Server {
    /// Binds, starts the server thread and connects. With a tracer, the
    /// server runs on a [`TimedListener`] and each request is a span.
    pub fn start(bundle: &ModelBundle, tracer: Option<Arc<Tracer>>) -> io::Result<Server> {
        let engine = PredictEngine::new(bundle.clone()).map_err(io::Error::other)?;
        let num_vars = engine.num_vars();
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let server_tracer = tracer.clone();
        let handle = thread::spawn(move || match server_tracer {
            None => serve_listener(&engine, &listener, Some(1)),
            Some(t) => {
                let timed = TimedListener {
                    inner: listener,
                    tracer: Arc::clone(&t),
                };
                t.span("serve.conn", || serve_listener(&engine, &timed, Some(1)))
            }
        });
        let stream = TcpStream::connect(addr)?;
        Ok(Server {
            client: Client::new(stream),
            num_vars,
            tracer,
            handle,
        })
    }

    /// Sends one request and waits for the answer: the round trip in
    /// seconds, and whether every value matched its expected bits.
    fn request(&mut self, req: &Request) -> (f64, bool) {
        let Server {
            client,
            num_vars,
            tracer,
            ..
        } = self;
        let t0 = Instant::now();
        let reply = match tracer {
            None => client.predict(*num_vars, &req.points),
            Some(t) => t.span("serve.request", || client.predict(*num_vars, &req.points)),
        };
        let rtt = t0.elapsed().as_secs_f64();
        match reply {
            Ok(values) => (rtt, bits_match(&values, &req.expected)),
            Err(e) => {
                eprintln!("request failed: {e}");
                (rtt, false)
            }
        }
    }

    /// Closes the connection, joins the server thread, and checks that
    /// it answered every request without an error frame.
    pub fn finish(self, out: &mut Outcome) {
        drop(self.client);
        match self.handle.join() {
            Ok(Ok(stats)) if stats.errors == 0 => {}
            Ok(Ok(stats)) => out.fail(format!("server sent {} error frames", stats.errors)),
            Ok(Err(e)) => out.fail(format!("server: {e}")),
            Err(_) => out.fail("server thread panicked".to_string()),
        }
    }
}

/// Sends requests from `pool` round-robin until `seconds` have passed
/// and at least `min` were sent; returns the round trips and the loop's
/// wall time.
fn drive(
    server: &mut Server,
    pool: &[Request],
    seconds: f64,
    min: usize,
    out: &mut Outcome,
) -> (Latencies, f64) {
    let mut rtts = Latencies::default();
    let start = Instant::now();
    while rtts.count < min || report::time_left(start, &rtts, seconds) {
        let (rtt, ok) = server.request(&pool[rtts.count % pool.len()]);
        rtts.push(rtt);
        out.attempted += 1;
        if !ok {
            out.failed += 1;
        }
    }
    (rtts, start.elapsed().as_secs_f64())
}

/// Sends every request once, checking the answers.
pub fn send_all(server: &mut Server, pool: &[Request], out: &mut Outcome) {
    drive(server, pool, 0.0, pool.len(), out);
}

/// Replays requests in-process through the server's stages — frame
/// decode, engine, frame encode — and the model's `predict_batch`,
/// one span each. Returns the mean points per request.
pub fn replay(bundle: &ModelBundle, pool: &[Request], t: &Tracer, out: &mut Outcome) -> f64 {
    let (engine, dict) = match (PredictEngine::new(bundle.clone()), bundle.dictionary()) {
        (Ok(e), Ok(d)) => (e, d),
        _ => {
            out.fail("cannot load the bundle for replay".to_string());
            return f64::NAN;
        }
    };
    let n = engine.num_vars();
    let mut points = 0;
    let count = REPLAYS.max(pool.len());
    for i in 0..count {
        let req = &pool[i % pool.len()];
        let np = req.expected.len();
        let frame = Frame::Predict {
            num_vars: n,
            points: req.points.clone(),
        };
        let (Ok(bytes), Ok(batch)) = (
            encode_frame(&frame),
            Matrix::from_vec(np, n, req.points.clone()),
        ) else {
            out.fail("cannot encode a replay request".to_string());
            return f64::NAN;
        };
        let decoded = t.span("serve.decode", || read_frame(&mut bytes.as_slice()));
        let response = match decoded {
            Ok(Some(frame)) => t.span("serve.handle", || engine.handle(&frame)),
            _ => Frame::Predictions { values: Vec::new() },
        };
        let encoded = t.span("serve.encode", || encode_frame(&response));
        let direct = t.span("model.predict_batch", || {
            bundle.model.predict_batch(&dict, &batch)
        });
        let ok = encoded.is_ok()
            && matches!(&response, Frame::Predictions { values } if bits_match(values, &req.expected))
            && matches!(&direct, Ok(values) if bits_match(values, &req.expected));
        out.attempted += 1;
        if !ok {
            out.failed += 1;
        }
        points += np;
    }
    points as f64 / count as f64
}

/// A serve workload.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    /// Training problem of the served bundle, fitted in set-up.
    pub problem: ProblemSpec,
    pub lambda: usize,
    pub points_per_req: usize,
    /// Distinct requests, cycled by the loop.
    pub pool: usize,
    pub warmup: usize,
    pub err_cap: f64,
}

fn bundle_problem(n: usize, k: usize, planted: usize) -> ProblemSpec {
    ProblemSpec {
        kind: DictionaryKind::Quadratic,
        n,
        k,
        k_test: 500,
        planted,
        decay: 1.0,
        noise: 0.05,
        dense: false,
    }
}

/// The serve workloads, at full or `--smoke` size.
pub fn spec(name: &str, smoke: bool) -> Option<ServeSpec> {
    // N = 64 quadratic: M = 2145 atoms, λ = 32.
    let full = ServeSpec {
        problem: bundle_problem(64, 600, 16),
        lambda: 32,
        points_per_req: 4096,
        pool: 8,
        warmup: 20,
        err_cap: 0.05,
    };
    let small = ServeSpec {
        problem: bundle_problem(16, 200, 5),
        lambda: 8,
        points_per_req: 256,
        pool: 4,
        warmup: 5,
        err_cap: 0.05,
    };
    let s = match (name, smoke) {
        ("serve-bulk", false) => full,
        ("serve-bulk", true) => small,
        ("serve-small", false) => ServeSpec {
            points_per_req: 1,
            pool: 1024,
            warmup: 2000,
            ..full
        },
        ("serve-small", true) => ServeSpec {
            points_per_req: 1,
            pool: 64,
            warmup: 50,
            ..small
        },
        _ => return None,
    };
    Some(s)
}

/// The fitted bundle, its held-out error, and the request pool.
struct Prepared {
    bundle: ModelBundle,
    test_err: f64,
    pool: Vec<Request>,
}

fn prepare(
    spec: &ServeSpec,
    seed: u64,
    tracer: Option<&Tracer>,
    tally: &mut SolverTally,
    out: &mut Outcome,
) -> Option<Prepared> {
    let p = Problem::generate(&spec.problem, instance_seed(seed, 0));
    let report = match p.fit(&ModelOrder::Fixed(spec.lambda), tracer) {
        Ok(r) => r,
        Err(e) => {
            out.fail(format!("bundle fit: {e}"));
            return None;
        }
    };
    tally.add(&report);
    let test_err = match p.test_error(&report.model) {
        Ok(e) if e <= spec.err_cap => e,
        Ok(e) => {
            out.fail(format!("bundle held-out error {e} above {}", spec.err_cap));
            return None;
        }
        Err(e) => {
            out.fail(format!("bundle held-out error: {e}"));
            return None;
        }
    };
    let bundle = p.bundle(report.model, report.lambda);
    let mut rng = NormalSampler::seed_from_u64(instance_seed(seed, 1));
    let points = Matrix::from_fn(spec.pool * spec.points_per_req, spec.problem.n, |_, _| {
        rng.sample()
    });
    let pool = requests(&bundle, &points, spec.points_per_req);
    Some(Prepared {
        bundle,
        test_err,
        pool,
    })
}

/// Starts a server for `prep` and sends the warm-up requests.
fn start_warm(
    spec: &ServeSpec,
    prep: &Prepared,
    tracer: Option<Arc<Tracer>>,
    out: &mut Outcome,
) -> Option<Server> {
    match Server::start(&prep.bundle, tracer) {
        Ok(mut server) => {
            drive(&mut server, &prep.pool, 0.0, spec.warmup, out);
            Some(server)
        }
        Err(e) => {
            out.fail(format!("cannot start the server: {e}"));
            None
        }
    }
}

/// Runs a serve workload.
pub fn run(spec: &ServeSpec, cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let mut tally = SolverTally::default();
    match &cfg.trace {
        None => {
            let mut e2e = EndToEnd::default();
            let mut ready: Option<(Prepared, Server)> = None;
            for _ in 0..crate::SETUP_REPS {
                if let Some((_, server)) = ready.take() {
                    server.finish(&mut out);
                }
                let t0 = Instant::now();
                let Some(prep) = prepare(spec, cfg.seed, None, &mut tally, &mut out) else {
                    return out;
                };
                let Some(server) = start_warm(spec, &prep, None, &mut out) else {
                    return out;
                };
                e2e.setup_s.push(t0.elapsed().as_secs_f64());
                let digest = report::model_digest(&prep.bundle.model);
                if e2e.setup_s.len() > 1 && digest != out.digest {
                    out.fail("set-up refitted a different bundle".to_string());
                }
                out.digest = digest;
                ready = Some((prep, server));
            }
            let Some((prep, mut server)) = ready else {
                return out;
            };
            let (rtts, loop_s) = drive(
                &mut server,
                &prep.pool,
                cfg.seconds,
                prep.pool.len(),
                &mut out,
            );
            server.finish(&mut out);
            e2e.ops = rtts;
            e2e.loop_s = loop_s;
            e2e.test_err = vec![prep.test_err];
            e2e.finish(&mut out);
        }
        Some(t) => {
            let mut untraced = SolverTally::default();
            let Some(prep) = prepare(spec, cfg.seed, None, &mut untraced, &mut out) else {
                return out;
            };
            let Some(traced) = prepare(spec, cfg.seed, Some(t), &mut tally, &mut out) else {
                return out;
            };
            out.digest = report::model_digest(&traced.bundle.model);
            if report::model_digest(&prep.bundle.model) != out.digest {
                out.fail("traced bundle fit differs from the untraced one".to_string());
            }
            let half = cfg.seconds / 2.0;
            let mut p50 = Vec::new();
            for tracer in [None, Some(Arc::clone(t))] {
                let Some(mut server) = start_warm(spec, &prep, tracer, &mut out) else {
                    return out;
                };
                let (rtts, _) = drive(&mut server, &prep.pool, half, prep.pool.len(), &mut out);
                server.finish(&mut out);
                p50.push(rtts.p50());
            }
            let overhead = 100.0 * (p50[1] - p50[0]) / p50[0];
            let points = replay(&prep.bundle, &prep.pool, t, &mut out);
            out.metrics = report::per_layer(t, &tally, points, overhead);
            out.info = report::trace_info(t, &tally);
        }
    }
    out
}
