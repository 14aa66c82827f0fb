//! Implementation of the `rsm` command-line tool (see `main.rs` for
//! the usage synopsis). The argument parser is hand-rolled (no external
//! CLI crates) and every subcommand is a pure function from parsed
//! arguments + file contents to output text, so the whole tool is unit-
//! testable without spawning processes.

#![warn(missing_docs)]

pub mod csv;

use rsm_basis::{Dictionary, DictionaryKind};
use rsm_core::select::CvConfig;
use rsm_core::source::DictionarySource;
use rsm_core::{codegen, solver, Method, ModelOrder};
use rsm_serve::{serve_tcp, PredictEngine, ServeStats};
use rsm_stats::metrics::relative_error;
use std::collections::BTreeMap;
use std::fmt::Write as _;

// The bundle type lives in rsm-core so the offline CLI and the serving
// stack share one definition; re-exported here because `rsm fit` is
// its writer and older code paths name it as `rsm_cli::ModelBundle`.
pub use rsm_core::ModelBundle;

/// Parsed command-line options: `--key value` pairs.
#[derive(Debug, Default)]
struct Options {
    flags: BTreeMap<String, String>,
}

/// Flags that take no value (presence alone turns them on).
const BOOL_FLAGS: &[&str] = &["stdio", "early-stop"];

/// The options each subcommand reads; `--threads` is accepted by all.
const FIT_OPTIONS: &[&str] = &[
    "input",
    "response",
    "method",
    "basis",
    "lambda-max",
    "lambda",
    "early-stop",
    "model",
    "emit-c",
    "emit-veriloga",
];
const PREDICT_OPTIONS: &[&str] = &["model", "input", "output"];
const SERVE_OPTIONS: &[&str] = &["model", "stdio", "listen", "unix", "max-conns"];
const INFO_OPTIONS: &[&str] = &["model"];

impl Options {
    /// Parses `--key value` pairs, rejecting any option `cmd` does not
    /// read (so a misspelt `--lamda` fails instead of being ignored).
    fn parse(cmd: &str, known: &[&str], args: &[String]) -> Result<Options, String> {
        let mut out = Options::default();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                return Err(format!("unexpected argument '{a}'\n\n{USAGE}"));
            };
            if key != "threads" && !known.contains(&key) {
                return Err(format!("unknown option --{key} for 'rsm {cmd}'\n\n{USAGE}"));
            }
            let val = if BOOL_FLAGS.contains(&key) {
                "true".to_string()
            } else {
                it.next()
                    .ok_or_else(|| format!("--{key} requires a value"))?
                    .clone()
            };
            if out.flags.insert(key.to_string(), val).is_some() {
                return Err(format!("--{key} given twice"));
            }
        }
        Ok(out)
    }

    fn boolean(&self, key: &str) -> bool {
        self.flags.contains_key(key)
    }

    fn required(&self, key: &str) -> Result<&str, String> {
        self.flags
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required option --{key}"))
    }

    fn optional(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }
}

const USAGE: &str = "\
rsm — sparse response-surface modeling (OMP / LAR / STAR / LS)

USAGE:
  rsm fit --input <samples.csv> --response <column> [--method omp|lar|star|ls]
          [--basis linear|quadratic] [--lambda-max N [--early-stop] | --lambda N]
          [--model out.json] [--emit-c out.c] [--emit-veriloga out.va]
  rsm predict --model <model.json> --input <samples.csv> [--output pred.csv]
  rsm serve --model <model.json> (--stdio | --listen <addr:port> | --unix <path>)
            [--max-conns N]
  rsm info --model <model.json>
  rsm help

`rsm serve` answers batched predict frames over a length-prefixed
binary protocol (see the README's Serving section); predictions are
bit-identical to `rsm predict` on the same points. With --stdio the
frames flow over stdin/stdout and diagnostics go to stderr; --listen
binds a TCP socket, --unix a Unix-domain socket. --max-conns stops
after N connections (for tests and benchmarks).

Every subcommand also accepts --threads N (default: the RSM_THREADS
environment variable, else all available cores). The thread count only
affects speed: fitted models are bit-identical for any value.

Without --lambda, fit picks lambda by 4-fold cross-validation over
1..=--lambda-max (default 50). --early-stop cuts the cross-fold error
curve where it stops improving and picks lambda from the kept prefix;
it cannot be combined with --lambda.

The CSV has one sample per row; every column except the response is a
variation variable. A header row is auto-detected. predict finds the
model's inputs by name under a header; a headerless file must hold
exactly the inputs, in the model's order.
";

/// Runs the CLI against already-split arguments, returning the stdout
/// text.
///
/// # Errors
///
/// Returns a human-readable error string (printed to stderr with a
/// nonzero exit by `main`).
pub fn run(args: &[String]) -> Result<String, String> {
    let Some(cmd) = args.first() else {
        return Ok(USAGE.to_string());
    };
    type Command = fn(&Options) -> Result<String, String>;
    let (known, command): (&[&str], Command) = match cmd.as_str() {
        "fit" => (FIT_OPTIONS, cmd_fit),
        "predict" => (PREDICT_OPTIONS, cmd_predict),
        "serve" => (SERVE_OPTIONS, cmd_serve),
        "info" => (INFO_OPTIONS, cmd_info),
        "help" | "--help" | "-h" => return Ok(USAGE.to_string()),
        other => return Err(format!("unknown command '{other}'\n\n{USAGE}")),
    };
    let opts = Options::parse(cmd, known, &args[1..])?;
    if let Some(t) = opts.optional("threads") {
        let n: usize = t
            .parse()
            .map_err(|_| "--threads must be a positive integer".to_string())?;
        if n == 0 {
            return Err("--threads must be a positive integer".to_string());
        }
        rsm_runtime::set_threads(n);
    }
    command(&opts)
}

fn read_file(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn write_file(path: &str, content: &str) -> Result<(), String> {
    std::fs::write(path, content).map_err(|e| format!("cannot write {path}: {e}"))
}

fn cmd_fit(opts: &Options) -> Result<String, String> {
    let input = opts.required("input")?;
    let response = opts.required("response")?;
    let method = match opts.optional("method").unwrap_or("omp") {
        "omp" => Method::Omp,
        "lar" => Method::Lar,
        "star" => Method::Star,
        "ls" => Method::Ls,
        other => return Err(format!("unknown method '{other}' (omp|lar|star|ls)")),
    };
    let basis = opts.optional("basis").unwrap_or("linear");
    let kind = match basis {
        "linear" => DictionaryKind::Linear,
        "quadratic" => DictionaryKind::Quadratic,
        other => return Err(format!("unknown basis '{other}' (linear|quadratic)")),
    };

    let table = csv::Table::parse(&read_file(input)?).map_err(|e| e.to_string())?;
    let (inputs, f) = table.split_response(response).map_err(|e| e.to_string())?;
    let ri = table.column_index(response).map_err(|e| e.to_string())?;
    let input_columns: Vec<String> = table
        .columns
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != ri)
        .map(|(_, c)| c.clone())
        .collect();

    let dict = Dictionary::new(inputs.cols(), kind);
    let order = if let Some(l) = opts.optional("lambda") {
        if opts.boolean("early-stop") {
            return Err(
                "--early-stop applies to cross-validation and cannot be combined with --lambda"
                    .to_string(),
            );
        }
        ModelOrder::Fixed(l.parse().map_err(|_| "--lambda must be an integer")?)
    } else {
        let lmax: usize = opts
            .optional("lambda-max")
            .unwrap_or("50")
            .parse()
            .map_err(|_| "--lambda-max must be an integer")?;
        let mut cfg = CvConfig::new(lmax);
        if opts.boolean("early-stop") {
            cfg = cfg.with_early_stop();
        }
        ModelOrder::CrossValidated(cfg)
    };
    // The solver streams the dictionary: the K×M design matrix is
    // never allocated.
    let src = DictionarySource::new(&dict, &inputs);
    let report = solver::fit(&src, &f, method, &order).map_err(|e| e.to_string())?;
    let pred: Vec<f64> = (0..inputs.rows())
        .map(|r| report.model.predict_point(&dict, inputs.row(r)))
        .collect();
    let train_error = relative_error(&pred, &f);

    let bundle = ModelBundle {
        input_columns,
        response: response.to_string(),
        basis: basis.to_string(),
        method: report.method.name().to_string(),
        lambda: report.lambda,
        train_error,
        model: report.model.clone(),
    };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "fit {}: K = {}, N = {}, M = {} bases, λ = {}, {} non-zeros, in-sample error {:.2}%",
        report.method.name(),
        inputs.rows(),
        inputs.cols(),
        dict.len(),
        report.lambda,
        bundle.model.num_nonzeros(),
        train_error * 100.0
    );
    if let Some(cv) = &report.cv {
        let _ = write!(
            out,
            "cross-validation: best λ = {} at ε = {:.2}%",
            cv.best_lambda,
            cv.best_error * 100.0
        );
        if let ModelOrder::CrossValidated(CvConfig {
            early_stop: true,
            lambda_max,
        }) = &order
        {
            let _ = write!(out, ", λ explored = {} of {lambda_max}", cv.errors.len());
        }
        out.push('\n');
    }
    if let Some(path) = opts.optional("model") {
        let json = bundle.to_json().map_err(|e| e.to_string())?;
        write_file(path, &json)?;
        let _ = writeln!(out, "model written to {path}");
    }
    if let Some(path) = opts.optional("emit-c") {
        let src = codegen::to_c(&bundle.model, &dict, "rsm_model").map_err(|e| e.to_string())?;
        write_file(path, &src)?;
        let _ = writeln!(out, "C source written to {path}");
    }
    if let Some(path) = opts.optional("emit-veriloga") {
        let src =
            codegen::to_veriloga(&bundle.model, &dict, "rsm_model").map_err(|e| e.to_string())?;
        write_file(path, &src)?;
        let _ = writeln!(out, "Verilog-A source written to {path}");
    }
    Ok(out)
}

fn load_bundle(opts: &Options) -> Result<ModelBundle, String> {
    ModelBundle::from_json(&read_file(opts.required("model")?)?).map_err(|e| e.to_string())
}

fn cmd_predict(opts: &Options) -> Result<String, String> {
    let bundle = load_bundle(opts)?;
    let dict = bundle.dictionary().map_err(|e| e.to_string())?;
    let table =
        csv::Table::parse(&read_file(opts.required("input")?)?).map_err(|e| e.to_string())?;
    // A header selects the inputs by name; a headerless file holds
    // exactly the inputs, in the model's order.
    let inputs = if table.has_header {
        let idx: Vec<usize> = bundle
            .input_columns
            .iter()
            .map(|c| table.column_index(c).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        table.data.select_cols(&idx)
    } else {
        if table.data.cols() != bundle.input_columns.len() {
            return Err(format!(
                "expected {} input columns, found {}",
                bundle.input_columns.len(),
                table.data.cols()
            ));
        }
        table.data.clone()
    };
    // The one scoring code path: the same batch evaluator the serving
    // stack uses, so offline and served predictions are bit-identical.
    let pred = bundle
        .model
        .predict_batch(&dict, &inputs)
        .map_err(|e| e.to_string())?;
    let pred_matrix =
        rsm_linalg::Matrix::from_vec(pred.len(), 1, pred.clone()).map_err(|e| e.to_string())?;
    let text = csv::write_csv(&[format!("{}_pred", bundle.response)], &pred_matrix);
    if let Some(path) = opts.optional("output") {
        write_file(path, &text)?;
        Ok(format!("{} predictions written to {path}\n", pred.len()))
    } else {
        Ok(text)
    }
}

fn cmd_serve(opts: &Options) -> Result<String, String> {
    let bundle = load_bundle(opts)?;
    let engine = PredictEngine::new(bundle).map_err(|e| e.to_string())?;
    let max_conns = match opts.optional("max-conns") {
        Some(v) => Some(
            v.parse::<u64>()
                .map_err(|_| "--max-conns must be a non-negative integer".to_string())?,
        ),
        None => None,
    };
    let listen = opts.optional("listen");
    let unix = opts.optional("unix");
    let stdio = opts.boolean("stdio");
    let mode_count =
        usize::from(stdio) + usize::from(listen.is_some()) + usize::from(unix.is_some());
    if mode_count > 1 {
        return Err("--stdio, --listen, and --unix are mutually exclusive".to_string());
    }
    let stats: ServeStats = if let Some(addr) = listen {
        serve_tcp(&engine, addr, max_conns, |bound| {
            eprintln!("rsm serve: listening on {bound}");
        })
        .map_err(|e| format!("serve failed: {e}"))?
    } else if let Some(path) = unix {
        serve_unix_path(&engine, path, max_conns)?
    } else {
        // Default mode: frames over stdin/stdout, diagnostics on
        // stderr. Locked handles keep framing atomic.
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        let mut reader = stdin.lock();
        let mut writer = stdout.lock();
        rsm_serve::serve_stream(&engine, &mut reader, &mut writer)
            .map_err(|e| format!("serve failed: {e}"))?
    };
    eprintln!(
        "rsm serve: done — {} batches ({} points) answered, {} error frames",
        stats.batches_ok, stats.points, stats.errors
    );
    // Protocol frames own stdout; the summary above went to stderr.
    Ok(String::new())
}

#[cfg(unix)]
fn serve_unix_path(
    engine: &PredictEngine,
    path: &str,
    max_conns: Option<u64>,
) -> Result<ServeStats, String> {
    eprintln!("rsm serve: listening on unix socket {path}");
    rsm_serve::serve_unix(engine, std::path::Path::new(path), max_conns)
        .map_err(|e| format!("serve failed: {e}"))
}

#[cfg(not(unix))]
fn serve_unix_path(
    _engine: &PredictEngine,
    _path: &str,
    _max_conns: Option<u64>,
) -> Result<ServeStats, String> {
    Err("--unix is only supported on Unix platforms".to_string())
}

fn cmd_info(opts: &Options) -> Result<String, String> {
    let bundle = load_bundle(opts)?;
    let dict = bundle.dictionary().map_err(|e| e.to_string())?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "model: {} over {} basis ({} inputs, M = {}), method {}, λ = {}, train error {:.2}%",
        bundle.response,
        bundle.basis,
        bundle.input_columns.len(),
        dict.len(),
        bundle.method,
        bundle.lambda,
        bundle.train_error * 100.0
    );
    let (mean, var) = bundle.model.response_moments();
    let _ = writeln!(
        out,
        "response moments under N(0,I): mean {mean:.6e}, sigma {:.6e}",
        var.sqrt()
    );
    out.push_str(&bundle.model.describe(&dict));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsm_stats::NormalSampler;

    /// Builds a small sparse CSV dataset in a temp dir; returns
    /// (dir, csv_path).
    fn sample_csv(k: usize, seed: u64) -> (std::path::PathBuf, String) {
        let dir = std::env::temp_dir().join(format!("rsm_cli_test_{seed}_{k}"));
        std::fs::create_dir_all(&dir).unwrap();
        let mut rng = NormalSampler::seed_from_u64(seed);
        let mut text = String::from("x0,x1,x2,x3,x4,delay\n");
        for _ in 0..k {
            let x = rng.sample_vec(5);
            let y = 3.0 + 2.0 * x[1] - 1.5 * x[3] + 0.02 * rng.sample();
            let row: Vec<String> = x.iter().map(|v| format!("{v}")).collect();
            text.push_str(&format!("{},{y}\n", row.join(",")));
        }
        let path = dir.join("samples.csv");
        std::fs::write(&path, text).unwrap();
        (dir, path.to_string_lossy().into_owned())
    }

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn help_and_unknown_command() {
        assert!(run(&[]).unwrap().contains("USAGE"));
        assert!(run(&s(&["help"])).unwrap().contains("USAGE"));
        assert!(run(&s(&["frobnicate"])).is_err());
    }

    #[test]
    fn option_parsing_errors() {
        assert!(run(&s(&["fit", "--input"])).is_err()); // missing value
        assert!(run(&s(&["fit"])).is_err()); // missing required
        assert!(run(&s(&["fit", "--input", "a", "--input", "b"])).is_err()); // dup
    }

    #[test]
    fn fit_info_predict_roundtrip() {
        let (dir, csv_path) = sample_csv(120, 1);
        let model_path = dir.join("model.json").to_string_lossy().into_owned();
        let out = run(&s(&[
            "fit",
            "--input",
            &csv_path,
            "--response",
            "delay",
            "--method",
            "omp",
            "--lambda-max",
            "10",
            "--model",
            &model_path,
        ]))
        .unwrap();
        assert!(out.contains("fit OMP"), "{out}");
        assert!(out.contains("model written"), "{out}");

        let info = run(&s(&["info", "--model", &model_path])).unwrap();
        assert!(info.contains("method OMP"), "{info}");
        assert!(info.contains("x1") || info.contains("y1"), "{info}");

        // Predict on the training file and check accuracy inline.
        let pred_text = run(&s(&[
            "predict",
            "--model",
            &model_path,
            "--input",
            &csv_path,
        ]))
        .unwrap();
        let pred = csv::Table::parse(&pred_text).unwrap();
        let truth = csv::Table::parse(&std::fs::read_to_string(&csv_path).unwrap()).unwrap();
        let y = truth.data.col(5);
        let e = relative_error(&pred.data.col(0), &y);
        assert!(e < 0.05, "prediction error {e}");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn omp_fit_does_not_depend_on_the_inputs_units() {
        // The same samples with the inputs in base units and ×1e-15
        // (farads, say): OMP's stop test must scale with the columns,
        // so both reach the same λ and the same fit.
        let dir = std::env::temp_dir().join(format!("rsm_cli_units_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut rng = NormalSampler::seed_from_u64(21);
        let rows: Vec<(Vec<f64>, f64)> = (0..80)
            .map(|_| {
                let c = rng.sample_vec(3);
                let y = 3.0 + 2.0 * c[0] - c[1] + 0.5 * c[2] + 0.01 * rng.sample();
                (c, y)
            })
            .collect();
        let mut summaries = Vec::new();
        for (tag, unit) in [("base", 1.0), ("femto", 1e-15)] {
            let mut text = String::from("c1,c2,c3,y\n");
            for (c, y) in &rows {
                let (a, b, d) = (c[0] * unit, c[1] * unit, c[2] * unit);
                text.push_str(&format!("{a},{b},{d},{y}\n"));
            }
            let path = dir.join(format!("{tag}.csv"));
            std::fs::write(&path, text).unwrap();
            let out = run(&s(&[
                "fit",
                "--input",
                path.to_str().unwrap(),
                "--response",
                "y",
                "--method",
                "omp",
                "--lambda",
                "4",
            ]))
            .unwrap();
            summaries.push(out.lines().next().unwrap().to_string());
        }
        assert!(summaries[0].contains("λ = 4,"), "{}", summaries[0]);
        assert_eq!(summaries[1], summaries[0]);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn threads_flag_is_accepted_and_does_not_change_the_model() {
        let (dir, csv_path) = sample_csv(100, 6);
        let m1 = dir.join("m1.json").to_string_lossy().into_owned();
        let m2 = dir.join("m2.json").to_string_lossy().into_owned();
        for (threads, path) in [("1", &m1), ("4", &m2)] {
            run(&s(&[
                "fit",
                "--input",
                &csv_path,
                "--response",
                "delay",
                "--lambda-max",
                "8",
                "--threads",
                threads,
                "--model",
                path,
            ]))
            .unwrap();
        }
        rsm_runtime::set_threads(0);
        let j1 = std::fs::read_to_string(&m1).unwrap();
        let j2 = std::fs::read_to_string(&m2).unwrap();
        assert_eq!(j1, j2, "model must be thread-count-invariant");
        assert!(run(&s(&["fit", "--threads", "0"])).is_err());
        assert!(run(&s(&["fit", "--threads", "x"])).is_err());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn implicit_fit_matches_dense_fit() {
        // `rsm fit` streams the dictionary; an in-process fit on the
        // materialized design matrix must pick the same λ and support,
        // with coefficients equal to 1e-9 relative.
        let (dir, csv_path) = sample_csv(110, 8);
        let model = dir.join("m.json").to_string_lossy().into_owned();
        let args = s(&[
            "fit",
            "--input",
            &csv_path,
            "--response",
            "delay",
            "--method",
            "lar",
            "--basis",
            "quadratic",
            "--lambda-max",
            "8",
            "--model",
            &model,
        ]);
        let out = run(&args).unwrap();
        assert!(out.contains("fit LAR"), "{out}");
        let streamed = ModelBundle::from_json(&std::fs::read_to_string(&model).unwrap()).unwrap();

        let table = csv::Table::parse(&std::fs::read_to_string(&csv_path).unwrap()).unwrap();
        let (inputs, f) = table.split_response("delay").unwrap();
        let g = Dictionary::new(inputs.cols(), DictionaryKind::Quadratic).design_matrix(&inputs);
        let order = ModelOrder::CrossValidated(CvConfig::new(8));
        let dense = solver::fit(&g, &f, Method::Lar, &order).unwrap();
        assert_eq!(streamed.lambda, dense.lambda);
        assert_eq!(streamed.model.support(), dense.model.support());
        for (&(ja, ca), &(jb, cb)) in dense
            .model
            .coefficients()
            .iter()
            .zip(streamed.model.coefficients())
        {
            assert_eq!(ja, jb);
            assert!((ca - cb).abs() < 1e-9 * (1.0 + ca.abs()), "{ca} vs {cb}");
        }

        // There is no dense path to select.
        let err = run(&[args, s(&["--implicit"])].concat()).unwrap_err();
        assert!(err.contains("unknown option --implicit"), "{err}");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn fit_emits_c_and_veriloga() {
        let (dir, csv_path) = sample_csv(80, 2);
        let c_path = dir.join("m.c").to_string_lossy().into_owned();
        let va_path = dir.join("m.va").to_string_lossy().into_owned();
        run(&s(&[
            "fit",
            "--input",
            &csv_path,
            "--response",
            "delay",
            "--lambda",
            "3",
            "--emit-c",
            &c_path,
            "--emit-veriloga",
            &va_path,
        ]))
        .unwrap();
        let c_src = std::fs::read_to_string(&c_path).unwrap();
        assert!(c_src.contains("double rsm_model(const double *dy)"));
        let va_src = std::fs::read_to_string(&va_path).unwrap();
        assert!(va_src.contains("analog function real rsm_model"));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn fit_ls_requires_enough_samples() {
        let (dir, csv_path) = sample_csv(4, 3); // K = 4 < M = 6
        let err = run(&s(&[
            "fit",
            "--input",
            &csv_path,
            "--response",
            "delay",
            "--method",
            "ls",
        ]))
        .unwrap_err();
        assert!(err.contains("K >= M"), "{err}");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn quadratic_basis_fit() {
        let (dir, csv_path) = sample_csv(150, 4);
        let out = run(&s(&[
            "fit",
            "--input",
            &csv_path,
            "--response",
            "delay",
            "--basis",
            "quadratic",
            "--lambda-max",
            "12",
        ]))
        .unwrap();
        assert!(
            out.contains("M = 21 bases") || out.contains("M = 21"),
            "{out}"
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn serve_argument_validation() {
        // Missing model.
        assert!(run(&s(&["serve"]))
            .unwrap_err()
            .contains("missing required option --model"));
        // Mutually exclusive transports.
        let (dir, csv_path) = sample_csv(60, 11);
        let model = dir.join("m.json").to_string_lossy().into_owned();
        run(&s(&[
            "fit",
            "--input",
            &csv_path,
            "--response",
            "delay",
            "--lambda",
            "2",
            "--model",
            &model,
        ]))
        .unwrap();
        let err = run(&s(&[
            "serve",
            "--model",
            &model,
            "--stdio",
            "--listen",
            "127.0.0.1:0",
        ]))
        .unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
        let err = run(&s(&[
            "serve",
            "--model",
            &model,
            "--listen",
            "127.0.0.1:0",
            "--unix",
            "/tmp/x.sock",
        ]))
        .unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
        // Bad --max-conns.
        let err = run(&s(&[
            "serve",
            "--model",
            &model,
            "--listen",
            "127.0.0.1:0",
            "--max-conns",
            "lots",
        ]))
        .unwrap_err();
        assert!(err.contains("--max-conns"), "{err}");
        // A corrupt bundle is rejected before any socket is bound.
        let bad = dir.join("bad.json").to_string_lossy().into_owned();
        std::fs::write(&bad, "{\"not\": \"a bundle\"}").unwrap();
        assert!(run(&s(&["serve", "--model", &bad, "--stdio"])).is_err());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn serve_over_tcp_matches_predict_point() {
        // Fit a model through the CLI, serve it over TCP in a thread
        // (max-conns 1 makes the loop joinable), and compare the wire
        // predictions bit-for-bit with the in-process evaluator.
        let (dir, csv_path) = sample_csv(100, 12);
        let model = dir.join("m.json").to_string_lossy().into_owned();
        run(&s(&[
            "fit",
            "--input",
            &csv_path,
            "--response",
            "delay",
            "--basis",
            "quadratic",
            "--lambda",
            "4",
            "--model",
            &model,
        ]))
        .unwrap();
        let bundle = ModelBundle::from_json(&std::fs::read_to_string(&model).unwrap()).unwrap();
        let dict = bundle.dictionary().unwrap();
        let engine = rsm_serve::PredictEngine::new(bundle.clone()).unwrap();

        let (tx, rx) = std::sync::mpsc::channel();
        let server = std::thread::spawn(move || {
            rsm_serve::serve_tcp(&engine, "127.0.0.1:0", Some(1), |addr| {
                tx.send(addr).unwrap();
            })
            .unwrap();
        });
        let addr = rx.recv().unwrap();
        let mut client = rsm_serve::Client::new(std::net::TcpStream::connect(addr).unwrap());
        let points = [0.5, -0.25, 1.0, 0.75, 2.0, -1.5, 0.0, 0.125, -0.5, 1.25];
        let values = client.predict(5, &points).unwrap();
        drop(client);
        server.join().unwrap();
        assert_eq!(values.len(), 2);
        for (i, v) in values.iter().enumerate() {
            let expect = bundle
                .model
                .predict_point(&dict, &points[i * 5..(i + 1) * 5]);
            assert_eq!(v.to_bits(), expect.to_bits(), "point {i}");
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn bad_inputs_are_reported() {
        assert!(run(&s(&[
            "fit",
            "--input",
            "/nonexistent.csv",
            "--response",
            "y"
        ]))
        .unwrap_err()
        .contains("cannot read"));
        let (dir, csv_path) = sample_csv(20, 5);
        assert!(
            run(&s(&["fit", "--input", &csv_path, "--response", "nope"]))
                .unwrap_err()
                .contains("no column")
        );
        assert!(run(&s(&[
            "fit",
            "--input",
            &csv_path,
            "--response",
            "delay",
            "--method",
            "magic"
        ]))
        .unwrap_err()
        .contains("unknown method"));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn lambda_past_every_path_is_capped_at_the_path() {
        // M = 6 linear bases, so no path has more than 6 steps. A λ
        // range of 10¹² costs only what the fold paths reach and writes
        // the model of `--lambda-max 6`; a fixed λ = 1000 reports the λ
        // it used.
        let (dir, csv_path) = sample_csv(40, 13);
        let model = |tag: &str| dir.join(tag).to_string_lossy().into_owned();
        let base = &["fit", "--input", &csv_path, "--response", "delay"];
        let fit =
            |extra: &[&str]| run(&s(&[&base[..], &["--method", "lar"], extra].concat())).unwrap();
        let (wide, cut, fixed) = (model("wide.json"), model("cut.json"), model("fixed.json"));
        fit(&["--lambda-max", "1000000000000", "--model", &wide]);
        fit(&["--lambda-max", "6", "--model", &cut]);
        assert_eq!(std::fs::read(&wide).unwrap(), std::fs::read(&cut).unwrap());
        let out = fit(&["--lambda", "1000", "--model", &fixed]);
        assert!(out.contains("λ = 6, 6 non-zeros"), "{out}");
        let info = run(&s(&["info", "--model", &fixed])).unwrap();
        assert!(info.contains("method LAR, λ = 6,"), "{info}");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn unknown_options_are_rejected_per_subcommand() {
        let (dir, csv_path) = sample_csv(30, 10);
        let base = &["fit", "--input", &csv_path, "--response", "delay"];
        // A misspelt --lambda must not silently cross-validate.
        let err = run(&s(&[&base[..], &["--lamda", "5"]].concat())).unwrap_err();
        assert!(
            err.contains("unknown option --lamda for 'rsm fit'"),
            "{err}"
        );
        // --stream is rejected the same way: no subcommand reads it.
        let err = run(&s(&[&base[..], &["--stream", "32"]].concat())).unwrap_err();
        assert!(err.contains("unknown option --stream"), "{err}");
        // Options are checked per subcommand, --threads everywhere.
        let err = run(&s(&["info", "--model", "m.json", "--lambda", "3"])).unwrap_err();
        assert!(
            err.contains("unknown option --lambda for 'rsm info'"),
            "{err}"
        );
        let err = run(&s(&[
            "info",
            "--model",
            "/nonexistent.json",
            "--threads",
            "2",
        ]))
        .unwrap_err();
        rsm_runtime::set_threads(0);
        assert!(err.contains("cannot read"), "{err}");
        // Stray positional arguments are rejected too.
        let err = run(&s(&[&base[..], &["extra"]].concat())).unwrap_err();
        assert!(err.contains("unexpected argument 'extra'"), "{err}");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn early_stop_is_a_cross_validation_option() {
        let (dir, csv_path) = sample_csv(100, 9);
        let base = &[
            "fit",
            "--input",
            &csv_path,
            "--response",
            "delay",
            "--early-stop",
        ];
        let err = run(&s(&[&base[..], &["--lambda", "3"]].concat())).unwrap_err();
        assert!(err.contains("cannot be combined with --lambda"), "{err}");
        let out = run(&s(&[&base[..], &["--lambda-max", "20"]].concat())).unwrap();
        assert!(out.contains("cross-validation: best λ"), "{out}");
        assert!(out.contains("λ explored"), "{out}");
        std::fs::remove_dir_all(dir).ok();
    }
}
