//! `perf` — the end-to-end and per-layer performance benchmark of the
//! sparse-rsm solvers and model server (see `README.md` beside this
//! package).
//!
//! ```text
//! perf --workload W --seed S [--seconds T] [--trace 0|1] [--trace-out FILE]
//!      [--threads N] [--smoke]
//! perf --all --seed S --repeat R [--seconds T] [--trace 0|1] [--threads N] [--smoke]
//! ```
//!
//! One run prints every metric as `name value unit`, then the model
//! digest, then one JSON line with `correct`, `attempted`, `failed` and
//! `metrics`. It exits 1 when a check fails and 2 on a usage error.

mod fit;
mod report;
mod serve;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::Arc;
use trace::Tracer;

/// Workload names, in the order `--all` runs them on even repeats.
pub const WORKLOADS: [&str; 5] = [
    "path-1m",
    "cv-100k",
    "dense-wide",
    "serve-bulk",
    "serve-small",
];

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

const USAGE: &str = "usage: perf --workload W --seed S [--seconds T] [--trace 0|1] \
[--trace-out FILE] [--threads N] [--smoke]\n       perf --all --seed S --repeat R \
[--seconds T] [--trace 0|1] [--threads N] [--smoke]";

/// What a workload needs to know about the run.
#[derive(Debug)]
pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: Option<Arc<Tracer>>,
}

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    all: bool,
    repeat: usize,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
    threads: Option<usize>,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        seconds: 20.0,
        ..Args::default()
    };
    let mut seed = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        let bad = |v: &str| format!("bad value {v:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w:?}; one of {WORKLOADS:?}"));
                }
                a.workload = Some(w);
            }
            "--seed" => {
                let v = value()?;
                seed = Some(v.parse().map_err(|_| bad(&v))?);
            }
            "--seconds" => {
                let v = value()?;
                a.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad(&v))?;
            }
            "--trace" => {
                let v = value()?;
                a.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&v)),
                };
            }
            "--trace-out" => a.trace_out = Some(PathBuf::from(value()?)),
            "--threads" => {
                let v = value()?;
                a.threads = Some(v.parse().ok().filter(|&n| n > 0).ok_or_else(|| bad(&v))?);
            }
            "--repeat" => {
                let v = value()?;
                a.repeat = v.parse().ok().filter(|&n| n > 0).ok_or_else(|| bad(&v))?;
            }
            "--smoke" => a.smoke = true,
            "--all" => a.all = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    a.seed = seed.ok_or("--seed is required")?;
    match (&a.workload, a.all) {
        (Some(_), false) if a.repeat == 0 => {}
        (None, true) if a.repeat > 0 => {}
        _ => return Err("give either --workload, or --all with --repeat".to_string()),
    }
    if a.trace_out.is_some() && !a.trace {
        return Err("--trace-out needs --trace 1".to_string());
    }
    Ok(a)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Some(n) = args.threads {
        rsm_runtime::set_threads(n);
    }
    let code = if args.all {
        repeat(&args)
    } else {
        run_one(&args)
    };
    std::process::exit(code);
}

fn run_one(args: &Args) -> i32 {
    let name = args.workload.as_deref().unwrap_or_default();
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace.then(|| Arc::new(Tracer::new())),
    };
    println!("workload {name}");
    println!("seed {}", args.seed);
    println!("threads {}", rsm_runtime::threads());
    println!("nproc {}", nproc());
    let mut outcome = if let Some(spec) = fit::spec(name, args.smoke) {
        fit::run(&spec, &cfg)
    } else if let Some(spec) = serve::spec(name, args.smoke) {
        serve::run(&spec, &cfg)
    } else {
        unreachable!("parse_args accepts only known workloads")
    };
    if let (Some(t), Some(path)) = (&cfg.trace, &args.trace_out) {
        if let Err(e) = t.write_chrome(path) {
            outcome.fail(format!("cannot write {}: {e}", path.display()));
        }
    }
    let schema: &[(&str, &str)] = if args.trace {
        &report::PER_LAYER
    } else {
        &report::END_TO_END
    };
    report::print(&outcome, schema);
    if outcome.correct() {
        0
    } else {
        1
    }
}

/// `--all --repeat R`: one child process per (workload, run), seeds
/// `S, S+1, …`, workload order reversed on every other run; prints the
/// median and quartiles of every metric.
fn repeat(args: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perf: cannot find own executable: {e}");
            return 1;
        }
    };
    let mut code = 0;
    let mut values: BTreeMap<(usize, String), (String, Vec<f64>)> = BTreeMap::new();
    let mut wall: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for r in 0..args.repeat {
        let seed = args.seed.wrapping_add(r as u64);
        let mut order: Vec<usize> = (0..WORKLOADS.len()).collect();
        if r % 2 == 1 {
            order.reverse();
        }
        for w in order {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", WORKLOADS[w], "--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .stderr(Stdio::inherit());
            if let Some(n) = args.threads {
                cmd.args(["--threads", &n.to_string()]);
            }
            if args.smoke {
                cmd.arg("--smoke");
            }
            let t0 = std::time::Instant::now();
            let output = cmd.output();
            wall.entry(w).or_default().push(t0.elapsed().as_secs_f64());
            let parsed = output.ok().filter(|o| o.status.success()).and_then(|o| {
                let text = String::from_utf8_lossy(&o.stdout).into_owned();
                let line = text.lines().last()?.to_string();
                serde_json::parse(&line).ok()
            });
            let Some(serde::Value::Obj(metrics)) = parsed.as_ref().and_then(|v| v.get("metrics"))
            else {
                eprintln!("perf: run {r} of {} failed", WORKLOADS[w]);
                code = 1;
                continue;
            };
            for (name, m) in metrics {
                if let (Some(serde::Value::Num(v)), Some(serde::Value::Str(unit))) =
                    (m.get("value"), m.get("unit"))
                {
                    let entry = values
                        .entry((w, name.clone()))
                        .or_insert_with(|| (unit.clone(), Vec::new()));
                    entry.1.push(*v);
                }
            }
        }
    }
    println!(
        "nproc {} threads {} runs {} seconds {} seeds {}..={}",
        nproc(),
        rsm_runtime::threads(),
        args.repeat,
        args.seconds,
        args.seed,
        args.seed.wrapping_add(args.repeat as u64 - 1)
    );
    println!(
        "{:<12} {:<34} {:>6} {:>3} {:>14} {:>14} {:>14} {:>9}",
        "workload", "metric", "unit", "n", "median", "q1", "q3", "iqr/med"
    );
    for ((w, name), (unit, xs)) in &values {
        let (q1, q2, q3) = report::quartiles(xs).unwrap_or((xs[0], xs[0], xs[0]));
        println!(
            "{:<12} {:<34} {:>6} {:>3} {:>14.6} {:>14.6} {:>14.6} {:>9.4}",
            WORKLOADS[*w],
            name,
            unit,
            xs.len(),
            q2,
            q1,
            q3,
            (q3 - q1) / q2.abs()
        );
    }
    for (w, secs) in &wall {
        println!(
            "{:<12} run wall: median {:.1} s, max {:.1} s",
            WORKLOADS[*w],
            report::median(secs),
            secs.iter().copied().fold(0.0, f64::max)
        );
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&strings(&[
            "--workload",
            "cv-100k",
            "--seed",
            "3",
            "--seconds",
            "12",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("cv-100k"));
        assert_eq!((a.seed, a.seconds, a.trace), (3, 12.0, true));
        for bad in [
            &["--workload", "nope", "--seed", "1"][..],
            &["--workload", "cv-100k"],
            &["--workload", "cv-100k", "--seed", "1", "--trace", "2"],
            &["--all", "--seed", "1"],
            &[
                "--workload",
                "cv-100k",
                "--seed",
                "1",
                "--trace-out",
                "t.json",
            ],
            &["--workload", "cv-100k", "--seed", "1", "--threads", "0"],
        ] {
            assert!(parse_args(&strings(bad)).is_err(), "{bad:?}");
        }
    }

    /// `BENCHMARK.json` at the repository root names exactly the
    /// workloads and metrics this harness emits.
    #[test]
    fn benchmark_json_matches_the_harness() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = serde_json::parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<(String, String)> {
            let Some(serde::Value::Arr(items)) = json.get(key) else {
                panic!("{key} is not a list");
            };
            items
                .iter()
                .map(|item| {
                    let field = |f: &str| match item.get(f) {
                        Some(serde::Value::Str(s)) => s.clone(),
                        _ => String::new(),
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        let workloads: Vec<String> = list("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
        assert_eq!(list("end_to_end"), own(&report::END_TO_END));
        assert_eq!(list("per_layer"), own(&report::PER_LAYER));
    }

    /// Every workload at `--smoke` size reports every metric of both
    /// tables, passes its checks, and stays under two seconds.
    #[test]
    fn every_workload_reports_every_metric_at_smoke_size() {
        let _guard = fit::tests::THREADS
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        for name in WORKLOADS {
            for trace in [false, true] {
                let cfg = RunCfg {
                    seed: 11,
                    seconds: 0.0,
                    trace: trace.then(|| Arc::new(Tracer::new())),
                };
                let t0 = std::time::Instant::now();
                let out = match fit::spec(name, true) {
                    Some(spec) => fit::run(&spec, &cfg),
                    None => serve::run(&serve::spec(name, true).unwrap(), &cfg),
                };
                let secs = t0.elapsed().as_secs_f64();
                assert!(secs < 2.0, "{name} (trace {trace}) took {secs:.2} s");
                assert!(out.correct(), "{name} (trace {trace}): {:?}", out.problems);
                assert!(out.attempted > 0);
                let table: &[(&str, &str)] = if trace {
                    &report::PER_LAYER
                } else {
                    &report::END_TO_END
                };
                let names: Vec<&str> = out.metrics.iter().map(|&(n, _)| n).collect();
                let want: Vec<&str> = table.iter().map(|&(n, _)| n).collect();
                assert_eq!(names, want, "{name} (trace {trace})");
                for &(metric, v) in &out.metrics {
                    assert!(v.is_finite(), "{name}: {metric} = {v}");
                }
            }
        }
    }
}
