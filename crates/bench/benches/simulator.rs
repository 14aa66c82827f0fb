//! Criterion benches of the circuit-simulation substrate: the
//! per-sample cost that dominates the paper's total modeling cost.

use criterion::{criterion_group, criterion_main, Criterion};
use rsm_circuits::{OpAmp, PerformanceCircuit, SramReadPath};
use rsm_spice::ac::{self, log_sweep};
use rsm_spice::dc;
use rsm_spice::netlist::Circuit;
use rsm_spice::tran::{self, Step};
use rsm_stats::NormalSampler;
use std::hint::black_box;

fn bench_opamp_sample(c: &mut Criterion) {
    let amp = OpAmp::new();
    let mut rng = NormalSampler::seed_from_u64(1);
    let dy = rng.sample_vec(amp.num_vars());
    c.bench_function("opamp_evaluate_630vars", |b| {
        b.iter(|| amp.evaluate(black_box(&dy)))
    });
}

fn bench_sram_sample(c: &mut Criterion) {
    let sram = SramReadPath::paper_scale();
    let mut rng = NormalSampler::seed_from_u64(2);
    let dy = rng.sample_vec(sram.num_vars());
    c.bench_function("sram_read_delay_21310vars", |b| {
        b.iter(|| sram.evaluate(black_box(&dy)))
    });
}

fn mos_divider() -> (Circuit, rsm_spice::netlist::VsourceId) {
    use rsm_spice::mosfet::MosParams;
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let inp = ckt.node("in");
    let out = ckt.node("out");
    ckt.vsource(vdd, Circuit::GROUND, 1.2);
    let vin = ckt.vsource_ac(inp, Circuit::GROUND, 0.6, 1.0);
    ckt.resistor(vdd, out, 20_000.0);
    ckt.capacitor(out, Circuit::GROUND, 1e-13);
    ckt.mosfet(
        out,
        inp,
        Circuit::GROUND,
        MosParams::nmos_65nm().scaled_width(5.0),
    );
    (ckt, vin)
}

fn bench_dc_newton(c: &mut Criterion) {
    let (ckt, _) = mos_divider();
    c.bench_function("dc_newton_small_amp", |b| {
        b.iter(|| dc::solve(black_box(&ckt)).unwrap())
    });
}

fn bench_ac_sweep(c: &mut Criterion) {
    let (ckt, _) = mos_divider();
    let op = dc::solve(&ckt).unwrap();
    let freqs = log_sweep(1e3, 1e9, 10);
    c.bench_function("ac_sweep_61pts", |b| {
        b.iter(|| ac::sweep(black_box(&ckt), black_box(&op), black_box(&freqs)).unwrap())
    });
}

fn bench_transient(c: &mut Criterion) {
    let (ckt, vin) = mos_divider();
    let stim = Step {
        v0: 0.0,
        v1: 1.2,
        t0: 1e-10,
        t_rise: 2e-11,
    };
    let mut group = c.benchmark_group("transient_1000_steps");
    group.sample_size(20);
    group.bench_function("trapezoidal", |b| {
        b.iter(|| tran::run(black_box(&ckt), 1e-12, 1e-9, &[(vin, stim)]).unwrap())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_opamp_sample,
    bench_sram_sample,
    bench_dc_newton,
    bench_ac_sweep,
    bench_transient
);
criterion_main!(benches);
