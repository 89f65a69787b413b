//! Micro-benchmarks of the substrates: binomial/model evaluation, the
//! discrete and continuous simulators, and the RNG. Run with
//! `cargo bench -p nds-bench --bench substrate`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nds_cluster::continuous::ContinuousWorkstation;
use nds_cluster::discrete::DiscreteTaskSim;
use nds_cluster::owner::OwnerWorkload;
use nds_model::binomial::Binomial;
use nds_model::expectation::expected_job_time_int;
use nds_model::params::OwnerParams;
use nds_stats::rng::Xoshiro256StarStar;
use std::hint::black_box;

fn binomial_construction(c: &mut Criterion) {
    let mut g = c.benchmark_group("binomial_pmf");
    for t in [100u64, 1_000, 10_000, 100_000] {
        g.bench_with_input(BenchmarkId::from_parameter(t), &t, |b, &t| {
            b.iter(|| black_box(Binomial::new(t, 1.0 / 90.0)))
        });
    }
    g.finish();
}

fn model_evaluation(c: &mut Criterion) {
    let owner = OwnerParams::from_utilization(10.0, 0.10).unwrap();
    let mut g = c.benchmark_group("expected_job_time");
    for (t, w) in [(100u64, 10u32), (1_000, 100), (10_000, 100)] {
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("t{t}_w{w}")),
            &(t, w),
            |b, &(t, w)| b.iter(|| black_box(expected_job_time_int(t, w, owner))),
        );
    }
    g.finish();
}

fn discrete_sim(c: &mut Criterion) {
    let sim = DiscreteTaskSim::paper(10_000, 1.0 / 90.0, 10.0);
    c.bench_function("discrete_task_t10000", |b| {
        let mut rng = Xoshiro256StarStar::new(1);
        b.iter(|| black_box(sim.run_task(&mut rng)))
    });
}

fn continuous_sim(c: &mut Criterion) {
    let ws = ContinuousWorkstation::new(OwnerWorkload::continuous_exponential(10.0, 0.10).unwrap());
    c.bench_function("continuous_task_t1000_u10", |b| {
        let mut rng = Xoshiro256StarStar::new(1);
        b.iter(|| black_box(ws.run_task(1000.0, &mut rng)))
    });
}

fn rng_throughput(c: &mut Criterion) {
    c.bench_function("xoshiro_next_f64_1k", |b| {
        let mut rng = Xoshiro256StarStar::new(42);
        b.iter(|| {
            let mut acc = 0.0;
            for _ in 0..1000 {
                acc += rng.next_f64();
            }
            black_box(acc)
        })
    });
}

criterion_group!(
    name = substrate;
    config = Criterion::default().sample_size(20);
    targets = binomial_construction,
    model_evaluation,
    discrete_sim,
    continuous_sim,
    rng_throughput
);
criterion_main!(substrate);
