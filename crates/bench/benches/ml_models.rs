//! Micro-benchmarks for the from-scratch learners: fit and predict
//! throughput for M5P, linear regression and k-NN.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pamdc_ml::prelude::*;
use pamdc_simcore::rng::RngStream;
use std::hint::black_box;

fn make_dataset(n: usize, seed: u64) -> Dataset {
    let mut rng = RngStream::root(seed);
    let mut d = Dataset::with_features(&["a", "b", "c", "d", "e"]);
    for _ in 0..n {
        let row: Vec<f64> = (0..5).map(|_| rng.uniform_range(0.0, 10.0)).collect();
        let y = if row[0] < 5.0 {
            2.0 * row[0] + row[1]
        } else {
            30.0 - row[2]
        } + rng.normal(0.0, 0.3);
        d.push(&row, y);
    }
    d
}

fn bench(c: &mut Criterion) {
    let mut fit = c.benchmark_group("ml_fit");
    for n in [200usize, 1000, 4000] {
        let d = make_dataset(n, 1);
        fit.bench_with_input(BenchmarkId::new("m5p_m4", n), &d, |b, d| {
            b.iter(|| black_box(M5Tree::fit(d, M5Params::m4()).leaf_count()))
        });
        fit.bench_with_input(BenchmarkId::new("linreg", n), &d, |b, d| {
            b.iter(|| black_box(LinearRegression::fit(d).intercept()))
        });
        fit.bench_with_input(BenchmarkId::new("knn_fit", n), &d, |b, d| {
            b.iter(|| black_box(KnnRegressor::fit(d, 4).len()))
        });
    }
    fit.finish();

    let d = make_dataset(2000, 2);
    let tree = M5Tree::fit(&d, M5Params::m4());
    let knn = KnnRegressor::fit(&d, 4);
    let lin = LinearRegression::fit(&d);
    let q = vec![3.0, 4.0, 5.0, 6.0, 7.0];
    let mut pred = c.benchmark_group("ml_predict");
    pred.bench_function("m5p", |b| b.iter(|| black_box(tree.predict(black_box(&q)))));
    pred.bench_function("knn_2000pts", |b| {
        b.iter(|| black_box(knn.predict(black_box(&q))))
    });
    pred.bench_function("linreg", |b| {
        b.iter(|| black_box(lin.predict(black_box(&q))))
    });
    pred.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
