//! Microbenchmarks of the real compression kernels: the quantities behind
//! the calibrated timing model of `espresso-gc` (and Figure 10's
//! compression-time axis).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use espresso_gc::{Accumulate, CompressCtx, ErrorFeedback, GcAlgorithm};
use std::hint::black_box;

fn gradient(n: usize) -> Vec<f32> {
    (0..n).map(|i| ((i as f32) * 0.37).sin()).collect()
}

fn bench_compress(c: &mut Criterion) {
    let mut group = c.benchmark_group("compress");
    for algo in [
        GcAlgorithm::randomk_1pct(),
        GcAlgorithm::dgc_1pct(),
        GcAlgorithm::EfSignSgd,
        GcAlgorithm::Qsgd { levels: 127 },
        GcAlgorithm::TernGrad,
        GcAlgorithm::Fp16,
    ] {
        let comp = algo.build();
        let grad = gradient(1 << 18);
        group.throughput(Throughput::Elements(grad.len() as u64));
        group.bench_function(algo.name(), |b| {
            b.iter(|| black_box(comp.compress(black_box(&grad), CompressCtx::default())))
        });
    }
    group.finish();
}

fn bench_roundtrip(c: &mut Criterion) {
    let mut group = c.benchmark_group("roundtrip");
    for algo in [
        GcAlgorithm::dgc_1pct(),
        GcAlgorithm::EfSignSgd,
        GcAlgorithm::Fp16,
    ] {
        let comp = algo.build();
        let grad = gradient(1 << 16);
        let compressed = comp.compress(&grad, CompressCtx::default());
        group.throughput(Throughput::Elements(grad.len() as u64));
        group.bench_function(algo.name(), |b| {
            b.iter(|| black_box(comp.decompress(black_box(&compressed))))
        });
    }
    group.finish();
}

/// One error-feedback round (compensate, compress, subtract the
/// reconstruction in place) and one aggregation step (add a decompressed
/// tensor into a running sum) — the two kernels a training step runs per
/// worker and tensor.
fn bench_feedback(c: &mut Criterion) {
    let mut group = c.benchmark_group("feedback");
    for algo in [
        GcAlgorithm::dgc_1pct(),
        GcAlgorithm::EfSignSgd,
        GcAlgorithm::Fp16,
    ] {
        let comp = algo.build();
        let grad = gradient(1 << 18);
        group.throughput(Throughput::Elements(grad.len() as u64));
        let mut ef = ErrorFeedback::new(grad.len());
        group.bench_function(&format!("{}/compress_with_feedback", algo.name()), |b| {
            b.iter(|| {
                black_box(ef.compress_with_feedback(
                    comp.as_ref(),
                    black_box(&grad),
                    CompressCtx::default(),
                ))
            })
        });
        let compressed = comp.compress(&grad, CompressCtx::default());
        let mut sum = vec![0.0f32; grad.len()];
        group.bench_function(&format!("{}/accumulate_into", algo.name()), |b| {
            b.iter(|| comp.accumulate_into(black_box(&compressed), &mut sum, Accumulate::Add))
        });
        black_box(&sum);
    }
    group.finish();
}

criterion_group!(benches, bench_compress, bench_roundtrip, bench_feedback);
criterion_main!(benches);
