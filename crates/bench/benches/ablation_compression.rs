//! Ablation bench: how the compression strategy used for the per-iteration
//! Gram caches (none / exact truncated / randomized truncated) affects the
//! PrIU update time on a dataset with a medium feature space (the Heartbeat
//! analogue). The strategies are documented on `Compression` in
//! `crates/core/src/config.rs`.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use priu_core::engine::{DeletionEngine, Method, SessionBuilder};
use priu_core::{Compression, TrainerConfig};
use priu_data::catalog::DatasetCatalog;
use priu_data::dirty::inject_dirty_samples;

fn bench_compression(c: &mut Criterion) {
    let mut spec = DatasetCatalog::heartbeat().scaled(0.04);
    // Keep the mini-batch small so the *exact* truncation (whose kernel is a
    // B x B eigendecomposition) stays cheap enough for a micro-bench.
    spec.hyper.batch_size = 96;
    let train = spec.generate().as_dense().unwrap().split(0.9, 7).train;
    let injection = inject_dirty_samples(&train, 0.01, 10.0, 7);
    let removed = injection.dirty_indices.clone();

    let strategies = [
        ("dense", Compression::None),
        ("exact_r16", Compression::Exact { rank: 16 }),
        (
            "randomized_r16",
            Compression::Randomized {
                rank: 16,
                oversample: 8,
            },
        ),
    ];

    let mut group = c.benchmark_group("ablation_compression_priu_update");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(3));

    for (label, compression) in strategies {
        let session = SessionBuilder::dense(
            injection.dirty_dataset.clone(),
            TrainerConfig::from_hyper(spec.hyper).with_seed(7),
        )
        .compression(compression)
        .opt_capture(false)
        .fit()
        .expect("training failed");
        group.bench_with_input(BenchmarkId::new("PrIU", label), &removed, |b, r| {
            b.iter(|| session.update(Method::Priu, r).unwrap().model)
        });
    }
    group.finish();
}

criterion_group!(benches, bench_compression);
criterion_main!(benches);
