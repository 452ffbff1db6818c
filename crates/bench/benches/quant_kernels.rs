//! The Sec. 3.2 claim that quantization overhead is small relative to the
//! comm it saves, as the `codec_vs_fp32` ratio gate in
//! `results/baseline/tolerances.json` reads it: 2-bit encoding of a
//! 1024 x 64 message block against serializing the same block as fp32.
//! The codec's per-width encode and decode rates are the harness's
//! `quant.*` probes.

use criterion::{criterion_group, criterion_main, Criterion};
use quant::{encode_block, BitWidth};
use tensor::{Matrix, Rng};

fn bench_wire_ratio(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec_vs_fp32");
    let dim = 64;
    let rows = 1024;
    let msgs = Matrix::from_fn(rows, dim, |i, j| ((i + j) as f32).cos());
    group.bench_function("fp32_serialize", |b| {
        b.iter(|| {
            let mut raw = Vec::with_capacity(rows * dim * 4);
            for v in msgs.as_slice() {
                raw.extend_from_slice(&v.to_le_bytes());
            }
            raw
        });
    });
    group.bench_function("quantize_2bit", |b| {
        let mut rng = Rng::seed_from(3);
        let widths = vec![BitWidth::B2; rows];
        b.iter(|| encode_block(&msgs, &widths, &mut rng));
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_wire_ratio
}
criterion_main!(benches);
