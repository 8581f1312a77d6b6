//! Text codec bench: `encode_text` and `decode_text` on an n=1280 matrix,
//! the order of the `invert_1280` benchmark workload, reported as
//! throughput in MB/s of encoded text.
//!
//! Besides the criterion groups, the bench checks the round trip bit for
//! bit and prints best-of-3 wall-clock throughput for each direction.
//! `-- --test` (quick mode, as CI runs it) takes the minimum number of
//! criterion samples.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mrinv_bench::micro::best3;
use mrinv_matrix::io::{decode_text, encode_text};
use mrinv_matrix::random::random_matrix;
use std::hint::black_box;

/// Matrix order of the `invert_1280` workload.
const ORDER: usize = 1280;

fn bench_text_codec(c: &mut Criterion) {
    let quick = std::env::args().any(|a| a == "--test");
    let m = random_matrix(ORDER, ORDER, 1);
    let text = encode_text(&m);
    let back = decode_text(&text).expect("decode the encoded matrix");
    assert!(
        back.as_slice()
            .iter()
            .zip(m.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits()),
        "text round trip must be bit exact"
    );

    let mut group = c.benchmark_group("text_codec");
    group.sample_size(if quick { 2 } else { 10 });
    group.bench_function(BenchmarkId::new("encode", ORDER), |b| {
        b.iter(|| encode_text(black_box(&m)))
    });
    group.bench_function(BenchmarkId::new("decode", ORDER), |b| {
        b.iter(|| decode_text(black_box(&text)).unwrap())
    });
    group.finish();

    let mb = text.len() as f64 / 1e6;
    let encode_s = best3(|| {
        black_box(encode_text(black_box(&m)));
    });
    let decode_s = best3(|| {
        black_box(decode_text(black_box(&text)).unwrap());
    });
    println!(
        "text codec at n={ORDER} ({mb:.1} MB, {} threads): encode {:.0} MB/s, decode {:.0} MB/s",
        rayon::current_num_threads(),
        mb / encode_s,
        mb / decode_s
    );
}

criterion_group!(benches, bench_text_codec);
criterion_main!(benches);
