//! Criterion benches for the ECC substrate: BCH encode/decode and the
//! parity-helper correction path the attacks hammer.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ropuf_constructions::ecc_helper::ParityHelper;
use ropuf_ecc::{BchCode, BinaryCode};
use ropuf_numeric::BitVec;
use std::hint::black_box;

fn bench_bch(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    for (m, t) in [(5u32, 3usize), (7, 5)] {
        let code = BchCode::new(m, t).unwrap();
        let msg = BitVec::from_bools((0..code.k()).map(|_| rng.random()));
        let cw = code.encode(&msg);
        let mut noisy = cw.clone();
        for i in 0..t {
            noisy.flip(i * 3 + 1);
        }
        c.bench_function(&format!("bch_encode_n{}_t{t}", code.n()), |b| {
            b.iter(|| black_box(code.encode(black_box(&msg))))
        });
        c.bench_function(&format!("bch_decode_clean_n{}_t{t}", code.n()), |b| {
            b.iter(|| black_box(code.decode(black_box(&cw)).unwrap()))
        });
        c.bench_function(&format!("bch_decode_t_errors_n{}_t{t}", code.n()), |b| {
            b.iter(|| black_box(code.decode(black_box(&noisy)).unwrap()))
        });
    }
}

fn bench_parity_helper(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let ecc = ParityHelper::new(64, 3).unwrap();
    let reference = BitVec::from_bools((0..64).map(|_| rng.random()));
    let parity = ecc.parity(&reference);
    let mut noisy = reference.clone();
    noisy.flip(10);
    noisy.flip(40);
    c.bench_function("parity_helper_new_64b_t3", |b| {
        b.iter(|| black_box(ParityHelper::new(black_box(64), black_box(3)).unwrap()))
    });
    c.bench_function("parity_helper_correct_64b_2err", |b| {
        b.iter(|| black_box(ecc.correct(black_box(&noisy), black_box(&parity)).unwrap()))
    });
}

criterion_group!(benches, bench_bch, bench_parity_helper);
criterion_main!(benches);
