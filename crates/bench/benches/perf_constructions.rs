//! Criterion benches for enrollment and reconstruction of every
//! construction — the device-side cost the attacks amortize over
//! thousands of queries — and for `Device::respond`, whose prepared
//! helper is reused while the helper bytes stay the same and rebuilt
//! when a write changes them.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use ropuf_constructions::cooperative::{CooperativeConfig, CooperativeScheme};
use ropuf_constructions::fuzzy::{FuzzyConfig, FuzzyExtractorScheme};
use ropuf_constructions::group::{GroupBasedConfig, GroupBasedScheme};
use ropuf_constructions::pairing::distilled::{DistilledConfig, DistilledPairingScheme};
use ropuf_constructions::pairing::lisa::{LisaConfig, LisaScheme};
use ropuf_constructions::{Device, HelperDataScheme};
use ropuf_sim::{ArrayDims, Environment, RoArray, RoArrayBuilder};
use std::hint::black_box;

fn bench_schemes(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let array = RoArrayBuilder::new(ArrayDims::new(16, 8)).build(&mut rng);
    let schemes: Vec<Box<dyn HelperDataScheme>> = vec![
        Box::new(LisaScheme::new(LisaConfig::default())),
        Box::new(GroupBasedScheme::new(GroupBasedConfig::default())),
        Box::new(CooperativeScheme::new(CooperativeConfig::default())),
        Box::new(DistilledPairingScheme::new(DistilledConfig::default())),
        Box::new(FuzzyExtractorScheme::new(FuzzyConfig::default())),
    ];
    for scheme in &schemes {
        c.bench_function(&format!("enroll_{}", scheme.name()), |b| {
            b.iter(|| {
                let mut r = StdRng::seed_from_u64(4);
                black_box(scheme.enroll(black_box(&array), &mut r).unwrap())
            })
        });
        let mut r = StdRng::seed_from_u64(5);
        let e = scheme.enroll(&array, &mut r).unwrap();
        c.bench_function(&format!("reconstruct_{}", scheme.name()), |b| {
            b.iter(|| {
                let mut r = StdRng::seed_from_u64(6);
                black_box(
                    scheme
                        .reconstruct(black_box(&array), &e.helper, Environment::nominal(), &mut r)
                        .unwrap(),
                )
            })
        });
        bench_respond(c, scheme.as_ref(), &array);
    }
}

/// `Device::respond` under an unchanged helper (the prepared form is
/// reused) and under a helper rewritten before every query (it is
/// rebuilt each time). The rewrite alternates the genuine helper with a
/// copy whose first bit of the last parity byte is flipped: one extra
/// error, corrected, so both answer with a tag.
fn bench_respond(c: &mut Criterion, scheme: &dyn HelperDataScheme, array: &RoArray) {
    let mut device = Device::provision(array.clone(), scheme.clone_box(), 7).unwrap();
    let genuine = device.helper().to_vec();
    let mut flipped = genuine.clone();
    // The fuzzy-extractor helper ends with its auth-tag length byte;
    // every other helper ends with its parity.
    let trailer = usize::from(scheme.name() == "fuzzy-extractor");
    flipped[genuine.len() - 1 - trailer] ^= 1;
    let env = Environment::nominal();
    assert!(!device.respond(b"n", env).is_failure());
    device.set_helper(&flipped);
    assert!(!device.respond(b"n", env).is_failure());
    device.set_helper(&genuine);
    c.bench_function(&format!("respond_same_helper_{}", scheme.name()), |b| {
        b.iter(|| black_box(device.respond(black_box(b"nonce"), env)))
    });
    let mut flip = false;
    c.bench_function(
        &format!("respond_rewritten_helper_{}", scheme.name()),
        |b| {
            b.iter(|| {
                flip = !flip;
                device.set_helper(if flip { &flipped } else { &genuine });
                black_box(device.respond(black_box(b"nonce"), env))
            })
        },
    );
}

criterion_group!(benches, bench_schemes);
criterion_main!(benches);
