//! Prepared-helper reconstruction against the single-pass reference.
//!
//! Every scheme splits key reconstruction into `prepare` (helper-only
//! work, once per helper write) and `PreparedHelper::reconstruct` (the
//! per-query measurement). The references below are the single-pass
//! reconstructions that split replaced: parse, validate, measure,
//! correct and derive, all on every query, written against the public
//! API only. For genuine, bit-flipped, truncated, random and hostile
//! helpers, both must return the same `Result` and leave the RNG at the
//! same position — including when one prepared form answers several
//! queries in a row.

use std::cmp::Ordering;

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use ropuf_constructions::cooperative::{
    CooperativeConfig, CooperativeHelper, CooperativeScheme, PairEntry,
};
use ropuf_constructions::fuzzy::{FuzzyConfig, FuzzyExtractorScheme, FuzzyHelper};
use ropuf_constructions::group::packing::pack_order;
use ropuf_constructions::group::{GroupBasedConfig, GroupBasedHelper, GroupBasedScheme, Grouping};
use ropuf_constructions::pairing::distilled::{
    DistilledConfig, DistilledHelper, DistilledPairingScheme, PairSource,
};
use ropuf_constructions::pairing::lisa::{LisaConfig, LisaHelper, LisaScheme};
use ropuf_constructions::pairing::neighbor::{disjoint_chain_pairs, pair_bits};
use ropuf_constructions::wire::WireError;
use ropuf_constructions::{
    Device, DeviceResponse, HelperDataScheme, ParityHelper, ReconstructError, SanityPolicy,
};
use ropuf_hash::{hmac_sha256, sha256};
use ropuf_numeric::permutation::kendall_code_bits;
use ropuf_numeric::{BitVec, Permutation, Poly2d};
use ropuf_sim::{ArrayDims, Environment, RoArray, RoArrayBuilder};

type Outcome = Result<BitVec, ReconstructError>;

/// Single-pass reconstruction of one scheme configuration.
type Reference = Box<dyn Fn(&RoArray, &[u8], Environment, &mut dyn RngCore) -> Outcome>;

/// Copies of a helper with its real-valued fields (coefficients,
/// temperatures), one at a time, set to the given value.
type Poison = fn(&[u8], f64) -> Vec<Vec<u8>>;

struct Case {
    label: String,
    scheme: Box<dyn HelperDataScheme>,
    reference: Reference,
    dims: ArrayDims,
    /// `None` for schemes whose helpers carry no real-valued fields.
    poison: Option<Poison>,
}

fn ecc_failure<E>(_: E) -> ReconstructError {
    ReconstructError::EccFailure
}

fn lisa_reference(config: LisaConfig) -> Reference {
    Box::new(move |array, helper, env, rng| {
        let parsed = LisaHelper::from_bytes(helper, config.sanity)?;
        if parsed.array_len as usize != array.len() {
            return Err(WireError::Semantic {
                what: "array length mismatch",
            }
            .into());
        }
        let mut response = BitVec::new();
        for &(a, b) in &parsed.pairs {
            let fa = array.measure(a as usize, env, rng);
            let fb = array.measure(b as usize, env, rng);
            response.push(fa > fb);
        }
        let ecc = ParityHelper::new(response.len(), config.ecc_t).map_err(ecc_failure)?;
        ecc.correct(&response, &parsed.parity).map_err(ecc_failure)
    })
}

fn coop_reference(config: CooperativeConfig) -> Reference {
    Box::new(move |array, helper, env, rng| {
        let parsed = CooperativeHelper::from_bytes(helper, config.sanity)?;
        if parsed.array_len as usize != array.len() {
            return Err(WireError::Semantic {
                what: "array length mismatch",
            }
            .into());
        }
        if !(parsed.t_min..=parsed.t_max).contains(&env.temperature_c) {
            return Err(ReconstructError::OutOfRange {
                temperature_c: env.temperature_c,
            });
        }
        let pairs = disjoint_chain_pairs(array.dims());
        if parsed.entries.len() != pairs.len() {
            return Err(WireError::Semantic {
                what: "pair entry count mismatch",
            }
            .into());
        }
        let t = env.temperature_c;
        let freqs = array.measure_all(env, rng);
        let sign = |idx: usize| {
            let (a, b) = pairs[idx];
            freqs[a] > freqs[b]
        };
        let direct = |idx: usize, th: f64| if t > th { !sign(idx) } else { sign(idx) };
        let mut good_bits = Vec::new();
        let mut coop_bits = Vec::new();
        for (i, e) in parsed.entries.iter().enumerate() {
            match *e {
                PairEntry::Good => good_bits.push(sign(i)),
                PairEntry::Bad | PairEntry::CoopDiscarded { .. } => {}
                PairEntry::Coop {
                    tl,
                    th,
                    assist,
                    mask,
                } => coop_bits.push(if t < tl || t > th {
                    direct(i, th)
                } else {
                    let donor_bit = match parsed.entries[assist as usize] {
                        PairEntry::Coop { th: dth, .. }
                        | PairEntry::CoopDiscarded { th: dth, .. } => direct(assist as usize, dth),
                        _ => sign(assist as usize),
                    };
                    sign(mask as usize) ^ donor_bit
                }),
            }
        }
        let mut bits = BitVec::new();
        bits.extend(good_bits);
        bits.extend(coop_bits);
        if bits.is_empty() {
            return Err(ReconstructError::EccFailure);
        }
        let ecc = ParityHelper::new(bits.len(), config.ecc_t).map_err(ecc_failure)?;
        ecc.correct(&bits, &parsed.parity).map_err(ecc_failure)
    })
}

/// `f − poly(x, y)` per RO, evaluated on every query.
fn residuals(array: &RoArray, freqs: &[f64], poly: &Poly2d) -> Vec<f64> {
    array
        .dims()
        .iter_coords()
        .map(|(i, x, y)| freqs[i] - poly.eval(x as f64, y as f64))
        .collect()
}

/// Kendall bits of every group through a fresh descending sort and
/// `Permutation::kendall_bits`.
fn kendall_vector(grouping: &Grouping, residuals: &[f64]) -> BitVec {
    let mut bits = BitVec::new();
    for members in &grouping.groups {
        if members.len() < 2 {
            continue;
        }
        let mut canon = members.clone();
        canon.sort_unstable();
        let local: Vec<f64> = canon.iter().map(|&i| residuals[i]).collect();
        let mut idx: Vec<usize> = (0..local.len()).collect();
        idx.sort_by(|&a, &b| {
            local[b]
                .partial_cmp(&local[a])
                .unwrap_or(Ordering::Equal)
                .then(a.cmp(&b))
        });
        bits.extend(Permutation::from_slice(&idx).unwrap().kendall_bits());
    }
    bits
}

fn group_key(packing: bool, grouping: &Grouping, kendall: &BitVec) -> Outcome {
    if !packing {
        return Ok(kendall.clone());
    }
    let mut key = BitVec::new();
    let mut pos = 0;
    for members in &grouping.groups {
        let g = members.len();
        let nbits = kendall_code_bits(g);
        let bits: Vec<bool> = (pos..pos + nbits).map(|i| kendall.get(i)).collect();
        pos += nbits;
        if g < 2 {
            continue;
        }
        let order =
            Permutation::from_kendall_bits(&bits).ok_or(ReconstructError::InconsistentOrder)?;
        key.extend_bits(&pack_order(&order));
    }
    Ok(key)
}

fn group_reference(config: GroupBasedConfig) -> Reference {
    Box::new(move |array, helper, env, rng| {
        let dims = array.dims();
        let parsed = GroupBasedHelper::from_bytes(helper)?;
        if (parsed.cols as usize, parsed.rows as usize) != (dims.cols(), dims.rows()) {
            return Err(WireError::Semantic {
                what: "array dimension mismatch",
            }
            .into());
        }
        let freqs = array.measure_all(env, rng);
        let residuals = residuals(array, &freqs, &parsed.poly());
        let grouping = parsed.grouping();
        if config.sanity == SanityPolicy::Strict
            && !grouping.is_valid(&residuals, config.delta_f_th)
        {
            return Err(WireError::Semantic {
                what: "grouping violates the discrepancy threshold",
            }
            .into());
        }
        let kendall = kendall_vector(&grouping, &residuals);
        if kendall.is_empty() {
            return Err(ReconstructError::EccFailure);
        }
        let ecc = ParityHelper::new(kendall.len(), config.ecc_t).map_err(ecc_failure)?;
        let corrected = ecc.correct(&kendall, &parsed.parity).map_err(ecc_failure)?;
        group_key(config.packing, &grouping, &corrected)
    })
}

fn distilled_reference(config: DistilledConfig) -> Reference {
    let scheme = DistilledPairingScheme::new(config);
    Box::new(move |array, helper, env, rng| {
        let dims = array.dims();
        let parsed = DistilledHelper::from_bytes(helper)?;
        if (parsed.cols as usize, parsed.rows as usize) != (dims.cols(), dims.rows()) {
            return Err(WireError::Semantic {
                what: "array dimension mismatch",
            }
            .into());
        }
        let pairs = scheme.resolve_pairs(dims, &parsed.selections)?;
        let freqs = array.measure_all(env, rng);
        let poly = Poly2d::from_coefficients(parsed.degree as usize, parsed.coefficients.clone())
            .map_err(|_| WireError::Semantic {
            what: "inconsistent coefficients",
        })?;
        let residuals = residuals(array, &freqs, &poly);
        let bits = BitVec::from_bools(pair_bits(&pairs, &residuals));
        let ecc = ParityHelper::new(bits.len(), config.ecc_t).map_err(ecc_failure)?;
        ecc.correct(&bits, &parsed.parity).map_err(ecc_failure)
    })
}

fn fuzzy_reference(config: FuzzyConfig) -> Reference {
    Box::new(move |array, helper, env, rng| {
        let parsed = FuzzyHelper::from_bytes(helper)?;
        if parsed.array_len as usize != array.len() {
            return Err(WireError::Semantic {
                what: "array length mismatch",
            }
            .into());
        }
        if config.robust && parsed.auth_tag.is_empty() {
            return Err(ReconstructError::ManipulationDetected);
        }
        let freqs = array.measure_all(env, rng);
        let w_noisy = BitVec::from_bools(pair_bits(&disjoint_chain_pairs(array.dims()), &freqs));
        if parsed.parity.is_empty() && !w_noisy.is_empty() {
            return Err(ReconstructError::EccFailure);
        }
        let ecc = ParityHelper::new(w_noisy.len(), config.ecc_t).map_err(ecc_failure)?;
        let w = ecc.correct(&w_noisy, &parsed.parity).map_err(ecc_failure)?;
        if config.robust {
            let untagged = FuzzyHelper {
                auth_tag: Vec::new(),
                ..parsed.clone()
            };
            let mut input = w.to_bytes();
            input.extend_from_slice(&untagged.to_bytes());
            if sha256(&input).to_vec() != parsed.auth_tag {
                return Err(ReconstructError::ManipulationDetected);
            }
        }
        Ok(BitVec::from_bytes(&sha256(&w.to_bytes()), 256))
    })
}

/// Each coefficient of a group-based helper, in turn, set to `value`.
fn poison_group(helper: &[u8], value: f64) -> Vec<Vec<u8>> {
    let parsed = GroupBasedHelper::from_bytes(helper).unwrap();
    (0..parsed.coefficients.len())
        .map(|j| {
            let mut h = parsed.clone();
            h.coefficients[j] = value;
            h.to_bytes()
        })
        .collect()
}

/// Each coefficient of a distilled-pairing helper, in turn, set to
/// `value`.
fn poison_distilled(helper: &[u8], value: f64) -> Vec<Vec<u8>> {
    let parsed = DistilledHelper::from_bytes(helper).unwrap();
    (0..parsed.coefficients.len())
        .map(|j| {
            let mut h = parsed.clone();
            h.coefficients[j] = value;
            h.to_bytes()
        })
        .collect()
}

/// The operating range's ends and every crossover bound of a cooperative
/// helper, in turn, set to `value`. Each crossover variant comes twice:
/// as is, and with `t` stored parity bits flipped, which leaves the
/// (single-block) code no slack, so one diverging response bit changes
/// the outcome instead of being corrected away.
fn poison_coop(helper: &[u8], value: f64) -> Vec<Vec<u8>> {
    let parsed = CooperativeHelper::from_bytes(helper, SanityPolicy::Lenient).unwrap();
    let t = CooperativeConfig::default().ecc_t;
    let mut out = Vec::new();
    let mut h = parsed.clone();
    h.t_min = value;
    out.push(h.to_bytes());
    let mut h = parsed.clone();
    h.t_max = value;
    out.push(h.to_bytes());
    for (i, e) in parsed.entries.iter().enumerate() {
        let (tl, th) = match *e {
            PairEntry::Coop { tl, th, .. } | PairEntry::CoopDiscarded { tl, th } => (tl, th),
            _ => continue,
        };
        for (new_tl, new_th) in [(value, th), (tl, value), (value, value)] {
            let mut h = parsed.clone();
            match &mut h.entries[i] {
                PairEntry::Coop { tl, th, .. } | PairEntry::CoopDiscarded { tl, th } => {
                    *tl = new_tl;
                    *th = new_th;
                }
                _ => unreachable!(),
            }
            out.push(h.to_bytes());
            for bit in 0..t {
                h.parity.flip(bit);
            }
            out.push(h.to_bytes());
        }
    }
    out
}

fn cases() -> Vec<Case> {
    let big = ArrayDims::new(16, 8);
    let small = ArrayDims::new(10, 4);
    let mut cases = Vec::new();
    for sanity in [SanityPolicy::Lenient, SanityPolicy::Strict] {
        let lisa = LisaConfig {
            sanity,
            ..LisaConfig::default()
        };
        cases.push(Case {
            label: format!("lisa {sanity:?}"),
            scheme: Box::new(LisaScheme::new(lisa)),
            reference: lisa_reference(lisa),
            dims: big,
            poison: None,
        });
        let coop = CooperativeConfig {
            sanity,
            ..CooperativeConfig::default()
        };
        cases.push(Case {
            label: format!("cooperative {sanity:?}"),
            scheme: Box::new(CooperativeScheme::new(coop)),
            reference: coop_reference(coop),
            dims: big,
            poison: Some(poison_coop),
        });
        for packing in [true, false] {
            let group = GroupBasedConfig {
                sanity,
                packing,
                ..GroupBasedConfig::default()
            };
            cases.push(Case {
                label: format!("group-based {sanity:?} packing={packing}"),
                scheme: Box::new(GroupBasedScheme::new(group)),
                reference: group_reference(group),
                dims: small,
                poison: Some(poison_group),
            });
        }
    }
    for source in [
        PairSource::DisjointChain,
        PairSource::OverlappingChain,
        PairSource::OneOutOfK { k: 5 },
    ] {
        let distilled = DistilledConfig {
            source,
            ..DistilledConfig::default()
        };
        cases.push(Case {
            label: format!("distilled-pairing {source:?}"),
            scheme: Box::new(DistilledPairingScheme::new(distilled)),
            reference: distilled_reference(distilled),
            dims: small,
            poison: Some(poison_distilled),
        });
    }
    for robust in [false, true] {
        let fuzzy = FuzzyConfig {
            robust,
            ..FuzzyConfig::default()
        };
        cases.push(Case {
            label: format!("fuzzy robust={robust}"),
            scheme: Box::new(FuzzyExtractorScheme::new(fuzzy)),
            reference: fuzzy_reference(fuzzy),
            dims: big,
            poison: None,
        });
    }
    cases
}

fn array(dims: ArrayDims, seed: u64) -> RoArray {
    RoArrayBuilder::new(dims).build(&mut StdRng::seed_from_u64(seed))
}

/// Operating points every helper is queried at, in this order: inside
/// and at the edges of the commercial range, then outside it.
fn envs() -> Vec<Environment> {
    [25.0, 0.0, 45.0, 70.0, -40.0, 150.0, f64::NAN]
        .into_iter()
        .map(Environment::at_temperature)
        .collect()
}

/// Prepares `helper` once and answers every operating point from that
/// one prepared form, checking each answer and the RNG position after it
/// against the reference.
fn check(case: &Case, array: &RoArray, helper: &[u8], what: &str, seed: u64) {
    let mut prepared = case.scheme.prepare(array.dims(), helper);
    let mut ours = StdRng::seed_from_u64(seed);
    let mut theirs = ours.clone();
    for env in envs() {
        let got = prepared.reconstruct(array, env, &mut ours);
        let want = (case.reference)(array, helper, env, &mut theirs);
        // `OutOfRange` carries the requested temperature, and NaN is
        // unequal to itself: compare the full renderings instead.
        assert_eq!(
            format!("{got:?}"),
            format!("{want:?}"),
            "{}: {what} at {} °C",
            case.label,
            env.temperature_c
        );
        assert_eq!(
            ours.next_u64(),
            theirs.next_u64(),
            "{}: {what} at {} °C: RNG position",
            case.label,
            env.temperature_c
        );
    }
}

/// Up to `max` evenly spread indices below `n`.
fn spread(n: usize, max: usize) -> impl Iterator<Item = usize> {
    let step = n.div_ceil(max).max(1);
    (0..n).step_by(step)
}

#[test]
fn genuine_helpers_match_reference() {
    for case in cases() {
        for seed in 0..3 {
            let array = array(case.dims, 100 + seed);
            let helper = case
                .scheme
                .enroll(&array, &mut StdRng::seed_from_u64(seed))
                .unwrap()
                .helper;
            check(&case, &array, &helper, "genuine", seed);
        }
    }
}

#[test]
fn bit_flips_and_truncations_match_reference() {
    for case in cases() {
        let array = array(case.dims, 7);
        let helper = case
            .scheme
            .enroll(&array, &mut StdRng::seed_from_u64(8))
            .unwrap()
            .helper;
        for (n, pos) in spread(helper.len() * 8, 96).enumerate() {
            let mut h = helper.clone();
            h[pos / 8] ^= 1 << (pos % 8);
            check(&case, &array, &h, &format!("bit {pos} flipped"), n as u64);
        }
        for (n, cut) in spread(helper.len(), 48)
            .chain([helper.len() - 1])
            .enumerate()
        {
            let what = format!("truncated to {cut} bytes");
            check(&case, &array, &helper[..cut], &what, n as u64);
        }
    }
}

#[test]
fn random_bytes_match_reference() {
    let mut rng = StdRng::seed_from_u64(99);
    for case in cases() {
        let array = array(case.dims, 9);
        let helper = case
            .scheme
            .enroll(&array, &mut StdRng::seed_from_u64(10))
            .unwrap()
            .helper;
        for n in 0..24u64 {
            // Half fully random, half behind the genuine tag and version
            // so the parser gets past its first check.
            let len = rng.random_range(0..2 * helper.len());
            let mut h: Vec<u8> = (0..len).map(|_| rng.random()).collect();
            if n % 2 == 1 && len >= 2 {
                h[..2].copy_from_slice(&helper[..2]);
            }
            check(&case, &array, &h, &format!("random blob {n}"), n);
        }
    }
}

#[test]
fn hostile_reals_match_reference() {
    for case in cases() {
        let Some(poison) = case.poison else { continue };
        let array = array(case.dims, 11);
        let helper = case
            .scheme
            .enroll(&array, &mut StdRng::seed_from_u64(12))
            .unwrap()
            .helper;
        for value in [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e300,
            -1e300,
            f64::MIN_POSITIVE,
            0.0,
        ] {
            for (n, h) in poison(&helper, value).iter().enumerate() {
                check(&case, &array, h, &format!("field {n} = {value}"), n as u64);
            }
        }
    }
}

#[test]
fn wrong_dims_match_reference() {
    for case in cases() {
        let other = ArrayDims::new(case.dims.cols() / 2, case.dims.rows());
        let foreign = case
            .scheme
            .enroll(&array(other, 13), &mut StdRng::seed_from_u64(14))
            .unwrap()
            .helper;
        check(
            &case,
            &array(case.dims, 15),
            &foreign,
            "helper of a smaller array",
            0,
        );
        let transposed = ArrayDims::new(case.dims.rows(), case.dims.cols());
        check(
            &case,
            &array(transposed, 16),
            &foreign,
            "transposed array",
            1,
        );
    }
}

/// Runs `f`, turning a panic into an outcome of its own.
fn outcome_or_panic(f: impl FnOnce() -> Outcome) -> Result<Outcome, &'static str> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|_| "panicked")
}

/// Residuals that mix NaN with finite values make the per-group
/// descending sort's comparator inconsistent, so the order it produces
/// depends on the exact sort algorithm — and the standard library's
/// sort may panic when it detects the inconsistency. Two opposite huge
/// coefficients overflow to `inf − inf = NaN` on part of the array only;
/// one group of every RO makes the sort long enough for algorithms to
/// differ, and a parity computed from the reference's own Kendall bits
/// lets the key through, so a diverging order shows as a different key.
/// A panic counts as an outcome, which both paths must share.
#[test]
fn nan_residual_orders_match_reference() {
    let dims = ArrayDims::new(10, 4);
    let array = array(dims, 19);
    let env = envs()[0];
    let (mut mixed_keys, mut panics) = (0, 0);
    for packing in [true, false] {
        let config = GroupBasedConfig {
            packing,
            ..GroupBasedConfig::default()
        };
        let scheme = GroupBasedScheme::new(config);
        let reference = group_reference(config);
        let enrolled = scheme
            .enroll(&array, &mut StdRng::seed_from_u64(20))
            .unwrap()
            .helper;
        let genuine = GroupBasedHelper::from_bytes(&enrolled).unwrap();
        let count = genuine.coefficients.len();
        for (j, k) in (0..count).flat_map(|j| (0..count).map(move |k| (j, k))) {
            if j == k {
                continue;
            }
            let mut h = GroupBasedHelper {
                assignments: vec![0; dims.len()],
                ..genuine.clone()
            };
            h.coefficients[j] = 1e307;
            h.coefficients[k] = -1e307;
            let seed = (j * count + k) as u64;
            let freqs = array.measure_all(env, &mut StdRng::seed_from_u64(seed));
            let res = residuals(&array, &freqs, &h.poly());
            let nans = res.iter().filter(|r| r.is_nan()).count();
            let grouping = h.grouping();
            if let Ok(kendall) = std::panic::catch_unwind(|| kendall_vector(&grouping, &res)) {
                h.parity = ParityHelper::new(kendall.len(), config.ecc_t)
                    .unwrap()
                    .parity(&kendall);
            }
            let bytes = h.to_bytes();
            let got = outcome_or_panic(|| {
                scheme.prepare(dims, &bytes).reconstruct(
                    &array,
                    env,
                    &mut StdRng::seed_from_u64(seed),
                )
            });
            let want = outcome_or_panic(|| {
                reference(&array, &bytes, env, &mut StdRng::seed_from_u64(seed))
            });
            assert_eq!(got, want, "packing={packing}, coefficients {j}, {k}");
            match want {
                Ok(Ok(_)) if nans > 0 && nans < res.len() => mixed_keys += 1,
                Err(_) => panics += 1,
                _ => {}
            }
        }
    }
    assert!(
        mixed_keys > 0,
        "no coefficient pair mixed NaN and finite residuals and released a key ({panics} panics)"
    );
}

/// Helpers that parse but yield no usable response: the schemes reject
/// them only after measuring, and a cooperative helper whose entry count
/// misses the array's pair list is rejected only for in-range
/// temperatures.
#[test]
fn keyless_helpers_match_reference() {
    for case in cases() {
        let array = array(case.dims, 17);
        let helper = case
            .scheme
            .enroll(&array, &mut StdRng::seed_from_u64(18))
            .unwrap()
            .helper;
        let variants: Vec<(&str, Vec<u8>)> = if let Ok(h) = GroupBasedHelper::from_bytes(&helper) {
            let singletons = GroupBasedHelper {
                assignments: (0..h.assignments.len() as u16).collect(),
                ..h.clone()
            };
            let one_group = GroupBasedHelper {
                assignments: vec![0; h.assignments.len()],
                ..h
            };
            vec![
                ("all singleton groups", singletons.to_bytes()),
                ("one group", one_group.to_bytes()),
            ]
        } else if let Ok(h) = CooperativeHelper::from_bytes(&helper, SanityPolicy::Lenient) {
            let all_bad = CooperativeHelper {
                entries: vec![PairEntry::Bad; h.entries.len()],
                ..h.clone()
            };
            let short = CooperativeHelper {
                entries: h.entries[..h.entries.len() - 1].to_vec(),
                ..h
            };
            vec![
                ("all pairs bad", all_bad.to_bytes()),
                ("one entry short", short.to_bytes()),
            ]
        } else if let Ok(h) = FuzzyHelper::from_bytes(&helper) {
            let no_parity = FuzzyHelper {
                parity: BitVec::new(),
                ..h
            };
            vec![("no parity", no_parity.to_bytes())]
        } else {
            continue;
        };
        for (n, (what, h)) in variants.iter().enumerate() {
            check(&case, &array, h, what, n as u64);
        }
    }
}

/// One step of a device's life: a helper write or a query.
enum Step<'a> {
    Set(&'a [u8]),
    Write(&'a [u8]),
    Respond(&'a [u8], Environment),
    Reconstruct(Environment),
}

#[test]
fn device_cache_answers_like_fresh_preparation() {
    for case in cases() {
        let seed = 21;
        let array = array(case.dims, 20);
        // `Device::provision` enrolls from the same seed, so `rng` then
        // sits where the device's own RNG does.
        let mut device = Device::provision(array.clone(), case.scheme.clone_box(), seed).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let genuine = case.scheme.enroll(&array, &mut rng).unwrap().helper;
        assert_eq!(device.helper(), genuine.as_slice());
        let mut changed = genuine.clone();
        let last = changed.len() - 1;
        changed[last] ^= 1;
        // A second enrollment of the same array: for LISA its random
        // storage order encodes a different key.
        let reenrolled = case
            .scheme
            .enroll(&array, &mut StdRng::seed_from_u64(seed + 1))
            .unwrap()
            .helper;
        let garbage = vec![0xFF; 10];
        let nominal = Environment::nominal();
        let hot = Environment::at_temperature(60.0);
        let steps = [
            Step::Respond(b"a", nominal),
            Step::Respond(b"a", nominal),
            Step::Respond(b"b", hot),
            Step::Set(&changed),
            Step::Respond(b"a", nominal),
            Step::Respond(b"a", nominal),
            Step::Set(&genuine),
            Step::Respond(b"a", nominal),
            Step::Write(&changed),
            Step::Respond(b"a", nominal),
            Step::Write(&changed),
            Step::Reconstruct(nominal),
            Step::Set(&garbage),
            Step::Respond(b"a", nominal),
            Step::Reconstruct(hot),
            Step::Write(&genuine),
            Step::Respond(b"c", nominal),
            Step::Reconstruct(nominal),
            Step::Set(&genuine),
            Step::Respond(b"c", hot),
            Step::Set(&reenrolled),
            Step::Respond(b"c", nominal),
            Step::Write(&genuine),
            Step::Respond(b"c", nominal),
        ];
        let mut current = genuine.clone();
        for (i, step) in steps.iter().enumerate() {
            match *step {
                Step::Set(h) => {
                    device.set_helper(h);
                    current = h.to_vec();
                }
                Step::Write(h) => {
                    device.write_helper(h.to_vec());
                    current = h.to_vec();
                }
                Step::Respond(nonce, env) => {
                    let want = match case.scheme.reconstruct(&array, &current, env, &mut rng) {
                        Ok(key) => DeviceResponse::Tag(hmac_sha256(&key.to_bytes(), nonce)),
                        Err(_) => DeviceResponse::Failure,
                    };
                    assert_eq!(device.respond(nonce, env), want, "{}: step {i}", case.label);
                }
                Step::Reconstruct(env) => {
                    let want = case.scheme.reconstruct(&array, &current, env, &mut rng);
                    assert_eq!(
                        device.reconstruct_key(env),
                        want,
                        "{}: step {i}",
                        case.label
                    );
                }
            }
            assert_eq!(device.helper(), current.as_slice());
        }
        assert_eq!(device.query_count(), 15);
    }
}
