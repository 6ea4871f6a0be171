//! Temperature-aware cooperative RO PUF (paper Section IV-D, Fig. 3;
//! originally HOST 2009).
//!
//! Disjoint neighbor pairs operate within a user range `[Tmin, Tmax]`;
//! RO frequencies are linear in temperature, so the pair discrepancy
//! `Δf(T)` is a line. Pairs are classified (Fig. 3):
//!
//! * **good** — `|Δf(T)| > Δf_th` across the whole range: one reliable bit;
//! * **bad** — `|Δf(T)| ≤ Δf_th` across the whole range: discarded;
//! * **cooperating** — reliable except inside a crossover interval
//!   `[Tl, Th]`, which is stored as public helper data. Inside the
//!   interval the bit is reconstructed *cooperatively*: a good pair `g`
//!   masks the bit and an assisting cooperating pair `a` with a
//!   non-intersecting interval supplies it via `r_c = r_g ⊕ r_a`
//!   (the enrollment constraint `r_c ⊕ r_g = r_a`). Outside the interval
//!   the bit is measured directly and inverted for `T > Th`.
//!
//! The paper notes a leakage hazard in the *selection* of the assisting
//! pair: if the enrollment procedure scans candidates deterministically
//! until the masking constraint is met, every skipped candidate `j`
//! reveals `r_cj ≠ r_ci`. Both policies are implemented
//! ([`AssistSelection`]).

use rand::{Rng, RngCore};
use ropuf_numeric::BitVec;
use ropuf_sim::env::TemperatureRange;
use ropuf_sim::{ArrayDims, Environment, RoArray};

use crate::ecc_helper::ParityHelper;
use crate::pairing::neighbor::{disjoint_chain_pairs, RoPair};
use crate::scheme::{
    boxed, EnrollError, Enrollment, HelperDataScheme, PreparedHelper, ReconstructError,
    SanityPolicy,
};
use crate::wire::{WireError, WireReader, WireWriter};

/// Wire-format scheme tag for temperature-aware cooperative helper data.
pub const COOP_TAG: u8 = 0x54; // 'T'

/// How the assisting pair is selected among feasible candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AssistSelection {
    /// Uniformly random among feasible `(assist, mask)` combinations —
    /// the paper's recommendation.
    #[default]
    Random,
    /// First feasible combination in index order. The paper's warning:
    /// skipped candidates leak `r_cj ≠ r_ci`.
    DeterministicScan,
}

/// Linear discrepancy model of one pair: `Δf(T) = offset + slope·T`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeltaLine {
    /// Δf at T = 0 °C, in Hz.
    pub offset: f64,
    /// Slope in Hz/°C.
    pub slope: f64,
}

impl DeltaLine {
    /// Δf at temperature `t`.
    pub fn at(&self, t: f64) -> f64 {
        self.offset + self.slope * t
    }

    /// Fits the line through measurements at the two range extremes.
    pub fn from_extremes(range: TemperatureRange, delta_min_t: f64, delta_max_t: f64) -> Self {
        let slope = (delta_max_t - delta_min_t) / range.width().max(f64::MIN_POSITIVE);
        let offset = delta_min_t - slope * range.min_c;
        Self { offset, slope }
    }
}

/// Classification of one RO pair (paper Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PairClass {
    /// Reliable across the whole range; carries its response bit.
    Good {
        /// Response bit (`Δf > 0` throughout the range).
        bit: bool,
    },
    /// Unreliable across the whole range; discarded.
    Bad,
    /// Reliable except inside `[tl, th]`.
    Cooperating {
        /// Lower crossover bound (°C).
        tl: f64,
        /// Upper crossover bound (°C).
        th: f64,
        /// Reference bit: sign of Δf below `tl` (or the inverted sign
        /// above `th` when the interval touches the range bottom).
        bit: bool,
    },
}

/// Classifies a pair from its discrepancy line (paper Fig. 3).
///
/// A pair is **cooperating** only when `Δf(T)` actually *crosses zero*
/// inside the operating range — the defining feature of Fig. 3's third
/// class, and the precondition of the `T > Th ⇒ invert` reconstruction
/// rule. A pair whose `|Δf|` merely dips into the threshold band without
/// changing sign keeps a constant response bit and is classified good
/// (its error rate is briefly elevated inside the band; the ECC absorbs
/// that).
pub fn classify_pair(line: DeltaLine, range: TemperatureRange, delta_f_th: f64) -> PairClass {
    let (d_lo, d_hi) = (line.at(range.min_c), line.at(range.max_c));
    if d_lo.abs() <= delta_f_th && d_hi.abs() <= delta_f_th {
        return PairClass::Bad;
    }
    if (d_lo > 0.0) == (d_hi > 0.0) {
        // Sign constant across the range (possibly dipping into the band).
        return PairClass::Good { bit: d_lo > 0.0 };
    }
    // Sign change ⇒ a genuine crossover; |Δf(T)| ≤ th between the
    // solutions of Δf = ±th (slope is non-zero here).
    let t_a = (-delta_f_th - line.offset) / line.slope;
    let t_b = (delta_f_th - line.offset) / line.slope;
    let (lo, hi) = if t_a <= t_b { (t_a, t_b) } else { (t_b, t_a) };
    let tl = lo.max(range.min_c);
    let th = hi.min(range.max_c);
    // Reference bit: sign below the interval, or inverted sign above when
    // the interval touches the bottom of the range. With a sign change
    // inside the range the two conventions agree.
    let bit = if tl > range.min_c {
        d_lo > 0.0
    } else {
        !(d_hi > 0.0)
    };
    PairClass::Cooperating { tl, th, bit }
}

/// Configuration of the [`CooperativeScheme`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CooperativeConfig {
    /// Operating temperature range.
    pub range: TemperatureRange,
    /// Frequency discrepancy threshold in Hz.
    pub delta_f_th: f64,
    /// Averaged measurements per RO per extreme at enrollment.
    pub enroll_avg: usize,
    /// Per-block ECC correction capability.
    pub ecc_t: usize,
    /// Assist-selection policy.
    pub selection: AssistSelection,
    /// Helper-data parsing strictness.
    pub sanity: SanityPolicy,
}

impl Default for CooperativeConfig {
    fn default() -> Self {
        Self {
            range: TemperatureRange::commercial(),
            delta_f_th: 40.0e3,
            enroll_avg: 16,
            ecc_t: 3,
            selection: AssistSelection::Random,
            sanity: SanityPolicy::Lenient,
        }
    }
}

/// Per-pair helper entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PairEntry {
    /// Good pair: contributes one direct bit.
    Good,
    /// Bad pair: discarded.
    Bad,
    /// Cooperating pair contributing a bit, with crossover interval and
    /// cooperation links (indices into the pair list).
    Coop {
        /// Lower crossover bound (°C).
        tl: f64,
        /// Upper crossover bound (°C).
        th: f64,
        /// Index of the assisting (donor) pair.
        assist: u16,
        /// Index of the masking good pair.
        mask: u16,
    },
    /// Cooperating pair without a feasible assist: discarded from the key
    /// but still usable as a donor (its interval is retained).
    CoopDiscarded {
        /// Lower crossover bound (°C).
        tl: f64,
        /// Upper crossover bound (°C).
        th: f64,
    },
}

/// Parsed cooperative helper data.
#[derive(Debug, Clone, PartialEq)]
pub struct CooperativeHelper {
    /// Number of ROs the helper was generated for.
    pub array_len: u16,
    /// Operating range bottom (°C).
    pub t_min: f64,
    /// Operating range top (°C).
    pub t_max: f64,
    /// One entry per disjoint neighbor pair.
    pub entries: Vec<PairEntry>,
    /// ECC redundancy over the key bits.
    pub parity: BitVec,
}

impl CooperativeHelper {
    /// Serializes to the wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = WireWriter::new(COOP_TAG);
        w.put_u16(self.array_len);
        w.put_f64(self.t_min);
        w.put_f64(self.t_max);
        w.put_u32(self.entries.len() as u32);
        for e in &self.entries {
            match *e {
                PairEntry::Good => w.put_u8(0),
                PairEntry::Bad => w.put_u8(1),
                PairEntry::Coop {
                    tl,
                    th,
                    assist,
                    mask,
                } => {
                    w.put_u8(2);
                    w.put_f64(tl);
                    w.put_f64(th);
                    w.put_u16(assist);
                    w.put_u16(mask);
                }
                PairEntry::CoopDiscarded { tl, th } => {
                    w.put_u8(3);
                    w.put_f64(tl);
                    w.put_f64(th);
                }
            }
        }
        w.put_bits(&self.parity);
        w.into_bytes()
    }

    /// Parses from the wire format.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on malformed input; under
    /// [`SanityPolicy::Strict`] additionally when a cooperation link
    /// points at a pair of the wrong class or at the pair itself.
    pub fn from_bytes(bytes: &[u8], sanity: SanityPolicy) -> Result<Self, WireError> {
        let mut r = WireReader::new(bytes, COOP_TAG)?;
        let array_len = r.take_u16()?;
        let t_min = r.take_f64()?;
        let t_max = r.take_f64()?;
        if t_min >= t_max {
            return Err(WireError::Semantic {
                what: "inverted temperature range",
            });
        }
        let count = r.take_u32()? as u64;
        if count > crate::wire::MAX_COUNT {
            return Err(WireError::BadLength {
                what: "pair entries",
                value: count,
            });
        }
        let mut entries = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let entry = match r.take_u8()? {
                0 => PairEntry::Good,
                1 => PairEntry::Bad,
                2 => {
                    let tl = r.take_f64()?;
                    let th = r.take_f64()?;
                    let assist = r.take_u16()?;
                    let mask = r.take_u16()?;
                    if tl > th {
                        return Err(WireError::Semantic {
                            what: "inverted crossover interval",
                        });
                    }
                    PairEntry::Coop {
                        tl,
                        th,
                        assist,
                        mask,
                    }
                }
                3 => {
                    let tl = r.take_f64()?;
                    let th = r.take_f64()?;
                    if tl > th {
                        return Err(WireError::Semantic {
                            what: "inverted crossover interval",
                        });
                    }
                    PairEntry::CoopDiscarded { tl, th }
                }
                _ => {
                    return Err(WireError::Semantic {
                        what: "unknown pair class",
                    })
                }
            };
            entries.push(entry);
        }
        // Link targets must exist (structural, both policies).
        for (i, e) in entries.iter().enumerate() {
            if let PairEntry::Coop { assist, mask, .. } = *e {
                if assist as usize >= entries.len() || mask as usize >= entries.len() {
                    return Err(WireError::Semantic {
                        what: "cooperation link out of range",
                    });
                }
                if sanity == SanityPolicy::Strict {
                    if assist as usize == i {
                        return Err(WireError::Semantic {
                            what: "pair assists itself",
                        });
                    }
                    if !matches!(
                        entries[assist as usize],
                        PairEntry::Coop { .. } | PairEntry::CoopDiscarded { .. }
                    ) {
                        return Err(WireError::Semantic {
                            what: "assist link targets a non-cooperating pair",
                        });
                    }
                    if !matches!(entries[mask as usize], PairEntry::Good) {
                        return Err(WireError::Semantic {
                            what: "mask link targets a non-good pair",
                        });
                    }
                }
            }
        }
        let parity = r.take_bits()?;
        r.finish()?;
        Ok(Self {
            array_len,
            t_min,
            t_max,
            entries,
            parity,
        })
    }
}

/// The temperature-aware cooperative key generator.
#[derive(Debug, Clone)]
pub struct CooperativeScheme {
    config: CooperativeConfig,
}

/// Enrollment-time transcript of the assist selection — records the
/// candidates that a deterministic scan *skipped*, i.e. exactly the
/// relations the paper says leak (`r_cj ≠ r_ci`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SelectionTranscript {
    /// Per cooperating pair: `(pair, skipped_candidates, chosen)`.
    pub scans: Vec<(u16, Vec<u16>, u16)>,
}

impl CooperativeScheme {
    /// Creates the scheme.
    pub fn new(config: CooperativeConfig) -> Self {
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> &CooperativeConfig {
        &self.config
    }

    /// The fixed disjoint neighbor pair list for an array.
    pub fn pairs(array: &RoArray) -> Vec<RoPair> {
        disjoint_chain_pairs(array.dims())
    }

    /// Measures the discrepancy lines of all pairs at the range extremes
    /// (the original proposal requires measurements at two environmental
    /// extremes).
    pub fn measure_lines(
        &self,
        array: &RoArray,
        rng: &mut dyn RngCore,
    ) -> Vec<(RoPair, DeltaLine)> {
        let range = self.config.range;
        let lo = Environment::at_temperature(range.min_c);
        let hi = Environment::at_temperature(range.max_c);
        let f_lo = array.measure_all_averaged(lo, self.config.enroll_avg, rng);
        let f_hi = array.measure_all_averaged(hi, self.config.enroll_avg, rng);
        Self::pairs(array)
            .into_iter()
            .map(|(a, b)| {
                let line = DeltaLine::from_extremes(range, f_lo[a] - f_lo[b], f_hi[a] - f_hi[b]);
                ((a, b), line)
            })
            .collect()
    }

    /// Enrollment with a full selection transcript (used to demonstrate
    /// the deterministic-scan leakage).
    ///
    /// # Errors
    ///
    /// Returns [`EnrollError`] when too few usable bits result.
    pub fn enroll_with_transcript(
        &self,
        array: &RoArray,
        rng: &mut dyn RngCore,
    ) -> Result<(Enrollment, SelectionTranscript), EnrollError> {
        let lines = self.measure_lines(array, rng);
        let classes: Vec<PairClass> = lines
            .iter()
            .map(|&(_, line)| classify_pair(line, self.config.range, self.config.delta_f_th))
            .collect();

        // Collect good bits and cooperating candidates.
        let good_bits: Vec<(usize, bool)> = classes
            .iter()
            .enumerate()
            .filter_map(|(i, c)| match *c {
                PairClass::Good { bit } => Some((i, bit)),
                _ => None,
            })
            .collect();
        let coops: Vec<(usize, f64, f64, bool)> = classes
            .iter()
            .enumerate()
            .filter_map(|(i, c)| match *c {
                PairClass::Cooperating { tl, th, bit } => Some((i, tl, th, bit)),
                _ => None,
            })
            .collect();

        let mut transcript = SelectionTranscript::default();
        let mut entries: Vec<PairEntry> = classes
            .iter()
            .map(|c| match *c {
                PairClass::Good { .. } => PairEntry::Good,
                PairClass::Bad => PairEntry::Bad,
                PairClass::Cooperating { tl, th, .. } => PairEntry::CoopDiscarded { tl, th },
            })
            .collect();

        let mut coop_bits: Vec<(usize, bool)> = Vec::new();
        for &(i, tl, th, bit) in &coops {
            // Feasible donors: cooperating pairs with non-intersecting
            // crossover interval whose bit satisfies r_c ⊕ r_g = r_a for
            // some good pair g.
            let donors: Vec<(usize, bool)> = coops
                .iter()
                .filter(|&&(j, jtl, jth, _)| j != i && (jth < tl || jtl > th))
                .map(|&(j, _, _, jbit)| (j, jbit))
                .collect();
            let mut feasible: Vec<(u16, u16)> = Vec::new();
            let mut skipped: Vec<u16> = Vec::new();
            for &(j, jbit) in &donors {
                // Need a good pair g with bit ⊕ g = jbit  ⇔  g = bit ⊕ jbit.
                let want_mask = bit ^ jbit;
                if let Some(&(g, _)) = good_bits.iter().find(|&&(_, gbit)| gbit == want_mask) {
                    feasible.push((j as u16, g as u16));
                } else {
                    skipped.push(j as u16);
                }
            }
            if feasible.is_empty() {
                continue; // stays CoopDiscarded
            }
            let chosen = match self.config.selection {
                AssistSelection::Random => feasible[rng.random_range(0..feasible.len())],
                AssistSelection::DeterministicScan => {
                    // Scan donors in index order; the paper's leak: every
                    // donor whose bit fails the constraint *for the scanned
                    // mask* is skipped, revealing r_cj ≠ r_ci. With a fixed
                    // first mask pair, skipped = donors with jbit != r_c⊕g0.
                    let (g0, g0bit) = good_bits[0];
                    let want = bit ^ g0bit;
                    let mut pick = None;
                    let mut local_skipped = Vec::new();
                    for &(j, jbit) in &donors {
                        if jbit == want {
                            pick = Some((j as u16, g0 as u16));
                            break;
                        }
                        local_skipped.push(j as u16);
                    }
                    match pick {
                        Some(p) => {
                            transcript.scans.push((i as u16, local_skipped, p.0));
                            p
                        }
                        None => feasible[0],
                    }
                }
            };
            entries[i] = PairEntry::Coop {
                tl,
                th,
                assist: chosen.0,
                mask: chosen.1,
            };
            coop_bits.push((i, bit));
        }

        let mut key = BitVec::new();
        for &(_, bit) in &good_bits {
            key.push(bit);
        }
        for &(_, bit) in &coop_bits {
            key.push(bit);
        }
        if key.len() < 2 {
            return Err(EnrollError::InsufficientEntropy {
                got: key.len(),
                needed: 2,
            });
        }
        let ecc = ParityHelper::new(key.len(), self.config.ecc_t).map_err(EnrollError::Ecc)?;
        let parity = ecc.parity(&key);
        let helper = CooperativeHelper {
            array_len: array.len() as u16,
            t_min: self.config.range.min_c,
            t_max: self.config.range.max_c,
            entries,
            parity,
        };
        Ok((
            Enrollment {
                key,
                helper: helper.to_bytes(),
            },
            transcript,
        ))
    }
}

impl HelperDataScheme for CooperativeScheme {
    fn name(&self) -> &'static str {
        "temperature-aware-cooperative"
    }

    fn clone_box(&self) -> Box<dyn HelperDataScheme> {
        Box::new(self.clone())
    }

    fn enroll(&self, array: &RoArray, rng: &mut dyn RngCore) -> Result<Enrollment, EnrollError> {
        self.enroll_with_transcript(array, rng).map(|(e, _)| e)
    }

    fn prepare(&self, dims: ArrayDims, helper: &[u8]) -> Box<dyn PreparedHelper> {
        boxed(self.prepare_coop(dims, helper))
    }
}

impl CooperativeScheme {
    fn prepare_coop(
        &self,
        dims: ArrayDims,
        helper: &[u8],
    ) -> Result<PreparedCoop, ReconstructError> {
        let parsed = CooperativeHelper::from_bytes(helper, self.config.sanity)?;
        if parsed.array_len as usize != dims.len() {
            return Err(WireError::Semantic {
                what: "array length mismatch",
            }
            .into());
        }
        let pairs = disjoint_chain_pairs(dims);
        let plan = if parsed.entries.len() == pairs.len() {
            Ok(CoopPlan::new(pairs, &parsed.entries))
        } else {
            Err(WireError::Semantic {
                what: "pair entry count mismatch",
            }
            .into())
        };
        let bits = parsed
            .entries
            .iter()
            .filter(|e| matches!(e, PairEntry::Good | PairEntry::Coop { .. }))
            .count();
        // An empty response or a code that cannot be built fails the
        // query only after the array was measured, as an ECC failure.
        let ecc = ParityHelper::new(bits, self.config.ecc_t).ok();
        Ok(PreparedCoop {
            t_min: parsed.t_min,
            t_max: parsed.t_max,
            plan,
            parity: parsed.parity,
            ecc,
            freqs: Vec::new(),
        })
    }
}

/// Where a cooperating pair's in-interval bit comes from.
#[derive(Debug, Clone, Copy)]
struct CoopBit {
    /// The cooperating pair itself.
    pair: usize,
    tl: f64,
    th: f64,
    /// The assisting pair, with its interval's top when it is a
    /// cooperating pair (`None`: any other class, compared directly).
    assist: usize,
    assist_th: Option<f64>,
    /// The masking pair.
    mask: usize,
}

/// The response-bit plan of a cooperative helper whose entry count
/// matches the array's pair list.
#[derive(Debug)]
struct CoopPlan {
    pairs: Vec<RoPair>,
    /// Good pairs, which supply the first response bits.
    good: Vec<usize>,
    /// Cooperating pairs with links, which supply the rest.
    coop: Vec<CoopBit>,
}

impl CoopPlan {
    fn new(pairs: Vec<RoPair>, entries: &[PairEntry]) -> Self {
        let mut good = Vec::new();
        let mut coop = Vec::new();
        for (i, e) in entries.iter().enumerate() {
            match *e {
                PairEntry::Good => good.push(i),
                PairEntry::Bad | PairEntry::CoopDiscarded { .. } => {}
                PairEntry::Coop {
                    tl,
                    th,
                    assist,
                    mask,
                } => {
                    let assist_th = match entries[assist as usize] {
                        PairEntry::Coop { th, .. } | PairEntry::CoopDiscarded { th, .. } => {
                            Some(th)
                        }
                        // Lenient fallback: treat any other class as a
                        // direct comparison.
                        _ => None,
                    };
                    coop.push(CoopBit {
                        pair: i,
                        tl,
                        th,
                        assist: assist as usize,
                        assist_th,
                        mask: mask as usize,
                    });
                }
            }
        }
        Self { pairs, good, coop }
    }

    /// Raw (pre-ECC) response bits at temperature `t` from one
    /// measurement per RO, shared across direct and donor uses.
    fn raw_bits(&self, freqs: &[f64], t: f64) -> BitVec {
        let sign = |idx: usize| -> bool {
            let (a, b) = self.pairs[idx];
            freqs[a] > freqs[b]
        };
        // Direct bit of a pair given its interval top (donor rule).
        let direct = |idx: usize, th: f64| -> bool {
            if t > th {
                !sign(idx)
            } else {
                sign(idx)
            }
        };
        let good = self.good.iter().map(|&i| sign(i));
        let coop = self.coop.iter().map(|c| {
            if t < c.tl || t > c.th {
                direct(c.pair, c.th)
            } else {
                // Inside the crossover interval: cooperate.
                let donor_bit = match c.assist_th {
                    Some(th) => direct(c.assist, th),
                    None => sign(c.assist),
                };
                sign(c.mask) ^ donor_bit
            }
        });
        BitVec::from_bools(good.chain(coop))
    }
}

/// Cooperative helper data prepared for reconstruction.
#[derive(Debug)]
struct PreparedCoop {
    t_min: f64,
    t_max: f64,
    plan: Result<CoopPlan, ReconstructError>,
    parity: BitVec,
    ecc: Option<ParityHelper>,
    freqs: Vec<f64>,
}

impl PreparedHelper for PreparedCoop {
    fn reconstruct(
        &mut self,
        array: &RoArray,
        env: Environment,
        rng: &mut dyn RngCore,
    ) -> Result<BitVec, ReconstructError> {
        if !(self.t_min..=self.t_max).contains(&env.temperature_c) {
            return Err(ReconstructError::OutOfRange {
                temperature_c: env.temperature_c,
            });
        }
        let plan = self.plan.as_ref().map_err(Clone::clone)?;
        array.measure_all_into(env, rng, &mut self.freqs);
        let bits = plan.raw_bits(&self.freqs, env.temperature_c);
        let ecc = self.ecc.as_ref().ok_or(ReconstructError::EccFailure)?;
        ecc.correct(&bits, &self.parity)
            .map_err(|_| ReconstructError::EccFailure)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ropuf_sim::{ArrayDims, RoArrayBuilder};

    fn array(seed: u64) -> RoArray {
        let mut rng = StdRng::seed_from_u64(seed);
        RoArrayBuilder::new(ArrayDims::new(16, 8)).build(&mut rng)
    }

    #[test]
    fn classify_good_bad_cooperating() {
        let range = TemperatureRange::new(0.0, 70.0);
        let th = 10.0;
        // Always far above threshold.
        let good = classify_pair(
            DeltaLine {
                offset: 100.0,
                slope: 0.1,
            },
            range,
            th,
        );
        assert_eq!(good, PairClass::Good { bit: true });
        // Always inside threshold band.
        let bad = classify_pair(
            DeltaLine {
                offset: 1.0,
                slope: 0.0,
            },
            range,
            th,
        );
        assert_eq!(bad, PairClass::Bad);
        // Crosses zero mid-range: Δf(T) = 100 − 4T ⇒ |Δf| ≤ 10 for
        // T ∈ [22.5, 27.5].
        let coop = classify_pair(
            DeltaLine {
                offset: 100.0,
                slope: -4.0,
            },
            range,
            th,
        );
        match coop {
            PairClass::Cooperating { tl, th, bit } => {
                assert!((tl - 22.5).abs() < 1e-9);
                assert!((th - 27.5).abs() < 1e-9);
                assert!(bit, "Δf > 0 below the interval");
            }
            other => panic!("expected cooperating, got {other:?}"),
        }
    }

    #[test]
    fn classify_interval_touching_bottom() {
        let range = TemperatureRange::new(0.0, 70.0);
        // Δf(T) = −5 + 2T: |Δf| ≤ 10 for T ≤ 7.5; reference bit must be
        // the inverted sign above the interval = !(positive) = false…
        // above Th Δf > 0 so direct sign is 1, inverted ⇒ bit = false.
        match classify_pair(
            DeltaLine {
                offset: -5.0,
                slope: 2.0,
            },
            range,
            10.0,
        ) {
            PairClass::Cooperating { tl, th, bit } => {
                assert_eq!(tl, 0.0);
                assert!((th - 7.5).abs() < 1e-9);
                assert!(!bit);
            }
            other => panic!("expected cooperating, got {other:?}"),
        }
    }

    #[test]
    fn population_has_all_three_classes() {
        let a = array(1);
        let scheme = CooperativeScheme::new(CooperativeConfig::default());
        let mut rng = StdRng::seed_from_u64(2);
        let lines = scheme.measure_lines(&a, &mut rng);
        let mut good = 0;
        let mut bad = 0;
        let mut coop = 0;
        for (_, line) in lines {
            match classify_pair(line, scheme.config.range, scheme.config.delta_f_th) {
                PairClass::Good { .. } => good += 1,
                PairClass::Bad => bad += 1,
                PairClass::Cooperating { .. } => coop += 1,
            }
        }
        assert!(good > 20, "good = {good}");
        assert!(coop >= 2, "coop = {coop}");
        // Bad pairs are rare but possible; just account for totals.
        assert_eq!(good + bad + coop, 64);
    }

    #[test]
    fn enroll_reconstruct_across_temperatures() {
        let a = array(3);
        let scheme = CooperativeScheme::new(CooperativeConfig::default());
        let mut rng = StdRng::seed_from_u64(4);
        let e = scheme.enroll(&a, &mut rng).unwrap();
        for t in [0.0, 10.0, 25.0, 40.0, 55.0, 70.0] {
            let k = scheme
                .reconstruct(&a, &e.helper, Environment::at_temperature(t), &mut rng)
                .unwrap_or_else(|err| panic!("T = {t}: {err}"));
            assert_eq!(k, e.key, "T = {t}");
        }
    }

    #[test]
    fn out_of_range_temperature_rejected() {
        let a = array(5);
        let scheme = CooperativeScheme::new(CooperativeConfig::default());
        let mut rng = StdRng::seed_from_u64(6);
        let e = scheme.enroll(&a, &mut rng).unwrap();
        let r = scheme.reconstruct(&a, &e.helper, Environment::at_temperature(90.0), &mut rng);
        assert!(matches!(r, Err(ReconstructError::OutOfRange { .. })));
    }

    #[test]
    fn helper_wire_roundtrip() {
        let h = CooperativeHelper {
            array_len: 8,
            t_min: 0.0,
            t_max: 70.0,
            entries: vec![
                PairEntry::Good,
                PairEntry::Bad,
                PairEntry::Coop {
                    tl: 20.0,
                    th: 30.0,
                    assist: 3,
                    mask: 0,
                },
                PairEntry::CoopDiscarded { tl: 50.0, th: 60.0 },
            ],
            parity: BitVec::from_bools([true, false]),
        };
        let bytes = h.to_bytes();
        let parsed = CooperativeHelper::from_bytes(&bytes, SanityPolicy::Lenient).unwrap();
        assert_eq!(parsed, h);
        // Strict accepts this consistent helper too.
        assert!(CooperativeHelper::from_bytes(&bytes, SanityPolicy::Strict).is_ok());
    }

    #[test]
    fn strict_rejects_mask_to_non_good() {
        let h = CooperativeHelper {
            array_len: 8,
            t_min: 0.0,
            t_max: 70.0,
            entries: vec![
                PairEntry::Bad,
                PairEntry::Coop {
                    tl: 20.0,
                    th: 30.0,
                    assist: 2,
                    mask: 0, // bad pair as mask
                },
                PairEntry::CoopDiscarded { tl: 50.0, th: 60.0 },
            ],
            parity: BitVec::zeros(2),
        };
        let bytes = h.to_bytes();
        assert!(CooperativeHelper::from_bytes(&bytes, SanityPolicy::Lenient).is_ok());
        assert!(CooperativeHelper::from_bytes(&bytes, SanityPolicy::Strict).is_err());
    }

    #[test]
    fn link_out_of_range_rejected_always() {
        let h = CooperativeHelper {
            array_len: 8,
            t_min: 0.0,
            t_max: 70.0,
            entries: vec![PairEntry::Coop {
                tl: 1.0,
                th: 2.0,
                assist: 9,
                mask: 0,
            }],
            parity: BitVec::zeros(2),
        };
        assert!(CooperativeHelper::from_bytes(&h.to_bytes(), SanityPolicy::Lenient).is_err());
    }

    #[test]
    fn deterministic_scan_produces_leaky_transcript() {
        // Find a seed where the deterministic scan skips at least one
        // candidate; verify the skipped relation r_cj ≠ r_ci holds.
        let config = CooperativeConfig {
            selection: AssistSelection::DeterministicScan,
            ..CooperativeConfig::default()
        };
        let scheme = CooperativeScheme::new(config);
        for seed in 0..40u64 {
            let a = array(100 + seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let Ok((_, transcript)) = scheme.enroll_with_transcript(&a, &mut rng) else {
                continue;
            };
            let mut rng2 = StdRng::seed_from_u64(999 + seed);
            let lines = scheme.measure_lines(&a, &mut rng2);
            let bit_of = |idx: u16| -> Option<bool> {
                match classify_pair(lines[idx as usize].1, config.range, config.delta_f_th) {
                    PairClass::Cooperating { bit, .. } => Some(bit),
                    _ => None,
                }
            };
            for (_, skipped, chosen) in &transcript.scans {
                let chosen_bit = bit_of(*chosen);
                for s in skipped {
                    // The leak: the skipped donor's bit differs from the
                    // chosen donor's bit.
                    if let (Some(cb), Some(sb)) = (chosen_bit, bit_of(*s)) {
                        assert_ne!(cb, sb, "seed {seed}: skipped candidate must differ");
                        return; // demonstrated
                    }
                }
            }
        }
        panic!("no seed produced a skipping deterministic scan");
    }
}
