//! The sequential pairing algorithm "LISA" (paper Section IV-C,
//! Algorithm 1; originally HOST 2010).
//!
//! Enrollment sorts the RO frequencies in descending order and pairs rank
//! `i` (top half) with rank `j` (bottom half) whenever their discrepancy
//! exceeds `Δf_th`, producing up to `⌊N/2⌋` disjoint pairs. Pair indices
//! are stored in public helper NVM; the response bit of a stored pair
//! `(a, b)` is `f_a > f_b`.
//!
//! Two storage-format subtleties called out by the paper (§VII-C) are
//! modelled explicitly:
//!
//! * **order randomization** — storing a pair's indices sorted by
//!   frequency leaks the full key outright
//!   ([`LisaConfig::randomize_order`]);
//! * **RO re-use** — nothing in the format prevents an attacker from
//!   writing helper data that re-uses ROs across pairs unless a sanity
//!   check forbids it ([`SanityPolicy::Strict`]).

use rand::{Rng, RngCore};
use ropuf_numeric::BitVec;
use ropuf_sim::{ArrayDims, Environment, RoArray};

use crate::ecc_helper::ParityHelper;
use crate::scheme::{
    boxed, EnrollError, Enrollment, HelperDataScheme, PreparedHelper, ReconstructError,
    SanityPolicy,
};
use crate::wire::{WireError, WireReader, WireWriter};

/// Wire-format scheme tag for LISA helper data.
pub const LISA_TAG: u8 = 0x4C; // 'L'

/// Configuration of the [`LisaScheme`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LisaConfig {
    /// Frequency discrepancy threshold `Δf_th` in Hz.
    pub delta_f_th: f64,
    /// Number of averaged measurements per RO at enrollment.
    pub enroll_avg: usize,
    /// Per-block ECC correction capability `t`.
    pub ecc_t: usize,
    /// Store each pair's indices in random order (secure practice). With
    /// `false`, indices are stored higher-frequency-first, leaking every
    /// response bit directly — the paper's §VII-C warning.
    pub randomize_order: bool,
    /// Helper-data parsing strictness.
    pub sanity: SanityPolicy,
}

impl Default for LisaConfig {
    fn default() -> Self {
        Self {
            delta_f_th: 200.0e3,
            enroll_avg: 16,
            ecc_t: 3,
            randomize_order: true,
            sanity: SanityPolicy::Lenient,
        }
    }
}

/// The LISA sequential-pairing key generator.
#[derive(Debug, Clone)]
pub struct LisaScheme {
    config: LisaConfig,
}

/// Parsed LISA helper data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LisaHelper {
    /// Number of ROs the helper data was generated for.
    pub array_len: u16,
    /// Stored RO pairs.
    pub pairs: Vec<(u16, u16)>,
    /// ECC parity bits for the response vector.
    pub parity: BitVec,
}

impl LisaHelper {
    /// Serializes to the wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = WireWriter::new(LISA_TAG);
        w.put_u16(self.array_len);
        let flat: Vec<u16> = self.pairs.iter().flat_map(|&(a, b)| [a, b]).collect();
        w.put_u16_list(&flat);
        w.put_bits(&self.parity);
        w.into_bytes()
    }

    /// Parses from the wire format, applying structural checks always and
    /// semantic checks per `sanity`.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on malformed input; with
    /// [`SanityPolicy::Strict`] additionally when a RO index repeats
    /// across pairs.
    pub fn from_bytes(bytes: &[u8], sanity: SanityPolicy) -> Result<Self, WireError> {
        let mut r = WireReader::new(bytes, LISA_TAG)?;
        let array_len = r.take_u16()?;
        let flat = r.take_u16_list()?;
        if flat.len() % 2 != 0 {
            return Err(WireError::BadLength {
                what: "pair list",
                value: flat.len() as u64,
            });
        }
        let pairs: Vec<(u16, u16)> = flat.chunks_exact(2).map(|c| (c[0], c[1])).collect();
        if pairs.is_empty() {
            return Err(WireError::Semantic {
                what: "empty pair list",
            });
        }
        for &(a, b) in &pairs {
            if a >= array_len || b >= array_len {
                return Err(WireError::Semantic {
                    what: "RO index out of range",
                });
            }
            if a == b {
                return Err(WireError::Semantic {
                    what: "pair of identical ROs",
                });
            }
        }
        if sanity == SanityPolicy::Strict {
            let mut used = vec![false; array_len as usize];
            for &(a, b) in &pairs {
                if used[a as usize] || used[b as usize] {
                    return Err(WireError::Semantic {
                        what: "RO re-used across pairs",
                    });
                }
                used[a as usize] = true;
                used[b as usize] = true;
            }
        }
        let parity = r.take_bits()?;
        r.finish()?;
        Ok(Self {
            array_len,
            pairs,
            parity,
        })
    }
}

impl LisaScheme {
    /// Creates the scheme.
    pub fn new(config: LisaConfig) -> Self {
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> &LisaConfig {
        &self.config
    }

    /// Algorithm 1 (simplified, as printed in the paper): pairs rank `i`
    /// against ranks `⌈N/2⌉+1 … N` of the descending frequency order,
    /// advancing `i` on every successful pairing.
    pub fn sequential_pairing(freqs: &[f64], delta_f_th: f64) -> Vec<(usize, usize)> {
        let n = freqs.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            freqs[b]
                .partial_cmp(&freqs[a])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut pairs = Vec::new();
        let mut i = 0usize;
        for j in n.div_ceil(2)..n {
            if i >= j {
                break;
            }
            if freqs[order[i]] - freqs[order[j]] > delta_f_th {
                pairs.push((order[i], order[j]));
                i += 1;
            }
        }
        pairs
    }

    fn ecc(&self, response_len: usize) -> Result<ParityHelper, EnrollError> {
        ParityHelper::new(response_len, self.config.ecc_t).map_err(EnrollError::Ecc)
    }
}

impl HelperDataScheme for LisaScheme {
    fn name(&self) -> &'static str {
        "lisa"
    }

    fn clone_box(&self) -> Box<dyn HelperDataScheme> {
        Box::new(self.clone())
    }

    fn enroll(&self, array: &RoArray, rng: &mut dyn RngCore) -> Result<Enrollment, EnrollError> {
        let env = Environment::nominal();
        let freqs = array.measure_all_averaged(env, self.config.enroll_avg, rng);
        let raw_pairs = Self::sequential_pairing(&freqs, self.config.delta_f_th);
        if raw_pairs.len() < 2 {
            return Err(EnrollError::InsufficientEntropy {
                got: raw_pairs.len(),
                needed: 2,
            });
        }
        // Storage order: randomized (secure) or higher-frequency-first
        // (leaky; kept to demonstrate the paper's §VII-C warning).
        let mut pairs: Vec<(u16, u16)> = Vec::with_capacity(raw_pairs.len());
        let mut response = BitVec::new();
        for (a, b) in raw_pairs {
            let swap = self.config.randomize_order && rng.random::<bool>();
            let (first, second) = if swap { (b, a) } else { (a, b) };
            pairs.push((first as u16, second as u16));
            response.push(freqs[first] > freqs[second]);
        }
        let ecc = self.ecc(response.len())?;
        let parity = ecc.parity(&response);
        let helper = LisaHelper {
            array_len: array.len() as u16,
            pairs,
            parity,
        };
        Ok(Enrollment {
            key: response,
            helper: helper.to_bytes(),
        })
    }

    fn prepare(&self, dims: ArrayDims, helper: &[u8]) -> Box<dyn PreparedHelper> {
        boxed(self.prepare_lisa(dims, helper))
    }
}

impl LisaScheme {
    fn prepare_lisa(
        &self,
        dims: ArrayDims,
        helper: &[u8],
    ) -> Result<PreparedLisa, ReconstructError> {
        let parsed = LisaHelper::from_bytes(helper, self.config.sanity)?;
        if parsed.array_len as usize != dims.len() {
            return Err(WireError::Semantic {
                what: "array length mismatch",
            }
            .into());
        }
        // A code that cannot be built fails the query only after the
        // pairs were measured, as an ECC failure.
        let ecc = ParityHelper::new(parsed.pairs.len(), self.config.ecc_t).ok();
        Ok(PreparedLisa {
            pairs: parsed.pairs,
            parity: parsed.parity,
            ecc,
        })
    }
}

/// LISA helper data prepared for reconstruction.
#[derive(Debug)]
struct PreparedLisa {
    pairs: Vec<(u16, u16)>,
    parity: BitVec,
    ecc: Option<ParityHelper>,
}

impl PreparedHelper for PreparedLisa {
    fn reconstruct(
        &mut self,
        array: &RoArray,
        env: Environment,
        rng: &mut dyn RngCore,
    ) -> Result<BitVec, ReconstructError> {
        let response = BitVec::from_bools(self.pairs.iter().map(|&(a, b)| {
            let fa = array.measure(a as usize, env, rng);
            let fb = array.measure(b as usize, env, rng);
            fa > fb
        }));
        let ecc = self.ecc.as_ref().ok_or(ReconstructError::EccFailure)?;
        ecc.correct(&response, &self.parity)
            .map_err(|_| ReconstructError::EccFailure)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ropuf_sim::{ArrayDims, RoArrayBuilder};

    fn device(seed: u64) -> RoArray {
        let mut rng = StdRng::seed_from_u64(seed);
        RoArrayBuilder::new(ArrayDims::new(16, 8)).build(&mut rng)
    }

    #[test]
    fn algorithm1_pairs_exceed_threshold_and_are_disjoint() {
        let array = device(1);
        let mut rng = StdRng::seed_from_u64(2);
        let freqs = array.measure_all_averaged(Environment::nominal(), 16, &mut rng);
        let th = 200e3;
        let pairs = LisaScheme::sequential_pairing(&freqs, th);
        assert!(pairs.len() > 10, "expected many pairs, got {}", pairs.len());
        let mut used = vec![false; array.len()];
        for &(a, b) in &pairs {
            assert!(freqs[a] - freqs[b] > th, "threshold violated");
            assert!(!used[a] && !used[b], "RO reused");
            used[a] = true;
            used[b] = true;
        }
        assert!(pairs.len() <= array.len() / 2);
    }

    #[test]
    fn algorithm1_huge_threshold_yields_no_pairs() {
        let array = device(3);
        let mut rng = StdRng::seed_from_u64(4);
        let freqs = array.measure_all_averaged(Environment::nominal(), 16, &mut rng);
        assert!(LisaScheme::sequential_pairing(&freqs, 1e12).is_empty());
    }

    #[test]
    fn enroll_reconstruct_roundtrip() {
        let array = device(5);
        let scheme = LisaScheme::new(LisaConfig::default());
        let mut rng = StdRng::seed_from_u64(6);
        let e = scheme.enroll(&array, &mut rng).unwrap();
        for _ in 0..10 {
            let k = scheme
                .reconstruct(&array, &e.helper, Environment::nominal(), &mut rng)
                .unwrap();
            assert_eq!(k, e.key);
        }
    }

    #[test]
    fn reconstruct_across_environment() {
        let array = device(7);
        let scheme = LisaScheme::new(LisaConfig::default());
        let mut rng = StdRng::seed_from_u64(8);
        let e = scheme.enroll(&array, &mut rng).unwrap();
        // Moderate temperature shift: threshold pairs keep their sign.
        let k = scheme
            .reconstruct(
                &array,
                &e.helper,
                Environment::at_temperature(45.0),
                &mut rng,
            )
            .unwrap();
        assert_eq!(k, e.key);
    }

    #[test]
    fn sorted_storage_leaks_full_key() {
        // Paper §VII-C: without randomized index order, every response bit
        // is 1 by construction — the key is readable from public data.
        let array = device(9);
        let scheme = LisaScheme::new(LisaConfig {
            randomize_order: false,
            ..LisaConfig::default()
        });
        let mut rng = StdRng::seed_from_u64(10);
        let e = scheme.enroll(&array, &mut rng).unwrap();
        assert_eq!(e.key.count_ones(), e.key.len(), "all bits must be 1");
    }

    #[test]
    fn randomized_storage_has_both_bit_values() {
        let array = device(11);
        let scheme = LisaScheme::new(LisaConfig::default());
        let mut rng = StdRng::seed_from_u64(12);
        let e = scheme.enroll(&array, &mut rng).unwrap();
        let ones = e.key.count_ones();
        assert!(
            ones > 0 && ones < e.key.len(),
            "ones = {ones}/{}",
            e.key.len()
        );
    }

    #[test]
    fn helper_roundtrip_and_sanity() {
        let h = LisaHelper {
            array_len: 8,
            pairs: vec![(0, 5), (2, 7)],
            parity: BitVec::from_bools([true, false, true]),
        };
        let bytes = h.to_bytes();
        let parsed = LisaHelper::from_bytes(&bytes, SanityPolicy::Lenient).unwrap();
        assert_eq!(parsed, h);
    }

    #[test]
    fn out_of_range_index_rejected_even_lenient() {
        let h = LisaHelper {
            array_len: 4,
            pairs: vec![(0, 9)],
            parity: BitVec::zeros(4),
        };
        assert!(LisaHelper::from_bytes(&h.to_bytes(), SanityPolicy::Lenient).is_err());
    }

    #[test]
    fn strict_sanity_rejects_ro_reuse_lenient_accepts() {
        let h = LisaHelper {
            array_len: 8,
            pairs: vec![(0, 1), (1, 2)],
            parity: BitVec::zeros(4),
        };
        let bytes = h.to_bytes();
        assert!(LisaHelper::from_bytes(&bytes, SanityPolicy::Lenient).is_ok());
        assert!(LisaHelper::from_bytes(&bytes, SanityPolicy::Strict).is_err());
    }

    #[test]
    fn swapping_two_pairs_in_helper_swaps_bits() {
        // The attack primitive of Section VI-A: exchanging the positions of
        // two pairs permutes the corresponding response bits.
        let array = device(13);
        let scheme = LisaScheme::new(LisaConfig {
            ecc_t: 3,
            ..LisaConfig::default()
        });
        let mut rng = StdRng::seed_from_u64(14);
        let e = scheme.enroll(&array, &mut rng).unwrap();
        let mut parsed = LisaHelper::from_bytes(&e.helper, SanityPolicy::Lenient).unwrap();
        // Find two pairs with equal bits: swapping them leaves the key
        // unchanged (H0 of the attack).
        let (mut i0, mut i1) = (usize::MAX, usize::MAX);
        'outer: for i in 0..e.key.len() {
            for j in i + 1..e.key.len() {
                if e.key.get(i) == e.key.get(j) {
                    i0 = i;
                    i1 = j;
                    break 'outer;
                }
            }
        }
        parsed.pairs.swap(i0, i1);
        let k = scheme
            .reconstruct(&array, &parsed.to_bytes(), Environment::nominal(), &mut rng)
            .unwrap();
        assert_eq!(k, e.key, "equal-bit swap must not change the key");
    }

    #[test]
    fn truncated_helper_is_graceful_error() {
        let array = device(15);
        let scheme = LisaScheme::new(LisaConfig::default());
        let mut rng = StdRng::seed_from_u64(16);
        let e = scheme.enroll(&array, &mut rng).unwrap();
        for cut in [0usize, 1, 3, 10] {
            let cut = cut.min(e.helper.len());
            let r = scheme.reconstruct(&array, &e.helper[..cut], Environment::nominal(), &mut rng);
            assert!(matches!(r, Err(ReconstructError::Helper(_))));
        }
    }
}
