//! Entropy distiller combined with RO pairing (paper Section VI-D;
//! DAC 2013).
//!
//! "Employment with the pair selection methods of section IV is a
//! possibility as well" — this scheme runs a pairing source (disjoint
//! chain, overlapping chain or 1-out-of-k masking) on the *residuals*
//! of the entropy distiller instead of raw frequencies. The helper data
//! carries the polynomial coefficients (and the masking selections),
//! which is exactly what the Fig. 6b/6c attacks rewrite.

use rand::RngCore;
use ropuf_numeric::polyfit::{coefficient_count, Poly2d};
use ropuf_numeric::BitVec;
use ropuf_sim::{ArrayDims, Environment, RoArray};

use crate::ecc_helper::ParityHelper;
use crate::group::distiller::Distiller;
use crate::pairing::masking::{select_max_delta, selected_pairs};
use crate::pairing::neighbor::{disjoint_chain_pairs, overlapping_chain_pairs, pair_bits, RoPair};
use crate::scheme::{
    boxed, EnrollError, Enrollment, HelperDataScheme, PreparedHelper, ReconstructError,
    SanityPolicy,
};
use crate::wire::{WireError, WireReader, WireWriter};

/// Wire-format scheme tag for distilled-pairing helper data.
pub const DISTILLED_TAG: u8 = 0x44; // 'D'

/// Which pair source feeds on the distiller residuals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairSource {
    /// Disjoint chain of neighbors (paper Fig. 6b's underlying pair set).
    DisjointChain,
    /// Overlapping chain of neighbors (paper Fig. 6c).
    OverlappingChain,
    /// 1-out-of-k masking over the disjoint chain (paper Fig. 6b).
    OneOutOfK {
        /// Group size `k`.
        k: usize,
    },
}

/// Configuration of the [`DistilledPairingScheme`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistilledConfig {
    /// Distiller polynomial degree.
    pub degree: usize,
    /// Averaged measurements per RO at enrollment.
    pub enroll_avg: usize,
    /// Per-block ECC correction capability.
    pub ecc_t: usize,
    /// Pair source.
    pub source: PairSource,
    /// Helper-data parsing strictness.
    pub sanity: SanityPolicy,
}

impl Default for DistilledConfig {
    fn default() -> Self {
        Self {
            degree: 2,
            enroll_avg: 16,
            // Chain pairs carry no reliability selection, so temperature
            // drift flips marginal comparisons; the code must absorb them.
            ecc_t: 6,
            source: PairSource::DisjointChain,
            sanity: SanityPolicy::Lenient,
        }
    }
}

/// Parsed distilled-pairing helper data.
#[derive(Debug, Clone, PartialEq)]
pub struct DistilledHelper {
    /// Array width.
    pub cols: u16,
    /// Array height.
    pub rows: u16,
    /// Distiller degree.
    pub degree: u8,
    /// Distiller coefficients.
    pub coefficients: Vec<f64>,
    /// 1-out-of-k selections (empty for chain sources).
    pub selections: Vec<u16>,
    /// ECC redundancy over the response bits.
    pub parity: BitVec,
}

impl DistilledHelper {
    /// Serializes to the wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = WireWriter::new(DISTILLED_TAG);
        w.put_u16(self.cols);
        w.put_u16(self.rows);
        w.put_u8(self.degree);
        w.put_f64_list(&self.coefficients);
        w.put_u16_list(&self.selections);
        w.put_bits(&self.parity);
        w.into_bytes()
    }

    /// Parses from the wire format.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on malformed input or an inconsistent
    /// coefficient count.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(bytes, DISTILLED_TAG)?;
        let cols = r.take_u16()?;
        let rows = r.take_u16()?;
        let degree = r.take_u8()?;
        if degree > 8 {
            return Err(WireError::Semantic {
                what: "distiller degree too large",
            });
        }
        let coefficients = r.take_f64_list()?;
        if coefficients.len() != coefficient_count(degree as usize) {
            return Err(WireError::BadLength {
                what: "coefficient list",
                value: coefficients.len() as u64,
            });
        }
        let selections = r.take_u16_list()?;
        let parity = r.take_bits()?;
        r.finish()?;
        Ok(Self {
            cols,
            rows,
            degree,
            coefficients,
            selections,
            parity,
        })
    }
}

/// Distiller + pairing key generator.
#[derive(Debug, Clone)]
pub struct DistilledPairingScheme {
    config: DistilledConfig,
}

impl DistilledPairingScheme {
    /// Creates the scheme.
    pub fn new(config: DistilledConfig) -> Self {
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> &DistilledConfig {
        &self.config
    }

    /// Resolves the concrete pair list for an array of shape `dims`
    /// given stored selections.
    ///
    /// # Errors
    ///
    /// Returns a semantic [`WireError`] when selections are inconsistent
    /// with the source.
    pub fn resolve_pairs(
        &self,
        dims: ArrayDims,
        selections: &[u16],
    ) -> Result<Vec<RoPair>, WireError> {
        match self.config.source {
            PairSource::DisjointChain => {
                if !selections.is_empty() {
                    return Err(WireError::Semantic {
                        what: "unexpected selections for chain source",
                    });
                }
                Ok(disjoint_chain_pairs(dims))
            }
            PairSource::OverlappingChain => {
                if !selections.is_empty() {
                    return Err(WireError::Semantic {
                        what: "unexpected selections for chain source",
                    });
                }
                Ok(overlapping_chain_pairs(dims))
            }
            PairSource::OneOutOfK { k } => {
                let base = disjoint_chain_pairs(dims);
                let sel: Vec<usize> = selections.iter().map(|&s| s as usize).collect();
                selected_pairs(&base, k, &sel).ok_or(WireError::Semantic {
                    what: "masking selections out of range",
                })
            }
        }
    }
}

impl HelperDataScheme for DistilledPairingScheme {
    fn name(&self) -> &'static str {
        "distilled-pairing"
    }

    fn clone_box(&self) -> Box<dyn HelperDataScheme> {
        Box::new(self.clone())
    }

    fn enroll(&self, array: &RoArray, rng: &mut dyn RngCore) -> Result<Enrollment, EnrollError> {
        let dims = array.dims();
        let freqs = array.measure_all_averaged(Environment::nominal(), self.config.enroll_avg, rng);
        let distiller = Distiller::new(self.config.degree);
        let poly = distiller
            .fit(dims, &freqs)
            .map_err(|e| EnrollError::Distiller(e.to_string()))?;
        let residuals = Distiller::subtract(dims, &freqs, &poly);
        let selections: Vec<u16> = match self.config.source {
            PairSource::OneOutOfK { k } => {
                let base = disjoint_chain_pairs(dims);
                select_max_delta(&base, k, &residuals)
                    .into_iter()
                    .map(|s| s as u16)
                    .collect()
            }
            _ => Vec::new(),
        };
        let pairs = self
            .resolve_pairs(dims, &selections)
            .expect("enrollment selections are consistent");
        if pairs.len() < 2 {
            return Err(EnrollError::InsufficientEntropy {
                got: pairs.len(),
                needed: 2,
            });
        }
        let key = BitVec::from_bools(pair_bits(&pairs, &residuals));
        let ecc = ParityHelper::new(key.len(), self.config.ecc_t).map_err(EnrollError::Ecc)?;
        let parity = ecc.parity(&key);
        let helper = DistilledHelper {
            cols: dims.cols() as u16,
            rows: dims.rows() as u16,
            degree: self.config.degree as u8,
            coefficients: poly.coefficients().to_vec(),
            selections,
            parity,
        };
        Ok(Enrollment {
            key,
            helper: helper.to_bytes(),
        })
    }

    fn prepare(&self, dims: ArrayDims, helper: &[u8]) -> Box<dyn PreparedHelper> {
        boxed(self.prepare_distilled(dims, helper))
    }
}

impl DistilledPairingScheme {
    fn prepare_distilled(
        &self,
        dims: ArrayDims,
        helper: &[u8],
    ) -> Result<PreparedDistilled, ReconstructError> {
        let parsed = DistilledHelper::from_bytes(helper)?;
        if (parsed.cols as usize, parsed.rows as usize) != (dims.cols(), dims.rows()) {
            return Err(WireError::Semantic {
                what: "array dimension mismatch",
            }
            .into());
        }
        let pairs = self.resolve_pairs(dims, &parsed.selections)?;
        let poly = Poly2d::from_coefficients(parsed.degree as usize, parsed.coefficients)
            .expect("coefficient count validated at parse time");
        // A code that cannot be built fails the query only after the
        // array was measured, as an ECC failure.
        let ecc = ParityHelper::new(pairs.len(), self.config.ecc_t).ok();
        Ok(PreparedDistilled {
            offsets: Distiller::offsets(dims, &poly),
            pairs,
            parity: parsed.parity,
            ecc,
            residuals: Vec::new(),
        })
    }
}

/// Distilled-pairing helper data prepared for reconstruction.
#[derive(Debug)]
struct PreparedDistilled {
    /// The helper polynomial at every RO.
    offsets: Vec<f64>,
    pairs: Vec<RoPair>,
    parity: BitVec,
    ecc: Option<ParityHelper>,
    residuals: Vec<f64>,
}

impl PreparedHelper for PreparedDistilled {
    fn reconstruct(
        &mut self,
        array: &RoArray,
        env: Environment,
        rng: &mut dyn RngCore,
    ) -> Result<BitVec, ReconstructError> {
        array.measure_all_into(env, rng, &mut self.residuals);
        Distiller::subtract_offsets(&mut self.residuals, &self.offsets);
        let bits = BitVec::from_bools(pair_bits(&self.pairs, &self.residuals));
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
        RoArrayBuilder::new(ArrayDims::new(10, 4)).build(&mut rng)
    }

    fn roundtrip(source: PairSource, seed: u64) {
        let a = array(seed);
        let scheme = DistilledPairingScheme::new(DistilledConfig {
            source,
            ..DistilledConfig::default()
        });
        let mut rng = StdRng::seed_from_u64(seed + 1);
        let e = scheme.enroll(&a, &mut rng).unwrap();
        for trial in 0..5 {
            let k = scheme
                .reconstruct(&a, &e.helper, Environment::nominal(), &mut rng)
                .unwrap_or_else(|err| panic!("{source:?} trial {trial}: {err}"));
            assert_eq!(k, e.key, "{source:?} trial {trial}");
        }
    }

    #[test]
    fn roundtrip_disjoint_chain() {
        roundtrip(PairSource::DisjointChain, 1);
    }

    #[test]
    fn roundtrip_overlapping_chain() {
        roundtrip(PairSource::OverlappingChain, 3);
    }

    #[test]
    fn roundtrip_one_out_of_k() {
        roundtrip(PairSource::OneOutOfK { k: 5 }, 5);
    }

    #[test]
    fn key_lengths_match_source() {
        let a = array(7);
        let mut rng = StdRng::seed_from_u64(8);
        let n = a.len();
        let mut mk = |source| {
            let scheme = DistilledPairingScheme::new(DistilledConfig {
                source,
                ..DistilledConfig::default()
            });
            scheme.enroll(&a, &mut rng).unwrap().key.len()
        };
        assert_eq!(mk(PairSource::DisjointChain), n / 2);
        assert_eq!(mk(PairSource::OverlappingChain), n - 1);
        assert_eq!(mk(PairSource::OneOutOfK { k: 5 }), n / 2 / 5);
    }

    #[test]
    fn masking_prefers_reliable_pairs() {
        // Selected pairs should have larger |Δresidual| than group average.
        let a = array(9);
        let scheme = DistilledPairingScheme::new(DistilledConfig {
            source: PairSource::OneOutOfK { k: 5 },
            ..DistilledConfig::default()
        });
        let mut rng = StdRng::seed_from_u64(10);
        let e = scheme.enroll(&a, &mut rng).unwrap();
        let parsed = DistilledHelper::from_bytes(&e.helper).unwrap();
        assert_eq!(parsed.selections.len(), 4); // 20 pairs / k=5
        assert!(parsed.selections.iter().all(|&s| s < 5));
    }

    #[test]
    fn selections_for_chain_source_rejected() {
        let a = array(11);
        let scheme = DistilledPairingScheme::new(DistilledConfig::default());
        let mut rng = StdRng::seed_from_u64(12);
        let e = scheme.enroll(&a, &mut rng).unwrap();
        let mut parsed = DistilledHelper::from_bytes(&e.helper).unwrap();
        parsed.selections = vec![0];
        let r = scheme.reconstruct(&a, &parsed.to_bytes(), Environment::nominal(), &mut rng);
        assert!(matches!(r, Err(ReconstructError::Helper(_))));
    }

    #[test]
    fn attacker_rewrites_selection_changes_bits() {
        // Rewriting a masking selection re-points a key bit at a different
        // pair — accepted by the format, and the basis of the Fig. 6b
        // attack.
        let a = array(13);
        let scheme = DistilledPairingScheme::new(DistilledConfig {
            source: PairSource::OneOutOfK { k: 5 },
            ecc_t: 1,
            ..DistilledConfig::default()
        });
        let mut rng = StdRng::seed_from_u64(14);
        let e = scheme.enroll(&a, &mut rng).unwrap();
        let mut parsed = DistilledHelper::from_bytes(&e.helper).unwrap();
        parsed.selections[0] = (parsed.selections[0] + 1) % 5;
        let r = scheme.reconstruct(&a, &parsed.to_bytes(), Environment::nominal(), &mut rng);
        assert!(r.is_ok() || matches!(r, Err(ReconstructError::EccFailure)));
    }
}
