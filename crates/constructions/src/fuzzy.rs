//! The fuzzy extractor reference construction (paper Section VII-A,
//! Fig. 7) and a manipulation-detecting *robust* variant.
//!
//! The paper's recommended alternative to the attacked ad-hoc schemes:
//! an ECC deals with reliability, a cryptographic hash with entropy, "in a
//! sequential manner". The robust variant (in the spirit of Boyen et al.,
//! CCS 2004) additionally binds the helper data to the PUF response with a hash
//! tag so that *any* manipulation is detected before a key is released —
//! turning the paper's differential failure-rate signal into a constant
//! (no-information) reject.

use rand::RngCore;
use ropuf_hash::sha256;
use ropuf_numeric::BitVec;
use ropuf_sim::{ArrayDims, Environment, RoArray};

use crate::ecc_helper::ParityHelper;
use crate::pairing::neighbor::{disjoint_chain_pairs, pair_bits, RoPair};
use crate::scheme::{
    boxed, EnrollError, Enrollment, HelperDataScheme, PreparedHelper, ReconstructError,
};
use crate::wire::{WireError, WireReader, WireWriter};

/// Wire-format scheme tag for fuzzy-extractor helper data.
pub const FUZZY_TAG: u8 = 0x46; // 'F'

/// Configuration of the [`FuzzyExtractorScheme`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzyConfig {
    /// Averaged measurements per RO at enrollment.
    pub enroll_avg: usize,
    /// Per-block ECC correction capability.
    pub ecc_t: usize,
    /// Enable the robust (helper-authenticating) variant.
    pub robust: bool,
}

impl Default for FuzzyConfig {
    fn default() -> Self {
        Self {
            enroll_avg: 16,
            // Raw chain bits carry no reliability selection, so the code
            // must absorb the full worst-case error rate — the reason the
            // fuzzy-extractor literature uses strong codes.
            ecc_t: 8,
            robust: false,
        }
    }
}

/// Parsed fuzzy-extractor helper data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzyHelper {
    /// Number of ROs the helper was generated for.
    pub array_len: u16,
    /// ECC redundancy over the response bits.
    pub parity: BitVec,
    /// Authentication tag binding helper data to the response (robust
    /// variant only; empty otherwise).
    pub auth_tag: Vec<u8>,
}

impl FuzzyHelper {
    /// Serializes to the wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = WireWriter::new(FUZZY_TAG);
        w.put_u16(self.array_len);
        w.put_bits(&self.parity);
        w.put_u8(self.auth_tag.len() as u8);
        for &b in &self.auth_tag {
            w.put_u8(b);
        }
        w.into_bytes()
    }

    /// Parses from the wire format.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(bytes, FUZZY_TAG)?;
        let array_len = r.take_u16()?;
        let parity = r.take_bits()?;
        let tag_len = r.take_u8()? as usize;
        if tag_len != 0 && tag_len != 32 {
            return Err(WireError::BadLength {
                what: "auth tag",
                value: tag_len as u64,
            });
        }
        let mut auth_tag = Vec::with_capacity(tag_len);
        for _ in 0..tag_len {
            auth_tag.push(r.take_u8()?);
        }
        r.finish()?;
        Ok(Self {
            array_len,
            parity,
            auth_tag,
        })
    }

    /// The authenticated portion of the helper bytes (everything except
    /// the tag itself).
    fn authenticated_bytes(&self) -> Vec<u8> {
        let untagged = FuzzyHelper {
            auth_tag: Vec::new(),
            ..self.clone()
        };
        untagged.to_bytes()
    }
}

/// The fuzzy-extractor key generator (Fig. 7).
#[derive(Debug, Clone)]
pub struct FuzzyExtractorScheme {
    config: FuzzyConfig,
}

impl FuzzyExtractorScheme {
    /// Creates the scheme.
    pub fn new(config: FuzzyConfig) -> Self {
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> &FuzzyConfig {
        &self.config
    }

    /// The enrollment-grade (averaged) reference response.
    fn reference_response(&self, array: &RoArray, rng: &mut dyn RngCore) -> BitVec {
        let freqs = array.measure_all_averaged(Environment::nominal(), self.config.enroll_avg, rng);
        let pairs = disjoint_chain_pairs(array.dims());
        BitVec::from_bools(pair_bits(&pairs, &freqs))
    }

    fn derive_key(w: &BitVec) -> BitVec {
        let digest = sha256(&w.to_bytes());
        BitVec::from_bytes(&digest, 256)
    }

    fn auth_tag(w: &BitVec, authenticated: &[u8]) -> Vec<u8> {
        let mut input = w.to_bytes();
        input.extend_from_slice(authenticated);
        sha256(&input).to_vec()
    }
}

impl HelperDataScheme for FuzzyExtractorScheme {
    fn name(&self) -> &'static str {
        "fuzzy-extractor"
    }

    fn clone_box(&self) -> Box<dyn HelperDataScheme> {
        Box::new(self.clone())
    }

    fn enroll(&self, array: &RoArray, rng: &mut dyn RngCore) -> Result<Enrollment, EnrollError> {
        let w = self.reference_response(array, rng);
        if w.len() < 8 {
            return Err(EnrollError::InsufficientEntropy {
                got: w.len(),
                needed: 8,
            });
        }
        let ecc = ParityHelper::new(w.len(), self.config.ecc_t).map_err(EnrollError::Ecc)?;
        let parity = ecc.parity(&w);
        let mut helper = FuzzyHelper {
            array_len: array.len() as u16,
            parity,
            auth_tag: Vec::new(),
        };
        if self.config.robust {
            helper.auth_tag = Self::auth_tag(&w, &helper.authenticated_bytes());
        }
        Ok(Enrollment {
            key: Self::derive_key(&w),
            helper: helper.to_bytes(),
        })
    }

    fn prepare(&self, dims: ArrayDims, helper: &[u8]) -> Box<dyn PreparedHelper> {
        boxed(self.prepare_fuzzy(dims, helper))
    }
}

impl FuzzyExtractorScheme {
    fn prepare_fuzzy(
        &self,
        dims: ArrayDims,
        helper: &[u8],
    ) -> Result<PreparedFuzzy, ReconstructError> {
        let parsed = FuzzyHelper::from_bytes(helper)?;
        if parsed.array_len as usize != dims.len() {
            return Err(WireError::Semantic {
                what: "array length mismatch",
            }
            .into());
        }
        if self.config.robust && parsed.auth_tag.is_empty() {
            return Err(ReconstructError::ManipulationDetected);
        }
        let pairs = disjoint_chain_pairs(dims);
        // Missing parity or a code that cannot be built fails the query
        // only after the array was measured, as an ECC failure.
        let ecc = if parsed.parity.is_empty() {
            None
        } else {
            ParityHelper::new(pairs.len(), self.config.ecc_t).ok()
        };
        let authenticated = self.config.robust.then(|| parsed.authenticated_bytes());
        Ok(PreparedFuzzy {
            pairs,
            parity: parsed.parity,
            auth_tag: parsed.auth_tag,
            authenticated,
            ecc,
            freqs: Vec::new(),
        })
    }
}

/// Fuzzy-extractor helper data prepared for reconstruction.
#[derive(Debug)]
struct PreparedFuzzy {
    pairs: Vec<RoPair>,
    parity: BitVec,
    auth_tag: Vec<u8>,
    /// The bytes the tag authenticates (robust variant only).
    authenticated: Option<Vec<u8>>,
    ecc: Option<ParityHelper>,
    freqs: Vec<f64>,
}

impl PreparedHelper for PreparedFuzzy {
    fn reconstruct(
        &mut self,
        array: &RoArray,
        env: Environment,
        rng: &mut dyn RngCore,
    ) -> Result<BitVec, ReconstructError> {
        array.measure_all_into(env, rng, &mut self.freqs);
        let w_noisy = BitVec::from_bools(pair_bits(&self.pairs, &self.freqs));
        let ecc = self.ecc.as_ref().ok_or(ReconstructError::EccFailure)?;
        let w = ecc
            .correct(&w_noisy, &self.parity)
            .map_err(|_| ReconstructError::EccFailure)?;
        if let Some(authenticated) = &self.authenticated {
            if FuzzyExtractorScheme::auth_tag(&w, authenticated) != self.auth_tag {
                return Err(ReconstructError::ManipulationDetected);
            }
        }
        Ok(FuzzyExtractorScheme::derive_key(&w))
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
    fn roundtrip_plain() {
        let a = array(1);
        let scheme = FuzzyExtractorScheme::new(FuzzyConfig::default());
        let mut rng = StdRng::seed_from_u64(2);
        let e = scheme.enroll(&a, &mut rng).unwrap();
        assert_eq!(e.key.len(), 256);
        for _ in 0..5 {
            let k = scheme
                .reconstruct(&a, &e.helper, Environment::nominal(), &mut rng)
                .unwrap();
            assert_eq!(k, e.key);
        }
    }

    #[test]
    fn roundtrip_robust() {
        let a = array(3);
        let scheme = FuzzyExtractorScheme::new(FuzzyConfig {
            robust: true,
            ..FuzzyConfig::default()
        });
        let mut rng = StdRng::seed_from_u64(4);
        let e = scheme.enroll(&a, &mut rng).unwrap();
        let k = scheme
            .reconstruct(&a, &e.helper, Environment::nominal(), &mut rng)
            .unwrap();
        assert_eq!(k, e.key);
    }

    #[test]
    fn robust_detects_any_parity_flip() {
        let a = array(5);
        let scheme = FuzzyExtractorScheme::new(FuzzyConfig {
            robust: true,
            ..FuzzyConfig::default()
        });
        let mut rng = StdRng::seed_from_u64(6);
        let e = scheme.enroll(&a, &mut rng).unwrap();
        let mut parsed = FuzzyHelper::from_bytes(&e.helper).unwrap();
        parsed.parity.flip(0);
        let r = scheme.reconstruct(&a, &parsed.to_bytes(), Environment::nominal(), &mut rng);
        // A single parity flip is *corrected* by the ECC, so w is still
        // recovered — and the tag check then exposes the manipulation.
        assert!(
            matches!(r, Err(ReconstructError::ManipulationDetected)),
            "{r:?}"
        );
    }

    #[test]
    fn robust_rejects_stripped_tag() {
        let a = array(7);
        let scheme = FuzzyExtractorScheme::new(FuzzyConfig {
            robust: true,
            ..FuzzyConfig::default()
        });
        let mut rng = StdRng::seed_from_u64(8);
        let e = scheme.enroll(&a, &mut rng).unwrap();
        let mut parsed = FuzzyHelper::from_bytes(&e.helper).unwrap();
        parsed.auth_tag.clear();
        let r = scheme.reconstruct(&a, &parsed.to_bytes(), Environment::nominal(), &mut rng);
        assert!(matches!(r, Err(ReconstructError::ManipulationDetected)));
    }

    #[test]
    fn plain_variant_accepts_manipulated_parity() {
        // Contrast case: the non-robust extractor still reconstructs (or
        // fails) under flipped parity without detecting anything — the
        // paper's Section VI error-injection surface.
        let a = array(9);
        let scheme = FuzzyExtractorScheme::new(FuzzyConfig::default());
        let mut rng = StdRng::seed_from_u64(10);
        let e = scheme.enroll(&a, &mut rng).unwrap();
        let mut parsed = FuzzyHelper::from_bytes(&e.helper).unwrap();
        parsed.parity.flip(0);
        let r = scheme.reconstruct(&a, &parsed.to_bytes(), Environment::nominal(), &mut rng);
        assert!(r.is_ok(), "single flip is silently corrected: {r:?}");
        assert_eq!(r.unwrap(), e.key);
    }

    #[test]
    fn key_is_hash_of_response_not_response() {
        let a = array(11);
        let scheme = FuzzyExtractorScheme::new(FuzzyConfig::default());
        let mut rng = StdRng::seed_from_u64(12);
        let e = scheme.enroll(&a, &mut rng).unwrap();
        // 256-bit key from a 64-bit response: must be the hash.
        assert_eq!(e.key.len(), 256);
        assert_ne!(e.key.count_ones(), 0);
    }

    #[test]
    fn helper_wire_roundtrip() {
        let h = FuzzyHelper {
            array_len: 64,
            parity: BitVec::from_bools((0..10).map(|i| i % 2 == 0)),
            auth_tag: vec![7u8; 32],
        };
        assert_eq!(FuzzyHelper::from_bytes(&h.to_bytes()).unwrap(), h);
        let bad_tag = FuzzyHelper {
            auth_tag: vec![1u8; 5],
            ..h.clone()
        };
        assert!(FuzzyHelper::from_bytes(&bad_tag.to_bytes()).is_err());
    }
}
