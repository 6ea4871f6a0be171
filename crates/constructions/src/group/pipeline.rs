//! The full group-based RO PUF key generator (paper Fig. 4).
//!
//! Enrollment: measure → entropy distiller fit → Algorithm 2 grouping →
//! Kendall coding → ECC parity → entropy packing → key. The public helper
//! data carries the polynomial coefficients, the per-RO group assignment
//! and the ECC redundancy — exactly the three NVM boxes of Fig. 4, and all
//! three are writable by the attacker.

use rand::RngCore;
use ropuf_numeric::polyfit::{coefficient_count, Poly2d};
use ropuf_numeric::BitVec;
use ropuf_sim::{ArrayDims, Environment, RoArray};

use crate::ecc_helper::ParityHelper;
use crate::group::distiller::Distiller;
use crate::group::grouping::{group_ros, Grouping};
use crate::group::kendall::{canonical_members, KendallScratch};
use crate::group::packing::{pack_order, packed_bits};
use crate::scheme::{
    boxed, EnrollError, Enrollment, HelperDataScheme, PreparedHelper, ReconstructError,
    SanityPolicy,
};
use crate::wire::{WireError, WireReader, WireWriter};

/// Wire-format scheme tag for group-based helper data.
pub const GROUP_TAG: u8 = 0x47; // 'G'

/// Configuration of the [`GroupBasedScheme`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupBasedConfig {
    /// Distiller polynomial degree `p` (paper: 2 or 3).
    pub degree: usize,
    /// Grouping threshold `Δf_th` in Hz (applied to residuals).
    pub delta_f_th: f64,
    /// Averaged measurements per RO at enrollment.
    pub enroll_avg: usize,
    /// Per-block ECC correction capability.
    pub ecc_t: usize,
    /// Apply entropy packing (paper Section V-E). With `false` the key is
    /// the raw (error-corrected) Kendall bit string.
    pub packing: bool,
    /// Helper-data parsing strictness. [`SanityPolicy::Strict`]
    /// re-validates the grouping invariant against freshly measured
    /// residuals.
    pub sanity: SanityPolicy,
}

impl Default for GroupBasedConfig {
    fn default() -> Self {
        Self {
            degree: 2,
            delta_f_th: 300.0e3,
            enroll_avg: 16,
            ecc_t: 4,
            packing: true,
            sanity: SanityPolicy::Lenient,
        }
    }
}

/// Parsed group-based helper data (the three public NVM fields of Fig. 4).
#[derive(Debug, Clone, PartialEq)]
pub struct GroupBasedHelper {
    /// Array width the helper was generated for.
    pub cols: u16,
    /// Array height the helper was generated for.
    pub rows: u16,
    /// Distiller polynomial degree.
    pub degree: u8,
    /// Polynomial coefficients `β_{i,j}` in canonical order.
    pub coefficients: Vec<f64>,
    /// Group id of each RO.
    pub assignments: Vec<u16>,
    /// ECC redundancy over the concatenated Kendall bits.
    pub parity: BitVec,
}

impl GroupBasedHelper {
    /// Serializes to the wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = WireWriter::new(GROUP_TAG);
        w.put_u16(self.cols);
        w.put_u16(self.rows);
        w.put_u8(self.degree);
        w.put_f64_list(&self.coefficients);
        w.put_u16_list(&self.assignments);
        w.put_bits(&self.parity);
        w.into_bytes()
    }

    /// Parses from the wire format with structural sanity checks.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on malformed input, wrong coefficient count
    /// or an assignment list that is not a partition prefix (group ids
    /// must be dense `0..=max`).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(bytes, GROUP_TAG)?;
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
        let assignments = r.take_u16_list()?;
        if assignments.len() != cols as usize * rows as usize {
            return Err(WireError::BadLength {
                what: "group assignment list",
                value: assignments.len() as u64,
            });
        }
        if let Some(&max) = assignments.iter().max() {
            let mut present = vec![false; max as usize + 1];
            for &g in &assignments {
                present[g as usize] = true;
            }
            if !present.iter().all(|&p| p) {
                return Err(WireError::Semantic {
                    what: "group ids are not dense",
                });
            }
        }
        let parity = r.take_bits()?;
        r.finish()?;
        Ok(Self {
            cols,
            rows,
            degree,
            coefficients,
            assignments,
            parity,
        })
    }

    /// The distiller polynomial encoded in this helper.
    ///
    /// # Panics
    ///
    /// Panics if the coefficient count is inconsistent (prevented by
    /// [`Self::from_bytes`]).
    pub fn poly(&self) -> Poly2d {
        Poly2d::from_coefficients(self.degree as usize, self.coefficients.clone())
            .expect("coefficient count validated at parse time")
    }

    /// The grouping encoded in this helper.
    pub fn grouping(&self) -> Grouping {
        let a: Vec<usize> = self.assignments.iter().map(|&g| g as usize).collect();
        Grouping::from_assignments(&a)
    }
}

/// The group-based RO PUF key generator.
#[derive(Debug, Clone)]
pub struct GroupBasedScheme {
    config: GroupBasedConfig,
}

impl GroupBasedScheme {
    /// Creates the scheme.
    pub fn new(config: GroupBasedConfig) -> Self {
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> &GroupBasedConfig {
        &self.config
    }

    /// Concatenated Kendall bits of a grouping over a residual map, groups
    /// in ascending id order, members canonically labelled.
    pub fn kendall_vector(grouping: &Grouping, residuals: &[f64]) -> BitVec {
        let mut scratch = KendallScratch::default();
        let mut bits = BitVec::new();
        for members in &grouping.groups {
            scratch.extend(&canonical_members(members), residuals, &mut bits);
        }
        bits
    }

    /// Packs per-group orders into the final key (entropy packing), or
    /// returns the raw Kendall bits when packing is disabled.
    fn derive_key(
        &self,
        grouping: &Grouping,
        kendall: &BitVec,
    ) -> Result<BitVec, ReconstructError> {
        if !self.config.packing {
            return Ok(kendall.clone());
        }
        let mut key = BitVec::new();
        let mut pos = 0usize;
        for members in &grouping.groups {
            let g = members.len();
            let nbits = ropuf_numeric::permutation::kendall_code_bits(g);
            let group_bits: Vec<bool> = (pos..pos + nbits).map(|i| kendall.get(i)).collect();
            pos += nbits;
            if g < 2 {
                continue;
            }
            let order = ropuf_numeric::Permutation::from_kendall_bits(&group_bits)
                .ok_or(ReconstructError::InconsistentOrder)?;
            key.extend_bits(&pack_order(&order));
        }
        Ok(key)
    }

    /// Key length in bits for a given grouping.
    pub fn key_bits(&self, grouping: &Grouping) -> usize {
        if self.config.packing {
            grouping.groups.iter().map(|g| packed_bits(g.len())).sum()
        } else {
            grouping.kendall_bits()
        }
    }
}

impl HelperDataScheme for GroupBasedScheme {
    fn name(&self) -> &'static str {
        "group-based"
    }

    fn clone_box(&self) -> Box<dyn HelperDataScheme> {
        Box::new(self.clone())
    }

    fn enroll(&self, array: &RoArray, rng: &mut dyn RngCore) -> Result<Enrollment, EnrollError> {
        let dims = array.dims();
        let env = Environment::nominal();
        let freqs = array.measure_all_averaged(env, self.config.enroll_avg, rng);
        let distiller = Distiller::new(self.config.degree);
        let poly = distiller
            .fit(dims, &freqs)
            .map_err(|e| EnrollError::Distiller(e.to_string()))?;
        let residuals = Distiller::subtract(dims, &freqs, &poly);
        let grouping = group_ros(&residuals, self.config.delta_f_th);
        let kendall = Self::kendall_vector(&grouping, &residuals);
        if kendall.is_empty() {
            return Err(EnrollError::InsufficientEntropy { got: 0, needed: 1 });
        }
        let ecc = ParityHelper::new(kendall.len(), self.config.ecc_t).map_err(EnrollError::Ecc)?;
        let parity = ecc.parity(&kendall);
        let key = self
            .derive_key(&grouping, &kendall)
            .expect("enrollment Kendall bits are consistent by construction");
        let assignments: Vec<u16> = grouping
            .assignments(dims.len())
            .into_iter()
            .map(|g| g as u16)
            .collect();
        let helper = GroupBasedHelper {
            cols: dims.cols() as u16,
            rows: dims.rows() as u16,
            degree: self.config.degree as u8,
            coefficients: poly.coefficients().to_vec(),
            assignments,
            parity,
        };
        Ok(Enrollment {
            key,
            helper: helper.to_bytes(),
        })
    }

    fn prepare(&self, dims: ArrayDims, helper: &[u8]) -> Box<dyn PreparedHelper> {
        boxed(self.prepare_group(dims, helper))
    }
}

impl GroupBasedScheme {
    fn prepare_group(
        &self,
        dims: ArrayDims,
        helper: &[u8],
    ) -> Result<PreparedGroup, ReconstructError> {
        let parsed = GroupBasedHelper::from_bytes(helper)?;
        if (parsed.cols as usize, parsed.rows as usize) != (dims.cols(), dims.rows()) {
            return Err(WireError::Semantic {
                what: "array dimension mismatch",
            }
            .into());
        }
        let grouping = parsed.grouping();
        let members = grouping
            .groups
            .iter()
            .filter(|g| g.len() >= 2)
            .map(|g| canonical_members(g))
            .collect();
        // An empty Kendall vector or a code that cannot be built fails
        // the query only after the array was measured (and, under the
        // strict policy, the grouping re-validated), as an ECC failure.
        let ecc = ParityHelper::new(grouping.kendall_bits(), self.config.ecc_t).ok();
        Ok(PreparedGroup {
            scheme: self.clone(),
            offsets: Distiller::offsets(dims, &parsed.poly()),
            grouping,
            members,
            parity: parsed.parity,
            ecc,
            residuals: Vec::new(),
            kendall: KendallScratch::default(),
        })
    }
}

/// Group-based helper data prepared for reconstruction.
#[derive(Debug)]
struct PreparedGroup {
    scheme: GroupBasedScheme,
    /// The helper polynomial at every RO.
    offsets: Vec<f64>,
    grouping: Grouping,
    /// Canonical members of every group that yields Kendall bits, in
    /// group order.
    members: Vec<Vec<usize>>,
    parity: BitVec,
    ecc: Option<ParityHelper>,
    residuals: Vec<f64>,
    kendall: KendallScratch,
}

impl PreparedHelper for PreparedGroup {
    fn reconstruct(
        &mut self,
        array: &RoArray,
        env: Environment,
        rng: &mut dyn RngCore,
    ) -> Result<BitVec, ReconstructError> {
        array.measure_all_into(env, rng, &mut self.residuals);
        Distiller::subtract_offsets(&mut self.residuals, &self.offsets);
        let config = self.scheme.config;
        if config.sanity == SanityPolicy::Strict
            && !self.grouping.is_valid(&self.residuals, config.delta_f_th)
        {
            return Err(WireError::Semantic {
                what: "grouping violates the discrepancy threshold",
            }
            .into());
        }
        let mut kendall = BitVec::new();
        for members in &self.members {
            self.kendall.extend(members, &self.residuals, &mut kendall);
        }
        let ecc = self.ecc.as_ref().ok_or(ReconstructError::EccFailure)?;
        let corrected = ecc
            .correct(&kendall, &self.parity)
            .map_err(|_| ReconstructError::EccFailure)?;
        self.scheme.derive_key(&self.grouping, &corrected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ropuf_sim::{ArrayDims, RoArrayBuilder};

    fn array(seed: u64, dims: ArrayDims) -> RoArray {
        let mut rng = StdRng::seed_from_u64(seed);
        RoArrayBuilder::new(dims).build(&mut rng)
    }

    #[test]
    fn enroll_reconstruct_roundtrip() {
        let a = array(1, ArrayDims::new(16, 8));
        let scheme = GroupBasedScheme::new(GroupBasedConfig::default());
        let mut rng = StdRng::seed_from_u64(2);
        let e = scheme.enroll(&a, &mut rng).unwrap();
        assert!(!e.key.is_empty());
        for trial in 0..10 {
            let k = scheme
                .reconstruct(&a, &e.helper, Environment::nominal(), &mut rng)
                .unwrap_or_else(|err| panic!("trial {trial}: {err}"));
            assert_eq!(k, e.key, "trial {trial}");
        }
    }

    #[test]
    fn roundtrip_without_packing() {
        let a = array(3, ArrayDims::new(16, 8));
        let scheme = GroupBasedScheme::new(GroupBasedConfig {
            packing: false,
            ..GroupBasedConfig::default()
        });
        let mut rng = StdRng::seed_from_u64(4);
        let e = scheme.enroll(&a, &mut rng).unwrap();
        let k = scheme
            .reconstruct(&a, &e.helper, Environment::nominal(), &mut rng)
            .unwrap();
        assert_eq!(k, e.key);
    }

    #[test]
    fn packed_key_shorter_than_kendall() {
        let a = array(5, ArrayDims::new(16, 8));
        let packed = GroupBasedScheme::new(GroupBasedConfig::default());
        let raw = GroupBasedScheme::new(GroupBasedConfig {
            packing: false,
            ..GroupBasedConfig::default()
        });
        let mut rng1 = StdRng::seed_from_u64(6);
        let mut rng2 = StdRng::seed_from_u64(6);
        let ep = packed.enroll(&a, &mut rng1).unwrap();
        let er = raw.enroll(&a, &mut rng2).unwrap();
        assert!(
            ep.key.len() < er.key.len(),
            "packed {} vs kendall {}",
            ep.key.len(),
            er.key.len()
        );
    }

    #[test]
    fn helper_wire_roundtrip() {
        let a = array(7, ArrayDims::new(8, 4));
        let scheme = GroupBasedScheme::new(GroupBasedConfig::default());
        let mut rng = StdRng::seed_from_u64(8);
        let e = scheme.enroll(&a, &mut rng).unwrap();
        let parsed = GroupBasedHelper::from_bytes(&e.helper).unwrap();
        assert_eq!(parsed.to_bytes(), e.helper);
        assert_eq!(parsed.cols, 8);
        assert_eq!(parsed.rows, 4);
        assert_eq!(parsed.degree, 2);
    }

    #[test]
    fn coefficient_count_mismatch_rejected() {
        let a = array(9, ArrayDims::new(8, 4));
        let scheme = GroupBasedScheme::new(GroupBasedConfig::default());
        let mut rng = StdRng::seed_from_u64(10);
        let e = scheme.enroll(&a, &mut rng).unwrap();
        let mut parsed = GroupBasedHelper::from_bytes(&e.helper).unwrap();
        parsed.coefficients.pop();
        assert!(GroupBasedHelper::from_bytes(&parsed.to_bytes()).is_err());
    }

    #[test]
    fn sparse_group_ids_rejected() {
        let a = array(11, ArrayDims::new(8, 4));
        let scheme = GroupBasedScheme::new(GroupBasedConfig::default());
        let mut rng = StdRng::seed_from_u64(12);
        let e = scheme.enroll(&a, &mut rng).unwrap();
        let mut parsed = GroupBasedHelper::from_bytes(&e.helper).unwrap();
        // Renumber every RO of group 0 to a fresh non-dense id.
        let max = *parsed.assignments.iter().max().unwrap();
        for g in parsed.assignments.iter_mut() {
            if *g == 0 {
                *g = max + 2;
            }
        }
        assert!(GroupBasedHelper::from_bytes(&parsed.to_bytes()).is_err());
    }

    #[test]
    fn attacker_can_rewrite_polynomial_lenient() {
        // The attack premise of Section VI-C: a rewritten helper blob with
        // a steep polynomial parses fine under the lenient policy.
        let a = array(13, ArrayDims::new(10, 4));
        let scheme = GroupBasedScheme::new(GroupBasedConfig::default());
        let mut rng = StdRng::seed_from_u64(14);
        let e = scheme.enroll(&a, &mut rng).unwrap();
        let mut parsed = GroupBasedHelper::from_bytes(&e.helper).unwrap();
        parsed.coefficients[1] += 1.0e9; // violent x-gradient
        let r = scheme.reconstruct(&a, &parsed.to_bytes(), Environment::nominal(), &mut rng);
        // Either reconstructs (to a different key) or fails ECC — but the
        // helper data itself is accepted.
        match r {
            Ok(k) => assert_ne!(k, e.key),
            Err(ReconstructError::EccFailure) => {}
            Err(other) => panic!("unexpected rejection: {other}"),
        }
    }

    #[test]
    fn entropy_accounting_matches_grouping() {
        let a = array(15, ArrayDims::new(16, 8));
        let scheme = GroupBasedScheme::new(GroupBasedConfig::default());
        let mut rng = StdRng::seed_from_u64(16);
        let e = scheme.enroll(&a, &mut rng).unwrap();
        let parsed = GroupBasedHelper::from_bytes(&e.helper).unwrap();
        let grouping = parsed.grouping();
        assert_eq!(e.key.len(), scheme.key_bits(&grouping));
        // ⌈log2 g!⌉ per group is never below the entropy bound.
        assert!(e.key.len() as f64 >= grouping.entropy_bits() - 1e-9);
    }

    #[test]
    fn reconstruct_at_moderate_temperature() {
        let a = array(17, ArrayDims::new(16, 8));
        let scheme = GroupBasedScheme::new(GroupBasedConfig::default());
        let mut rng = StdRng::seed_from_u64(18);
        let e = scheme.enroll(&a, &mut rng).unwrap();
        let k = scheme
            .reconstruct(&a, &e.helper, Environment::at_temperature(35.0), &mut rng)
            .unwrap();
        assert_eq!(k, e.key);
    }
}
