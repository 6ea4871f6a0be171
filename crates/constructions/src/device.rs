//! The black-box device oracle — the attacker's view of a provisioned
//! PUF device.
//!
//! Per the paper's attacker model (Section VI, Figs. 4 and 7):
//!
//! * the attacker has **read and write access to helper NVM**
//!   ([`Device::helper`], [`Device::write_helper`]) — §VII-B argues helper
//!   data must always be considered public and writable;
//! * the attacker observes only **key-dependent application behavior**.
//!   [`Device::respond`] models the weakest such observable: an
//!   HMAC-SHA256 tag over an attacker-chosen nonce under the freshly
//!   reconstructed key, or an error indication when reconstruction fails.
//!   "An inability to reconstruct the key should affect the observable
//!   behavior of any useful application."

use rand::rngs::StdRng;
use rand::SeedableRng;
use ropuf_hash::HmacKey;
use ropuf_numeric::BitVec;
use ropuf_sim::{Environment, RoArray};

use crate::scheme::{EnrollError, HelperDataScheme, PreparedHelper, ReconstructError};

/// Outcome of one device query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceResponse {
    /// Application output under the reconstructed key.
    Tag([u8; 32]),
    /// Key reconstruction failed observably (ECC failure, helper data
    /// rejected, manipulation detected, …).
    Failure,
}

impl DeviceResponse {
    /// `true` for [`DeviceResponse::Failure`].
    pub fn is_failure(&self) -> bool {
        matches!(self, DeviceResponse::Failure)
    }
}

/// A provisioned device: secret RO array + scheme firmware + public
/// helper NVM.
///
/// # Examples
///
/// ```
/// use ropuf_constructions::pairing::lisa::{LisaConfig, LisaScheme};
/// use ropuf_constructions::Device;
/// use ropuf_sim::{ArrayDims, Environment, RoArrayBuilder};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let array = RoArrayBuilder::new(ArrayDims::new(16, 8)).build(&mut rng);
/// let mut device = Device::provision(
///     array,
///     Box::new(LisaScheme::new(LisaConfig::default())),
///     42,
/// ).unwrap();
/// let r = device.respond(b"nonce", Environment::nominal());
/// assert!(!r.is_failure());
/// ```
#[derive(Debug)]
pub struct Device {
    array: RoArray,
    scheme: Box<dyn HelperDataScheme>,
    helper: Vec<u8>,
    enrolled_key: BitVec,
    rng: StdRng,
    queries: u64,
    /// The scheme's prepared form of `helper`, built on the first query
    /// after a write that changed the bytes. Preparation depends on the
    /// scheme, the array's shape and the helper bytes alone, so byte
    /// equality is the whole invalidation rule.
    prepared: Option<Box<dyn PreparedHelper>>,
    /// HMAC key schedule of the last key a query tagged with; most
    /// queries reconstruct the same key as the one before.
    tag_key: Option<(BitVec, HmacKey)>,
}

impl Device {
    /// Manufactures + enrolls a device.
    ///
    /// # Errors
    ///
    /// Propagates [`EnrollError`] from the scheme.
    pub fn provision(
        array: RoArray,
        scheme: Box<dyn HelperDataScheme>,
        seed: u64,
    ) -> Result<Self, EnrollError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let enrollment = scheme.enroll(&array, &mut rng)?;
        Ok(Self {
            array,
            scheme,
            helper: enrollment.helper,
            enrolled_key: enrollment.key,
            rng,
            queries: 0,
            prepared: None,
            tag_key: None,
        })
    }

    /// Public helper NVM (attacker-readable).
    pub fn helper(&self) -> &[u8] {
        &self.helper
    }

    /// Overwrites helper NVM (attacker-writable).
    pub fn write_helper(&mut self, bytes: impl Into<Vec<u8>>) {
        let bytes = bytes.into();
        if bytes != self.helper {
            self.helper = bytes;
            self.prepared = None;
        }
    }

    /// Overwrites helper NVM from a slice, reusing the NVM buffer's
    /// capacity — the attack hot paths rewrite the helper before every
    /// probe, and this keeps that rewrite allocation-free.
    pub fn set_helper(&mut self, bytes: &[u8]) {
        if bytes != self.helper.as_slice() {
            self.helper.clear();
            self.helper.extend_from_slice(bytes);
            self.prepared = None;
        }
    }

    /// One application query: reconstruct the key from current helper NVM
    /// at the given operating point and answer with an HMAC tag over the
    /// nonce; failures are observable.
    pub fn respond(&mut self, nonce: &[u8], env: Environment) -> DeviceResponse {
        match self.reconstruct_key(env) {
            Ok(key) => DeviceResponse::Tag(self.tag(key, nonce)),
            Err(_) => DeviceResponse::Failure,
        }
    }

    /// `HMAC-SHA256(key, nonce)`, re-deriving the key schedule only when
    /// `key` differs from the previous one.
    fn tag(&mut self, key: BitVec, nonce: &[u8]) -> [u8; 32] {
        match &self.tag_key {
            Some((last, schedule)) if *last == key => schedule.tag(nonce),
            _ => {
                let schedule = HmacKey::new(&key.to_bytes());
                let tag = schedule.tag(nonce);
                self.tag_key = Some((key, schedule));
                tag
            }
        }
    }

    /// Total queries served (diagnostic; the attacks report their query
    /// complexity from the attacker side as well).
    pub fn query_count(&self) -> u64 {
        self.queries
    }

    /// The scheme name.
    pub fn scheme_name(&self) -> &'static str {
        self.scheme.name()
    }

    /// Ground-truth enrolled key. **Test/analysis access only** — the
    /// attacks never call this; it exists so experiments can verify that
    /// a recovered key is correct.
    pub fn enrolled_key(&self) -> &BitVec {
        &self.enrolled_key
    }

    /// Ground-truth array access for analysis/figures (never used by the
    /// attacks).
    pub fn array(&self) -> &RoArray {
        &self.array
    }

    /// Diagnostic reconstruction that surfaces the precise error.
    ///
    /// # Errors
    ///
    /// Propagates [`ReconstructError`].
    pub fn reconstruct_key(&mut self, env: Environment) -> Result<BitVec, ReconstructError> {
        self.queries += 1;
        let prepared = self
            .prepared
            .get_or_insert_with(|| self.scheme.prepare(self.array.dims(), &self.helper));
        prepared.reconstruct(&self.array, env, &mut self.rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::{GroupBasedConfig, GroupBasedScheme};
    use crate::pairing::lisa::{LisaConfig, LisaScheme};
    use ropuf_sim::{ArrayDims, RoArrayBuilder};

    fn provision_lisa(seed: u64) -> Device {
        let mut rng = StdRng::seed_from_u64(seed);
        let array = RoArrayBuilder::new(ArrayDims::new(16, 8)).build(&mut rng);
        Device::provision(
            array,
            Box::new(LisaScheme::new(LisaConfig::default())),
            seed,
        )
        .unwrap()
    }

    #[test]
    fn genuine_helper_yields_stable_tag() {
        let mut d = provision_lisa(1);
        let t1 = d.respond(b"n", Environment::nominal());
        let t2 = d.respond(b"n", Environment::nominal());
        assert_eq!(t1, t2, "same nonce, same key ⇒ same tag");
        assert!(!t1.is_failure());
    }

    #[test]
    fn different_nonces_different_tags() {
        let mut d = provision_lisa(2);
        let t1 = d.respond(b"a", Environment::nominal());
        let t2 = d.respond(b"b", Environment::nominal());
        assert_ne!(t1, t2);
    }

    #[test]
    fn garbage_helper_fails_observably() {
        let mut d = provision_lisa(3);
        d.write_helper(vec![0xFFu8; 10]);
        assert!(d.respond(b"n", Environment::nominal()).is_failure());
    }

    #[test]
    fn helper_restore_recovers_function() {
        let mut d = provision_lisa(4);
        let original = d.helper().to_vec();
        let good = d.respond(b"n", Environment::nominal());
        d.write_helper(vec![0u8; 4]);
        assert!(d.respond(b"n", Environment::nominal()).is_failure());
        d.write_helper(original);
        assert_eq!(d.respond(b"n", Environment::nominal()), good);
    }

    #[test]
    fn query_counter_increments() {
        let mut d = provision_lisa(5);
        assert_eq!(d.query_count(), 0);
        d.respond(b"x", Environment::nominal());
        d.respond(b"y", Environment::nominal());
        assert_eq!(d.query_count(), 2);
    }

    #[test]
    fn group_based_device_works() {
        let mut rng = StdRng::seed_from_u64(6);
        let array = RoArrayBuilder::new(ArrayDims::new(16, 8)).build(&mut rng);
        let mut d = Device::provision(
            array,
            Box::new(GroupBasedScheme::new(GroupBasedConfig::default())),
            7,
        )
        .unwrap();
        assert_eq!(d.scheme_name(), "group-based");
        assert!(!d.respond(b"n", Environment::nominal()).is_failure());
    }
}
