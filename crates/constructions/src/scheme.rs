//! The common interface of helper-data key-generation schemes.

use rand::RngCore;
use ropuf_numeric::BitVec;
use ropuf_sim::{ArrayDims, Environment, RoArray};
use std::fmt;

use crate::wire::WireError;

/// Result of a one-time post-manufacturing enrollment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Enrollment {
    /// The derived secret key.
    pub key: BitVec,
    /// Byte-encoded public helper data (stored in off-chip NVM; the
    /// attacker has read **and write** access, paper §VII-B).
    pub helper: Vec<u8>,
}

/// Errors during enrollment.
#[derive(Debug, Clone, PartialEq)]
pub enum EnrollError {
    /// The array yields too few usable response bits for the configured
    /// parameters.
    InsufficientEntropy {
        /// Bits obtained.
        got: usize,
        /// Bits required.
        needed: usize,
    },
    /// The entropy-distiller regression failed (rank-deficient sample set).
    Distiller(String),
    /// No ECC with the requested parameters exists.
    Ecc(String),
}

impl fmt::Display for EnrollError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnrollError::InsufficientEntropy { got, needed } => {
                write!(f, "insufficient response bits: got {got}, need {needed}")
            }
            EnrollError::Distiller(s) => write!(f, "entropy distiller failed: {s}"),
            EnrollError::Ecc(s) => write!(f, "ECC construction failed: {s}"),
        }
    }
}

impl std::error::Error for EnrollError {}

/// Errors during key reconstruction — the attacker-observable event space.
#[derive(Debug, Clone, PartialEq)]
pub enum ReconstructError {
    /// Helper data failed to parse or a sanity check rejected it.
    Helper(WireError),
    /// The ECC could not correct the response (too many errors).
    EccFailure,
    /// Error-corrected bits decode to an inconsistent (non-transitive)
    /// frequency order.
    InconsistentOrder,
    /// The operating point lies outside the construction's supported
    /// range.
    OutOfRange {
        /// Requested temperature in °C.
        temperature_c: f64,
    },
    /// The robust fuzzy extractor detected helper-data manipulation.
    ManipulationDetected,
}

impl fmt::Display for ReconstructError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReconstructError::Helper(e) => write!(f, "helper data rejected: {e}"),
            ReconstructError::EccFailure => write!(f, "error correction failed"),
            ReconstructError::InconsistentOrder => {
                write!(f, "corrected bits encode an inconsistent frequency order")
            }
            ReconstructError::OutOfRange { temperature_c } => {
                write!(
                    f,
                    "operating point {temperature_c} °C outside supported range"
                )
            }
            ReconstructError::ManipulationDetected => {
                write!(f, "helper data manipulation detected")
            }
        }
    }
}

impl std::error::Error for ReconstructError {}

impl From<WireError> for ReconstructError {
    fn from(e: WireError) -> Self {
        ReconstructError::Helper(e)
    }
}

/// How strictly a device re-validates parsed helper data.
///
/// The paper (§VII-C) observes that proposals rarely specify sanity
/// checks, although "subtle differences might impact security
/// tremendously". Both policies parse the wire format fully; [`Strict`]
/// additionally re-validates semantic invariants (index ranges, duplicate
/// RO use, threshold properties) where the construction allows it.
///
/// [`Strict`]: SanityPolicy::Strict
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SanityPolicy {
    /// Structural parsing only — what a minimal implementation would do.
    /// This is the (realistic) default and the setting under which all
    /// paper attacks are demonstrated.
    #[default]
    Lenient,
    /// Re-validate semantic invariants. Blocks *some* manipulations (e.g.
    /// RO re-use across LISA pairs) but, as the paper argues, not the
    /// attacks themselves.
    Strict,
}

/// A helper-data key-generation scheme.
///
/// Implementations are deterministic given the RNG; all PUF noise comes
/// from the [`RoArray`] measurement model.
pub trait HelperDataScheme: fmt::Debug {
    /// Short human-readable name ("lisa", "group-based", …).
    fn name(&self) -> &'static str;

    /// Boxed clone of the scheme firmware.
    ///
    /// Schemes carry only configuration (no per-device state), so this
    /// is cheap; it lets campaign fleets re-provision many devices from
    /// a single scheme template without threading concrete types
    /// through. Also available as `Clone` on `Box<dyn HelperDataScheme>`.
    fn clone_box(&self) -> Box<dyn HelperDataScheme>;

    /// One-time enrollment: measures the array (enrollment-grade
    /// averaging), derives the key and emits public helper data.
    ///
    /// # Errors
    ///
    /// Returns [`EnrollError`] when the array cannot support the configured
    /// parameters.
    fn enroll(&self, array: &RoArray, rng: &mut dyn RngCore) -> Result<Enrollment, EnrollError>;

    /// Parses and validates helper bytes for an array of shape `dims`
    /// and precomputes everything reconstruction needs that depends on
    /// the helper alone (pair lists, distiller offsets, groups, the ECC
    /// code), so a device that answers many queries under one helper
    /// pays for it once.
    ///
    /// Preparation sees the array's shape only: by type it cannot read
    /// the secret frequencies or draw from the RNG. A helper that
    /// reconstruction rejects before measuring is rejected by the
    /// prepared form without drawing from the RNG; one rejected after
    /// measuring still measures first.
    fn prepare(&self, dims: ArrayDims, helper: &[u8]) -> Box<dyn PreparedHelper>;

    /// Key reconstruction from (possibly attacker-modified) helper bytes
    /// at the given operating point: [`HelperDataScheme::prepare`]
    /// followed by one [`PreparedHelper::reconstruct`].
    ///
    /// # Errors
    ///
    /// Returns [`ReconstructError`] when helper data is rejected or error
    /// correction fails — the externally observable failure event.
    fn reconstruct(
        &self,
        array: &RoArray,
        helper: &[u8],
        env: Environment,
        rng: &mut dyn RngCore,
    ) -> Result<BitVec, ReconstructError> {
        self.prepare(array.dims(), helper)
            .reconstruct(array, env, rng)
    }
}

/// Helper data in the form one scheme prepared it for one array shape
/// ([`HelperDataScheme::prepare`]): the per-query half of key
/// reconstruction.
pub trait PreparedHelper: fmt::Debug {
    /// Measures `array` once at `env` and regenerates the key, reusing
    /// buffers owned by the prepared form.
    ///
    /// `array` must have the shape the helper was prepared for. Results
    /// and RNG consumption equal those of a fresh
    /// [`HelperDataScheme::reconstruct`] with the same helper bytes.
    ///
    /// # Errors
    ///
    /// Identical to [`HelperDataScheme::reconstruct`].
    fn reconstruct(
        &mut self,
        array: &RoArray,
        env: Environment,
        rng: &mut dyn RngCore,
    ) -> Result<BitVec, ReconstructError>;
}

/// Boxes a scheme's prepared helper, or the rejection of a helper that
/// reconstruction refuses before measuring.
pub(crate) fn boxed<P: PreparedHelper + 'static>(
    prepared: Result<P, ReconstructError>,
) -> Box<dyn PreparedHelper> {
    match prepared {
        Ok(p) => Box::new(p),
        Err(e) => Box::new(Rejected(e)),
    }
}

/// The prepared form of helper data rejected before any measurement:
/// every reconstruction returns the same error and draws nothing from
/// the RNG.
#[derive(Debug)]
struct Rejected(ReconstructError);

impl PreparedHelper for Rejected {
    fn reconstruct(
        &mut self,
        _array: &RoArray,
        _env: Environment,
        _rng: &mut dyn RngCore,
    ) -> Result<BitVec, ReconstructError> {
        Err(self.0.clone())
    }
}

impl Clone for Box<dyn HelperDataScheme> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_displays() {
        let e = EnrollError::InsufficientEntropy { got: 3, needed: 8 };
        assert!(e.to_string().contains("got 3"));
        let r = ReconstructError::EccFailure;
        assert_eq!(r.to_string(), "error correction failed");
        let w: ReconstructError = WireError::TrailingBytes { count: 2 }.into();
        assert!(w.to_string().contains("trailing"));
    }

    #[test]
    fn sanity_policy_default_is_lenient() {
        assert_eq!(SanityPolicy::default(), SanityPolicy::Lenient);
    }
}
