//! RO PUF helper-data constructions — the systems under attack.
//!
//! This crate implements every key-generation construction the DATE 2014
//! paper analyzes, plus the fuzzy-extractor reference it recommends:
//!
//! | module | construction | paper section |
//! |--------|--------------|---------------|
//! | [`pairing::neighbor`] | chain of neighbors (disjoint & overlapping) | IV-A |
//! | [`pairing::masking`] | 1-out-of-k masking | IV-B |
//! | [`pairing::lisa`] | sequential pairing algorithm (LISA) | IV-C, Alg. 1 |
//! | [`cooperative`] | temperature-aware cooperative RO PUF | IV-D, Fig. 3 |
//! | [`group`] | group-based RO PUF: entropy distiller → grouping → Kendall coding → ECC → entropy packing | V, Fig. 4, Alg. 2, Table I |
//! | [`fuzzy`] | fuzzy extractor (code parity + SHA-256), plus a robust variant that authenticates helper data | VII-A, Fig. 7 |
//! | [`device`] | black-box device oracle with read/write helper NVM | VI (attacker model) |
//! | [`validate`] | defender-side helper digests + tag-dispatched wire reparse | VII (countermeasures) |
//!
//! All schemes implement [`HelperDataScheme`]: enrollment produces a key
//! and **byte-encoded public helper data** (hand-written wire format in
//! [`wire`], because the paper's §VII-C argues that the precise storage
//! format and its sanity checks are security-relevant); reconstruction
//! parses attacker-controlled bytes and regenerates the key.
//!
//! # Examples
//!
//! ```
//! use ropuf_constructions::pairing::lisa::{LisaConfig, LisaScheme};
//! use ropuf_constructions::HelperDataScheme;
//! use ropuf_sim::{ArrayDims, Environment, RoArrayBuilder};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let array = RoArrayBuilder::new(ArrayDims::new(16, 8)).build(&mut rng);
//! let scheme = LisaScheme::new(LisaConfig::default());
//! let enrollment = scheme.enroll(&array, &mut rng).unwrap();
//! let key = scheme
//!     .reconstruct(&array, &enrollment.helper, Environment::nominal(), &mut rng)
//!     .unwrap();
//! assert_eq!(key, enrollment.key);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cooperative;
pub mod device;
pub mod ecc_helper;
pub mod fuzzy;
pub mod group;
pub mod pairing;
pub mod scheme;
pub mod validate;
pub mod wire;

pub use device::{Device, DeviceResponse};
pub use ecc_helper::ParityHelper;
pub use scheme::{
    EnrollError, Enrollment, HelperDataScheme, PreparedHelper, ReconstructError, SanityPolicy,
};
pub use validate::{helper_digest, peek_scheme_tag, scheme_name_of_tag, validate_helper};
