//! Numeric substrate for the `ropuf` workspace.
//!
//! This crate collects the mathematical building blocks that the rest of the
//! reproduction of *"Key-recovery Attacks on Various RO PUF Constructions via
//! Helper Data Manipulation"* (Delvaux & Verbauwhede, DATE 2014) relies on:
//!
//! * [`bits`] — a compact word-backed bit vector used for PUF responses,
//!   codewords and keys.
//! * [`linalg`] — small dense matrices and a Gaussian-elimination solver,
//!   enough for least-squares normal equations.
//! * [`polyfit`] — two-dimensional polynomial least-squares regression, the
//!   mathematical core of the paper's *entropy distiller* (Section V-A).
//! * [`stats`] — descriptive statistics, the binomial distribution used in
//!   the paper's failure model (Fig. 5), Wilson confidence intervals and a
//!   two-proportion z-test used by the attack framework.
//! * [`permutation`] — permutations of RO indices, Lehmer (factorial number
//!   system) ranking for the paper's *compact coding* and inversion tables
//!   for *Kendall coding* (Table I).
//! * [`sampling`] — Gaussian sampling via Box–Muller (the offline crate set
//!   has no `rand_distr`).
//! * [`histogram`] — a mergeable log-bucketed latency histogram
//!   (p50/p90/p99/p999) for the serving-layer harnesses.
//! * [`crc`] — the CRC-32 shared by the telemetry codec and the
//!   verifier's snapshot and WAL formats.
//!
//! # Examples
//!
//! ```
//! use ropuf_numeric::permutation::Permutation;
//!
//! let p = Permutation::from_slice(&[2, 0, 1]).unwrap();
//! assert_eq!(p.lehmer_rank(), 4); // CAB is the 5th of 6 orders
//! assert_eq!(Permutation::from_lehmer_rank(4, 3), p);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bits;
pub mod crc;
pub mod histogram;
pub mod linalg;
pub mod permutation;
pub mod polyfit;
pub mod sampling;
pub mod stats;

pub use bits::BitVec;
pub use crc::crc32;
pub use histogram::{
    bucket_floor, validate_sparse, Histogram, HistogramSummary, SparseHistogramError,
};
pub use linalg::Matrix;
pub use permutation::Permutation;
pub use polyfit::{Poly2d, PolyFitError};
pub use sampling::splitmix64;
