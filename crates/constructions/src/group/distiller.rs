//! The entropy distiller (paper Section V-A; DAC 2013).
//!
//! Systematic manufacturing variation is modelled via polynomial
//! regression on the two-dimensional frequency map `f(x, y)`; the
//! residuals are the desired random variation. The fitted coefficients
//! `β_{i,j}` are **public helper data**, and a subtraction procedure
//! removes the systematic component at every key regeneration — which is
//! exactly the attack surface of Section VI-C/D: an attacker who rewrites
//! the coefficients injects arbitrary spatial patterns into the residuals.

use ropuf_numeric::polyfit::{Poly2d, PolyFitError};
use ropuf_sim::ArrayDims;

/// The entropy distiller: fit-and-subtract of a polynomial surface.
///
/// # Examples
///
/// ```
/// use ropuf_constructions::group::Distiller;
/// use ropuf_sim::{ArrayDims, Environment, RoArrayBuilder};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let dims = ArrayDims::new(32, 16); // the 16×32 array of the paper
/// let array = RoArrayBuilder::new(dims).build(&mut rng);
/// let freqs = array.measure_all(Environment::nominal(), &mut rng);
/// let distiller = Distiller::new(2);
/// let poly = distiller.fit(dims, &freqs).unwrap();
/// let residuals = Distiller::subtract(dims, &freqs, &poly);
/// assert_eq!(residuals.len(), freqs.len());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Distiller {
    degree: usize,
}

impl Distiller {
    /// Creates a distiller of polynomial degree `p`. The paper's
    /// experiments indicate `p = 2` and `p = 3` as good values for a
    /// 16×32 array.
    pub fn new(degree: usize) -> Self {
        Self { degree }
    }

    /// Polynomial degree `p`.
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Fits the systematic surface to a measured frequency map
    /// (least mean squares, as in the paper).
    ///
    /// # Errors
    ///
    /// Returns [`PolyFitError`] when the sample set cannot determine the
    /// coefficients.
    ///
    /// # Panics
    ///
    /// Panics if `freqs.len() != dims.len()`.
    pub fn fit(&self, dims: ArrayDims, freqs: &[f64]) -> Result<Poly2d, PolyFitError> {
        assert_eq!(freqs.len(), dims.len(), "frequency map size mismatch");
        let samples: Vec<(f64, f64, f64)> = dims
            .iter_coords()
            .map(|(i, x, y)| (x as f64, y as f64, freqs[i]))
            .collect();
        Poly2d::fit(self.degree, &samples)
    }

    /// The subtraction procedure: residual `f_i − poly(x_i, y_i)` per RO.
    ///
    /// # Panics
    ///
    /// Panics if `freqs.len() != dims.len()`.
    pub fn subtract(dims: ArrayDims, freqs: &[f64], poly: &Poly2d) -> Vec<f64> {
        assert_eq!(freqs.len(), dims.len(), "frequency map size mismatch");
        let mut residuals = freqs.to_vec();
        Self::subtract_offsets(&mut residuals, &Self::offsets(dims, poly));
        residuals
    }

    /// The systematic surface `poly(x_i, y_i)` at every RO, in index
    /// order: what [`Distiller::subtract`] removes, computed once per
    /// polynomial.
    pub(crate) fn offsets(dims: ArrayDims, poly: &Poly2d) -> Vec<f64> {
        dims.iter_coords()
            .map(|(_, x, y)| poly.eval(x as f64, y as f64))
            .collect()
    }

    /// Turns a measured frequency map into residuals in place:
    /// `values[i] -= offsets[i]`.
    ///
    /// # Panics
    ///
    /// Panics if the two maps differ in size.
    pub(crate) fn subtract_offsets(values: &mut [f64], offsets: &[f64]) {
        assert_eq!(values.len(), offsets.len(), "frequency map size mismatch");
        for (v, o) in values.iter_mut().zip(offsets) {
            *v -= o;
        }
    }

    /// Fraction of map variance removed by the fit (R², diagnostic for the
    /// paper's Fig. 2 reproduction).
    ///
    /// # Panics
    ///
    /// Panics if `freqs.len() != dims.len()`.
    pub fn r_squared(dims: ArrayDims, freqs: &[f64], poly: &Poly2d) -> f64 {
        let residuals = Self::subtract(dims, freqs, poly);
        let var_f = ropuf_numeric::stats::variance(freqs);
        let var_r = ropuf_numeric::stats::variance(&residuals);
        if var_f == 0.0 {
            return 0.0;
        }
        1.0 - var_r / var_f
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ropuf_sim::{Environment, RoArrayBuilder, VariationProfile};

    #[test]
    fn removes_systematic_trend() {
        let mut rng = StdRng::seed_from_u64(3);
        let dims = ArrayDims::new(32, 16);
        let profile = VariationProfile {
            systematic_peak_hz: 5.0e6, // strong trend
            ..VariationProfile::default()
        };
        let array = RoArrayBuilder::new(dims).profile(profile).build(&mut rng);
        let freqs = array.measure_all_averaged(Environment::nominal(), 8, &mut rng);
        let d = Distiller::new(2);
        let poly = d.fit(dims, &freqs).unwrap();
        let residuals = Distiller::subtract(dims, &freqs, &poly);
        let sd_res = ropuf_numeric::stats::std_dev(&residuals);
        let sd_raw = ropuf_numeric::stats::std_dev(&freqs);
        assert!(
            sd_res < 0.7 * sd_raw,
            "residual sd {sd_res} vs raw {sd_raw}"
        );
        // Residual spread should approach the random component sigma.
        assert!(sd_res < 1.3 * profile.random_sigma_hz, "sd_res {sd_res}");
    }

    #[test]
    fn r_squared_high_with_trend_low_without() {
        let mut rng = StdRng::seed_from_u64(4);
        let dims = ArrayDims::new(24, 12);
        let trendy = RoArrayBuilder::new(dims)
            .profile(VariationProfile {
                systematic_peak_hz: 10.0e6,
                ..VariationProfile::default()
            })
            .build(&mut rng);
        let flat = RoArrayBuilder::new(dims)
            .profile(VariationProfile::random_only())
            .build(&mut rng);
        let d = Distiller::new(2);
        let ft = trendy.measure_all_averaged(Environment::nominal(), 8, &mut rng);
        let pt = d.fit(dims, &ft).unwrap();
        assert!(Distiller::r_squared(dims, &ft, &pt) > 0.8);
        let ff = flat.measure_all_averaged(Environment::nominal(), 8, &mut rng);
        let pf = d.fit(dims, &ff).unwrap();
        assert!(Distiller::r_squared(dims, &ff, &pf) < 0.2);
    }

    #[test]
    fn residual_order_immune_to_refit_noise() {
        // Fitting twice on different noisy maps of the same device should
        // yield nearly identical residual structure.
        let mut rng = StdRng::seed_from_u64(5);
        let dims = ArrayDims::new(16, 8);
        let array = RoArrayBuilder::new(dims).build(&mut rng);
        let d = Distiller::new(2);
        let f1 = array.measure_all_averaged(Environment::nominal(), 32, &mut rng);
        let f2 = array.measure_all_averaged(Environment::nominal(), 32, &mut rng);
        let r1 = Distiller::subtract(dims, &f1, &d.fit(dims, &f1).unwrap());
        let r2 = Distiller::subtract(dims, &f2, &d.fit(dims, &f2).unwrap());
        let mut agree = 0;
        let mut total = 0;
        for i in 0..r1.len() {
            for j in i + 1..r1.len() {
                if (r1[i] - r1[j]).abs() > 100e3 {
                    total += 1;
                    if (r1[i] > r1[j]) == (r2[i] > r2[j]) {
                        agree += 1;
                    }
                }
            }
        }
        assert!(agree as f64 / total as f64 > 0.99, "{agree}/{total}");
    }

    #[test]
    fn degree_zero_is_mean_removal() {
        let dims = ArrayDims::new(4, 4);
        let freqs: Vec<f64> = (0..16).map(|i| 100.0 + i as f64).collect();
        let d = Distiller::new(0);
        let poly = d.fit(dims, &freqs).unwrap();
        let mean = ropuf_numeric::stats::mean(&freqs);
        assert!((poly.eval(0.0, 0.0) - mean).abs() < 1e-9);
    }
}
