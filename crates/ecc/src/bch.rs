//! Narrow-sense binary BCH codes.
//!
//! `BCH(n = 2^m − 1, k, t)` with systematic encoding and algebraic decoding
//! (syndromes → Berlekamp–Massey → Chien search). Shortened variants drop
//! `s` leading message bits so that arbitrary response lengths can be
//! protected.
//!
//! Bit order convention: bit `j` of a codeword [`BitVec`] is the
//! coefficient of `x^j` of the code polynomial.

use std::cell::RefCell;
use std::collections::HashMap;

use ropuf_numeric::BitVec;

use crate::code::{BinaryCode, DecodeError, Decoded};
use crate::gf2m::{Gf2m, UnsupportedFieldError};
use crate::gf2poly::Gf2Poly;

/// A (possibly shortened) narrow-sense binary BCH code.
///
/// # Examples
///
/// ```
/// use ropuf_ecc::{BchCode, BinaryCode};
/// use ropuf_numeric::BitVec;
///
/// let code = BchCode::new(5, 3).unwrap(); // BCH(31, 16, t=3)
/// assert_eq!((code.n(), code.k(), code.t()), (31, 16, 3));
/// let msg = BitVec::zeros(16);
/// let cw = code.encode(&msg);
/// assert!(code.is_codeword(&cw));
/// ```
#[derive(Debug, Clone)]
pub struct BchCode {
    field: Gf2m,
    /// Full (unshortened) code length `2^m − 1`.
    full_n: usize,
    /// Full message length.
    full_k: usize,
    /// Number of leading message bits removed by shortening.
    shorten: usize,
    t: usize,
    generator: Gf2Poly,
}

/// Errors constructing a [`BchCode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BchConstructError {
    /// Field size out of the supported range.
    Field(UnsupportedFieldError),
    /// `t` is zero or so large that no message bits remain.
    InvalidT {
        /// Requested correction capability.
        t: usize,
        /// Message bits that would remain (0 when invalid).
        remaining_k: usize,
    },
    /// Shortening at least as long as the message length.
    InvalidShorten {
        /// Requested shortening.
        shorten: usize,
        /// Full message length.
        k: usize,
    },
}

impl std::fmt::Display for BchConstructError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BchConstructError::Field(e) => write!(f, "{e}"),
            BchConstructError::InvalidT { t, remaining_k } => {
                write!(
                    f,
                    "t = {t} leaves no message bits (k would be {remaining_k})"
                )
            }
            BchConstructError::InvalidShorten { shorten, k } => {
                write!(f, "shortening {shorten} must be less than k = {k}")
            }
        }
    }
}

impl std::error::Error for BchConstructError {}

impl From<UnsupportedFieldError> for BchConstructError {
    fn from(e: UnsupportedFieldError) -> Self {
        BchConstructError::Field(e)
    }
}

impl BchCode {
    /// Constructs the full-length BCH code over GF(2^m) correcting `t`
    /// errors.
    ///
    /// Each `(m, t)` is built once per thread and cloned from then on
    /// (the field tables are shared, the generator is a few words), so
    /// callers that rebuild their code per key reconstruction pay a
    /// lookup, not the field and generator construction.
    ///
    /// # Errors
    ///
    /// Returns an error for unsupported `m` or a `t` that leaves no
    /// message bits.
    pub fn new(m: u32, t: usize) -> Result<Self, BchConstructError> {
        thread_local! {
            /// Every `(m, t)` built on this thread, failures included.
            /// At most 10 fields times the `t` values in use.
            static CODES: RefCell<HashMap<(u32, usize), Result<BchCode, BchConstructError>>> =
                RefCell::new(HashMap::new());
        }
        CODES.with(|codes| {
            codes
                .borrow_mut()
                .entry((m, t))
                .or_insert_with(|| Self::build(m, t))
                .clone()
        })
    }

    fn build(m: u32, t: usize) -> Result<Self, BchConstructError> {
        if t == 0 {
            return Err(BchConstructError::InvalidT { t, remaining_k: 0 });
        }
        let field = Gf2m::new(m)?;
        let full_n = field.order() as usize;
        // Generator = product of minimal polynomials over the distinct
        // cyclotomic cosets of 1..=2t.
        let mut covered = std::collections::HashSet::new();
        let mut generator = Gf2Poly::one();
        for i in 1..=(2 * t as u32) {
            let rep = i % field.order();
            if covered.contains(&rep) {
                continue;
            }
            for c in field.cyclotomic_coset(rep) {
                covered.insert(c);
            }
            generator = generator.mul(&field.minimal_polynomial(rep));
        }
        let gdeg = generator.degree().expect("generator is non-zero");
        if gdeg >= full_n {
            return Err(BchConstructError::InvalidT { t, remaining_k: 0 });
        }
        let full_k = full_n - gdeg;
        Ok(Self {
            field,
            full_n,
            full_k,
            shorten: 0,
            t,
            generator,
        })
    }

    /// Returns a shortened version of this code: `s` leading message bits
    /// are fixed to zero and removed, giving an `(n − s, k − s)` code with
    /// the same `t`.
    ///
    /// # Errors
    ///
    /// Returns [`BchConstructError::InvalidShorten`] if `s >= k`.
    pub fn shortened(&self, s: usize) -> Result<Self, BchConstructError> {
        if self.shorten + s >= self.full_k {
            return Err(BchConstructError::InvalidShorten {
                shorten: s,
                k: self.k(),
            });
        }
        let mut c = self.clone();
        c.shorten += s;
        Ok(c)
    }

    /// Picks the smallest supported BCH code (by `m`, then maximal
    /// shortening) whose message length is at least `k_min` with
    /// correction capability exactly `t`.
    ///
    /// # Errors
    ///
    /// Returns the last construction error if no supported field fits.
    pub fn for_message_len(k_min: usize, t: usize) -> Result<Self, BchConstructError> {
        let mut last_err = BchConstructError::InvalidT { t, remaining_k: 0 };
        for m in 3..=12 {
            match Self::new(m, t) {
                Ok(code) => {
                    if code.full_k >= k_min {
                        let s = code.full_k - k_min;
                        return if s == 0 { Ok(code) } else { code.shortened(s) };
                    }
                    last_err = BchConstructError::InvalidT {
                        t,
                        remaining_k: code.full_k,
                    };
                }
                Err(e) => last_err = e,
            }
        }
        Err(last_err)
    }

    /// The generator polynomial.
    pub fn generator(&self) -> &Gf2Poly {
        &self.generator
    }

    /// The underlying field.
    pub fn field(&self) -> &Gf2m {
        &self.field
    }

    /// Number of parity (redundancy) bits `n − k`.
    pub fn parity_bits(&self) -> usize {
        self.full_n - self.full_k
    }

    /// The 2t syndromes `S_i = r(α^i)`, `i = 1..=2t`, of the binary word
    /// whose set bits are `ones` (every position below `2^m − 1`).
    ///
    /// Walks the set bits once. For bit `j` the exponent of `α^{i·j}`
    /// steps by `2j` from one odd `i` to the next, with one conditional
    /// subtraction in place of a modulo; the even syndromes follow as
    /// `S_2i = S_i²`, which holds for binary words.
    fn syndromes(&self, ones: impl IntoIterator<Item = usize>) -> Vec<u32> {
        let (exp, _) = self.field.tables();
        let n = self.full_n;
        let mut syn = vec![0u32; 2 * self.t];
        for j in ones {
            debug_assert!(j < n, "bit {j} beyond the code length {n}");
            let step = if 2 * j >= n { 2 * j - n } else { 2 * j };
            let mut e = j;
            for s in syn.iter_mut().step_by(2) {
                *s ^= exp[e];
                e += step;
                if e >= n {
                    e -= n;
                }
            }
        }
        for i in (2..=syn.len()).step_by(2) {
            let half = syn[i / 2 - 1];
            syn[i - 1] = self.field.mul(half, half);
        }
        syn
    }

    /// Berlekamp–Massey: returns the error-locator polynomial coefficients
    /// `σ` (σ[0] = 1) over GF(2^m).
    fn berlekamp_massey(&self, syn: &[u32]) -> Vec<u32> {
        let f = &self.field;
        let mut sigma = vec![1u32];
        let mut prev = vec![1u32];
        let mut l = 0usize;
        let mut shift = 1usize;
        let mut b = 1u32;
        for n in 0..syn.len() {
            // Discrepancy d = S_n + Σ_{i=1..L} σ_i S_{n-i}.
            let mut d = syn[n];
            for i in 1..=l.min(sigma.len() - 1) {
                if n >= i {
                    d ^= f.mul(sigma[i], syn[n - i]);
                }
            }
            if d == 0 {
                shift += 1;
            } else if 2 * l <= n {
                let t_poly = sigma.clone();
                let coef = f.div(d, b);
                sigma = poly_sub_scaled_shift(f, &sigma, &prev, coef, shift);
                l = n + 1 - l;
                prev = t_poly;
                b = d;
                shift = 1;
            } else {
                let coef = f.div(d, b);
                sigma = poly_sub_scaled_shift(f, &sigma, &prev, coef, shift);
                shift += 1;
            }
        }
        // Trim trailing zeros.
        while sigma.len() > 1 && *sigma.last().unwrap() == 0 {
            sigma.pop();
        }
        sigma
    }

    /// Chien search: the positions `j < limit` with `σ(α^{−j}) = 0`, in
    /// ascending order.
    ///
    /// Each non-zero term keeps the log of `σ_d·α^{−jd}` and steps it
    /// down by `d` per position. The search stops after `deg σ` roots,
    /// since a polynomial of that degree has no more.
    fn chien(&self, sigma: &[u32], limit: usize) -> Vec<usize> {
        let (exp, log) = self.field.tables();
        let n = self.full_n;
        let degree = sigma.len() - 1;
        // (current log, per-position decrement) of every non-zero term.
        let mut terms: Vec<(usize, usize)> = sigma
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c != 0)
            .map(|(d, &c)| (log[c as usize] as usize, d % n))
            .collect();
        let mut out = Vec::with_capacity(degree);
        for j in 0..limit {
            if out.len() == degree {
                break;
            }
            if terms.iter().fold(0, |acc, &(l, _)| acc ^ exp[l]) == 0 {
                out.push(j);
            }
            for (l, d) in &mut terms {
                *l = if *l >= *d { *l - *d } else { *l + n - *d };
            }
        }
        out
    }
}

/// `a + coef·x^shift·b` over GF(2^m) (addition = subtraction).
fn poly_sub_scaled_shift(f: &Gf2m, a: &[u32], b: &[u32], coef: u32, shift: usize) -> Vec<u32> {
    let len = a.len().max(b.len() + shift);
    let mut out = vec![0u32; len];
    out[..a.len()].copy_from_slice(a);
    for (i, &bc) in b.iter().enumerate() {
        out[i + shift] ^= f.mul(coef, bc);
    }
    out
}

impl BinaryCode for BchCode {
    fn n(&self) -> usize {
        self.full_n - self.shorten
    }

    fn k(&self) -> usize {
        self.full_k - self.shorten
    }

    fn t(&self) -> usize {
        self.t
    }

    fn encode(&self, msg: &BitVec) -> BitVec {
        assert_eq!(msg.len(), self.k(), "message length must equal k");
        // Message polynomial placed in the high positions:
        // c(x) = m(x)·x^(n−k) + rem(m(x)·x^(n−k), g).
        let nk = self.parity_bits();
        let mpoly = Gf2Poly::from_coeffs(std::iter::repeat(false).take(nk).chain(msg.iter()));
        let rem = mpoly.rem(&self.generator);
        let mut cw = BitVec::zeros(self.n());
        for j in 0..nk {
            if rem.coeff(j) {
                cw.set(j, true);
            }
        }
        for (idx, bit) in msg.iter().enumerate() {
            if bit {
                cw.set(nk + idx, true);
            }
        }
        cw
    }

    fn decode(&self, word: &BitVec) -> Result<Decoded, DecodeError> {
        if word.len() != self.n() {
            return Err(DecodeError::LengthMismatch {
                expected: self.n(),
                got: word.len(),
            });
        }
        let syn = self.syndromes(word.iter_ones());
        if syn.iter().all(|&s| s == 0) {
            return Ok(Decoded {
                message: word.slice(self.parity_bits(), self.k()),
                codeword: word.clone(),
                corrected: 0,
            });
        }
        let sigma = self.berlekamp_massey(&syn);
        let errors = sigma.len() - 1;
        if errors > self.t {
            return Err(DecodeError::TooManyErrors);
        }
        // Roots in the shortened (known-zero) positions cannot come from
        // ≤ t real errors, so the search stops at the shortened length:
        // such a root shows as a missing one.
        let positions = self.chien(&sigma, self.n());
        if positions.len() != errors {
            return Err(DecodeError::TooManyErrors);
        }
        // Sanity: the corrected word must have zero syndromes, i.e. the
        // located errors alone must reproduce the received syndromes.
        if self.syndromes(positions.iter().copied()) != syn {
            return Err(DecodeError::TooManyErrors);
        }
        let mut codeword = word.clone();
        for &p in &positions {
            codeword.flip(p);
        }
        Ok(Decoded {
            message: codeword.slice(self.parity_bits(), self.k()),
            codeword,
            corrected: positions.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The decoder as it was before syndromes and the Chien search
    /// became table-driven: every exponent reduced with a `u64` modulo,
    /// the word expanded to full length, the search over every position
    /// and the sanity check on the corrected word. The table-driven
    /// decoder must agree with it on every outcome.
    mod reference {
        use super::*;

        fn expand(code: &BchCode, word: &BitVec) -> BitVec {
            if code.shorten == 0 {
                return word.clone();
            }
            let mut full = word.clone();
            for _ in 0..code.shorten {
                full.push(false);
            }
            full
        }

        fn syndromes(code: &BchCode, word: &BitVec) -> Vec<u32> {
            (1..=2 * code.t as u64)
                .map(|i| {
                    let mut s = 0u32;
                    for j in 0..code.full_n {
                        if word.get(j) {
                            s ^= code.field.alpha_pow(i * j as u64);
                        }
                    }
                    s
                })
                .collect()
        }

        fn berlekamp_massey(code: &BchCode, syn: &[u32]) -> Vec<u32> {
            let f = &code.field;
            let mut sigma = vec![1u32];
            let mut prev = vec![1u32];
            let mut l = 0usize;
            let mut shift = 1usize;
            let mut b = 1u32;
            for n in 0..syn.len() {
                let mut d = syn[n];
                for i in 1..=l.min(sigma.len() - 1) {
                    if n >= i {
                        d ^= f.mul(sigma[i], syn[n - i]);
                    }
                }
                if d == 0 {
                    shift += 1;
                } else if 2 * l <= n {
                    let t_poly = sigma.clone();
                    let coef = f.div(d, b);
                    sigma = poly_sub_scaled_shift(f, &sigma, &prev, coef, shift);
                    l = n + 1 - l;
                    prev = t_poly;
                    b = d;
                    shift = 1;
                } else {
                    let coef = f.div(d, b);
                    sigma = poly_sub_scaled_shift(f, &sigma, &prev, coef, shift);
                    shift += 1;
                }
            }
            while sigma.len() > 1 && *sigma.last().unwrap() == 0 {
                sigma.pop();
            }
            sigma
        }

        fn chien(code: &BchCode, sigma: &[u32]) -> Vec<usize> {
            let f = &code.field;
            let n = code.full_n as u64;
            let mut out = Vec::new();
            for j in 0..code.full_n as u64 {
                let mut acc = 0u32;
                for (d, &c) in sigma.iter().enumerate() {
                    if c != 0 {
                        let e = (n - j % n) % n * d as u64;
                        acc ^= f.mul(c, f.alpha_pow(e));
                    }
                }
                if acc == 0 {
                    out.push(j as usize);
                }
            }
            out
        }

        pub(super) fn decode(code: &BchCode, word: &BitVec) -> Result<Decoded, DecodeError> {
            if word.len() != code.n() {
                return Err(DecodeError::LengthMismatch {
                    expected: code.n(),
                    got: word.len(),
                });
            }
            let full = expand(code, word);
            let syn = syndromes(code, &full);
            if syn.iter().all(|&s| s == 0) {
                let message = full.slice(code.parity_bits(), code.k());
                return Ok(Decoded {
                    message,
                    codeword: word.clone(),
                    corrected: 0,
                });
            }
            let sigma = berlekamp_massey(code, &syn);
            let errors = sigma.len() - 1;
            if errors > code.t {
                return Err(DecodeError::TooManyErrors);
            }
            let positions = chien(code, &sigma);
            if positions.len() != errors {
                return Err(DecodeError::TooManyErrors);
            }
            let mut corrected = full.clone();
            for &p in &positions {
                if p >= code.full_n - code.shorten && p >= code.parity_bits() + code.k() {
                    return Err(DecodeError::TooManyErrors);
                }
                corrected.flip(p);
            }
            if syndromes(code, &corrected).iter().any(|&s| s != 0) {
                return Err(DecodeError::TooManyErrors);
            }
            let message = corrected.slice(code.parity_bits(), code.k());
            let codeword = corrected.slice(0, code.n());
            Ok(Decoded {
                message,
                codeword,
                corrected: positions.len(),
            })
        }

        /// `for_message_len` over freshly built (not memoized) codes.
        pub(super) fn for_message_len(
            k_min: usize,
            t: usize,
        ) -> Result<BchCode, BchConstructError> {
            let mut last_err = BchConstructError::InvalidT { t, remaining_k: 0 };
            for m in 3..=12 {
                match BchCode::build(m, t) {
                    Ok(code) => {
                        if code.full_k >= k_min {
                            let s = code.full_k - k_min;
                            return if s == 0 { Ok(code) } else { code.shortened(s) };
                        }
                        last_err = BchConstructError::InvalidT {
                            t,
                            remaining_k: code.full_k,
                        };
                    }
                    Err(e) => last_err = e,
                }
            }
            Err(last_err)
        }
    }

    fn same_code(a: &BchCode, b: &BchCode) -> bool {
        (a.n(), a.k(), a.t(), a.generator()) == (b.n(), b.k(), b.t(), b.generator())
    }

    #[test]
    fn table_decoder_agrees_with_reference() {
        let mut rng = StdRng::seed_from_u64(0xbc4);
        let mut outcomes = [0usize; 3]; // clean, corrected, failed
        for m in 3..=8 {
            for t in 1.. {
                let Ok(full) = BchCode::new(m, t) else {
                    break;
                };
                let k = full.k();
                let mut shortenings = vec![0, k / 2, k - 1];
                shortenings.dedup();
                // Every error count for small t; the edges around 0 and
                // t plus a few draws in between for large t.
                let counts: Vec<usize> = if t <= 6 {
                    (0..=t + 2).collect()
                } else {
                    let mut c = vec![0, 1, 2, t - 1, t, t + 1, t + 2];
                    c.extend((0..3).map(|_| rng.random_range(3..t - 1)));
                    c
                };
                for &s in &shortenings {
                    let code = if s == 0 {
                        full.clone()
                    } else {
                        full.shortened(s).unwrap()
                    };
                    for &errors in &counts {
                        let msg = BitVec::from_bools((0..code.k()).map(|_| rng.random()));
                        let mut word = code.encode(&msg);
                        let errors = errors.min(code.n());
                        for e in ropuf_numeric::sampling::sample_indices(&mut rng, code.n(), errors)
                        {
                            word.flip(e);
                        }
                        let got = code.decode(&word);
                        let want = reference::decode(&code, &word);
                        assert_eq!(
                            got, want,
                            "m {m}, t {t}, shortened {s}, {errors} errors, word {word}"
                        );
                        outcomes[match &got {
                            Ok(d) if d.corrected == 0 => 0,
                            Ok(_) => 1,
                            Err(_) => 2,
                        }] += 1;
                    }
                    // A uniformly random word, mostly beyond the decoding
                    // radius of every codeword.
                    let word = BitVec::from_bools((0..code.n()).map(|_| rng.random()));
                    assert_eq!(
                        code.decode(&word),
                        reference::decode(&code, &word),
                        "m {m}, t {t}, shortened {s}, random word {word}"
                    );
                }
            }
        }
        assert!(outcomes.iter().all(|&c| c > 100), "{outcomes:?}");
    }

    #[test]
    fn memoized_codes_equal_fresh_ones() {
        for m in 3..=12 {
            for t in 1..=8 {
                match (BchCode::new(m, t), BchCode::build(m, t)) {
                    (Ok(a), Ok(b)) => assert!(same_code(&a, &b), "m {m}, t {t}"),
                    (a, b) => assert_eq!(a.err(), b.err(), "m {m}, t {t}"),
                }
                // A second lookup hits the memo and still agrees.
                let again = BchCode::new(m, t).map(|c| c.generator().clone());
                let fresh = BchCode::build(m, t).map(|c| c.generator().clone());
                assert_eq!(again, fresh);
            }
        }
    }

    #[test]
    fn for_message_len_is_unchanged_by_memoization() {
        for t in 1..=5 {
            for k in 1..=64 {
                match (
                    BchCode::for_message_len(k, t),
                    reference::for_message_len(k, t),
                ) {
                    (Ok(a), Ok(b)) => assert!(same_code(&a, &b), "k {k}, t {t}"),
                    (a, b) => assert_eq!(a.err(), b.err(), "k {k}, t {t}"),
                }
            }
        }
    }

    #[test]
    fn classic_bch_15_7_2() {
        let code = BchCode::new(4, 2).unwrap();
        assert_eq!(code.n(), 15);
        assert_eq!(code.k(), 7);
        // g(x) = x⁸+x⁷+x⁶+x⁴+1 (standard narrow-sense BCH(15,7)).
        assert_eq!(code.generator(), &Gf2Poly::from_coeff_bits(0b111010001));
    }

    #[test]
    fn classic_bch_15_5_3() {
        let code = BchCode::new(4, 3).unwrap();
        assert_eq!(code.k(), 5);
        // g(x) = x¹⁰+x⁸+x⁵+x⁴+x²+x+1.
        assert_eq!(code.generator(), &Gf2Poly::from_coeff_bits(0b10100110111));
    }

    #[test]
    fn bch_31_16_3_parameters() {
        let code = BchCode::new(5, 3).unwrap();
        assert_eq!((code.n(), code.k(), code.t()), (31, 16, 3));
    }

    #[test]
    fn bch_63_45_3_parameters() {
        let code = BchCode::new(6, 3).unwrap();
        assert_eq!((code.n(), code.k(), code.t()), (63, 45, 3));
    }

    #[test]
    fn bch_127_64_10_parameters() {
        let code = BchCode::new(7, 10).unwrap();
        assert_eq!((code.n(), code.k()), (127, 64));
    }

    #[test]
    fn encode_produces_codeword_divisible_by_generator() {
        let code = BchCode::new(5, 2).unwrap();
        let msg = BitVec::from_bools((0..code.k()).map(|i| i % 3 == 0));
        let cw = code.encode(&msg);
        let cpoly = Gf2Poly::from_coeffs(cw.iter());
        assert!(cpoly.rem(code.generator()).is_zero());
    }

    #[test]
    fn roundtrip_no_errors() {
        let code = BchCode::new(5, 3).unwrap();
        let msg = BitVec::from_bools((0..code.k()).map(|i| (i * 7) % 3 == 1));
        let cw = code.encode(&msg);
        let d = code.decode(&cw).unwrap();
        assert_eq!(d.message, msg);
        assert_eq!(d.corrected, 0);
        assert_eq!(d.codeword, cw);
    }

    #[test]
    fn corrects_up_to_t_errors_exhaustive_positions() {
        let code = BchCode::new(4, 2).unwrap();
        let msg = BitVec::from_bools((0..7).map(|i| i % 2 == 1));
        let cw = code.encode(&msg);
        // All single and double error patterns.
        for i in 0..15 {
            let mut w = cw.clone();
            w.flip(i);
            let d = code.decode(&w).unwrap();
            assert_eq!(d.message, msg, "single error at {i}");
            assert_eq!(d.corrected, 1);
            for j in i + 1..15 {
                let mut w2 = w.clone();
                w2.flip(j);
                let d2 = code.decode(&w2).unwrap();
                assert_eq!(d2.message, msg, "errors at {i},{j}");
                assert_eq!(d2.corrected, 2);
            }
        }
    }

    #[test]
    fn random_t_errors_corrected_bch_63() {
        let code = BchCode::new(6, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(77);
        for trial in 0..50 {
            let msg = BitVec::from_bools((0..code.k()).map(|_| rng.random()));
            let cw = code.encode(&msg);
            let mut w = cw.clone();
            let errs = ropuf_numeric::sampling::sample_indices(&mut rng, code.n(), code.t());
            for &e in &errs {
                w.flip(e);
            }
            let d = code
                .decode(&w)
                .unwrap_or_else(|e| panic!("trial {trial}: {e}"));
            assert_eq!(d.message, msg);
            assert_eq!(d.corrected, code.t());
        }
    }

    #[test]
    fn more_than_t_errors_fails_or_miscorrects() {
        let code = BchCode::new(5, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        let msg = BitVec::from_bools((0..code.k()).map(|_| rng.random()));
        let cw = code.encode(&msg);
        let mut failures = 0;
        let mut miscorrections = 0;
        for _ in 0..100 {
            let mut w = cw.clone();
            for e in ropuf_numeric::sampling::sample_indices(&mut rng, code.n(), code.t() + 2) {
                w.flip(e);
            }
            match code.decode(&w) {
                Err(DecodeError::TooManyErrors) => failures += 1,
                Ok(d) if d.message != msg => miscorrections += 1,
                Ok(_) => {} // error pattern happened to stay within a ball
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(
            failures + miscorrections > 50,
            "t+2 errors should usually break decoding"
        );
    }

    #[test]
    fn shortened_code_roundtrip() {
        let code = BchCode::new(6, 3).unwrap().shortened(20).unwrap();
        assert_eq!(code.k(), 25);
        assert_eq!(code.n(), 43);
        let mut rng = StdRng::seed_from_u64(5);
        let msg = BitVec::from_bools((0..25).map(|_| rng.random()));
        let cw = code.encode(&msg);
        let mut w = cw.clone();
        for e in [0usize, 17, 40] {
            w.flip(e);
        }
        let d = code.decode(&w).unwrap();
        assert_eq!(d.message, msg);
        assert_eq!(d.corrected, 3);
    }

    #[test]
    fn for_message_len_picks_fitting_code() {
        let code = BchCode::for_message_len(20, 2).unwrap();
        assert_eq!(code.k(), 20);
        assert_eq!(code.t(), 2);
        let exact = BchCode::for_message_len(7, 2).unwrap();
        assert_eq!((exact.n(), exact.k()), (15, 7));
    }

    #[test]
    fn wrong_length_rejected() {
        let code = BchCode::new(4, 2).unwrap();
        let w = BitVec::zeros(14);
        assert!(matches!(
            code.decode(&w),
            Err(DecodeError::LengthMismatch {
                expected: 15,
                got: 14
            })
        ));
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(BchCode::new(2, 1).is_err());
        assert!(BchCode::new(4, 0).is_err());
        // t=3 over GF(8) degenerates to the [7,1] repetition code — valid.
        let rep7 = BchCode::new(3, 3).unwrap();
        assert_eq!((rep7.n(), rep7.k()), (7, 1));
        assert!(BchCode::new(3, 4).is_err()); // t too large for n=7
        let code = BchCode::new(4, 2).unwrap();
        assert!(code.shortened(7).is_err());
    }

    #[test]
    fn all_zero_and_all_one_codewords() {
        // Narrow-sense BCH contains the all-zero word; all-ones iff
        // x+1 does not divide g (n odd ⇒ all-ones is a codeword iff
        // g(1) != 0). Just verify zero decodes cleanly.
        let code = BchCode::new(5, 3).unwrap();
        let z = BitVec::zeros(31);
        let d = code.decode(&z).unwrap();
        assert_eq!(d.message, BitVec::zeros(16));
    }
}
