//! The finite fields GF(2^m) with log/antilog tables.
//!
//! Elements are represented as `u32` bit vectors over the polynomial basis
//! defined by a fixed primitive polynomial per `m`. The generator `α = x`
//! (value `0b10`) is primitive, so exp/log tables cover all non-zero
//! elements.

use std::fmt;
use std::sync::Arc;

/// Primitive polynomials (including the leading term) for 3 ≤ m ≤ 12.
const PRIMITIVE_POLYS: [(u32, u32); 10] = [
    (3, 0b1011),
    (4, 0b10011),
    (5, 0b100101),
    (6, 0b1000011),
    (7, 0b10001001),
    (8, 0b100011101),
    (9, 0b1000010001),
    (10, 0b10000001001),
    (11, 0b100000000101),
    (12, 0b1000001010011),
];

/// Error for unsupported field sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnsupportedFieldError {
    /// Requested extension degree.
    pub m: u32,
}

impl fmt::Display for UnsupportedFieldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "GF(2^{}) is not supported (3 ≤ m ≤ 12)", self.m)
    }
}

impl std::error::Error for UnsupportedFieldError {}

/// The field GF(2^m). Cheap to clone (tables behind an [`Arc`]).
///
/// # Examples
///
/// ```
/// use ropuf_ecc::Gf2m;
///
/// let f = Gf2m::new(4).unwrap();
/// let a = f.alpha_pow(3);
/// assert_eq!(f.mul(a, f.inv(a)), 1);
/// ```
#[derive(Clone)]
pub struct Gf2m {
    m: u32,
    size: u32,
    poly: u32,
    exp: Arc<Vec<u32>>,
    log: Arc<Vec<u32>>,
}

impl Gf2m {
    /// Constructs GF(2^m) with the standard primitive polynomial.
    ///
    /// # Errors
    ///
    /// Returns [`UnsupportedFieldError`] for `m` outside 3..=12.
    pub fn new(m: u32) -> Result<Self, UnsupportedFieldError> {
        let &(_, poly) = PRIMITIVE_POLYS
            .iter()
            .find(|&&(mm, _)| mm == m)
            .ok_or(UnsupportedFieldError { m })?;
        let size = 1u32 << m;
        let n = size - 1;
        let mut exp = vec![0u32; 2 * n as usize];
        let mut log = vec![0u32; size as usize];
        let mut v: u32 = 1;
        for i in 0..n {
            exp[i as usize] = v;
            log[v as usize] = i;
            v <<= 1;
            if v & size != 0 {
                v ^= poly;
            }
        }
        // Duplicate table to skip a modular reduction in mul.
        for i in 0..n {
            exp[(n + i) as usize] = exp[i as usize];
        }
        Ok(Self {
            m,
            size,
            poly,
            exp: Arc::new(exp),
            log: Arc::new(log),
        })
    }

    /// Extension degree `m`.
    pub fn m(&self) -> u32 {
        self.m
    }

    /// Multiplicative group order `n = 2^m − 1` (also the natural BCH code
    /// length).
    pub fn order(&self) -> u32 {
        self.size - 1
    }

    /// The defining primitive polynomial (including the leading term).
    pub fn primitive_poly(&self) -> u32 {
        self.poly
    }

    /// `α^e` with `e` reduced mod `2^m − 1`.
    pub fn alpha_pow(&self, e: u64) -> u32 {
        self.exp[(e % self.order() as u64) as usize]
    }

    /// The antilog table (`exp[e] = α^e` for `e < 2·(2^m − 1)`) and the
    /// log table (`log[a]` for non-zero `a`), for loops that step
    /// exponents themselves instead of reducing them per lookup.
    pub(crate) fn tables(&self) -> (&[u32], &[u32]) {
        (&self.exp, &self.log)
    }

    /// Discrete log base α of a non-zero element.
    ///
    /// # Panics
    ///
    /// Panics if `a == 0` or `a` is out of range.
    pub fn log(&self, a: u32) -> u32 {
        assert!(
            a != 0 && a < self.size,
            "log of zero or out-of-range element"
        );
        self.log[a as usize]
    }

    /// Field addition (XOR).
    pub fn add(&self, a: u32, b: u32) -> u32 {
        a ^ b
    }

    /// Field multiplication.
    ///
    /// # Panics
    ///
    /// Panics if either operand is out of range.
    pub fn mul(&self, a: u32, b: u32) -> u32 {
        assert!(a < self.size && b < self.size, "operand out of range");
        if a == 0 || b == 0 {
            return 0;
        }
        self.exp[(self.log[a as usize] + self.log[b as usize]) as usize]
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if `a == 0`.
    pub fn inv(&self, a: u32) -> u32 {
        assert!(a != 0, "zero has no inverse");
        let n = self.order();
        self.exp[((n - self.log[a as usize]) % n) as usize]
    }

    /// Division `a / b`.
    ///
    /// # Panics
    ///
    /// Panics if `b == 0`.
    pub fn div(&self, a: u32, b: u32) -> u32 {
        self.mul(a, self.inv(b))
    }

    /// `a^e` by table lookup.
    pub fn pow(&self, a: u32, e: u64) -> u32 {
        if a == 0 {
            return if e == 0 { 1 } else { 0 };
        }
        let n = self.order() as u64;
        self.exp[((self.log[a as usize] as u64 * (e % n)) % n) as usize]
    }

    /// The cyclotomic coset of `i` modulo `2^m − 1`:
    /// `{i, 2i, 4i, …}` — the exponents of the conjugates of `α^i`.
    pub fn cyclotomic_coset(&self, i: u32) -> Vec<u32> {
        let n = self.order();
        let start = i % n;
        let mut coset = vec![start];
        let mut cur = (start * 2) % n;
        while cur != start {
            coset.push(cur);
            cur = (cur * 2) % n;
        }
        coset
    }

    /// The minimal polynomial of `α^i` over GF(2), as a
    /// [`Gf2Poly`](crate::Gf2Poly).
    ///
    /// Computed as `Π_{j ∈ coset(i)} (x − α^j)` with coefficients in
    /// GF(2^m); the product is guaranteed to collapse into {0,1}
    /// coefficients.
    pub fn minimal_polynomial(&self, i: u32) -> crate::Gf2Poly {
        let coset = self.cyclotomic_coset(i);
        // poly[d] = coefficient (in GF(2^m)) of x^d.
        let mut poly: Vec<u32> = vec![1];
        for &j in &coset {
            let root = self.alpha_pow(j as u64);
            // Multiply by (x + root).
            let mut next = vec![0u32; poly.len() + 1];
            for (d, &c) in poly.iter().enumerate() {
                next[d + 1] ^= c; // x * c
                next[d] ^= self.mul(c, root); // root * c
            }
            poly = next;
        }
        crate::Gf2Poly::from_coeffs(poly.iter().map(|&c| {
            debug_assert!(c <= 1, "minimal polynomial coefficient not in GF(2)");
            c == 1
        }))
    }
}

impl fmt::Debug for Gf2m {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Gf2m(2^{}, poly {:#b})", self.m, self.poly)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_supported_fields_build() {
        for m in 3..=12 {
            let f = Gf2m::new(m).unwrap();
            assert_eq!(f.order(), (1 << m) - 1);
        }
        assert!(Gf2m::new(2).is_err());
        assert!(Gf2m::new(13).is_err());
    }

    #[test]
    fn alpha_generates_whole_group() {
        let f = Gf2m::new(5).unwrap();
        let mut seen = std::collections::HashSet::new();
        for e in 0..f.order() {
            seen.insert(f.alpha_pow(e as u64));
        }
        assert_eq!(seen.len(), f.order() as usize);
        assert!(!seen.contains(&0));
    }

    #[test]
    fn mul_inverse_identity() {
        let f = Gf2m::new(6).unwrap();
        for a in 1..=f.order() {
            assert_eq!(f.mul(a, f.inv(a)), 1, "a = {a}");
        }
    }

    #[test]
    fn mul_associative_sample() {
        let f = Gf2m::new(4).unwrap();
        for a in 0..16 {
            for b in 0..16 {
                for c in 0..16 {
                    assert_eq!(f.mul(f.mul(a, b), c), f.mul(a, f.mul(b, c)));
                }
            }
        }
    }

    #[test]
    fn distributivity_sample() {
        let f = Gf2m::new(4).unwrap();
        for a in 0..16 {
            for b in 0..16 {
                for c in 0..16 {
                    assert_eq!(f.mul(a, b ^ c), f.mul(a, b) ^ f.mul(a, c));
                }
            }
        }
    }

    #[test]
    fn pow_matches_repeated_mul() {
        let f = Gf2m::new(5).unwrap();
        let a = f.alpha_pow(7);
        let mut acc = 1;
        for e in 0..10u64 {
            assert_eq!(f.pow(a, e), acc, "e = {e}");
            acc = f.mul(acc, a);
        }
        assert_eq!(f.pow(0, 0), 1);
        assert_eq!(f.pow(0, 5), 0);
    }

    #[test]
    fn cyclotomic_cosets_of_gf16() {
        let f = Gf2m::new(4).unwrap();
        assert_eq!(f.cyclotomic_coset(1), vec![1, 2, 4, 8]);
        assert_eq!(f.cyclotomic_coset(3), vec![3, 6, 12, 9]);
        assert_eq!(f.cyclotomic_coset(5), vec![5, 10]);
    }

    #[test]
    fn minimal_polynomials_of_gf16() {
        let f = Gf2m::new(4).unwrap();
        // m1(x) = x⁴+x+1 (the primitive polynomial itself)
        assert_eq!(
            f.minimal_polynomial(1),
            crate::Gf2Poly::from_coeff_bits(0b10011)
        );
        // m3(x) = x⁴+x³+x²+x+1
        assert_eq!(
            f.minimal_polynomial(3),
            crate::Gf2Poly::from_coeff_bits(0b11111)
        );
        // m5(x) = x²+x+1
        assert_eq!(
            f.minimal_polynomial(5),
            crate::Gf2Poly::from_coeff_bits(0b111)
        );
    }

    #[test]
    fn minimal_polynomial_annihilates_its_root() {
        let f = Gf2m::new(6).unwrap();
        for i in [1u32, 3, 5, 7, 9] {
            let mp = f.minimal_polynomial(i);
            // Evaluate mp at α^i over GF(2^m).
            let root = f.alpha_pow(i as u64);
            let mut acc = 0u32;
            for d in 0..=mp.degree().unwrap() {
                if mp.coeff(d) {
                    acc ^= f.pow(root, d as u64);
                }
            }
            assert_eq!(acc, 0, "m_{i}(α^{i}) != 0");
        }
    }
}
