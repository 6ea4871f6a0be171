//! Permutations of RO indices and their binary codings.
//!
//! The group-based RO PUF (paper Section V, Table I) turns the frequency
//! order of the ROs inside a group into bits in two ways:
//!
//! * **Compact coding** — the lexicographic rank of the order written in
//!   `⌈log₂(g!)⌉` bits (factorial number system / Lehmer code).
//! * **Kendall coding** — one bit per RO pair `(u, v)` with `u < v`
//!   (lexicographic pair order), set to 1 iff `v` precedes `u` in the order.
//!   Adjacent-swap errors flip exactly one Kendall bit, which is why the
//!   paper prefers it in front of the ECC.
//!
//! Both codings are implemented here together with rank/unrank utilities and
//! the Kendall tau distance.

use std::fmt;

/// A permutation of `0..n`, stored in one-line notation: `perm[k]` is the
/// element at position `k`.
///
/// For RO groups the convention throughout the workspace is *descending
/// frequency order*: `perm[0]` is the (local index of the) fastest RO.
///
/// # Examples
///
/// ```
/// use ropuf_numeric::Permutation;
///
/// let p = Permutation::sorting_desc(&[3.0, 9.0, 5.0]);
/// // 9.0 (index 1) is fastest, then 5.0 (index 2), then 3.0 (index 0)
/// assert_eq!(p.as_slice(), &[1, 2, 0]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Permutation {
    perm: Vec<usize>,
}

/// Error returned by [`Permutation::from_slice`] for non-permutations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidPermutationError;

impl fmt::Display for InvalidPermutationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slice is not a permutation of 0..n")
    }
}

impl std::error::Error for InvalidPermutationError {}

impl Permutation {
    /// The identity permutation of size `n`.
    pub fn identity(n: usize) -> Self {
        Self {
            perm: (0..n).collect(),
        }
    }

    /// Validates and wraps a one-line-notation slice.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidPermutationError`] when the slice is not a
    /// permutation of `0..len`.
    pub fn from_slice(perm: &[usize]) -> Result<Self, InvalidPermutationError> {
        let n = perm.len();
        let mut seen = vec![false; n];
        for &v in perm {
            if v >= n || seen[v] {
                return Err(InvalidPermutationError);
            }
            seen[v] = true;
        }
        Ok(Self {
            perm: perm.to_vec(),
        })
    }

    /// The permutation that sorts `values` into **descending** order:
    /// element `k` of the result is the index of the `k`-th largest value.
    /// Ties are broken by index (stable), mirroring a comparator that
    /// returns an arbitrary-but-fixed bit for Δf = 0.
    pub fn sorting_desc(values: &[f64]) -> Self {
        let mut perm = Vec::new();
        Self::sort_desc_indices(values.len(), |i| values[i], &mut perm);
        Self { perm }
    }

    /// The one-line notation of [`Self::sorting_desc`] over the `n`
    /// values `value(0), …, value(n − 1)`, written into a caller-owned
    /// buffer. Same comparator and tie-break, so the same order even
    /// when NaNs make the comparison inconsistent.
    pub fn sort_desc_indices(n: usize, value: impl Fn(usize) -> f64, idx: &mut Vec<usize>) {
        idx.clear();
        idx.extend(0..n);
        idx.sort_by(|&a, &b| {
            value(b)
                .partial_cmp(&value(a))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.perm.len()
    }

    /// Returns `true` for the empty permutation.
    pub fn is_empty(&self) -> bool {
        self.perm.is_empty()
    }

    /// One-line notation view.
    pub fn as_slice(&self) -> &[usize] {
        &self.perm
    }

    /// Position of element `e` in the order.
    ///
    /// # Panics
    ///
    /// Panics if `e >= self.len()`.
    pub fn position_of(&self, e: usize) -> usize {
        assert!(e < self.perm.len(), "element out of range");
        self.perm
            .iter()
            .position(|&v| v == e)
            .expect("valid permutation")
    }

    /// The inverse permutation.
    pub fn inverse(&self) -> Permutation {
        let mut inv = vec![0; self.perm.len()];
        for (pos, &e) in self.perm.iter().enumerate() {
            inv[e] = pos;
        }
        Permutation { perm: inv }
    }

    /// Lexicographic rank of this permutation among all `n!` permutations
    /// (the paper's *compact coding*, Table I column 2).
    ///
    /// # Panics
    ///
    /// Panics if `n > 20` (rank would overflow `u64`).
    pub fn lehmer_rank(&self) -> u64 {
        let n = self.perm.len();
        assert!(n <= 20, "rank overflows u64 beyond 20 elements");
        let mut rank: u64 = 0;
        for i in 0..n {
            let smaller_after = self.perm[i + 1..]
                .iter()
                .filter(|&&v| v < self.perm[i])
                .count() as u64;
            rank += smaller_after * factorial(n - 1 - i);
        }
        rank
    }

    /// Reconstructs the permutation of size `n` with the given lexicographic
    /// rank (inverse of [`Self::lehmer_rank`]).
    ///
    /// # Panics
    ///
    /// Panics if `rank >= n!` or `n > 20`.
    pub fn from_lehmer_rank(rank: u64, n: usize) -> Self {
        assert!(n <= 20, "rank overflows u64 beyond 20 elements");
        assert!(rank < factorial(n), "rank out of range");
        let mut avail: Vec<usize> = (0..n).collect();
        let mut rank = rank;
        let mut perm = Vec::with_capacity(n);
        for i in 0..n {
            let f = factorial(n - 1 - i);
            let idx = (rank / f) as usize;
            rank %= f;
            perm.push(avail.remove(idx));
        }
        Self { perm }
    }

    /// Kendall coding: one bit per pair `(u, v)`, `u < v`, in lexicographic
    /// pair order `(0,1), (0,2), …, (n-2,n-1)`; bit = 1 iff `v` precedes `u`
    /// (i.e. the pair is *inverted* relative to the identity).
    ///
    /// This matches the paper's Table I exactly with A=0, B=1, C=2, D=3.
    pub fn kendall_bits(&self) -> Vec<bool> {
        let n = self.perm.len();
        let inv = self.inverse();
        let mut bits = Vec::with_capacity(n * (n - 1) / 2);
        for u in 0..n {
            for v in u + 1..n {
                bits.push(inv.perm[v] < inv.perm[u]);
            }
        }
        bits
    }

    /// Reconstructs a permutation from Kendall bits by counting, for every
    /// element, how many pairwise comparisons it wins, then sorting by win
    /// count.
    ///
    /// Returns `Some` iff the bit pattern is **consistent** (transitive),
    /// i.e. the win counts are exactly `{n-1, n-2, …, 0}` and the resulting
    /// order reproduces the input bits. For inconsistent patterns (possible
    /// after uncorrected errors) `None` is returned; callers can fall back
    /// to [`Self::nearest_from_kendall_bits`].
    ///
    /// # Panics
    ///
    /// Panics if `bits.len()` is not a triangular number `n(n-1)/2`.
    pub fn from_kendall_bits(bits: &[bool]) -> Option<Self> {
        let n = order_from_pair_count(bits.len());
        let mut wins = vec![0usize; n];
        let mut k = 0;
        for u in 0..n {
            for v in u + 1..n {
                if bits[k] {
                    wins[v] += 1; // v precedes u: v wins the comparison
                } else {
                    wins[u] += 1;
                }
                k += 1;
            }
        }
        // A total order gives distinct win counts n-1 … 0.
        let mut idx: Vec<usize> = (0..n).collect();
        idx.sort_by(|&a, &b| wins[b].cmp(&wins[a]).then(a.cmp(&b)));
        for (pos, &e) in idx.iter().enumerate() {
            if wins[e] != n - 1 - pos {
                return None;
            }
        }
        let p = Permutation { perm: idx };
        if p.kendall_bits() == bits {
            Some(p)
        } else {
            None
        }
    }

    /// Best-effort decode of possibly inconsistent Kendall bits: sorts by
    /// win count with index tie-break. For consistent inputs this equals
    /// [`Self::from_kendall_bits`]; for inconsistent inputs it returns a
    /// nearby total order (a Borda-count approximation of the Kemeny
    /// optimum).
    ///
    /// # Panics
    ///
    /// Panics if `bits.len()` is not a triangular number.
    pub fn nearest_from_kendall_bits(bits: &[bool]) -> Self {
        let n = order_from_pair_count(bits.len());
        let mut wins = vec![0usize; n];
        let mut k = 0;
        for u in 0..n {
            for v in u + 1..n {
                if bits[k] {
                    wins[v] += 1;
                } else {
                    wins[u] += 1;
                }
                k += 1;
            }
        }
        let mut idx: Vec<usize> = (0..n).collect();
        idx.sort_by(|&a, &b| wins[b].cmp(&wins[a]).then(a.cmp(&b)));
        Permutation { perm: idx }
    }

    /// Kendall tau distance (number of discordant pairs) to another
    /// permutation of the same size.
    ///
    /// # Panics
    ///
    /// Panics if the sizes differ.
    pub fn kendall_distance(&self, other: &Permutation) -> usize {
        assert_eq!(self.len(), other.len(), "size mismatch");
        self.kendall_bits()
            .iter()
            .zip(other.kendall_bits())
            .filter(|&(a, b)| *a != b)
            .count()
    }

    /// Applies the permutation to a slice: element at position `k` of the
    /// output is `values[self.as_slice()[k]]`.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != self.len()`.
    pub fn apply<T: Clone>(&self, values: &[T]) -> Vec<T> {
        assert_eq!(values.len(), self.len(), "size mismatch");
        self.perm.iter().map(|&i| values[i].clone()).collect()
    }
}

impl fmt::Debug for Permutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Permutation{:?}", self.perm)
    }
}

impl fmt::Display for Permutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Letter form for small permutations (A=0…), as in the paper's
        // Table I; falls back to numbers beyond 26 elements.
        if self.perm.len() <= 26 {
            for &e in &self.perm {
                write!(f, "{}", (b'A' + e as u8) as char)?;
            }
            Ok(())
        } else {
            write!(f, "{:?}", self.perm)
        }
    }
}

/// `n!` as `u64`.
///
/// # Panics
///
/// Panics if `n > 20`.
pub fn factorial(n: usize) -> u64 {
    assert!(n <= 20, "factorial overflows u64 beyond 20");
    (1..=n as u64).product()
}

/// Number of bits of the compact coding of a `g`-element group:
/// `⌈log₂(g!)⌉`.
pub fn compact_code_bits(g: usize) -> usize {
    if g < 2 {
        return 0;
    }
    let f = factorial(g);
    64 - (f - 1).leading_zeros() as usize
}

/// Number of Kendall bits of a `g`-element group: `g(g-1)/2`.
pub fn kendall_code_bits(g: usize) -> usize {
    g * (g.saturating_sub(1)) / 2
}

fn order_from_pair_count(pairs: usize) -> usize {
    // Solve n(n-1)/2 = pairs.
    let n = (0.5 + (0.25 + 2.0 * pairs as f64).sqrt()).round() as usize;
    assert_eq!(
        n * n.saturating_sub(1) / 2,
        pairs,
        "bit count {pairs} is not triangular"
    );
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_rank_zero() {
        let p = Permutation::identity(5);
        assert_eq!(p.lehmer_rank(), 0);
        assert!(p.kendall_bits().iter().all(|&b| !b));
    }

    #[test]
    fn sorting_desc_basic() {
        let p = Permutation::sorting_desc(&[1.0, 5.0, 3.0, 4.0]);
        assert_eq!(p.as_slice(), &[1, 3, 2, 0]);
    }

    #[test]
    fn sorting_desc_ties_stable() {
        let p = Permutation::sorting_desc(&[2.0, 2.0, 1.0]);
        assert_eq!(p.as_slice(), &[0, 1, 2]);
    }

    #[test]
    fn rank_unrank_roundtrip_exhaustive_n4() {
        for r in 0..24 {
            let p = Permutation::from_lehmer_rank(r, 4);
            assert_eq!(p.lehmer_rank(), r);
        }
    }

    #[test]
    fn lex_rank_order_matches_lex_order() {
        // Rank 0 is identity (ABCD), rank 23 is reversed (DCBA).
        assert_eq!(Permutation::from_lehmer_rank(0, 4).to_string(), "ABCD");
        assert_eq!(Permutation::from_lehmer_rank(23, 4).to_string(), "DCBA");
        assert_eq!(Permutation::from_lehmer_rank(1, 4).to_string(), "ABDC");
    }

    #[test]
    fn table1_spot_checks() {
        // From the paper's Table I: CABD → compact 01100 (=12), Kendall 010100.
        let cabd = Permutation::from_slice(&[2, 0, 1, 3]).unwrap();
        assert_eq!(cabd.to_string(), "CABD");
        assert_eq!(cabd.lehmer_rank(), 12);
        let bits: String = cabd
            .kendall_bits()
            .iter()
            .map(|&b| if b { '1' } else { '0' })
            .collect();
        assert_eq!(bits, "010100");

        // ADBC → compact 00100 (=4), Kendall 000011.
        let adbc = Permutation::from_slice(&[0, 3, 1, 2]).unwrap();
        assert_eq!(adbc.lehmer_rank(), 4);
        let bits: String = adbc
            .kendall_bits()
            .iter()
            .map(|&b| if b { '1' } else { '0' })
            .collect();
        assert_eq!(bits, "000011");

        // DCBA → compact 10111 (=23), Kendall 111111.
        let dcba = Permutation::from_slice(&[3, 2, 1, 0]).unwrap();
        assert_eq!(dcba.lehmer_rank(), 23);
        assert!(dcba.kendall_bits().iter().all(|&b| b));
    }

    #[test]
    fn kendall_roundtrip_exhaustive_n4() {
        for r in 0..24 {
            let p = Permutation::from_lehmer_rank(r, 4);
            let bits = p.kendall_bits();
            assert_eq!(Permutation::from_kendall_bits(&bits), Some(p));
        }
    }

    #[test]
    fn kendall_inconsistent_detected() {
        // 3 elements, bits for pairs (0,1),(0,2),(1,2):
        // 1,0,1 means 1<0... wait: bit=1 ⇒ second precedes first.
        // (0,1)=1 ⇒ 1 before 0; (0,2)=0 ⇒ 0 before 2; (1,2)=1 ⇒ 2 before 1.
        // Cycle: 1 < 0 < 2 < 1 — inconsistent.
        assert_eq!(Permutation::from_kendall_bits(&[true, false, true]), None);
        // Nearest decode still yields a valid permutation.
        let near = Permutation::nearest_from_kendall_bits(&[true, false, true]);
        assert_eq!(near.len(), 3);
    }

    #[test]
    fn kendall_distance_counts_discordant_pairs() {
        let a = Permutation::identity(4);
        let b = Permutation::from_slice(&[1, 0, 2, 3]).unwrap();
        assert_eq!(a.kendall_distance(&b), 1);
        let c = Permutation::from_slice(&[3, 2, 1, 0]).unwrap();
        assert_eq!(a.kendall_distance(&c), 6);
    }

    #[test]
    fn adjacent_swap_flips_one_kendall_bit() {
        // Paper: "errors mostly occur in form of a flip, e.g. BACD to BCAD";
        // such adjacent transpositions change exactly one Kendall bit.
        let bacd = Permutation::from_slice(&[1, 0, 2, 3]).unwrap();
        let bcad = Permutation::from_slice(&[1, 2, 0, 3]).unwrap();
        assert_eq!(bacd.kendall_distance(&bcad), 1);
    }

    #[test]
    fn inverse_and_position() {
        let p = Permutation::from_slice(&[2, 0, 3, 1]).unwrap();
        let inv = p.inverse();
        for e in 0..4 {
            assert_eq!(p.position_of(e), inv.as_slice()[e]);
        }
    }

    #[test]
    fn apply_permutes_values() {
        let p = Permutation::from_slice(&[2, 0, 1]).unwrap();
        assert_eq!(p.apply(&["a", "b", "c"]), vec!["c", "a", "b"]);
    }

    #[test]
    fn code_lengths() {
        assert_eq!(compact_code_bits(4), 5); // ⌈log2 24⌉
        assert_eq!(kendall_code_bits(4), 6);
        assert_eq!(compact_code_bits(2), 1);
        assert_eq!(kendall_code_bits(2), 1);
        assert_eq!(compact_code_bits(1), 0);
        assert_eq!(kendall_code_bits(1), 0);
        assert_eq!(compact_code_bits(8), 16); // ⌈log2 40320⌉ = 16
    }

    #[test]
    fn from_slice_rejects_non_permutations() {
        assert!(Permutation::from_slice(&[0, 0, 1]).is_err());
        assert!(Permutation::from_slice(&[0, 3]).is_err());
        assert!(Permutation::from_slice(&[1, 2, 0]).is_ok());
    }

    #[test]
    fn factorial_values() {
        assert_eq!(factorial(0), 1);
        assert_eq!(factorial(5), 120);
        assert_eq!(factorial(20), 2_432_902_008_176_640_000);
    }
}
