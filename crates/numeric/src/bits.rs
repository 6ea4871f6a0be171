//! A compact, word-backed bit vector.
//!
//! [`BitVec`] is used throughout the workspace for PUF response vectors,
//! ECC codewords, helper-data offsets and derived keys. It stores bits in
//! little-endian order inside `u64` words (bit `i` lives in word `i / 64`,
//! position `i % 64`).

use std::fmt;

/// A growable vector of bits backed by `u64` words.
///
/// # Examples
///
/// ```
/// use ropuf_numeric::BitVec;
///
/// let mut v = BitVec::new();
/// v.push(true);
/// v.push(false);
/// v.push(true);
/// assert_eq!(v.len(), 3);
/// assert_eq!(v.count_ones(), 2);
/// assert_eq!(format!("{}", v), "101");
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// Creates an empty bit vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a bit vector of `len` zero bits.
    pub fn zeros(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Creates a bit vector of `len` one bits.
    pub fn ones(len: usize) -> Self {
        let mut v = Self {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        v.mask_tail();
        v
    }

    /// Creates a bit vector from an iterator of booleans.
    pub fn from_bools<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let mut v = Self::new();
        for b in iter {
            v.push(b);
        }
        v
    }

    /// Creates a bit vector from a byte slice, least-significant bit of
    /// `bytes[0]` first, taking exactly `len` bits.
    ///
    /// # Panics
    ///
    /// Panics if `len > bytes.len() * 8`.
    pub fn from_bytes(bytes: &[u8], len: usize) -> Self {
        assert!(len <= bytes.len() * 8, "len exceeds available bits");
        Self::from_bools((0..len).map(|i| (bytes[i / 8] >> (i % 8)) & 1 == 1))
    }

    /// Serializes to bytes, least-significant bit first; the final partial
    /// byte (if any) is zero-padded.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.len.div_ceil(8)];
        for i in 0..self.len {
            if self.get(i) {
                out[i / 8] |= 1 << (i % 8);
            }
        }
        out
    }

    /// Number of bits stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when no bits are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn get(&self, i: usize) -> bool {
        assert!(
            i < self.len,
            "bit index {i} out of range (len {})",
            self.len
        );
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets bit `i` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(
            i < self.len,
            "bit index {i} out of range (len {})",
            self.len
        );
        let (w, b) = (i / 64, i % 64);
        if value {
            self.words[w] |= 1 << b;
        } else {
            self.words[w] &= !(1 << b);
        }
    }

    /// Flips bit `i`, returning its new value.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn flip(&mut self, i: usize) -> bool {
        let v = !self.get(i);
        self.set(i, v);
        v
    }

    /// Appends a bit.
    pub fn push(&mut self, value: bool) {
        if self.len % 64 == 0 {
            self.words.push(0);
        }
        self.len += 1;
        let i = self.len - 1;
        if value {
            self.words[i / 64] |= 1 << (i % 64);
        }
    }

    /// Appends all bits of `other`.
    pub fn extend_bits(&mut self, other: &BitVec) {
        for i in 0..other.len {
            self.push(other.get(i));
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// XOR with another vector of the same length.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn xor(&self, other: &BitVec) -> BitVec {
        assert_eq!(self.len, other.len, "BitVec length mismatch in xor");
        let mut out = self.clone();
        for (a, b) in out.words.iter_mut().zip(&other.words) {
            *a ^= b;
        }
        out
    }

    /// In-place XOR with another vector of the same length.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn xor_assign(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "BitVec length mismatch in xor");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a ^= b;
        }
    }

    /// Hamming distance to another vector of the same length.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn hamming(&self, other: &BitVec) -> usize {
        assert_eq!(self.len, other.len, "BitVec length mismatch in hamming");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum()
    }

    /// Returns the sub-vector `[start, start + len)`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the vector.
    pub fn slice(&self, start: usize, len: usize) -> BitVec {
        assert!(start + len <= self.len, "slice out of range");
        Self::from_bools((start..start + len).map(|i| self.get(i)))
    }

    /// Iterates over the indices of the set bits, in ascending order,
    /// one word at a time.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &bits)| {
            std::iter::successors(Some(bits), |&b| Some(b & b.wrapping_sub(1)))
                .take_while(|&b| b != 0)
                .map(move |b| w * 64 + b.trailing_zeros() as usize)
        })
    }

    /// Iterates over the bits.
    pub fn iter(&self) -> Iter<'_> {
        Iter { v: self, i: 0 }
    }

    /// Interprets the first `min(len, 64)` bits as a little-endian integer.
    pub fn as_u64(&self) -> u64 {
        if self.len == 0 {
            0
        } else if self.len >= 64 {
            self.words[0]
        } else {
            self.words[0] & ((1u64 << self.len) - 1)
        }
    }

    fn mask_tail(&mut self) {
        let rem = self.len % 64;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }
}

/// Borrowing iterator over the bits of a [`BitVec`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    v: &'a BitVec,
    i: usize,
}

impl Iterator for Iter<'_> {
    type Item = bool;

    fn next(&mut self) -> Option<bool> {
        if self.i < self.v.len {
            let b = self.v.get(self.i);
            self.i += 1;
            Some(b)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.v.len - self.i;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl FromIterator<bool> for BitVec {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        Self::from_bools(iter)
    }
}

impl Extend<bool> for BitVec {
    fn extend<I: IntoIterator<Item = bool>>(&mut self, iter: I) {
        for b in iter {
            self.push(b);
        }
    }
}

impl<'a> IntoIterator for &'a BitVec {
    type Item = bool;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl fmt::Display for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in self.iter() {
            write!(f, "{}", if b { '1' } else { '0' })?;
        }
        Ok(())
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec[{}]<{}>", self.len, self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_roundtrip() {
        let pattern: Vec<bool> = (0..200).map(|i| i % 3 == 0).collect();
        let v = BitVec::from_bools(pattern.iter().copied());
        assert_eq!(v.len(), 200);
        for (i, &b) in pattern.iter().enumerate() {
            assert_eq!(v.get(i), b, "bit {i}");
        }
    }

    #[test]
    fn zeros_and_ones() {
        let z = BitVec::zeros(130);
        assert_eq!(z.count_ones(), 0);
        assert_eq!(z.len(), 130);
        let o = BitVec::ones(130);
        assert_eq!(o.count_ones(), 130);
        assert_eq!(z.hamming(&o), 130);
    }

    #[test]
    fn xor_and_hamming_agree() {
        let a = BitVec::from_bools((0..100).map(|i| i % 2 == 0));
        let b = BitVec::from_bools((0..100).map(|i| i % 4 == 0));
        let x = a.xor(&b);
        assert_eq!(x.count_ones(), a.hamming(&b));
    }

    #[test]
    fn xor_assign_matches_xor() {
        let a = BitVec::from_bools((0..77).map(|i| i % 5 == 1));
        let b = BitVec::from_bools((0..77).map(|i| i % 7 == 2));
        let mut c = a.clone();
        c.xor_assign(&b);
        assert_eq!(c, a.xor(&b));
    }

    #[test]
    fn byte_roundtrip() {
        let v = BitVec::from_bools((0..19).map(|i| i % 2 == 1));
        let bytes = v.to_bytes();
        assert_eq!(bytes.len(), 3);
        let w = BitVec::from_bytes(&bytes, 19);
        assert_eq!(v, w);
    }

    #[test]
    fn flip_changes_one_bit() {
        let mut v = BitVec::zeros(70);
        assert!(v.flip(65));
        assert_eq!(v.count_ones(), 1);
        assert!(v.get(65));
        assert!(!v.flip(65));
        assert_eq!(v.count_ones(), 0);
    }

    #[test]
    fn slice_extracts_range() {
        let v = BitVec::from_bools((0..40).map(|i| i >= 20));
        let s = v.slice(18, 4);
        assert_eq!(format!("{s}"), "0011");
    }

    #[test]
    fn iter_ones_lists_set_bits_across_words() {
        let pattern = |i: usize| i % 7 == 3 || i == 63 || i == 64 || i == 199;
        let v = BitVec::from_bools((0..200).map(pattern));
        let want: Vec<usize> = (0..200).filter(|&i| pattern(i)).collect();
        assert_eq!(v.iter_ones().collect::<Vec<_>>(), want);
        assert_eq!(BitVec::zeros(130).iter_ones().count(), 0);
        assert_eq!(BitVec::ones(130).iter_ones().count(), 130);
        assert_eq!(BitVec::new().iter_ones().count(), 0);
    }

    #[test]
    fn as_u64_little_endian() {
        let mut v = BitVec::zeros(10);
        v.set(0, true);
        v.set(3, true);
        assert_eq!(v.as_u64(), 0b1001);
    }

    #[test]
    fn display_matches_bits() {
        let v = BitVec::from_bools([true, false, true, true]);
        assert_eq!(v.to_string(), "1011");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        BitVec::zeros(5).get(5);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn xor_length_mismatch_panics() {
        BitVec::zeros(5).xor(&BitVec::zeros(6));
    }

    #[test]
    fn extend_bits_concatenates() {
        let mut a = BitVec::from_bools([true, false]);
        let b = BitVec::from_bools([false, true, true]);
        a.extend_bits(&b);
        assert_eq!(a.to_string(), "10011");
    }
}
