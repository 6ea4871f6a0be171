//! Kendall coding of in-group frequency orders (paper Section V-C,
//! Table I).
//!
//! For a group `G`, one bit is generated for every pair of member ROs.
//! Members are indexed *locally* in ascending RO-index order (the fixed
//! labelling A, B, C, … of Table I); bit `(u, v)` with `u < v` is 1 iff
//! member `v` is **faster** than member `u` is *false*… precisely: the
//! bit is 1 iff `v` precedes `u` in the descending-frequency order, i.e.
//! `values[v] > values[u]`. Adjacent-rank flips caused by noise change
//! exactly one Kendall bit, which relaxes the ECC's error-rate budget.

use ropuf_numeric::{BitVec, Permutation};

/// Canonical local labelling of a group: its member RO indices sorted
/// ascending. Table I's A, B, C, D are the members in this order.
pub fn canonical_members(members: &[usize]) -> Vec<usize> {
    let mut m = members.to_vec();
    m.sort_unstable();
    m
}

/// The descending-frequency order of a group as a permutation of its
/// canonical local labels.
///
/// # Panics
///
/// Panics if a member index exceeds `values`.
pub fn group_order(members: &[usize], values: &[f64]) -> Permutation {
    let canon = canonical_members(members);
    let local_values: Vec<f64> = canon.iter().map(|&i| values[i]).collect();
    Permutation::sorting_desc(&local_values)
}

/// Kendall bits of a group under a value map: `|G|(|G|−1)/2` bits in
/// lexicographic local-pair order.
pub fn group_kendall_bits(members: &[usize], values: &[f64]) -> Vec<bool> {
    let mut bits = BitVec::new();
    KendallScratch::default().extend(&canonical_members(members), values, &mut bits);
    bits.iter().collect()
}

/// Reused buffers for Kendall coding many groups, appending each
/// group's bits to a [`BitVec`] without per-group allocation.
#[derive(Debug, Clone, Default)]
pub(crate) struct KendallScratch {
    order: Vec<usize>,
    rank: Vec<usize>,
}

impl KendallScratch {
    /// Appends the Kendall bits of the group whose members, in
    /// canonical (ascending) order, are `canon`.
    pub(crate) fn extend(&mut self, canon: &[usize], values: &[f64], out: &mut BitVec) {
        let n = canon.len();
        // The same descending sort, comparator and tie-break as
        // `group_order`: residuals an attacker made NaN compare
        // "equal" to everything, so only the identical sort reproduces
        // its order.
        Permutation::sort_desc_indices(n, |k| values[canon[k]], &mut self.order);
        self.rank.clear();
        self.rank.resize(n, 0);
        for (pos, &e) in self.order.iter().enumerate() {
            self.rank[e] = pos;
        }
        for u in 0..n {
            for v in u + 1..n {
                out.push(self.rank[v] < self.rank[u]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_order_all_zero() {
        // Members 3,7,9 with descending values in label order.
        let mut values = vec![0.0; 10];
        values[3] = 30.0;
        values[7] = 20.0;
        values[9] = 10.0;
        let bits = group_kendall_bits(&[9, 3, 7], &values);
        assert_eq!(bits, vec![false, false, false]);
    }

    #[test]
    fn full_reversal_all_one() {
        let mut values = vec![0.0; 4];
        values[0] = 1.0;
        values[1] = 2.0;
        values[2] = 3.0;
        values[3] = 4.0;
        let bits = group_kendall_bits(&[0, 1, 2, 3], &values);
        assert!(bits.iter().all(|&b| b));
    }

    #[test]
    fn matches_table1_example() {
        // Order CABD over labels A,B,C,D (members 0..4):
        // C fastest, then A, B, D.
        let values = [3.0, 2.0, 4.0, 1.0];
        let order = group_order(&[0, 1, 2, 3], &values);
        assert_eq!(order.to_string(), "CABD");
        let bits: String = group_kendall_bits(&[0, 1, 2, 3], &values)
            .iter()
            .map(|&b| if b { '1' } else { '0' })
            .collect();
        assert_eq!(bits, "010100"); // Table I row CABD
    }

    #[test]
    fn singleton_and_pair_groups() {
        assert!(group_kendall_bits(&[5], &[0.0; 6]).is_empty());
        let values = [1.0, 2.0];
        assert_eq!(group_kendall_bits(&[0, 1], &values), vec![true]);
        assert_eq!(group_kendall_bits(&[1, 0], &values), vec![true]);
    }

    #[test]
    fn member_order_is_canonicalized() {
        // Bits must not depend on the order members are listed.
        let values = [5.0, 1.0, 3.0, 2.0];
        let a = group_kendall_bits(&[0, 1, 2, 3], &values);
        let b = group_kendall_bits(&[3, 0, 2, 1], &values);
        assert_eq!(a, b);
    }

    #[test]
    fn adjacent_swap_flips_one_bit() {
        // BACD vs BCAD (paper's example flip) differ in one Kendall bit.
        let bacd = [2.0, 3.0, 1.5, 1.0]; // B > A > C > D
        let bcad = [1.5, 3.0, 2.0, 1.0]; // B > C > A > D
        let ba = group_kendall_bits(&[0, 1, 2, 3], &bacd);
        let bc = group_kendall_bits(&[0, 1, 2, 3], &bcad);
        let diff = ba.iter().zip(&bc).filter(|(x, y)| x != y).count();
        assert_eq!(diff, 1);
    }
}
