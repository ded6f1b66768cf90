//! Consensus (medoid) selection.
//!
//! SpecHD's concluding kernel step "calculates a consensus cluster by
//! evaluating the lowest average minimum distance to all other spectra
//! within that cluster, based on the original distance matrix" (§III-C).
//! The medoid spectrum then represents the cluster in downstream database
//! searches.

use crate::condensed::{pair_index, Cells};
use crate::{ClusterAssignment, CondensedMatrix};

/// Returns the medoid of `members`: the member with the lowest total
/// (equivalently, average) distance to the other members, read from the
/// **original** matrix — the one [`crate::nn_chain`] was given, which it
/// leaves untouched. Ties resolve to the member listed first (the lowest
/// index, for the ascending lists of [`ClusterAssignment::clusters`]); a
/// singleton's medoid is its only member.
///
/// Over the kernel's 16-bit cells the totals are exact integer sums; over
/// `f64` cells they are `f64` sums in member order. For integer-valued
/// distances the two pick the same member.
///
/// # Panics
///
/// Panics if `members` is empty or contains an out-of-range index.
///
/// # Examples
///
/// ```
/// use spechd_cluster::{medoid, CondensedMatrix};
/// // Point 1 sits between 0 and 2.
/// let m = CondensedMatrix::from_fn(3, |i, j| ((i - j) as f64).abs());
/// assert_eq!(medoid(&m, &[0, 1, 2]), 1);
/// ```
pub fn medoid(matrix: &CondensedMatrix, members: &[usize]) -> usize {
    assert!(
        !members.is_empty(),
        "cannot take the medoid of an empty cluster"
    );
    assert!(
        members.iter().all(|&m| m < matrix.n()),
        "member index out of range"
    );
    match matrix.cells() {
        Cells::U16(d) => lowest_total(members, |i, j| u64::from(d[pair_index(i, j)])),
        Cells::F64(d) => lowest_total(members, |i, j| d[pair_index(i, j)]),
    }
}

/// The first member whose distances to the other members sum lowest.
fn lowest_total<S: PartialOrd + std::iter::Sum>(
    members: &[usize],
    distance: impl Fn(usize, usize) -> S,
) -> usize {
    let mut best: Option<(usize, S)> = None;
    for &candidate in members {
        let total: S = members
            .iter()
            .filter(|&&other| other != candidate)
            .map(|&other| distance(candidate, other))
            .sum();
        if best.as_ref().map_or(true, |(_, lowest)| total < *lowest) {
            best = Some((candidate, total));
        }
    }
    best.expect("members is non-empty").0
}

/// Computes the medoid of every cluster of `assignment`, indexed by
/// cluster label.
///
/// # Panics
///
/// Panics if the assignment length differs from the matrix size.
pub fn medoid_all(matrix: &CondensedMatrix, assignment: &ClusterAssignment) -> Vec<usize> {
    assert_eq!(
        assignment.len(),
        matrix.n(),
        "assignment/matrix size mismatch"
    );
    assignment
        .clusters()
        .iter()
        .map(|members| medoid(matrix, members))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medoid_of_line_is_center() {
        let m = CondensedMatrix::from_fn(5, |i, j| ((i as f64) - (j as f64)).abs());
        assert_eq!(medoid(&m, &[0, 1, 2, 3, 4]), 2);
    }

    #[test]
    fn medoid_of_pair_is_lower_index() {
        let m = CondensedMatrix::from_fn(3, |_, _| 1.0);
        assert_eq!(medoid(&m, &[2, 1]), 2, "first listed wins ties");
        assert_eq!(medoid(&m, &[1, 2]), 1);
    }

    #[test]
    fn singleton_medoid() {
        let m = CondensedMatrix::zeros(3);
        assert_eq!(medoid(&m, &[2]), 2);
    }

    #[test]
    fn medoid_uses_subset_only() {
        // Point 3 is globally central but not in the cluster.
        let m = CondensedMatrix::from_fn(4, |i, j| {
            if i == 3 || j == 3 {
                0.1
            } else {
                ((i as f64) - (j as f64)).abs()
            }
        });
        assert_eq!(medoid(&m, &[0, 1, 2]), 1);
    }

    #[test]
    fn medoid_all_per_cluster() {
        let m = CondensedMatrix::from_fn(6, |i, j| ((i as f64) - (j as f64)).abs());
        let a = ClusterAssignment::from_raw_labels(&[0, 0, 0, 1, 1, 1]);
        assert_eq!(medoid_all(&m, &a), vec![1, 4]);
    }

    #[test]
    fn sixteen_bit_cells_pick_the_same_medoids_as_widened_cells() {
        use spechd_rng::{Rng, Xoshiro256StarStar};
        let mut rng = Xoshiro256StarStar::seed_from_u64(11);
        // Few distinct distances, so totals tie and the first-listed rule
        // decides; members are listed in shuffled order to exercise it.
        for values in [1u64, 2, 5, 2048] {
            for n in [2usize, 3, 9, 40] {
                let cells: Vec<u16> = (0..n * (n - 1) / 2)
                    .map(|_| rng.bounded_u64(values) as u16)
                    .collect();
                let wide = CondensedMatrix::from_condensed(n, crate::condensed::widened(&cells));
                let narrow = CondensedMatrix::from_condensed_u16(n, cells);
                let mut members: Vec<usize> = (0..n).collect();
                spechd_rng::shuffle(&mut members, &mut rng);
                for len in 1..=n {
                    assert_eq!(
                        medoid(&narrow, &members[..len]),
                        medoid(&wide, &members[..len]),
                        "values {values} n {n} first {len}"
                    );
                }
                let raw: Vec<usize> = (0..n).map(|i| i % 3).collect();
                let a = ClusterAssignment::from_raw_labels(&raw);
                assert_eq!(medoid_all(&narrow, &a), medoid_all(&wide, &a));
            }
        }
        // All distances equal: the first member listed, not the lowest index.
        let flat = CondensedMatrix::from_condensed_u16(4, vec![9; 6]);
        assert_eq!(medoid(&flat, &[3, 0, 2]), 3);
        assert_eq!(medoid(&flat, &[0, 3, 2]), 0);
    }

    #[test]
    #[should_panic(expected = "empty cluster")]
    fn empty_members_panics() {
        medoid(&CondensedMatrix::zeros(2), &[]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_member_panics() {
        medoid(&CondensedMatrix::zeros(2), &[5]);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn medoid_all_size_mismatch_panics() {
        let a = ClusterAssignment::from_raw_labels(&[0, 0]);
        medoid_all(&CondensedMatrix::zeros(3), &a);
    }
}
