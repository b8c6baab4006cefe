//! Inversion counting and reporting — the paper's Lemma 4.
//!
//! *"If the edges span a bounded region, the number of edge intersections can
//! be found within the region simply by knowing the order in which the edges
//! intersect the boundary of the region."* Within one scanbeam every active
//! edge spans the full beam, so the permutation between the bottom-scanline
//! order and the top-scanline order encodes exactly which pairs cross: pair
//! `(i, j)` crosses iff it is an **inversion** of that permutation.
//!
//! The paper extends Cole's merge sort so that the merge step first *counts*
//! cross-inversions (one run of the sort), then — after output-sensitive
//! processor allocation — *reports* each inversion pair in O(1) per pair
//! (a second run assisted by the `Cnt`/`Sum` auxiliary arrays). Here both
//! are sequential merge sorts: [`count_inversions`] counts, and
//! [`report_inversions_in`] reports each pair as its merge emits it. In
//! place of the count that would refuse an over-budget report, the reporter
//! takes an allowance and stops once it has emitted more pairs than that,
//! so a beam never materialises more than its share of a work budget.

/// Count inversions `(i < j, xs[i] > xs[j])` by merge sort. `O(n log n)`.
pub fn count_inversions<T: Ord + Copy>(xs: &[T]) -> u64 {
    let mut work: Vec<T> = xs.to_vec();
    let mut buf = work.clone();
    count_rec(&mut work, &mut buf)
}

fn count_rec<T: Ord + Copy>(xs: &mut [T], buf: &mut [T]) -> u64 {
    let n = xs.len();
    if n <= 1 {
        return 0;
    }
    let mid = n / 2;
    let mut inv = {
        let (xl, xr) = xs.split_at_mut(mid);
        let (bl, br) = buf.split_at_mut(mid);
        count_rec(xl, bl) + count_rec(xr, br)
    };
    // Merge, counting cross inversions: when an element of the right half is
    // emitted while `mid - i` left elements remain, each of those forms an
    // inversion with it (the paper's Inv_m).
    {
        let (mut i, mut j, mut k) = (0, mid, 0);
        while i < mid && j < n {
            if xs[j] < xs[i] {
                inv += (mid - i) as u64;
                buf[k] = xs[j];
                j += 1;
            } else {
                buf[k] = xs[i];
                i += 1;
            }
            k += 1;
        }
        while i < mid {
            buf[k] = xs[i];
            i += 1;
            k += 1;
        }
        while j < n {
            buf[k] = xs[j];
            j += 1;
            k += 1;
        }
    }
    xs.copy_from_slice(&buf[..n]);
    inv
}

/// Report every inversion as an **index pair** `(i, j)` with `i < j` and
/// `xs[i] > xs[j]`. Output order is unspecified. `O(n log n + k)` where `k`
/// is the number of inversions.
pub fn report_inversions<T: Ord + Copy>(xs: &[T]) -> Vec<(usize, usize)> {
    let mut scratch = InvScratch::default();
    let mut out = Vec::new();
    report_inversions_in(xs, None, &mut scratch, &mut out);
    out
}

/// Reusable working buffers for [`report_inversions_in`]: the index
/// permutation and its merge buffer. Keeping one per worker thread makes
/// repeated per-beam reporting allocation-free once capacity is established.
#[derive(Debug, Default)]
pub struct InvScratch {
    idx: Vec<usize>,
    buf: Vec<usize>,
}

/// [`report_inversions`] into caller-supplied buffers: `out` is cleared and
/// filled with the inversion pairs; `scratch` is reused across calls so the
/// steady state performs no allocation.
///
/// With `allowance: Some(a)` the merge sort stops as soon as `out` holds
/// more than `a` pairs. It checks after each run of pairs it emits for one
/// right-hand element, and such a run holds at most `xs.len() / 2` pairs,
/// so a stopped report holds between `a + 1` and `a + xs.len() / 2` genuine
/// inversions. A report that never exceeds `a` is identical to
/// [`report_inversions`], pair order included.
pub fn report_inversions_in<T: Ord + Copy>(
    xs: &[T],
    allowance: Option<u64>,
    scratch: &mut InvScratch,
    out: &mut Vec<(usize, usize)>,
) {
    out.clear();
    scratch.idx.clear();
    scratch.idx.extend(0..xs.len());
    scratch.buf.clear();
    scratch.buf.resize(xs.len(), 0);
    let cap = allowance.map_or(usize::MAX, |a| usize::try_from(a).unwrap_or(usize::MAX));
    report_rec(xs, &mut scratch.idx, &mut scratch.buf, cap, out);
}

/// The reporting merge sort over `idx`. Returns `true` once `out` holds
/// more than `cap` pairs, abandoning the sort.
fn report_rec<T: Ord + Copy>(
    vals: &[T],
    idx: &mut [usize],
    buf: &mut [usize],
    cap: usize,
    out: &mut Vec<(usize, usize)>,
) -> bool {
    let n = idx.len();
    if n <= 1 {
        return false;
    }
    let mid = n / 2;
    {
        let (il, ir) = idx.split_at_mut(mid);
        let (bl, br) = buf.split_at_mut(mid);
        if report_rec(vals, il, bl, cap, out) || report_rec(vals, ir, br, cap, out) {
            return true;
        }
    }
    let (mut i, mut j, mut k) = (0, mid, 0);
    while i < mid && j < n {
        if vals[idx[j]] < vals[idx[i]] {
            // idx[i..mid] all pair with idx[j]; original positions preserved
            // because we sort index arrays, so (left index, right index) is a
            // genuine (i < j) inversion of the input.
            for &li in &idx[i..mid] {
                out.push((li, idx[j]));
            }
            if out.len() > cap {
                return true;
            }
            buf[k] = idx[j];
            j += 1;
        } else {
            buf[k] = idx[i];
            i += 1;
        }
        k += 1;
    }
    while i < mid {
        buf[k] = idx[i];
        i += 1;
        k += 1;
    }
    while j < n {
        buf[k] = idx[j];
        j += 1;
        k += 1;
    }
    idx.copy_from_slice(&buf[..n]);
    false
}

/// Report inversions as **value pairs** `(xs[i], xs[j])` — the form of the
/// paper's Table I.
pub fn report_inversion_values<T: Ord + Copy>(xs: &[T]) -> Vec<(T, T)> {
    report_inversions(xs)
        .into_iter()
        .map(|(i, j)| (xs[i], xs[j]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn brute_pairs<T: Ord>(xs: &[T]) -> HashSet<(usize, usize)> {
        let mut s = HashSet::new();
        for i in 0..xs.len() {
            for j in i + 1..xs.len() {
                if xs[i] > xs[j] {
                    s.insert((i, j));
                }
            }
        }
        s
    }

    #[test]
    fn count_simple_cases() {
        assert_eq!(count_inversions::<u32>(&[]), 0);
        assert_eq!(count_inversions(&[1]), 0);
        assert_eq!(count_inversions(&[1, 2, 3]), 0);
        assert_eq!(count_inversions(&[3, 2, 1]), 3);
        assert_eq!(count_inversions(&[2, 1, 2, 1]), 3);
    }

    #[test]
    fn figure4_example() {
        // Paper Figure 4: order of edges at the lower scanline {3,2,4,1};
        // inversions (as index pairs of the crossing edges' values).
        let l = [3u32, 2, 4, 1];
        assert_eq!(count_inversions(&l), 4);
        let vals: HashSet<(u32, u32)> = report_inversion_values(&l).into_iter().collect();
        let want: HashSet<(u32, u32)> = [(3, 1), (3, 2), (4, 1), (2, 1)].into_iter().collect();
        assert_eq!(vals, want);
    }

    #[test]
    fn paper_table_i() {
        // Table I: merging A_l = {5,6,7,9} with A_r = {1,2,3,4} — every
        // left/right pair is inverted, 16 pairs total, exactly as listed.
        let xs = [5u32, 6, 7, 9, 1, 2, 3, 4];
        let got: HashSet<(u32, u32)> = report_inversion_values(&xs).into_iter().collect();
        let want: HashSet<(u32, u32)> = [
            (7, 1),
            (7, 2),
            (7, 4),
            (7, 3),
            (5, 3),
            (6, 3),
            (9, 3),
            (5, 1),
            (5, 2),
            (5, 4),
            (6, 1),
            (9, 1),
            (6, 2),
            (6, 4),
            (9, 2),
            (9, 4),
        ]
        .into_iter()
        .collect();
        assert_eq!(got, want);
        assert_eq!(count_inversions(&xs), 16);
    }

    #[test]
    fn report_matches_bruteforce_on_random_inputs() {
        let mut s = 0x9e3779b97f4a7c15u64;
        let mut rng = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for n in [0usize, 1, 2, 17, 64, 257] {
            let xs: Vec<u64> = (0..n).map(|_| rng() % 50).collect();
            let got: HashSet<(usize, usize)> = report_inversions(&xs).into_iter().collect();
            assert_eq!(got, brute_pairs(&xs), "n={n}");
            assert_eq!(count_inversions(&xs), got.len() as u64);
        }
    }

    #[test]
    fn allowance_stops_the_report_within_one_run() {
        let mut s = 987654321u64;
        let mut rng = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut scratch = InvScratch::default();
        let mut out = Vec::new();
        for n in [2usize, 17, 300, 2_000] {
            let xs: Vec<u64> = (0..n).map(|_| rng() % 1000).collect();
            let full = report_inversions(&xs);
            report_inversions_in(&xs, None, &mut scratch, &mut out);
            assert_eq!(out, full, "n={n}: no allowance reports every pair");
            let total = full.len() as u64;
            report_inversions_in(&xs, Some(total), &mut scratch, &mut out);
            assert_eq!(out, full, "n={n}: an allowance of k reports every pair");
            let brute = brute_pairs(&xs);
            for a in [0u64, 1, 10, total / 3, total.saturating_sub(1)] {
                if a >= total {
                    continue;
                }
                report_inversions_in(&xs, Some(a), &mut scratch, &mut out);
                let got = out.len() as u64;
                assert!(
                    a < got && got <= a + n as u64 / 2,
                    "n={n} a={a}: {got} pairs"
                );
                assert!(out.iter().all(|p| brute.contains(p)), "n={n} a={a}");
            }
        }
    }

    #[test]
    fn equal_elements_are_not_inversions() {
        let xs = [2u32, 2, 2, 2];
        assert_eq!(count_inversions(&xs), 0);
        assert!(report_inversions(&xs).is_empty());
    }

    #[test]
    fn descending_input_has_all_pairs() {
        let xs: Vec<u32> = (0..100).rev().collect();
        assert_eq!(count_inversions(&xs), 100 * 99 / 2);
        assert_eq!(report_inversions(&xs).len(), 100 * 99 / 2);
    }
}
