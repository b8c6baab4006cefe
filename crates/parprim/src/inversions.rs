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
//! (a second run assisted by the `Cnt`/`Sum` auxiliary arrays). Our multicore
//! realization keeps the same two-phase structure: a counting pass using
//! merge-sort (sequential) or sorted-halves + binary-search ranks (parallel),
//! then a count → prefix-sum → fill reporting pass
//! ([`crate::pack::scatter_offsets`]).

use crate::pack::scatter_offsets;
use crate::SEQ_CUTOFF;
use rayon::prelude::*;

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
    report_inversions_in(xs, &mut scratch, &mut out);
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

impl InvScratch {
    /// Bytes of heap capacity currently held by the scratch buffers.
    pub fn capacity_bytes(&self) -> u64 {
        ((self.idx.capacity() + self.buf.capacity()) * std::mem::size_of::<usize>()) as u64
    }
}

/// [`report_inversions`] into caller-supplied buffers: `out` is cleared and
/// filled with the inversion pairs; `scratch` is reused across calls so the
/// steady state performs no allocation. Results are identical to
/// [`report_inversions`].
pub fn report_inversions_in<T: Ord + Copy>(
    xs: &[T],
    scratch: &mut InvScratch,
    out: &mut Vec<(usize, usize)>,
) {
    out.clear();
    scratch.idx.clear();
    scratch.idx.extend(0..xs.len());
    scratch.buf.clear();
    scratch.buf.resize(xs.len(), 0);
    report_rec(xs, &mut scratch.idx, &mut scratch.buf, out);
}

fn report_rec<T: Ord + Copy>(
    vals: &[T],
    idx: &mut [usize],
    buf: &mut [usize],
    out: &mut Vec<(usize, usize)>,
) {
    let n = idx.len();
    if n <= 1 {
        return;
    }
    let mid = n / 2;
    {
        let (il, ir) = idx.split_at_mut(mid);
        let (bl, br) = buf.split_at_mut(mid);
        report_rec(vals, il, bl, out);
        report_rec(vals, ir, br, out);
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
}

/// Report inversions as **value pairs** `(xs[i], xs[j])` — the form of the
/// paper's Table I.
pub fn report_inversion_values<T: Ord + Copy>(xs: &[T]) -> Vec<(T, T)> {
    report_inversions(xs)
        .into_iter()
        .map(|(i, j)| (xs[i], xs[j]))
        .collect()
}

/// Parallel inversion count: fork-join on halves, cross-count by ranking the
/// right half's elements in the sorted left half. `O(n log n)` work,
/// polylogarithmic span.
pub fn par_count_inversions<T>(xs: &[T]) -> u64
where
    T: Ord + Copy + Send + Sync + Default,
{
    if xs.len() <= SEQ_CUTOFF {
        return count_inversions(xs);
    }
    let mid = xs.len() / 2;
    let (l, r) = xs.split_at(mid);
    let ((cl, mut sl), (cr, sr)) = rayon::join(
        || {
            let c = par_count_inversions(l);
            let mut s = l.to_vec();
            crate::sort::par_merge_sort(&mut s, |a, b| a.cmp(b));
            (c, s)
        },
        || {
            let c = par_count_inversions(r);
            let mut s = r.to_vec();
            crate::sort::par_merge_sort(&mut s, |a, b| a.cmp(b));
            (c, s)
        },
    );
    // Cross inversions: for each right element, the number of strictly
    // greater elements in the (sorted) left half.
    let cross: u64 = sr
        .par_iter()
        .map(|x| (sl.len() - sl.partition_point(|y| y <= x)) as u64)
        .sum();
    sl.clear(); // release early; values no longer needed
    cl + cr + cross
}

/// Parallel inversion reporting, two-phase (the paper's count-then-report):
///
/// 1. for each position `j`, count the inversions `(i, j)` it participates
///    in as the *right* element (an order-statistics query on a Fenwick-style
///    sweep is possible; here each `j` queries the set of earlier positions
///    via a merge-sorted prefix structure built per block);
/// 2. prefix-sum the counts, allocate the exact output, and fill each `j`'s
///    range in parallel.
///
/// Output order is unspecified; pairs are `(i, j)`, `i < j`, `xs[i] > xs[j]`.
pub fn par_report_inversions<T>(xs: &[T]) -> Vec<(usize, usize)>
where
    T: Ord + Copy + Send + Sync + Default,
{
    par_report_inversions_gated(xs, None)
}

/// [`par_report_inversions`] under a cooperative [`Gate`](crate::Gate): polls once per
/// block while building the sorted snapshots, checkpoints between the count
/// and fill phases, and — crucially — asks the gate whether crediting the
/// counted total would blow `max_intersections` *before* allocating and
/// filling the `O(k)` output. A tripped gate yields an empty (or truncated)
/// vector; callers must check the gate before trusting the result.
pub fn par_report_inversions_gated<T>(
    xs: &[T],
    gate: Option<&crate::interrupt::Gate>,
) -> Vec<(usize, usize)>
where
    T: Ord + Copy + Send + Sync + Default,
{
    let n = xs.len();
    if n <= SEQ_CUTOFF {
        return report_inversions(xs);
    }
    // Sorted prefix snapshots per block boundary let every position find its
    // left-partners with binary search. Block count is O(threads); each
    // position scans at most `block` in-block predecessors plus queries the
    // sorted snapshots — O((n/B + B) log n) per element worst case, but with
    // output-sensitive fill the dominant cost is the k writes, as in Lemma 4.
    let threads = rayon::current_num_threads().max(1);
    let nblocks = (threads * 4).min(n.max(1));
    let block = n.div_ceil(nblocks);

    // Sorted copy of each block, paired with original positions.
    let sorted_blocks: Vec<Vec<(T, usize)>> = xs
        .par_chunks(block)
        .enumerate()
        .map(|(bi, c)| {
            // Per-block poll: a tripped gate degrades remaining blocks to
            // empty snapshots (counts below become garbage, discarded by the
            // caller's gate check).
            if gate.is_some_and(|g| g.is_tripped()) {
                return Vec::new();
            }
            let mut v: Vec<(T, usize)> = c
                .iter()
                .enumerate()
                .map(|(o, &x)| (x, bi * block + o))
                .collect();
            v.sort_unstable();
            v
        })
        .collect();
    if let Some(g) = gate {
        if g.checkpoint().is_some() {
            return Vec::new();
        }
    }

    // Phase 1: per-position counts.
    let counts: Vec<usize> = (0..n)
        .into_par_iter()
        .map(|j| {
            let x = xs[j];
            let bj = j / block;
            // Full earlier blocks: elements strictly greater than x.
            let mut c = 0usize;
            for sb in &sorted_blocks[..bj] {
                c += sb.len() - sb.partition_point(|&(v, _)| v <= x);
            }
            // Same block, earlier positions.
            c += xs[(bj * block)..j].iter().filter(|&&v| v > x).count();
            c
        })
        .collect();

    let (offsets, total) = scatter_offsets(&counts);
    if let Some(g) = gate {
        // The count phase just told us k exactly; refuse the O(k) allocation
        // and fill if it would blow the intersection budget, and bail if the
        // deadline passed or cancellation arrived while counting.
        if g.intersections_would_exceed(total as u64) || g.checkpoint().is_some() {
            return Vec::new();
        }
        g.meter()
            .record_scratch_bytes((total * std::mem::size_of::<(usize, usize)>()) as u64);
    }

    // Phase 2: fill. Each position writes its own disjoint range.
    let mut out = vec![(0usize, 0usize); total];
    let mut slices: Vec<&mut [(usize, usize)]> = Vec::with_capacity(n);
    {
        let mut rest: &mut [(usize, usize)] = &mut out;
        for &c in &counts {
            let (head, tail) = rest.split_at_mut(c);
            slices.push(head);
            rest = tail;
        }
    }
    let _ = offsets;
    slices.into_par_iter().enumerate().for_each(|(j, dst)| {
        if dst.is_empty() || gate.is_some_and(|g| g.is_tripped()) {
            return;
        }
        let x = xs[j];
        let bj = j / block;
        let mut k = 0usize;
        for sb in &sorted_blocks[..bj] {
            let start = sb.partition_point(|&(v, _)| v <= x);
            for &(_, i) in &sb[start..] {
                dst[k] = (i, j);
                k += 1;
            }
        }
        for (i, &v) in xs.iter().enumerate().take(j).skip(bj * block) {
            if v > x {
                dst[k] = (i, j);
                k += 1;
            }
        }
        debug_assert_eq!(k, dst.len());
    });
    out
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
    fn parallel_count_agrees_with_sequential() {
        let mut s = 123456789u64;
        let mut rng = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for n in [100usize, SEQ_CUTOFF + 1, 40_000] {
            let xs: Vec<u64> = (0..n).map(|_| rng() % 1000).collect();
            assert_eq!(par_count_inversions(&xs), count_inversions(&xs), "n={n}");
        }
    }

    #[test]
    fn parallel_report_agrees_with_sequential() {
        let mut s = 987654321u64;
        let mut rng = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        // Keep inversion counts manageable: near-sorted input with sparse swaps.
        let n = SEQ_CUTOFF * 3;
        let mut xs: Vec<u64> = (0..n as u64).collect();
        for _ in 0..200 {
            let i = (rng() % n as u64) as usize;
            let j = (rng() % n as u64) as usize;
            xs.swap(i, j);
        }
        let mut par: Vec<(usize, usize)> = par_report_inversions(&xs);
        let mut seq: Vec<(usize, usize)> = report_inversions(&xs);
        par.sort_unstable();
        seq.sort_unstable();
        assert_eq!(par, seq);
    }

    #[test]
    fn equal_elements_are_not_inversions() {
        let xs = [2u32, 2, 2, 2];
        assert_eq!(count_inversions(&xs), 0);
        assert!(report_inversions(&xs).is_empty());
        assert_eq!(par_count_inversions(&xs), 0);
    }

    #[test]
    fn descending_input_has_all_pairs() {
        let xs: Vec<u32> = (0..100).rev().collect();
        assert_eq!(count_inversions(&xs), 100 * 99 / 2);
        assert_eq!(report_inversions(&xs).len(), 100 * 99 / 2);
    }
}
