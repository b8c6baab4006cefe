//! Array packing (stream compaction) and output-sensitive scatter.
//!
//! The paper repeatedly uses the pattern *count the output size, allocate
//! exactly that many processors/slots, then fill* — for reporting edges in
//! scanbeams (Step 2), reporting inversion pairs (Lemma 4), and removing
//! virtual vertices after the merge ("the virtual vertices are removed
//! finally by array packing"). [`scatter_offsets`] is that pattern's core:
//! it turns per-producer counts into disjoint output ranges via an exclusive
//! prefix sum.

use crate::scan::exclusive_scan;
use crate::SEQ_CUTOFF;
use rayon::prelude::*;

/// Sequential pack: keep the elements whose predicate holds, preserving
/// order. (Equivalent to `filter().collect()`, spelled as count + scatter to
/// mirror the PRAM formulation.)
pub fn pack<T: Copy, F: Fn(&T) -> bool>(xs: &[T], keep: F) -> Vec<T> {
    xs.iter().copied().filter(|x| keep(x)).collect()
}

/// Parallel pack with stable order: per-chunk count, exclusive scan of chunk
/// counts, then parallel scatter into an exactly-sized output.
pub fn par_pack<T, F>(xs: &[T], keep: F) -> Vec<T>
where
    T: Copy + Send + Sync,
    F: Fn(&T) -> bool + Send + Sync,
{
    par_pack_indexed(xs, |_, x| keep(x))
}

/// [`par_pack`] whose predicate also sees the element's global index —
/// the building block for packs that inspect a neighbourhood, like
/// [`par_dedup_adjacent`].
pub fn par_pack_indexed<T, F>(xs: &[T], keep: F) -> Vec<T>
where
    T: Copy + Send + Sync,
    F: Fn(usize, &T) -> bool + Send + Sync,
{
    let n = xs.len();
    if n <= SEQ_CUTOFF {
        return xs
            .iter()
            .enumerate()
            .filter(|(i, x)| keep(*i, x))
            .map(|(_, x)| *x)
            .collect();
    }
    let threads = rayon::current_num_threads().max(1);
    let block = n.div_ceil(threads * 4).max(1);

    let counts: Vec<usize> = xs
        .par_chunks(block)
        .enumerate()
        .map(|(bi, c)| {
            let base = bi * block;
            c.iter()
                .enumerate()
                .filter(|(j, x)| keep(base + j, x))
                .count()
        })
        .collect();
    let total: usize = counts.iter().sum();
    let offsets = exclusive_scan(&counts, 0, |a, b| a + b);

    let mut out: Vec<T> = Vec::with_capacity(total);
    // Fill via per-chunk scatter into disjoint ranges of the output.
    // Safety-free formulation: collect per-chunk vectors in parallel and
    // concatenate sequentially would copy twice; instead use unsafe-free
    // split_at_mut based distribution.
    out.resize(total, xs[0]); // placeholder, fully overwritten
    let mut slices: Vec<&mut [T]> = Vec::with_capacity(counts.len());
    {
        let mut rest: &mut [T] = &mut out;
        for (bi, &c) in counts.iter().enumerate() {
            debug_assert!(offsets[bi] + c <= total);
            let (head, tail) = rest.split_at_mut(c);
            slices.push(head);
            rest = tail;
        }
    }
    slices
        .into_par_iter()
        .zip(xs.par_chunks(block))
        .enumerate()
        .for_each(|(bi, (dst, src))| {
            let base = bi * block;
            let mut k = 0;
            for (j, x) in src.iter().enumerate() {
                if keep(base + j, x) {
                    dst[k] = *x;
                    k += 1;
                }
            }
            debug_assert_eq!(k, dst.len());
        });
    out
}

/// Remove adjacent duplicates from a **sorted** slice by parallel pack
/// (`dedup` as stream compaction): keep `xs[i]` iff it differs from its
/// left neighbour. On sorted input this yields the distinct values, exactly
/// like `Vec::dedup` — but with O(n / p + log n) depth.
pub fn par_dedup_adjacent<T>(xs: &[T]) -> Vec<T>
where
    T: Copy + Send + Sync + PartialEq,
{
    par_pack_indexed(xs, |i, x| i == 0 || xs[i - 1] != *x)
}

/// Turn per-producer output counts into `(offsets, total)`.
///
/// `offsets[i]` is the index at which producer `i` may start writing; the
/// ranges `offsets[i] .. offsets[i] + counts[i]` partition `0..total`. This
/// is the paper's output-sensitive allocation step: run a counting pass,
/// prefix-sum the counts, allocate `total` slots (processors), fill.
pub fn scatter_offsets(counts: &[usize]) -> (Vec<usize>, usize) {
    let offsets = exclusive_scan(counts, 0, |a, b| a + b);
    let total = counts.iter().sum();
    (offsets, total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_keeps_order() {
        let xs = [5, 1, 8, 2, 9, 3];
        assert_eq!(pack(&xs, |&x| x > 2), vec![5, 8, 9, 3]);
    }

    #[test]
    fn par_pack_agrees_with_sequential() {
        for n in [0usize, 10, SEQ_CUTOFF + 1, 30_000] {
            let xs: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(2654435761)).collect();
            let keep = |x: &u32| x.is_multiple_of(3);
            assert_eq!(par_pack(&xs, keep), pack(&xs, keep), "n={n}");
        }
    }

    #[test]
    fn par_pack_all_and_none() {
        let xs: Vec<u32> = (0..20_000).collect();
        assert_eq!(par_pack(&xs, |_| true), xs);
        assert!(par_pack(&xs, |_| false).is_empty());
    }

    #[test]
    fn par_pack_indexed_sees_global_indices() {
        let n = 3 * SEQ_CUTOFF;
        let xs: Vec<u32> = (0..n as u32).collect();
        // Keep exactly the elements whose *index* is a multiple of 7; with
        // xs[i] == i this is checkable without the index.
        let got = par_pack_indexed(&xs, |i, _| i % 7 == 0);
        let want: Vec<u32> = (0..n as u32).filter(|x| x % 7 == 0).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn par_dedup_adjacent_matches_vec_dedup() {
        for n in [0usize, 1, 5, SEQ_CUTOFF + 3, 30_000] {
            let mut xs: Vec<u32> = (0..n as u32).map(|i| i / 17).collect();
            xs.sort_unstable();
            let mut want = xs.clone();
            want.dedup();
            assert_eq!(par_dedup_adjacent(&xs), want, "n={n}");
        }
    }

    #[test]
    fn scatter_offsets_partition() {
        let counts = [3usize, 0, 5, 2];
        let (offsets, total) = scatter_offsets(&counts);
        assert_eq!(offsets, vec![0, 3, 3, 8]);
        assert_eq!(total, 10);
    }
}
