//! The slab index — output-sensitive contour binning for Algorithm 2.
//!
//! The naive partition phase hands **every** slab worker the full inputs
//! and lets `band_clip` skip non-overlapping contours, so partitioning costs
//! O(n·p) bbox tests plus p full scans. This module replaces that with one
//! shared pass: every contour is binned into the *contiguous* range of slabs
//! its y-extent overlaps (two binary searches of `bbox.ymin/ymax` against
//! the sorted slab boundaries), and the per-slab buckets are laid out with
//! the paper's count → prefix-sum → fill pattern: a difference array over
//! the spans prefix-sums to the bucket offsets, and each entry is written at
//! its slab's cursor, so the layout is allocation-tight and needs no sort.
//! Each worker then touches only its own bucket: O(n + p + Σ overlaps)
//! total partition work.
//!
//! Each entry also records whether the contour lies **fully inside** its
//! slab — those contours are handed to the engine by reference, with no
//! clipping and no deep clone; only boundary-crossing contours go through
//! the Sutherland–Hodgman band clip.

use polyclip_geom::{Contour, PolygonSet};
use rayon::prelude::*;

/// One (slab, contour) incidence, listed in its slab's bucket. `contour` is
/// the global contour id: subject contours first (in input order), then
/// clip contours.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SlabEntry {
    /// Global contour id (subject contours, then clip contours).
    pub contour: u32,
    /// The contour's y-extent lies fully inside the slab's closed band:
    /// pass it by reference, no clipping needed.
    pub inside: bool,
}

/// Contiguous slab span of one contour, with its cached y-extent.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Span {
    lo: u32,
    hi: u32, // inclusive; lo > hi encodes "overlaps nothing"
    ymin: f64,
    ymax: f64,
}

impl Span {
    pub(crate) const NONE: Span = Span {
        lo: 1,
        hi: 0,
        ymin: 0.0,
        ymax: 0.0,
    };

    /// The slab span of a contour with vertical extent `[ymin, ymax]`
    /// against strictly increasing slab `boundaries`. Slab s overlaps iff
    /// `boundaries[s] <= ymax && boundaries[s+1] >= ymin` (the closed-band
    /// semantics of `band_clip` / [`polyclip_geom::BBox::y_overlaps`]);
    /// both conditions are half-open ranges of s, so the overlapping slabs
    /// form one contiguous run found by two binary searches.
    pub(crate) fn of_extent(ymin: f64, ymax: f64, boundaries: &[f64]) -> Span {
        let slabs = boundaries.len() - 1;
        if ymin > ymax {
            return Span::NONE;
        }
        let hi_count = boundaries[..slabs].partition_point(|&b| b <= ymax);
        let lo = boundaries[1..=slabs].partition_point(|&b| b < ymin);
        if hi_count == 0 || lo >= slabs || lo > hi_count - 1 {
            return Span::NONE;
        }
        Span {
            lo: lo as u32,
            hi: (hi_count - 1) as u32,
            ymin,
            ymax,
        }
    }
}

/// CSR-layout bucketing of both inputs' contours into slabs, borrowing the
/// inputs it indexes. Built once per Algorithm-2 run and shared (immutably)
/// by all slab workers.
#[derive(Debug)]
pub struct SlabIndex<'a> {
    subject: &'a PolygonSet,
    clip: &'a PolygonSet,
    /// Entries bucketed by slab: each slab's bucket lists its overlapping
    /// contours in global contour order, which reproduces the
    /// subject-then-clip input order bit-for-bit.
    entries: Vec<SlabEntry>,
    /// `bucket_start[s] .. bucket_start[s + 1]` delimits slab `s`'s bucket.
    bucket_start: Vec<usize>,
    n_subject: usize,
}

impl<'a> SlabIndex<'a> {
    /// Bin every contour of both inputs into the slabs its y-extent
    /// overlaps. `boundaries` are the sorted slab boundaries from
    /// [`crate::algo2::slab_boundaries`] (`boundaries.len() - 1` slabs).
    ///
    /// Overlap uses the same closed-band semantics as `band_clip`
    /// ([`polyclip_geom::BBox::y_overlaps`]): a contour touching a boundary
    /// lands in both adjacent slabs, exactly like the full-scan path.
    ///
    /// The standalone entry, for callers holding two raw inputs. Algorithm 2
    /// itself does not call it: its subject half caches the subject's
    /// y-extents once, and its query half bins both sides through the same
    /// span tail from those extents and the query's bboxes.
    pub fn build(subject: &'a PolygonSet, clip: &'a PolygonSet, boundaries: &[f64]) -> Self {
        let n_subject = subject.contours().len();
        let n = n_subject + clip.contours().len();
        if boundaries.len() < 2 || n == 0 {
            return Self::from_spans(subject, clip, Vec::new(), boundaries);
        }

        let contour_at = |i: usize| -> &Contour {
            if i < n_subject {
                &subject.contours()[i]
            } else {
                &clip.contours()[i - n_subject]
            }
        };

        // Pass 1 (parallel): per-contour slab span by binary search of the
        // contour's y-extent against the sorted boundaries
        // ([`Span::of_extent`]).
        let spans: Vec<Span> = (0..n)
            .into_par_iter()
            .map(|i| {
                let bb = contour_at(i).bbox();
                if bb.is_empty() {
                    return Span::NONE;
                }
                Span::of_extent(bb.ymin, bb.ymax, boundaries)
            })
            .collect();
        Self::from_spans(subject, clip, spans, boundaries)
    }

    /// Assemble the CSR bucketing from precomputed per-contour slab spans
    /// (subject contours first, then clip contours, in input order) — the
    /// shared tail of [`Self::build`] and Algorithm 2's query half, which
    /// derives subject spans from the frozen extents.
    pub(crate) fn from_spans(
        subject: &'a PolygonSet,
        clip: &'a PolygonSet,
        spans: Vec<Span>,
        boundaries: &[f64],
    ) -> Self {
        let slabs = boundaries.len().saturating_sub(1);
        let n_subject = subject.contours().len();
        let n = n_subject + clip.contours().len();
        if slabs == 0 || n == 0 || spans.is_empty() {
            return SlabIndex {
                subject,
                clip,
                entries: Vec::new(),
                bucket_start: vec![0; slabs + 1],
                n_subject,
            };
        }
        debug_assert_eq!(spans.len(), n);

        // Bucket offsets first: a difference array over the spans,
        // prefix-summed (the paper's output-sensitive allocation step).
        let mut diff = vec![0i64; slabs + 1];
        for sp in &spans {
            if sp.lo <= sp.hi {
                diff[sp.lo as usize] += 1;
                diff[sp.hi as usize + 1] -= 1;
            }
        }
        let mut bucket_start = Vec::with_capacity(slabs + 1);
        bucket_start.push(0usize);
        let mut active = 0i64;
        for s in 0..slabs {
            active += diff[s];
            bucket_start.push(bucket_start[s] + active as usize);
        }

        // One fill: each entry is written at its slab's cursor. Contours
        // are visited in global order, so every bucket comes out in input
        // order — the order a sort by (slab, contour) would give.
        let mut cursor = bucket_start[..slabs].to_vec();
        let mut entries = vec![SlabEntry::default(); bucket_start[slabs]];
        for (i, sp) in spans.iter().enumerate() {
            for s in sp.lo..=sp.hi {
                let (blo, bhi) = (boundaries[s as usize], boundaries[s as usize + 1]);
                entries[cursor[s as usize]] = SlabEntry {
                    contour: i as u32,
                    inside: sp.ymin >= blo && sp.ymax <= bhi,
                };
                cursor[s as usize] += 1;
            }
        }

        SlabIndex {
            subject,
            clip,
            entries,
            bucket_start,
            n_subject,
        }
    }

    /// Where slab `s`'s bucket starts among all entries: entry `k` of
    /// [`slab(s)`](Self::slab) is entry `bucket_start(s) + k` of the index.
    pub(crate) fn bucket_start(&self, s: usize) -> usize {
        self.bucket_start[s]
    }

    /// Number of slabs indexed.
    pub fn n_slabs(&self) -> usize {
        self.bucket_start.len() - 1
    }

    /// Total number of (slab, contour) incidences — the Σ overlaps term of
    /// the partition cost.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no contour overlaps any slab.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The contours overlapping slab `s`, in global contour order.
    pub fn slab(&self, s: usize) -> &[SlabEntry] {
        &self.entries[self.bucket_start[s]..self.bucket_start[s + 1]]
    }

    /// Whether a global contour id refers to the subject input.
    pub fn is_subject(&self, contour: u32) -> bool {
        (contour as usize) < self.n_subject
    }

    /// Resolve a global contour id back to the borrowed input contour.
    pub fn contour(&self, id: u32) -> &'a Contour {
        let i = id as usize;
        if i < self.n_subject {
            &self.subject.contours()[i]
        } else {
            &self.clip.contours()[i - self.n_subject]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo2::slab_boundaries;
    use polyclip_geom::contour::rect;
    use polyclip_geom::OrdF64;

    fn boundaries_of(sets: &[&PolygonSet], n_slabs: usize) -> Vec<f64> {
        let mut ys: Vec<OrdF64> = sets
            .iter()
            .flat_map(|p| p.contours())
            .flat_map(|c| c.points().iter().map(|p| OrdF64::new(p.y)))
            .collect();
        ys.sort_unstable();
        ys.dedup();
        slab_boundaries(&ys, n_slabs)
    }

    /// Oracle: the contours band_clip would touch for this slab.
    fn naive_slab(subject: &PolygonSet, clip: &PolygonSet, lo: f64, hi: f64) -> Vec<(u32, bool)> {
        subject
            .contours()
            .iter()
            .chain(clip.contours())
            .enumerate()
            .filter(|(_, c)| c.bbox().y_overlaps(lo, hi))
            .map(|(i, c)| (i as u32, c.bbox().inside_band(lo, hi)))
            .collect()
    }

    fn xorshift(mut s: u64) -> impl FnMut() -> u64 {
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        }
    }

    #[test]
    fn matches_naive_scan_on_random_contours() {
        let mut rng = xorshift(0xc0ffee);
        for trial in 0..20 {
            let mut make = |k: usize| {
                let contours = (0..k)
                    .map(|_| {
                        let x0 = (rng() % 100) as f64 * 0.1;
                        let y0 = (rng() % 100) as f64 * 0.1;
                        let w = 0.1 + (rng() % 30) as f64 * 0.1;
                        let h = 0.1 + (rng() % 60) as f64 * 0.1;
                        rect(x0, y0, x0 + w, y0 + h)
                    })
                    .collect();
                PolygonSet::from_contours(contours)
            };
            let a = make(1 + (trial % 5));
            let b = make(1 + (trial % 7));
            for n_slabs in [1usize, 2, 4, 8] {
                let boundaries = boundaries_of(&[&a, &b], n_slabs);
                if boundaries.len() < 2 {
                    continue;
                }
                let ix = SlabIndex::build(&a, &b, &boundaries);
                assert_eq!(ix.n_slabs(), boundaries.len() - 1);
                for s in 0..ix.n_slabs() {
                    let got: Vec<(u32, bool)> =
                        ix.slab(s).iter().map(|e| (e.contour, e.inside)).collect();
                    let want = naive_slab(&a, &b, boundaries[s], boundaries[s + 1]);
                    assert_eq!(got, want, "trial {trial} slabs {n_slabs} slab {s}");
                }
            }
        }
    }

    #[test]
    fn boundary_touching_contour_lands_in_both_slabs() {
        let a = PolygonSet::from_contour(rect(0.0, 0.0, 1.0, 4.0));
        let b = PolygonSet::from_contour(rect(0.0, 2.0, 1.0, 3.0)); // ymin on seam
        let boundaries = [0.0, 2.0, 4.0];
        let ix = SlabIndex::build(&a, &b, &boundaries);
        // b touches y=2: present in slab 0 (closed band) and slab 1.
        assert!(ix.slab(0).iter().any(|e| e.contour == 1));
        assert!(ix.slab(1).iter().any(|e| e.contour == 1));
        // a crosses the seam: in both, inside neither.
        for s in 0..2 {
            let e = ix.slab(s).iter().find(|e| e.contour == 0).unwrap();
            assert!(!e.inside);
        }
        // b is fully inside slab 1 ([2,4]) but only touches slab 0.
        assert!(ix.slab(1).iter().find(|e| e.contour == 1).unwrap().inside);
        assert!(!ix.slab(0).iter().find(|e| e.contour == 1).unwrap().inside);
        assert!(ix.is_subject(0));
        assert!(!ix.is_subject(1));
        assert_eq!(ix.len(), 4);
    }

    #[test]
    fn empty_inputs_and_no_boundaries_are_safe() {
        let e = PolygonSet::new();
        let ix = SlabIndex::build(&e, &e, &[]);
        assert_eq!(ix.n_slabs(), 0);
        assert!(ix.is_empty());
        let a = PolygonSet::from_contour(rect(0.0, 0.0, 1.0, 1.0));
        let ix = SlabIndex::build(&a, &e, &[0.0, 1.0]);
        assert_eq!(ix.n_slabs(), 1);
        assert_eq!(ix.slab(0).len(), 1);
        assert!(ix.slab(0)[0].inside);
    }
}
