//! Cell planning for Algorithm 2 ([`crate::algo2`]): every multi-slab run
//! executes a [`GridPlan`].
//!
//! The default [`GridConfig`] plans exactly the paper's event-quantile
//! slabs, one cell each. Static y-slabs balance *event counts*, not work,
//! though: a slab that catches a dense tangle of contours takes several
//! times longer than its siblings and the whole fan-out waits on it (the
//! p=8 `load_imbalance` plateau in `BENCH_algo2.json`). Following the
//! ParGeo recipe, a refining config over-decomposes instead: starting from
//! the same event-quantile slabs,
//! any slab whose *mass* (vertex count binned by the CSR
//! [`crate::slabindex::SlabIndex`]) exceeds a threshold is recursively
//! split — preferably at the median interior event y, falling back to a
//! vertical column split when a slab has mass but no interior events —
//! until there are roughly `oversub ×` more cells than workers. The cells
//! are then executed on a work-stealing pool
//! ([`polyclip_parprim::stealpool`]) so no static assignment can be held
//! hostage by a straggler.
//!
//! The planner also records every seam line it cuts: the interior base-slab
//! boundaries and each split's line. Step 8 dissolves all of them in one
//! pass.
//!
//! Everything here is a pure function of the slab boundaries, the index
//! contents, the event schedule and the configuration — never of thread
//! counts or timing — so a plan (and therefore the output) is
//! deterministic across machines and runs.

use crate::slabindex::SlabIndex;
use polyclip_geom::{BBox, Contour, OrdF64};

/// Cell-planning knobs for Algorithm 2, carried on
/// [`crate::ClipOptions::grid`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct GridConfig {
    /// Target over-decomposition factor: the planner aims for about
    /// `oversub × workers` cells, run on the work-stealing pool. `0` (the
    /// default) disables refinement — the cells are exactly the base slabs,
    /// run in order on the calling thread, bit-identical to band-clipping
    /// each slab from the full inputs (asserted by the equivalence
    /// proptests).
    pub oversub: usize,
    /// Hard ceiling on the number of cells, whatever `oversub` asks for.
    pub max_cells: usize,
    /// Allow vertical (column) splits when a heavy cell has no interior
    /// event y left to split at. Column seams are dissolved by the same
    /// seam-vertex machinery as slab seams.
    pub columns: bool,
}

impl Default for GridConfig {
    fn default() -> Self {
        GridConfig {
            oversub: 0,
            max_cells: 256,
            columns: true,
        }
    }
}

impl GridConfig {
    /// The refining plan: about six cells per worker, on the stealing pool.
    pub fn refined() -> Self {
        GridConfig {
            oversub: 6,
            ..GridConfig::default()
        }
    }
}

/// One executable cell: a y-band of its base slab, optionally bounded in x.
/// Unbounded sides are `±∞`, which the x-band clipper treats as "no cut".
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    /// Base slab this cell refines (its bucket in the [`SlabIndex`]).
    pub slab: usize,
    pub y0: f64,
    pub y1: f64,
    pub x0: f64,
    pub x1: f64,
    /// Whether this cell's y-band is narrower than its base slab's band
    /// (so the cell body must re-test y-extents instead of trusting the
    /// index's per-slab `inside` flag).
    pub refined: bool,
    /// Estimated work: on a refining plan, the summed in-cell vertex count
    /// of bucket contours overlapping the cell rectangle; on an unrefined
    /// plan, the slab's bucket entry count. Drives both the split decision
    /// and the cell's watchdog-deadline share.
    pub mass: u64,
}

impl Cell {
    /// True when the cell spans its slab's full x-range.
    pub fn x_unbounded(&self) -> bool {
        self.x0 == f64::NEG_INFINITY && self.x1 == f64::INFINITY
    }
}

/// The seam a split cuts: a horizontal line `y = v` or a vertical line
/// `x = v` separating the two halves.
#[derive(Clone, Copy, Debug)]
enum Seam {
    Y(f64),
    X(f64),
}

/// A complete execution plan: cells in deterministic (slab-major, top-down
/// recursive) order and the seam-line sets the Step-8 merge dissolves.
#[derive(Clone, Debug, Default)]
pub struct GridPlan {
    pub cells: Vec<Cell>,
    /// All horizontal seam lines: interior base-slab boundaries plus every
    /// refinement y-split, sorted ascending, deduplicated.
    pub seam_ys: Vec<f64>,
    /// All vertical seam lines from column splits, sorted, deduplicated.
    pub seam_xs: Vec<f64>,
    /// Total mass across cells (for watchdog shares).
    pub total_mass: u64,
}

/// Per-contour geometry cache for the planner. `cell_mass` runs twice per
/// split candidate, and recomputing a bbox plus a full vertex scan each time
/// made *planning* the dominant grid cost at high `p` (the `index_ms` column
/// scaled with cell count). Caching each contour's bbox and a y-sorted
/// vertex array once turns the common x-unbounded mass query into two
/// binary searches — without changing a single mass value: the searched
/// count equals the linear inclusive filter `y0 <= p.y && p.y <= y1`
/// exactly (NaN ys are dropped at build time; they never pass the filter
/// either), so plans are byte-identical to the uncached planner's.
#[derive(Default)]
struct MassCache {
    bbox: Vec<Option<BBox>>,
    ys: Vec<Option<Vec<f64>>>,
}

impl MassCache {
    fn new(index: &SlabIndex<'_>) -> Self {
        let n = (0..index.n_slabs())
            .flat_map(|s| index.slab(s))
            .map(|e| e.contour as usize + 1)
            .max()
            .unwrap_or(0);
        MassCache {
            bbox: vec![None; n],
            ys: vec![None; n],
        }
    }

    fn bbox(&mut self, id: u32, c: &Contour) -> BBox {
        *self.bbox[id as usize].get_or_insert_with(|| c.bbox())
    }

    /// Vertices of contour `id` with `y0 <= y <= y1`, via binary search on
    /// the cached sorted-y array.
    fn band_count(&mut self, id: u32, c: &Contour, y0: f64, y1: f64) -> u64 {
        let ys = self.ys[id as usize].get_or_insert_with(|| {
            let mut v: Vec<f64> = c
                .points()
                .iter()
                .map(|p| p.y)
                .filter(|y| !y.is_nan())
                .collect();
            v.sort_unstable_by(f64::total_cmp);
            v
        });
        let lo = ys.partition_point(|&y| y < y0);
        let hi = ys.partition_point(|&y| y <= y1);
        hi.saturating_sub(lo) as u64
    }

    /// Work estimate for a cell: per overlapping contour, the vertices that
    /// actually land inside the cell rectangle, plus a small constant for
    /// the edges that cross its border. Counting *in-cell* vertices (rather
    /// than whole contour lengths) is what makes refinement converge:
    /// splitting a cell splits its mass, so a giant contour spanning every
    /// cell cannot drive the planner to shred the whole domain to
    /// `max_cells` confetti.
    fn cell_mass(
        &mut self,
        index: &SlabIndex<'_>,
        slab: usize,
        y0: f64,
        y1: f64,
        x0: f64,
        x1: f64,
    ) -> u64 {
        let x_unbounded = x0 == f64::NEG_INFINITY && x1 == f64::INFINITY;
        let mut mass = 0u64;
        for e in index.slab(slab) {
            let c = index.contour(e.contour);
            let bb = self.bbox(e.contour, c);
            if bb.ymax < y0 || bb.ymin > y1 || bb.xmax < x0 || bb.xmin > x1 {
                continue;
            }
            // Base slabs and y-splits are x-unbounded: answer from the
            // sorted-y cache. Only column cells (rare; eventless slabs) pay
            // a linear scan.
            let inside = if x_unbounded {
                self.band_count(e.contour, c, y0, y1)
            } else {
                c.points()
                    .iter()
                    .filter(|p| y0 <= p.y && p.y <= y1 && x0 <= p.x && p.x <= x1)
                    .count() as u64
            };
            mass += inside + 2;
        }
        mass
    }
}

struct Planner<'a, 'b> {
    index: &'a SlabIndex<'b>,
    ys: &'a [OrdF64],
    cfg: &'a GridConfig,
    cache: MassCache,
    threshold: u64,
    /// Remaining splits allowed before `max_cells` leaves exist.
    split_budget: usize,
    cells: Vec<Cell>,
    seam_ys: Vec<f64>,
    seam_xs: Vec<f64>,
}

/// Build the plan for the given base-slab boundaries. `workers` is the
/// paper's `p` (the requested slab count) — deliberately *not* the live
/// thread count, so the plan and output stay machine-independent.
pub(crate) fn plan_grid(
    boundaries: &[f64],
    index: &SlabIndex<'_>,
    ys: &[OrdF64],
    cfg: &GridConfig,
    workers: usize,
) -> GridPlan {
    let base_slabs = boundaries.len().saturating_sub(1);
    if base_slabs == 0 {
        return GridPlan::default();
    }
    // An unrefined plan never splits, so it skips the per-contour mass
    // cache and weighs each slab by its bucket entry count, which the
    // binning already produced.
    let refine = cfg.oversub > 0;
    let mut cache = if refine {
        MassCache::new(index)
    } else {
        MassCache::default()
    };
    let masses: Vec<u64> = (0..base_slabs)
        .map(|s| {
            if !refine {
                return index.slab(s).len() as u64;
            }
            cache.cell_mass(
                index,
                s,
                boundaries[s],
                boundaries[s + 1],
                f64::NEG_INFINITY,
                f64::INFINITY,
            )
        })
        .collect();
    let total_mass: u64 = masses.iter().sum();

    let target_cells = if !refine {
        base_slabs
    } else {
        (cfg.oversub * workers.max(1)).clamp(base_slabs, cfg.max_cells.max(base_slabs))
    };
    // A cell at or below the threshold is cheap enough to leave alone; the
    // floor keeps trivial slabs from being shredded into empty confetti.
    let threshold = (total_mass / target_cells.max(1) as u64).max(64);

    let mut pl = Planner {
        index,
        ys,
        cfg,
        cache,
        threshold,
        split_budget: cfg.max_cells.max(base_slabs) - base_slabs,
        cells: Vec::with_capacity(target_cells),
        seam_ys: boundaries[1..base_slabs].to_vec(),
        seam_xs: Vec::new(),
    };

    for (s, &mass) in masses.iter().enumerate() {
        let cell = Cell {
            slab: s,
            y0: boundaries[s],
            y1: boundaries[s + 1],
            x0: f64::NEG_INFINITY,
            x1: f64::INFINITY,
            refined: false,
            mass,
        };
        // Fuel bounds the split depth per slab: enough to reach the target
        // fan-out with slack, finite even when splits stop reducing mass
        // (contours spanning both halves).
        if refine {
            pl.refine(cell, 8);
        } else {
            pl.cells.push(cell);
        }
    }

    pl.seam_ys.sort_unstable_by(f64::total_cmp);
    pl.seam_ys.dedup();
    pl.seam_xs.sort_unstable_by(f64::total_cmp);
    pl.seam_xs.dedup();
    GridPlan {
        cells: pl.cells,
        seam_ys: pl.seam_ys,
        seam_xs: pl.seam_xs,
        total_mass,
    }
}

impl Planner<'_, '_> {
    fn refine(&mut self, cell: Cell, fuel: u32) {
        if fuel == 0 || self.split_budget == 0 || cell.mass <= self.threshold {
            self.cells.push(cell);
            return;
        }
        let Some((a, b, seam)) = self.split(&cell) else {
            self.cells.push(cell);
            return;
        };
        self.split_budget -= 1;
        match seam {
            Seam::Y(v) => self.seam_ys.push(v),
            Seam::X(v) => self.seam_xs.push(v),
        }
        self.refine(a, fuel - 1);
        self.refine(b, fuel - 1);
    }

    /// Split a heavy cell: at the median interior event y when one exists
    /// (seams on event y's reuse the slab machinery verbatim), otherwise at
    /// the median occupied x (a column seam) when columns are enabled.
    fn split(&mut self, cell: &Cell) -> Option<(Cell, Cell, Seam)> {
        // Interior event y's: strictly inside (y0, y1).
        let lo = self.ys.partition_point(|y| y.get() <= cell.y0);
        let hi = self.ys.partition_point(|y| y.get() < cell.y1);
        if hi > lo {
            let m = self.ys[lo + (hi - lo) / 2].get();
            debug_assert!(cell.y0 < m && m < cell.y1);
            let a = self.make(cell.slab, cell.y0, m, cell.x0, cell.x1);
            let b = self.make(cell.slab, m, cell.y1, cell.x0, cell.x1);
            return Some((a, b, Seam::Y(m)));
        }
        if !self.cfg.columns {
            return None;
        }
        // Column split at the median overlapped-extent center. Strictness
        // (x0 < m < x1) guarantees progress and a non-degenerate seam.
        let mut centers: Vec<f64> = Vec::new();
        let index = self.index;
        for e in index.slab(cell.slab) {
            let bb = self.cache.bbox(e.contour, index.contour(e.contour));
            if bb.ymax < cell.y0 || bb.ymin > cell.y1 || bb.xmax < cell.x0 || bb.xmin > cell.x1 {
                continue;
            }
            let ex0 = bb.xmin.max(cell.x0);
            let ex1 = bb.xmax.min(cell.x1);
            centers.push(0.5 * (ex0 + ex1));
        }
        if centers.len() < 2 {
            return None;
        }
        centers.sort_unstable_by(f64::total_cmp);
        let (clo, chi) = (centers[0], centers[centers.len() - 1]);
        if !clo.is_finite() || !chi.is_finite() || clo >= chi {
            return None; // everything at one x: nothing to separate
        }
        // Median center, falling back to the occupied midpoint when the
        // median coincides with an extreme (heavily clustered data).
        let mut m = centers[centers.len() / 2];
        if !(m > clo && m < chi) {
            m = 0.5 * (clo + chi);
        }
        if !(m > clo && m < chi && m > cell.x0 && m < cell.x1) {
            return None;
        }
        let a = self.make(cell.slab, cell.y0, cell.y1, cell.x0, m);
        let b = self.make(cell.slab, cell.y0, cell.y1, m, cell.x1);
        Some((a, b, Seam::X(m)))
    }

    fn make(&mut self, slab: usize, y0: f64, y1: f64, x0: f64, x1: f64) -> Cell {
        Cell {
            slab,
            y0,
            y1,
            x0,
            x1,
            refined: true,
            mass: self.cache.cell_mass(self.index, slab, y0, y1, x0, x1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyclip_geom::{Contour, PolygonSet};

    fn tall_rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Contour {
        polyclip_geom::contour::rect(x0, y0, x1, y1)
    }

    fn schedule(sets: [&PolygonSet; 2]) -> Vec<OrdF64> {
        let mut ys: Vec<OrdF64> = sets
            .iter()
            .flat_map(|s| s.contours())
            .flat_map(|c| c.points().iter().map(|p| OrdF64::new(p.y)))
            .collect();
        ys.sort_unstable();
        ys.dedup();
        ys
    }

    #[test]
    fn matched_mode_reproduces_base_slabs() {
        let a = PolygonSet::from_contour(tall_rect(0.0, 0.0, 4.0, 10.0));
        let b = PolygonSet::from_contour(tall_rect(1.0, 1.0, 5.0, 9.0));
        let boundaries = [0.0, 2.5, 5.0, 7.5, 10.0];
        let ix = SlabIndex::build(&a, &b, &boundaries);
        let ys = schedule([&a, &b]);
        let plan = plan_grid(&boundaries, &ix, &ys, &GridConfig::default(), 4);
        assert_eq!(plan.cells.len(), 4);
        for (s, c) in plan.cells.iter().enumerate() {
            assert_eq!(c.slab, s);
            assert_eq!(c.y0, boundaries[s]);
            assert_eq!(c.y1, boundaries[s + 1]);
            assert!(c.x_unbounded());
            assert!(!c.refined);
        }
        // Seams: exactly the interior boundaries.
        assert_eq!(plan.seam_ys, vec![2.5, 5.0, 7.5]);
        assert!(plan.seam_xs.is_empty());
    }

    #[test]
    fn heavy_slab_with_interior_events_splits_in_y() {
        // Many stacked rectangles: lots of interior events, plenty of mass.
        let contours: Vec<Contour> = (0..40)
            .map(|i| tall_rect(0.0, i as f64 * 0.25, 4.0, i as f64 * 0.25 + 0.2))
            .collect();
        let a = PolygonSet::from_contours(contours);
        let b = PolygonSet::from_contour(tall_rect(1.0, 0.0, 3.0, 10.0));
        let boundaries = [0.0, 5.0, 10.0];
        let ix = SlabIndex::build(&a, &b, &boundaries);
        let ys = schedule([&a, &b]);
        let cfg = GridConfig {
            oversub: 4,
            ..GridConfig::default()
        };
        let plan = plan_grid(&boundaries, &ix, &ys, &cfg, 2);
        assert!(plan.cells.len() > 2, "no refinement happened");
        assert!(plan.seam_xs.is_empty(), "y-events available, no x split");
        // Every refinement seam is strictly inside a base slab.
        for &y in &plan.seam_ys {
            assert!((0.0..=10.0).contains(&y));
        }
        // Cells tile each slab's band contiguously.
        for s in 0..2 {
            let mut bands: Vec<(f64, f64)> = plan
                .cells
                .iter()
                .filter(|c| c.slab == s && c.x_unbounded())
                .map(|c| (c.y0, c.y1))
                .collect();
            bands.sort_by(|p, q| p.0.total_cmp(&q.0));
            assert_eq!(bands.first().unwrap().0, boundaries[s]);
            assert_eq!(bands.last().unwrap().1, boundaries[s + 1]);
            for w in bands.windows(2) {
                assert_eq!(w[0].1, w[1].0, "gap or overlap in slab {s}");
            }
        }
    }

    #[test]
    fn eventless_heavy_slab_splits_into_columns() {
        // Two fat contours side by side whose vertices all sit on the slab
        // boundaries: no interior events, so a heavy slab must go to
        // columns.
        let a = PolygonSet::from_contours(vec![
            tall_rect(0.0, 0.0, 4.0, 10.0),
            tall_rect(6.0, 0.0, 10.0, 10.0),
        ]);
        let b = PolygonSet::from_contours(vec![
            tall_rect(1.0, 0.0, 3.0, 10.0),
            tall_rect(7.0, 0.0, 9.0, 10.0),
        ]);
        let boundaries = [0.0, 10.0];
        let ix = SlabIndex::build(&a, &b, &boundaries);
        let ys = vec![OrdF64::new(0.0), OrdF64::new(10.0)];
        let cfg = GridConfig {
            oversub: 4,
            ..GridConfig::default()
        };
        let mut plan = plan_grid(&boundaries, &ix, &ys, &cfg, 2);
        if plan.total_mass <= 64 {
            // Mass floor would veto splitting this tiny fixture; force it.
            let big: Vec<Contour> = (0..30)
                .flat_map(|i| {
                    let dx = (i % 2) as f64 * 6.0;
                    vec![tall_rect(dx, 0.0, dx + 4.0, 10.0)]
                })
                .collect();
            let a2 = PolygonSet::from_contours(big);
            let ix2 = SlabIndex::build(&a2, &b, &boundaries);
            plan = plan_grid(&boundaries, &ix2, &ys, &cfg, 2);
        }
        assert!(!plan.seam_xs.is_empty(), "expected a column split");
        assert!(plan.cells.len() > 1);
        // X seams separate the two clusters.
        for &x in &plan.seam_xs {
            assert!((0.0..=10.0).contains(&x));
        }
        // Column cells keep the full slab band.
        for c in &plan.cells {
            assert_eq!((c.y0, c.y1), (0.0, 10.0));
        }
    }

    #[test]
    fn columns_disabled_leaves_eventless_slab_alone() {
        let a = PolygonSet::from_contours(
            (0..40)
                .map(|i| tall_rect((i % 2) as f64 * 6.0, 0.0, (i % 2) as f64 * 6.0 + 4.0, 10.0))
                .collect(),
        );
        let b = PolygonSet::from_contour(tall_rect(1.0, 0.0, 3.0, 10.0));
        let boundaries = [0.0, 10.0];
        let ix = SlabIndex::build(&a, &b, &boundaries);
        let ys = vec![OrdF64::new(0.0), OrdF64::new(10.0)];
        let cfg = GridConfig {
            oversub: 4,
            columns: false,
            ..GridConfig::default()
        };
        let plan = plan_grid(&boundaries, &ix, &ys, &cfg, 2);
        assert_eq!(plan.cells.len(), 1);
        assert!(plan.seam_xs.is_empty());
    }

    #[test]
    fn max_cells_caps_refinement() {
        let contours: Vec<Contour> = (0..60)
            .map(|i| tall_rect(0.0, i as f64 * 0.25, 4.0, i as f64 * 0.25 + 0.2))
            .collect();
        let a = PolygonSet::from_contours(contours);
        let b = PolygonSet::from_contour(tall_rect(1.0, 0.0, 3.0, 20.0));
        let boundaries = [0.0, 7.5, 15.0];
        let ix = SlabIndex::build(&a, &b, &boundaries);
        let ys = schedule([&a, &b]);
        let cfg = GridConfig {
            oversub: 64,
            max_cells: 6,
            ..GridConfig::default()
        };
        let plan = plan_grid(&boundaries, &ix, &ys, &cfg, 8);
        assert!(plan.cells.len() <= 6, "{} cells", plan.cells.len());
    }

    #[test]
    fn plan_is_deterministic() {
        let contours: Vec<Contour> = (0..40)
            .map(|i| tall_rect(0.0, i as f64 * 0.25, 4.0, i as f64 * 0.25 + 0.2))
            .collect();
        let a = PolygonSet::from_contours(contours);
        let b = PolygonSet::from_contour(tall_rect(1.0, 0.0, 3.0, 10.0));
        let boundaries = [0.0, 5.0, 10.0];
        let ix = SlabIndex::build(&a, &b, &boundaries);
        let ys = schedule([&a, &b]);
        let cfg = GridConfig::refined();
        let p1 = plan_grid(&boundaries, &ix, &ys, &cfg, 4);
        let p2 = plan_grid(&boundaries, &ix, &ys, &cfg, 4);
        assert_eq!(p1.cells.len(), p2.cells.len());
        assert_eq!(p1.seam_ys, p2.seam_ys);
        assert_eq!(p1.seam_xs, p2.seam_xs);
        for (c1, c2) in p1.cells.iter().zip(&p2.cells) {
            assert_eq!((c1.y0, c1.y1, c1.x0, c1.x1), (c2.y0, c2.y1, c2.x0, c2.x1));
        }
    }
}
