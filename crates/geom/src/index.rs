//! A deterministic spatial index over axis-aligned rectangles.
//!
//! The selection kernel asks one question per node: *does any dimension
//! of the node's summary hull intersect the query interval for that
//! dimension?* (Per-**axis** union, not full-rectangle intersection —
//! Eq. 2 overlap is the *mean* of per-dimension ratios, so a rectangle
//! disjoint on one axis can still support a query through the others.
//! Only a node disjoint on *every* axis is guaranteed to score exactly
//! zero.) This module answers that question sublinearly with a two-level
//! hierarchy:
//!
//! 1. **Domains** — items are laid out in **Morton (z-order)** of their
//!    rectangle centres and grouped into fixed-size contiguous domains
//!    of that order; each domain keeps per-dimension aggregated
//!    `lo`/`hi` bounds, so one comparison pair prunes a whole group of
//!    items at once. The spatial layout is load-bearing: under per-axis
//!    union semantics a domain is pruned only when it is disjoint from
//!    the query in *every* dimension, so domains must be tight in every
//!    dimension at once — push-order grouping over a scattered fleet
//!    gives each domain a space-covering hull and prunes nothing.
//! 2. **Grid** — per dimension, a 1-D uniform grid over the indexed
//!    range, each cell listing (in ascending order) the domains whose
//!    aggregated interval touches the cell. A probe bins the query
//!    interval, unions the touched cells per dimension, unions across
//!    dimensions, then verifies each surviving domain exactly.
//!
//! Item bounds are stored in SoA layout — one contiguous `lo` and `hi`
//! slice per dimension, in Morton slot order — so the final per-item
//! verify ([`SpatialIndex::verify_slots`]) is a branch-light slice
//! loop. [`SpatialIndex::verify_domain`] reports the *original*
//! push-order ids (the slot → id permutation is kept), so most callers
//! never see the internal layout; a caller that keeps its own per-item
//! payload in slot order (so that what a query touches is contiguous)
//! takes the slots themselves and [`SpatialIndex::slot_ids`].
//!
//! The index is bulk-built, then patched one item at a time:
//! [`SpatialIndex::update`] moves an item to a new rectangle without
//! moving its slot. It overwrites the item's bounds, recomputes its
//! domain's aggregate exactly and adds the domain to every grid cell the
//! new aggregate touches. Cells only grow — a cell may keep listing a
//! domain that shrank away from it — which stays exact because the
//! probe re-checks every listed domain against its aggregate, and the
//! grid's miss-test range (not its binning origin) widens to cover the
//! new bounds, so an item moved past the build-time range stays
//! reachable. What a patch cannot restore is the Morton grouping: a
//! domain whose item moved far prunes less until the next bulk build.
//!
//! Determinism is structural: the Morton sort has a total key
//! (quantised key, then push id), cells list their domains in ascending
//! order (a patch inserts in place), the probe's dedupe is a boolean
//! mark array scanned in ascending order, and the per-item loop walks
//! slots ascending. No hashing, no pointers, no iteration-order
//! dependence — the same inputs always produce the same candidate list,
//! bit for bit, on any machine and any thread count. The candidate
//! *set* does not even depend on the layout: a patched index and a
//! fresh build over the same rectangles return the same candidates.

use crate::interval::Interval;
use crate::rect::HyperRect;

/// Tuning knobs for [`SpatialIndexBuilder::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridConfig {
    /// Items per domain (the hierarchy's lower level). Each domain costs
    /// one aggregated bound pair per dimension; smaller domains prune
    /// tighter but make the grid level work harder.
    pub domain_size: usize,
    /// Grid cells per dimension; `0` picks `≈ √n_domains` automatically
    /// (balances cells scanned per probe against domains per cell).
    pub cells_per_dim: usize,
}

impl Default for GridConfig {
    fn default() -> Self {
        Self {
            domain_size: 64,
            cells_per_dim: 0,
        }
    }
}

/// Per-dimension 1-D uniform grid over the indexed domains.
#[derive(Debug, Clone)]
struct Grid1D {
    /// Where cell 0 starts: the lower edge of the range at build time.
    /// Fixed for the index's life, so a cell always means the same span.
    origin: f64,
    /// Lower and upper edge of every domain aggregate, for the probe's
    /// fast miss test. Starts as the build-time range and only widens,
    /// when [`SpatialIndex::update`] moves an aggregate past it.
    lo: f64,
    hi: f64,
    /// Cell width (`> 0`; degenerate ranges collapse to one cell).
    width: f64,
    /// `cells[c]` = domains whose aggregated interval touches (or, after
    /// a patch, once touched) cell `c`, ascending.
    cells: Vec<Vec<u32>>,
}

impl Grid1D {
    /// The cell containing `x`, clamped to the valid range. Monotone in
    /// `x`, and the *same* function bins build values, patched values
    /// and probe bounds — that shared monotone binning is what makes the
    /// probed cell range a superset of every intersecting domain's
    /// cells, including values beyond the build-time range, which clamp
    /// into the end cells.
    fn bin(&self, x: f64) -> usize {
        let c = ((x - self.origin) / self.width).floor();
        (c.max(0.0) as usize).min(self.cells.len() - 1)
    }

    /// Lists domain `g` in every cell its aggregate `[lo, hi]` touches,
    /// keeping each cell ascending.
    fn insert(&mut self, g: u32, lo: f64, hi: f64) {
        let (first, last) = (self.bin(lo), self.bin(hi));
        for cell in &mut self.cells[first..=last] {
            if let Err(at) = cell.binary_search(&g) {
                cell.insert(at, g);
            }
        }
    }
}

/// The outcome of [`SpatialIndex::probe`]: surviving domains plus the
/// query bounds (SoA, ready for [`SpatialIndex::verify_domain`]) and the
/// probe's work counters.
#[derive(Debug, Clone)]
pub struct Probe {
    /// Domains with at least one dimension intersecting the query,
    /// ascending. Every item intersecting the query on some axis lives
    /// in one of these.
    pub domains: Vec<u32>,
    /// Query lower bounds, one per dimension.
    pub q_lo: Vec<f64>,
    /// Query upper bounds, one per dimension.
    pub q_hi: Vec<f64>,
    /// Grid cells visited across all dimensions.
    pub cells_probed: u64,
    /// Domains eliminated without touching any of their items.
    pub domains_pruned: u64,
}

/// A two-level spatial index, bulk-built and patched in place; see the
/// module docs.
#[derive(Debug, Clone)]
pub struct SpatialIndex {
    dims: usize,
    len: usize,
    domain_size: usize,
    /// Per-dimension item bounds, SoA in Morton slot order:
    /// `item_lo[d][slot]` / `item_hi[d][slot]`.
    item_lo: Vec<Vec<f64>>,
    item_hi: Vec<Vec<f64>>,
    /// Slot → original push-order id.
    ids: Vec<u32>,
    /// Push-order id → slot, the inverse of `ids`, for
    /// [`SpatialIndex::update`]. Empty until the first update: an index
    /// that is never patched (a static million-node fleet) does not pay
    /// its 4 bytes per item.
    slot_of: Vec<u32>,
    /// Per-dimension aggregated domain bounds: `domain_lo[d][g]`.
    domain_lo: Vec<Vec<f64>>,
    domain_hi: Vec<Vec<f64>>,
    grids: Vec<Grid1D>,
}

/// Accumulates item rectangles (SoA from the start) for a bulk
/// [`SpatialIndexBuilder::build`].
#[derive(Debug, Clone)]
pub struct SpatialIndexBuilder {
    dims: usize,
    lo: Vec<Vec<f64>>,
    hi: Vec<Vec<f64>>,
}

impl SpatialIndexBuilder {
    /// A builder for `dims`-dimensional rectangles with capacity reserved
    /// for `n` items, so pushing exactly `n` rectangles never reallocates.
    ///
    /// # Panics
    /// Panics if `dims == 0`.
    pub fn with_capacity(dims: usize, n: usize) -> Self {
        assert!(dims > 0, "spatial index needs at least one dimension");
        Self {
            dims,
            lo: vec![Vec::with_capacity(n); dims],
            hi: vec![Vec::with_capacity(n); dims],
        }
    }

    /// Appends the next item's bounding rectangle. Item ids are assigned
    /// by push order: the `i`-th push is item `i`.
    ///
    /// # Panics
    /// Panics on a dimensionality mismatch.
    pub fn push(&mut self, rect: &HyperRect) {
        assert_eq!(
            rect.dim(),
            self.dims,
            "rect dim {} != index dim {}",
            rect.dim(),
            self.dims
        );
        for d in 0..self.dims {
            let iv = rect.interval(d);
            self.lo[d].push(iv.lo());
            self.hi[d].push(iv.hi());
        }
    }

    /// Appends the next item as the hull of `rects`, written straight
    /// into the SoA arrays: the same bounds as pushing the fold of
    /// [`HyperRect::hull`] over them, without building that rectangle
    /// (one heap allocation per fold step, which at a million items is
    /// a third of the walk).
    ///
    /// # Panics
    /// Panics if `rects` is empty or on a dimensionality mismatch.
    pub fn push_hull<'a>(&mut self, rects: impl IntoIterator<Item = &'a HyperRect>) {
        let mut rects = rects.into_iter();
        self.push(rects.next().expect("hull of zero rectangles"));
        let i = self.len() - 1;
        for rect in rects {
            assert_eq!(rect.dim(), self.dims, "rect dimensionality mismatch");
            for d in 0..self.dims {
                let iv = rect.interval(d);
                self.lo[d][i] = self.lo[d][i].min(iv.lo());
                self.hi[d][i] = self.hi[d][i].max(iv.hi());
            }
        }
    }

    /// Number of items pushed so far.
    pub fn len(&self) -> usize {
        self.lo[0].len()
    }

    /// True before the first push.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bulk-builds the index. The SoA item arrays are moved, not copied,
    /// so the whole build allocates `O(len / domain_size)` domain bounds
    /// plus the grid cells — asymptotically below the item storage the
    /// builder already holds.
    ///
    /// # Panics
    /// Panics if no items were pushed or the config is degenerate.
    pub fn build(self, config: GridConfig) -> SpatialIndex {
        assert!(!self.is_empty(), "cannot build an index over zero items");
        assert!(config.domain_size > 0, "domain size must be non-zero");
        let dims = self.dims;
        let len = self.len();
        let domain_size = config.domain_size;
        let n_domains = len.div_ceil(domain_size);

        // Morton slot order (see module docs): quantise every item's
        // centre against the global per-dimension range, interleave the
        // bits, sort. Ties (and the degenerate all-equal case) fall back
        // to push order, so the permutation is a total, deterministic
        // function of the inputs.
        let mut global_lo = vec![f64::INFINITY; dims];
        let mut global_hi = vec![f64::NEG_INFINITY; dims];
        for d in 0..dims {
            for i in 0..len {
                global_lo[d] = global_lo[d].min(self.lo[d][i]);
                global_hi[d] = global_hi[d].max(self.hi[d][i]);
            }
        }
        let bits = (128 / dims).min(16) as u32;
        let levels = ((1u64 << bits) - 1) as f64;
        let mut quantised = vec![0u64; dims];
        let keys: Vec<u128> = (0..len)
            .map(|i| {
                for d in 0..dims {
                    let span = global_hi[d] - global_lo[d];
                    let t = if span > 0.0 {
                        let centre = (self.lo[d][i] + self.hi[d][i]) * 0.5;
                        ((centre - global_lo[d]) / span).clamp(0.0, 1.0)
                    } else {
                        0.0
                    };
                    quantised[d] = (t * levels) as u64;
                }
                let mut key = 0u128;
                for b in (0..bits).rev() {
                    for &q in &quantised {
                        key = (key << 1) | u128::from((q >> b) & 1);
                    }
                }
                key
            })
            .collect();
        let mut ids: Vec<u32> = (0..len as u32).collect();
        ids.sort_unstable_by_key(|&i| (keys[i as usize], i));

        let mut item_lo = vec![Vec::with_capacity(len); dims];
        let mut item_hi = vec![Vec::with_capacity(len); dims];
        for d in 0..dims {
            for &i in &ids {
                item_lo[d].push(self.lo[d][i as usize]);
                item_hi[d].push(self.hi[d][i as usize]);
            }
        }

        let mut domain_lo = vec![Vec::with_capacity(n_domains); dims];
        let mut domain_hi = vec![Vec::with_capacity(n_domains); dims];
        for d in 0..dims {
            for g in 0..n_domains {
                let start = g * domain_size;
                let end = (start + domain_size).min(len);
                let mut lo = f64::INFINITY;
                let mut hi = f64::NEG_INFINITY;
                for i in start..end {
                    lo = lo.min(item_lo[d][i]);
                    hi = hi.max(item_hi[d][i]);
                }
                domain_lo[d].push(lo);
                domain_hi[d].push(hi);
            }
        }

        let cells_per_dim = if config.cells_per_dim > 0 {
            config.cells_per_dim
        } else {
            // ≈ √n_domains cells: a probe over a small query interval
            // then visits O(√G) cells each holding O(√G) domains.
            ((n_domains as f64).sqrt().ceil() as usize).clamp(1, 65_536)
        };
        let grids = (0..dims)
            .map(|d| {
                let lo = domain_lo[d].iter().copied().fold(f64::INFINITY, f64::min);
                let hi = domain_hi[d]
                    .iter()
                    .copied()
                    .fold(f64::NEG_INFINITY, f64::max);
                let span = hi - lo;
                // Degenerate range (all bounds equal): one cell holds
                // everything and any positive width keeps bin() total.
                let (cells_n, width) = if span > 0.0 {
                    (cells_per_dim, span / cells_per_dim as f64)
                } else {
                    (1, 1.0)
                };
                let mut grid = Grid1D {
                    origin: lo,
                    lo,
                    hi,
                    width,
                    cells: vec![Vec::new(); cells_n],
                };
                for g in 0..n_domains {
                    grid.insert(g as u32, domain_lo[d][g], domain_hi[d][g]);
                }
                grid
            })
            .collect();

        SpatialIndex {
            dims,
            len,
            domain_size,
            item_lo,
            item_hi,
            ids,
            slot_of: Vec::new(),
            domain_lo,
            domain_hi,
            grids,
        }
    }
}

impl SpatialIndex {
    /// Dimensionality of the indexed rectangles.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of indexed items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// An index is never empty (the builder rejects zero items).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of domains (upper hierarchy level).
    pub fn n_domains(&self) -> usize {
        self.domain_lo[0].len()
    }

    /// Items per domain.
    pub fn domain_size(&self) -> usize {
        self.domain_size
    }

    /// The *slot* range `[start, end)` of a domain (Morton layout;
    /// translate slots to push-order ids via [`SpatialIndex::slot_ids`]).
    pub fn domain_items(&self, domain: u32) -> (usize, usize) {
        let start = domain as usize * self.domain_size;
        (start, (start + self.domain_size).min(self.len))
    }

    /// The aggregated bounds of `domain` on axis `d`: the hull of its
    /// items' intervals there, as of the last build or update.
    pub fn domain_interval(&self, domain: u32, d: usize) -> Interval {
        let g = domain as usize;
        Interval::new(self.domain_lo[d][g], self.domain_hi[d][g])
    }

    /// Slot → original push-order id: `slot_ids()[slot]` is the item
    /// stored at that Morton slot.
    pub fn slot_ids(&self) -> &[u32] {
        &self.ids
    }

    /// Moves item `id` (its push-order id) to `rect` in place and
    /// returns the domain that holds it: the item keeps its slot, its
    /// domain's aggregate is recomputed exactly from the domain's items,
    /// and the grid learns every cell the new aggregate touches (see the
    /// module docs for why the cells it no longer touches may keep it).
    /// `O(domain_size · dims)` plus the touched cells, against the bulk
    /// build's sort of every item; the first update also inverts the
    /// slot → id permutation, once, in `O(len)`.
    ///
    /// # Panics
    /// Panics on a dimensionality mismatch or an id that was never
    /// pushed.
    pub fn update(&mut self, id: u32, rect: &HyperRect) -> u32 {
        assert_eq!(
            rect.dim(),
            self.dims,
            "rect dim {} != index dim {}",
            rect.dim(),
            self.dims
        );
        assert!((id as usize) < self.len, "item {id} was never pushed");
        if self.slot_of.is_empty() {
            self.slot_of = vec![0; self.len];
            for (slot, &item) in self.ids.iter().enumerate() {
                self.slot_of[item as usize] = slot as u32;
            }
        }
        let slot = self.slot_of[id as usize] as usize;
        let domain = (slot / self.domain_size) as u32;
        let (start, end) = self.domain_items(domain);
        let g = domain as usize;
        for d in 0..self.dims {
            let iv = rect.interval(d);
            self.item_lo[d][slot] = iv.lo();
            self.item_hi[d][slot] = iv.hi();
            // The build's own fold over the same slots: the aggregate is
            // what a build over these bounds with this layout would hold.
            let lo = self.item_lo[d][start..end]
                .iter()
                .copied()
                .fold(f64::INFINITY, f64::min);
            let hi = self.item_hi[d][start..end]
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max);
            self.domain_lo[d][g] = lo;
            self.domain_hi[d][g] = hi;
            let grid = &mut self.grids[d];
            grid.lo = grid.lo.min(lo);
            grid.hi = grid.hi.max(hi);
            grid.insert(domain, lo, hi);
        }
        domain
    }

    /// Grid-level probe: returns every domain with at least one
    /// dimension whose aggregated interval intersects the query's —
    /// ascending, exact at the domain level (grid false positives are
    /// re-checked against the aggregated bounds before surviving).
    ///
    /// # Panics
    /// Panics on a dimensionality mismatch.
    pub fn probe(&self, query: &HyperRect) -> Probe {
        assert_eq!(
            query.dim(),
            self.dims,
            "query dim {} != index dim {}",
            query.dim(),
            self.dims
        );
        let q_lo: Vec<f64> = (0..self.dims).map(|d| query.interval(d).lo()).collect();
        let q_hi: Vec<f64> = (0..self.dims).map(|d| query.interval(d).hi()).collect();
        let n_domains = self.n_domains();
        let mut marked = vec![false; n_domains];
        let mut cells_probed = 0u64;
        for (d, grid) in self.grids.iter().enumerate() {
            // The query misses the whole indexed range in this
            // dimension: no domain can intersect it here.
            if q_hi[d] < grid.lo || q_lo[d] > grid.hi {
                continue;
            }
            let first = grid.bin(q_lo[d].max(grid.lo));
            let last = grid.bin(q_hi[d].min(grid.hi));
            for cell in &grid.cells[first..=last] {
                cells_probed += 1;
                for &g in cell {
                    // Exact domain-level test (the cell is conservative):
                    // intersect in *this* dimension, touching included —
                    // matching `Interval::intersects`.
                    let gi = g as usize;
                    if self.domain_lo[d][gi] <= q_hi[d] && self.domain_hi[d][gi] >= q_lo[d] {
                        marked[gi] = true;
                    }
                }
            }
        }
        let domains: Vec<u32> = (0..n_domains as u32)
            .filter(|&g| marked[g as usize])
            .collect();
        let domains_pruned = (n_domains - domains.len()) as u64;
        Probe {
            domains,
            q_lo,
            q_hi,
            cells_probed,
            domains_pruned,
        }
    }

    /// Item-level verify for one domain: calls `hit` with the **slot**
    /// of every item whose bounds intersect the query interval in **at
    /// least one** dimension, in ascending slot order. The inner loop is
    /// a branch-light OR-accumulation over the SoA slices.
    pub fn verify_slots(
        &self,
        domain: u32,
        q_lo: &[f64],
        q_hi: &[f64],
        mut hit: impl FnMut(usize),
    ) {
        let (start, end) = self.domain_items(domain);
        for i in start..end {
            let mut any = false;
            for d in 0..self.dims {
                any |= self.item_lo[d][i] <= q_hi[d] && self.item_hi[d][i] >= q_lo[d];
            }
            if any {
                hit(i);
            }
        }
    }

    /// [`SpatialIndex::verify_slots`] reporting the **original
    /// push-order id** of every hit. Slot order is deterministic but
    /// *not* globally ascending in id across domains; sort the
    /// concatenation if the caller's contract needs ascending ids.
    pub fn verify_domain(&self, domain: u32, q_lo: &[f64], q_hi: &[f64], out: &mut Vec<u32>) {
        self.verify_slots(domain, q_lo, q_hi, |slot| out.push(self.ids[slot]));
    }

    /// Serial convenience: probe then verify every surviving domain,
    /// returning the candidate item list in ascending push-order id and
    /// the probe's work counters. Parallel callers should
    /// [`SpatialIndex::probe`] once and fan
    /// [`SpatialIndex::verify_domain`] out per domain instead.
    pub fn candidates(&self, query: &HyperRect) -> (Vec<u32>, Probe) {
        let probe = self.probe(query);
        let mut out = Vec::new();
        for &g in &probe.domains {
            self.verify_domain(g, &probe.q_lo, &probe.q_hi, &mut out);
        }
        out.sort_unstable();
        (out, probe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// xorshift64*: enough randomness for test geometry, zero deps.
    struct TestRng(u64);

    impl TestRng {
        fn next_f64(&mut self) -> f64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    fn rect2(x0: f64, x1: f64, y0: f64, y1: f64) -> HyperRect {
        HyperRect::new(vec![Interval::new(x0, x1), Interval::new(y0, y1)])
    }

    fn random_rects(n: usize, seed: u64) -> Vec<HyperRect> {
        let mut rng = TestRng(seed | 1);
        (0..n)
            .map(|_| {
                let cx = rng.next_f64() * 100.0;
                let cy = rng.next_f64() * 100.0;
                let hx = rng.next_f64() * 3.0;
                let hy = rng.next_f64() * 3.0;
                rect2(cx - hx, cx + hx, cy - hy, cy + hy)
            })
            .collect()
    }

    /// The reference predicate: intersects the query in ≥ 1 dimension.
    fn brute_force(rects: &[HyperRect], query: &HyperRect) -> Vec<u32> {
        rects
            .iter()
            .enumerate()
            .filter(|(_, r)| (0..r.dim()).any(|d| r.interval(d).intersects(query.interval(d))))
            .map(|(i, _)| i as u32)
            .collect()
    }

    fn build(rects: &[HyperRect], config: GridConfig) -> SpatialIndex {
        let mut b = SpatialIndexBuilder::with_capacity(rects[0].dim(), rects.len());
        for r in rects {
            b.push(r);
        }
        b.build(config)
    }

    #[test]
    fn candidates_match_brute_force_per_axis_union() {
        let rects = random_rects(500, 42);
        let index = build(&rects, GridConfig::default());
        let mut rng = TestRng(7);
        for _ in 0..50 {
            let cx = rng.next_f64() * 110.0 - 5.0;
            let cy = rng.next_f64() * 110.0 - 5.0;
            let q = rect2(cx, cx + 8.0, cy, cy + 8.0);
            assert_eq!(index.candidates(&q).0, brute_force(&rects, &q));
        }
    }

    #[test]
    fn exotic_grid_shapes_stay_exact() {
        let rects = random_rects(97, 3);
        for config in [
            GridConfig {
                domain_size: 1,
                cells_per_dim: 0,
            },
            GridConfig {
                domain_size: 7,
                cells_per_dim: 1,
            },
            GridConfig {
                domain_size: 500, // one domain swallowing everything
                cells_per_dim: 3,
            },
        ] {
            let index = build(&rects, config);
            let q = rect2(20.0, 35.0, 40.0, 55.0);
            assert_eq!(index.candidates(&q).0, brute_force(&rects, &q));
        }
    }

    #[test]
    fn disjoint_on_every_axis_yields_nothing() {
        let rects = random_rects(200, 9);
        let index = build(&rects, GridConfig::default());
        // All data lives in roughly [-3, 103]^2.
        let q = rect2(500.0, 510.0, 500.0, 510.0);
        let (cands, probe) = index.candidates(&q);
        assert!(cands.is_empty());
        assert_eq!(probe.domains_pruned, index.n_domains() as u64);
    }

    #[test]
    fn one_axis_overlap_is_a_candidate() {
        // Disjoint in y but overlapping in x: Eq. 2 still scores it, so
        // it must be a candidate (full-rectangle pruning would be wrong).
        let rects = vec![rect2(0.0, 10.0, 0.0, 10.0)];
        let index = build(&rects, GridConfig::default());
        let q = rect2(5.0, 8.0, 1000.0, 1001.0);
        assert_eq!(index.candidates(&q).0, vec![0]);
    }

    #[test]
    fn touching_bounds_count_as_intersecting() {
        // Interval::intersects treats shared endpoints as intersecting;
        // the index must agree or candidates diverge from the kernel.
        let rects = vec![rect2(0.0, 10.0, 0.0, 10.0)];
        let index = build(&rects, GridConfig::default());
        let q = rect2(10.0, 20.0, 10.0, 20.0);
        assert_eq!(index.candidates(&q).0, vec![0]);
    }

    #[test]
    fn degenerate_space_collapses_to_one_cell() {
        // Every rect is the same point: spans are zero in both dims.
        let rects = vec![rect2(5.0, 5.0, 5.0, 5.0); 10];
        let index = build(&rects, GridConfig::default());
        assert_eq!(index.candidates(&rect2(0.0, 9.0, 0.0, 9.0)).0.len(), 10);
        assert!(index
            .candidates(&rect2(90.0, 99.0, 90.0, 99.0))
            .0
            .is_empty());
    }

    #[test]
    fn probe_counters_account_for_pruning() {
        let rects = random_rects(1000, 11);
        let index = build(
            &rects,
            GridConfig {
                domain_size: 16,
                cells_per_dim: 0,
            },
        );
        let q = rect2(10.0, 14.0, 10.0, 14.0);
        let (cands, probe) = index.candidates(&q);
        assert_eq!(
            probe.domains.len() + probe.domains_pruned as usize,
            index.n_domains()
        );
        assert!(probe.cells_probed > 0);
        // A small query over scattered data must actually prune.
        assert!(probe.domains_pruned > 0);
        assert_eq!(cands, brute_force(&rects, &q));
    }

    #[test]
    fn domains_partition_the_items() {
        let rects = random_rects(130, 5);
        let index = build(
            &rects,
            GridConfig {
                domain_size: 32,
                cells_per_dim: 0,
            },
        );
        assert_eq!(index.n_domains(), 5); // ceil(130 / 32)
        let mut covered = 0;
        for g in 0..index.n_domains() as u32 {
            let (start, end) = index.domain_items(g);
            assert_eq!(start, g as usize * 32);
            covered += end - start;
        }
        assert_eq!(covered, index.len());
    }

    #[test]
    fn morton_layout_prunes_scattered_fleets() {
        // The regression this layout exists for: scattered tight rects,
        // narrow query. Push-order domains would have space-covering
        // hulls and prune nothing; the Morton layout must prune most of
        // the fleet at the domain level.
        let rects = random_rects(4096, 21);
        let index = build(
            &rects,
            GridConfig {
                domain_size: 16,
                cells_per_dim: 0,
            },
        );
        let q = rect2(40.0, 44.0, 40.0, 44.0);
        let (cands, probe) = index.candidates(&q);
        assert_eq!(cands, brute_force(&rects, &q));
        assert!(
            probe.domains_pruned as usize > index.n_domains() / 2,
            "only {} of {} domains pruned — spatial layout is not grouping",
            probe.domains_pruned,
            index.n_domains()
        );
    }

    #[test]
    fn push_hull_equals_pushing_the_folded_hull() {
        let rects = random_rects(90, 13);
        let mut folded = SpatialIndexBuilder::with_capacity(2, 0);
        let mut direct = SpatialIndexBuilder::with_capacity(2, 0);
        for group in rects.chunks(3) {
            folded.push(
                &group[1..]
                    .iter()
                    .fold(group[0].clone(), |acc, r| acc.hull(r)),
            );
            direct.push_hull(group);
        }
        assert_eq!(direct.len(), 30);
        for d in 0..2 {
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&direct.lo[d]), bits(&folded.lo[d]));
            assert_eq!(bits(&direct.hi[d]), bits(&folded.hi[d]));
        }
    }

    #[test]
    fn verify_slots_are_ascending_and_map_to_the_reported_ids() {
        let rects = random_rects(300, 17);
        let index = build(
            &rects,
            GridConfig {
                domain_size: 16,
                cells_per_dim: 0,
            },
        );
        let mut seen = vec![false; rects.len()];
        for &id in index.slot_ids() {
            assert!(!std::mem::replace(&mut seen[id as usize], true));
        }
        assert!(seen.iter().all(|s| *s), "slot_ids is a permutation");
        let probe = index.probe(&rect2(30.0, 50.0, 30.0, 50.0));
        for &g in &probe.domains {
            let mut slots = Vec::new();
            index.verify_slots(g, &probe.q_lo, &probe.q_hi, |s| slots.push(s));
            assert!(slots.windows(2).all(|w| w[0] < w[1]));
            let mut ids = Vec::new();
            index.verify_domain(g, &probe.q_lo, &probe.q_hi, &mut ids);
            let mapped: Vec<u32> = slots.iter().map(|&s| index.slot_ids()[s]).collect();
            assert_eq!(ids, mapped);
        }
    }

    /// A random rectangle centred within `reach` of the middle of the
    /// `random_rects` space, half-widths up to 3 (zero one time in five,
    /// for point and segment items).
    fn moved_rect(rng: &mut TestRng, reach: f64) -> HyperRect {
        let mut half = || {
            let h = rng.next_f64() * 3.0;
            if h < 0.6 {
                0.0
            } else {
                h
            }
        };
        let (hx, hy) = (half(), half());
        let cx = 50.0 + (rng.next_f64() - 0.5) * 2.0 * reach;
        let cy = 50.0 + (rng.next_f64() - 0.5) * 2.0 * reach;
        rect2(cx - hx, cx + hx, cy - hy, cy + hy)
    }

    /// Random `update` sequences keep the index exact: after every move
    /// the candidates are the brute-force per-axis union over the
    /// current rectangles — with one move in four landing far outside
    /// the build-time range, for one-item and all-in-one domains, and
    /// for a grid that starts as one degenerate cell.
    #[test]
    fn random_updates_keep_candidates_exact() {
        let cases = [
            ("default", random_rects(300, 31), GridConfig::default()),
            (
                "domain_size 1",
                random_rects(120, 37),
                GridConfig {
                    domain_size: 1,
                    cells_per_dim: 0,
                },
            ),
            (
                "domain_size 500",
                random_rects(300, 41),
                GridConfig {
                    domain_size: 500,
                    cells_per_dim: 3,
                },
            ),
            (
                "one degenerate cell",
                vec![rect2(5.0, 5.0, 5.0, 5.0); 40],
                GridConfig {
                    domain_size: 4,
                    cells_per_dim: 0,
                },
            ),
        ];
        for (name, mut rects, config) in cases {
            let mut index = build(&rects, config);
            let n_domains = index.n_domains();
            let mut rng = TestRng(0x5EED ^ rects.len() as u64);
            for step in 0..200 {
                let id = (rng.next_f64() * rects.len() as f64) as usize;
                let reach = if step % 4 == 0 { 2000.0 } else { 60.0 };
                rects[id] = moved_rect(&mut rng, reach);
                let domain = index.update(id as u32, &rects[id]);
                let (start, end) = index.domain_items(domain);
                assert!(
                    index.slot_ids()[start..end].contains(&(id as u32)),
                    "{name}: update reported a domain not holding item {id}"
                );
                // Two queries near the data, one anywhere a far move can
                // land, and the moved item's own rectangle.
                let mut queries: Vec<HyperRect> = [60.0, 60.0, 2500.0]
                    .iter()
                    .map(|&reach| {
                        let q = moved_rect(&mut rng, reach);
                        let (x, y) = (q.interval(0), q.interval(1));
                        let w = rng.next_f64() * 30.0;
                        rect2(x.lo(), x.hi() + w, y.lo(), y.hi() + w)
                    })
                    .collect();
                queries.push(rects[id].clone());
                for q in &queries {
                    let (cands, probe) = index.candidates(q);
                    assert_eq!(cands, brute_force(&rects, q), "{name}: step {step}, {q:?}");
                    assert_eq!(
                        probe.domains.len() + probe.domains_pruned as usize,
                        n_domains
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "never pushed")]
    fn update_of_an_unknown_item_rejected() {
        build(&random_rects(10, 1), GridConfig::default()).update(10, &rect2(0.0, 1.0, 0.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "hull of zero rectangles")]
    fn empty_hull_rejected() {
        SpatialIndexBuilder::with_capacity(2, 0).push_hull(std::iter::empty());
    }

    #[test]
    #[should_panic(expected = "zero items")]
    fn empty_build_rejected() {
        SpatialIndexBuilder::with_capacity(2, 0).build(GridConfig::default());
    }

    #[test]
    #[should_panic(expected = "rect dim")]
    fn wrong_dim_rejected() {
        let mut b = SpatialIndexBuilder::with_capacity(2, 0);
        b.push(&HyperRect::new(vec![Interval::new(0.0, 1.0)]));
    }
}
