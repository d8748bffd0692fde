//! Incremental free-capacity index over a VM/node fleet.
//!
//! Every placement policy in the simulator ("most requested", bin-pack,
//! spread) is an argmin/argmax of a per-node score that depends only on the
//! node's capacity and its current usage. The naive implementation rescans
//! the whole fleet per pod, so a churn simulation is quadratic in fleet
//! size. This index keeps nodes bucketed by *quantized free share* so a
//! query touches only the few buckets that can contain the winner.
//!
//! # Structure
//!
//! Nodes are grouped into **capacity classes** (one per distinct capacity
//! vector — a handful in practice: the m5 catalog has six models). Each
//! class holds a [`GRID`]`x`[`GRID`] grid of buckets; a node with free
//! vector `(fc, fm)` and capacity `(Cc, Cm)` lives in cell
//! `(floor(fc*G/Cc), floor(fm*G/Cm))`, clamped to `G-1` (axes with zero
//! capacity map to coordinate 0). A request `(rc, rm)` induces *floor*
//! coordinates `(fi, fj)` the same way; every feasible node sits in the
//! quadrant `ci >= fi, cj >= fj`, so a query walks that quadrant in score
//! order — diagonals `ci+cj = L` for the sum-of-shares policies, L-shells
//! `max(ci,cj) = S` for bin-pack — and stops as soon as the best candidate
//! found provably beats everything in the unvisited cells.
//!
//! Most cells of a loaded grid are empty, so each class also keeps one
//! `u32` **occupancy mask** per anti-diagonal (bit `ci` of level `L` is set
//! iff cell `(ci, L-ci)` has members). A diagonal walk ANDs the level's
//! mask with the quadrant's `ci` range and visits only the set bits, so an
//! empty level costs O(1). A cell holds **member records** — the node id
//! and its free vector as three `u32`s — so every scan tests feasibility
//! and scores without leaving the cell. Per node the index stores that
//! 12-byte record plus a 12-byte entry (class, cell, slot) locating it;
//! usage is derived as capacity minus free.
//!
//! # Exactness
//!
//! Scores are compared as exact rationals (`u128` cross-multiplication),
//! never floats, and every candidate is re-checked for exact feasibility,
//! so [`FreeCapIndex::pick`] returns *bit-identically* the same node as the
//! reference full scan [`FreeCapIndex::pick_naive`] — the property tests
//! exercise this under random churn. Coordinates and capacities must stay
//! below `2^31` per axis (2.1M vCPU / 2 PiB — far above any real node) so
//! the cross-products fit in `u128` and a member's free vector fits two
//! `u32`s exactly.
//!
//! A separate query, [`FreeCapIndex::pick_most_requested_f64`], reproduces
//! the *orchestrator's* legacy floating-point scoring (mean requested
//! fraction, last-wins tie-break) with a conservatively slacked pruning
//! bound, so the control plane can adopt the index without a single
//! placement changing on the seed topology.

use crate::resources::Res;
use std::cmp::Ordering;
use std::collections::HashMap;

/// Buckets per axis in each capacity class's grid.
pub const GRID: usize = 32;

/// Per-axis magnitude bound (exclusive) for capacities and usage.
const MAX_DIM: u64 = 1 << 31;

/// Placement policy evaluated by [`FreeCapIndex::pick`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlacePolicy {
    /// Minimize the post-placement sum of free shares: pick the node that
    /// ends up *fullest* on average (the Kubernetes `MostAllocated` /
    /// "most requested" bias that consolidates load).
    MostRequested,
    /// Minimize the post-placement *dominant* free share
    /// `max(free_cpu/Cc, free_mem/Cm)`: classic dominant-resource
    /// bin-packing, tightest fit first.
    BinPack,
    /// Maximize the post-placement sum of free shares: pick the emptiest
    /// node (the `LeastAllocated` spread bias).
    Spread,
}

/// How score ties between nodes are resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TieBreak {
    /// Prefer the smallest node id (first-wins; the hyperscale engine).
    SmallestId,
    /// Prefer the largest node id (last-wins; matches the orchestrator's
    /// historical `Iterator::max_by`, which keeps the *last* maximum).
    LargestId,
}

/// Exact rational score with `u128` cross-multiplied comparison.
///
/// Numerators are bounded by `2 * MAX_DIM^2 = 2^63` and denominators by
/// `MAX_DIM^2 = 2^62`, so cross products stay below `2^125 < 2^128`.
#[derive(Debug, Clone, Copy)]
struct Frac {
    num: u64,
    den: u64,
}

impl Frac {
    fn cmp(self, o: Frac) -> Ordering {
        let a = self.num as u128 * o.den as u128;
        let b = o.num as u128 * self.den as u128;
        a.cmp(&b)
    }
}

/// `Entry::class` of an id that is not live.
const DEAD: u32 = u32::MAX;

/// Anti-diagonals `ci + cj = L` of a grid.
const LEVELS: usize = 2 * GRID - 1;

// One occupancy bit per grid row fits in a `u32` diagonal mask.
const _: () = assert!(GRID <= u32::BITS as usize);

/// Where live node `id`'s record sits: `classes[class].cells[cell][slot]`.
#[derive(Debug, Clone, Copy)]
struct Entry {
    /// Capacity class, index into `FreeCapIndex::classes`, or [`DEAD`].
    class: u32,
    /// Grid cell `ci * GRID + cj` within the class.
    cell: u32,
    /// Position within the cell's member list.
    slot: u32,
}

/// A cell's record of one node: its id and free vector, held inline so a
/// scan tests feasibility and scores without leaving the cell. Both axes
/// fit a `u32` because they stay below [`MAX_DIM`].
#[derive(Debug, Clone, Copy)]
struct Member {
    id: u32,
    cpu: u32,
    mem: u32,
}

impl Member {
    /// `free` must fit its class's capacity, which `insert` and `reset`
    /// bound below [`MAX_DIM`], so the casts are exact.
    fn new(id: u32, free: Res) -> Member {
        Member {
            id,
            cpu: free.cpu_m as u32,
            mem: free.mem_mib as u32,
        }
    }

    fn free(self) -> Res {
        Res::new(u64::from(self.cpu), u64::from(self.mem))
    }
}

#[derive(Debug)]
struct CapClass {
    cap: Res,
    /// `GRID * GRID` member lists; cell `(ci, cj)` at `ci * GRID + cj`.
    cells: Vec<Vec<Member>>,
    /// Occupancy per anti-diagonal: bit `ci` of `diag[L]` is set iff cell
    /// `(ci, L - ci)` has members.
    diag: [u32; LEVELS],
    /// Live members in this class.
    len: usize,
}

impl CapClass {
    fn new(cap: Res) -> CapClass {
        CapClass {
            cap,
            cells: (0..GRID * GRID).map(|_| Vec::new()).collect(),
            diag: [0; LEVELS],
            len: 0,
        }
    }

    /// The cell a node with free vector `free` belongs to.
    fn cell_of(&self, free: Res) -> u32 {
        let ci = axis_cell(free.cpu_m, self.cap.cpu_m);
        let cj = axis_cell(free.mem_mib, self.cap.mem_mib);
        (ci * GRID + cj) as u32
    }

    /// Calls `f` on every member of diagonal `level` inside the feasible
    /// quadrant `ci >= fi, cj >= fj`, skipping empty cells via the mask.
    fn visit_diag(&self, level: usize, fi: usize, fj: usize, mut f: impl FnMut(Member)) {
        let lo = fi.max(level.saturating_sub(GRID - 1));
        let hi = (GRID - 1).min(level - fj);
        // Bits lo..=hi of the diagonal mask.
        let mut bits = self.diag[level] & (u32::MAX << lo) & (u32::MAX >> (31 - hi));
        while bits != 0 {
            let ci = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            for &m in &self.cells[ci * GRID + level - ci] {
                f(m);
            }
        }
    }

    /// Diagonal walk for the sum-of-free-shares policies. Ascending levels
    /// minimize (most-requested); descending levels maximize (spread).
    fn scan_sum(&self, req: Res, tie: TieBreak, spread: bool) -> Option<(Frac, u32)> {
        if self.len == 0 || !req.fits_in(self.cap) {
            return None;
        }
        let (cc, cm) = (self.cap.cpu_m.max(1), self.cap.mem_mib.max(1));
        let den = cc * cm;
        let fi = axis_cell(req.cpu_m, self.cap.cpu_m);
        let fj = axis_cell(req.mem_mib, self.cap.mem_mib);
        // R = rc/cc + rm/cm as rn/den: the score drop caused by placement.
        let rn = req.cpu_m * cm + req.mem_mib * cc;
        let mut best: Option<(Frac, u32)> = None;
        for step in 0..LEVELS - (fi + fj) {
            let level = if spread {
                LEVELS - 1 - step
            } else {
                fi + fj + step
            };
            if let Some((b, _)) = best {
                // A member of level L has free-share sum in
                // [L/G, (L+2)/G], so its post-placement score lies in
                // [L/G - R, (L+2)/G - R]. Stop (strictly — equal scores
                // must still be scanned for the tie-break) once the whole
                // remaining range cannot beat the incumbent.
                let done = if spread {
                    ((level + 2) as u128) * (den as u128)
                        < (b.num as u128 + rn as u128) * (GRID as u128)
                } else {
                    (level as u128) * (den as u128) > (b.num as u128 + rn as u128) * (GRID as u128)
                };
                if done {
                    break;
                }
            }
            self.visit_diag(level, fi, fj, |m| {
                let free = m.free();
                if !req.fits_in(free) {
                    return;
                }
                let fa_c = free.cpu_m - req.cpu_m;
                let fa_m = free.mem_mib - req.mem_mib;
                let f = Frac {
                    num: fa_c * cm + fa_m * cc,
                    den,
                };
                take_better(&mut best, f, m.id, !spread, tie);
            });
        }
        best
    }

    /// L-shell walk for dominant-resource bin-packing: ascending shells
    /// `max(ci, cj) = S`, minimizing the post-placement dominant free
    /// share.
    fn scan_binpack(&self, req: Res, tie: TieBreak) -> Option<(Frac, u32)> {
        if self.len == 0 || !req.fits_in(self.cap) {
            return None;
        }
        let (cc, cm) = (self.cap.cpu_m.max(1), self.cap.mem_mib.max(1));
        let den = cc * cm;
        let fi = axis_cell(req.cpu_m, self.cap.cpu_m);
        let fj = axis_cell(req.mem_mib, self.cap.mem_mib);
        // Dominant requested share max(rc/cc, rm/cm), over den.
        let rbp = (req.cpu_m * cm).max(req.mem_mib * cc);
        let mut best: Option<(Frac, u32)> = None;
        for s in fi.max(fj)..GRID {
            if let Some((b, _)) = best {
                // A member of shell S has dominant free share >= S/G, so
                // its post-placement score is >= S/G - rbp/den.
                if (s as u128) * (den as u128) > (b.num as u128 + rbp as u128) * (GRID as u128) {
                    break;
                }
            }
            let visit = |cell: usize, best: &mut Option<(Frac, u32)>| {
                for m in &self.cells[cell] {
                    let free = m.free();
                    if !req.fits_in(free) {
                        continue;
                    }
                    let fa_c = free.cpu_m - req.cpu_m;
                    let fa_m = free.mem_mib - req.mem_mib;
                    let f = Frac {
                        num: (fa_c * cm).max(fa_m * cc),
                        den,
                    };
                    take_better(best, f, m.id, true, tie);
                }
            };
            // Column ci = s (cj in fj..=s), then row cj = s (ci in fi..s);
            // the corner (s, s) is visited exactly once.
            for cj in fj..=s {
                visit(s * GRID + cj, &mut best);
            }
            for ci in fi..s {
                visit(ci * GRID + s, &mut best);
            }
        }
        best
    }
}

/// Quantized free-share coordinate of one axis: `floor(free*G/cap)`
/// clamped to the grid (zero-capacity axes collapse to 0).
fn axis_cell(free: u64, cap: u64) -> usize {
    match (free * GRID as u64).checked_div(cap) {
        None => 0,
        Some(q) => (q as usize).min(GRID - 1),
    }
}

/// Row and diagonal of cell `ci * GRID + cj`: `(ci, ci + cj)`.
fn row_and_level(cell: u32) -> (usize, usize) {
    let (ci, cj) = (cell as usize / GRID, cell as usize % GRID);
    (ci, ci + cj)
}

/// An incremental bucket index over node free capacity.
///
/// Ids are dense `u32`s assigned by [`insert`](FreeCapIndex::insert) and
/// recycled by [`remove`](FreeCapIndex::remove); callers typically mirror
/// them 1:1 onto their own node/VM arrays.
#[derive(Debug, Default)]
pub struct FreeCapIndex {
    classes: Vec<CapClass>,
    class_ids: HashMap<Res, u32>,
    entries: Vec<Entry>,
    free_ids: Vec<u32>,
    live: usize,
}

impl FreeCapIndex {
    /// An empty index.
    pub fn new() -> FreeCapIndex {
        FreeCapIndex::default()
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no node is indexed.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Live-member count of every non-empty grid cell across all
    /// capacity classes — the raw occupancy distribution of the bucket
    /// index, for telemetry histograms (a skewed distribution means the
    /// grid is degenerating towards a linear scan).
    pub fn bucket_occupancy(&self) -> Vec<u64> {
        self.classes
            .iter()
            .flat_map(|k| k.cells.iter())
            .filter(|c| !c.is_empty())
            .map(|c| c.len() as u64)
            .collect()
    }

    /// Node `id`'s entry.
    ///
    /// # Panics
    /// Panics if `id` is not live, including ids never issued.
    fn entry(&self, id: u32) -> Entry {
        match self.entries.get(id as usize) {
            Some(&e) if e.class != DEAD => e,
            _ => panic!("node {id} is not live"),
        }
    }

    fn member(&self, e: Entry) -> Member {
        self.classes[e.class as usize].cells[e.cell as usize][e.slot as usize]
    }

    /// Current usage of node `id`.
    ///
    /// # Panics
    /// Panics if `id` is not live.
    pub fn used(&self, id: u32) -> Res {
        let e = self.entry(id);
        self.classes[e.class as usize].cap - self.member(e).free()
    }

    /// Capacity of node `id`.
    ///
    /// # Panics
    /// Panics if `id` is not live.
    pub fn cap(&self, id: u32) -> Res {
        self.classes[self.entry(id).class as usize].cap
    }

    fn class_for(&mut self, cap: Res) -> u32 {
        if let Some(&k) = self.class_ids.get(&cap) {
            return k;
        }
        let k = self.classes.len() as u32;
        self.classes.push(CapClass::new(cap));
        self.class_ids.insert(cap, k);
        k
    }

    fn attach(&mut self, id: u32, class: u32, free: Res) {
        let k = &mut self.classes[class as usize];
        let cell = k.cell_of(free);
        let members = &mut k.cells[cell as usize];
        if members.is_empty() {
            let (ci, level) = row_and_level(cell);
            k.diag[level] |= 1 << ci;
        }
        let slot = members.len() as u32;
        members.push(Member::new(id, free));
        k.len += 1;
        self.entries[id as usize] = Entry { class, cell, slot };
    }

    /// Unlinks the record `e` points at; the caller re-attaches the node
    /// or marks its entry [`DEAD`].
    fn detach(&mut self, e: Entry) {
        let k = &mut self.classes[e.class as usize];
        let members = &mut k.cells[e.cell as usize];
        members.swap_remove(e.slot as usize);
        if let Some(moved) = members.get(e.slot as usize) {
            self.entries[moved.id as usize].slot = e.slot;
        }
        if members.is_empty() {
            let (ci, level) = row_and_level(e.cell);
            k.diag[level] &= !(1 << ci);
        }
        k.len -= 1;
    }

    /// Adds a node with the given capacity and current usage, returning
    /// its id (recycled from removed nodes when possible).
    ///
    /// # Panics
    /// Panics if any axis reaches `2^31` or `used` exceeds `cap`.
    pub fn insert(&mut self, cap: Res, used: Res) -> u32 {
        assert!(
            cap.cpu_m < MAX_DIM && cap.mem_mib < MAX_DIM,
            "capacity axis exceeds the index bound"
        );
        assert!(used.fits_in(cap), "used {used:?} exceeds capacity {cap:?}");
        let class = self.class_for(cap);
        let id = match self.free_ids.pop() {
            Some(id) => id,
            None => {
                let id = self.entries.len() as u32;
                self.entries.push(Entry {
                    class: DEAD,
                    cell: 0,
                    slot: 0,
                });
                id
            }
        };
        self.attach(id, class, cap - used);
        self.live += 1;
        id
    }

    /// Removes node `id`; its id may be recycled by a later insert.
    ///
    /// # Panics
    /// Panics if `id` is not live.
    pub fn remove(&mut self, id: u32) {
        let e = self.entry(id);
        self.detach(e);
        self.entries[id as usize].class = DEAD;
        self.free_ids.push(id);
        self.live -= 1;
    }

    /// Replaces node `id`'s usage total (capacity unchanged).
    ///
    /// # Panics
    /// Panics if `id` is not live or `used` exceeds the capacity.
    pub fn update_used(&mut self, id: u32, used: Res) {
        let e = self.entry(id);
        let k = &mut self.classes[e.class as usize];
        assert!(
            used.fits_in(k.cap),
            "used {used:?} exceeds capacity {:?}",
            k.cap
        );
        let free = k.cap - used;
        let cell = k.cell_of(free);
        if cell == e.cell {
            k.cells[cell as usize][e.slot as usize] = Member::new(id, free);
        } else {
            self.detach(e);
            self.attach(id, e.class, free);
        }
    }

    /// Adds `req` to node `id`'s usage (a committed placement).
    ///
    /// # Panics
    /// Panics if the result exceeds the node's capacity.
    pub fn commit(&mut self, id: u32, req: Res) {
        let used = self.used(id) + req;
        self.update_used(id, used);
    }

    /// Subtracts `req` from node `id`'s usage (a departure).
    ///
    /// # Panics
    /// Panics if `req` exceeds the node's current usage.
    pub fn release(&mut self, id: u32, req: Res) {
        let used = self.used(id) - req;
        self.update_used(id, used);
    }

    /// Re-registers node `id` with a new capacity and usage (e.g. a
    /// drained node whose capacity drops to zero).
    ///
    /// # Panics
    /// Panics if `id` is not live, axes exceed the bound, or `used`
    /// exceeds `cap`.
    pub fn reset(&mut self, id: u32, cap: Res, used: Res) {
        let e = self.entry(id);
        assert!(
            cap.cpu_m < MAX_DIM && cap.mem_mib < MAX_DIM,
            "capacity axis exceeds the index bound"
        );
        assert!(used.fits_in(cap), "used {used:?} exceeds capacity {cap:?}");
        self.detach(e);
        let class = self.class_for(cap);
        self.attach(id, class, cap - used);
    }

    /// Picks the best feasible node for `req` under `policy`, or `None`
    /// when nothing fits. Bit-identical to [`pick_naive`](Self::pick_naive).
    pub fn pick(&self, req: Res, policy: PlacePolicy, tie: TieBreak) -> Option<u32> {
        let minimize = !matches!(policy, PlacePolicy::Spread);
        let mut best: Option<(Frac, u32)> = None;
        for k in &self.classes {
            let cand = match policy {
                PlacePolicy::MostRequested => k.scan_sum(req, tie, false),
                PlacePolicy::Spread => k.scan_sum(req, tie, true),
                PlacePolicy::BinPack => k.scan_binpack(req, tie),
            };
            if let Some((f, id)) = cand {
                take_better(&mut best, f, id, minimize, tie);
            }
        }
        best.map(|(_, id)| id)
    }

    /// Reference implementation of [`pick`](Self::pick): an exhaustive
    /// scan over every live node with the same exact-rational scoring.
    pub fn pick_naive(&self, req: Res, policy: PlacePolicy, tie: TieBreak) -> Option<u32> {
        let minimize = !matches!(policy, PlacePolicy::Spread);
        let mut best: Option<(Frac, u32)> = None;
        for (i, &e) in self.entries.iter().enumerate() {
            if e.class == DEAD {
                continue;
            }
            let cap = self.classes[e.class as usize].cap;
            let free = self.member(e).free();
            if !req.fits_in(free) {
                continue;
            }
            let f = score(cap, free, req, policy);
            take_better(&mut best, f, i as u32, minimize, tie);
        }
        best.map(|(_, id)| id)
    }

    /// Picks the node maximizing the orchestrator's legacy float score —
    /// the mean requested fraction `((used+req)/cap)` over both axes with
    /// `max(1)` divisors — breaking ties toward the *largest* id exactly
    /// like `Iterator::max_by` over an ascending node scan. Bit-identical
    /// to [`pick_most_requested_f64_naive`](Self::pick_most_requested_f64_naive).
    pub fn pick_most_requested_f64(&self, req: Res) -> Option<u32> {
        let mut best: Option<(f64, u32)> = None;
        for k in &self.classes {
            if k.len == 0 || !req.fits_in(k.cap) {
                continue;
            }
            let prune = k.cap.cpu_m > 0 && k.cap.mem_mib > 0;
            let r_share = req.cpu_m as f64 / k.cap.cpu_m.max(1) as f64
                + req.mem_mib as f64 / k.cap.mem_mib.max(1) as f64;
            let fi = axis_cell(req.cpu_m, k.cap.cpu_m);
            let fj = axis_cell(req.mem_mib, k.cap.mem_mib);
            for level in (fi + fj)..LEVELS {
                if prune {
                    if let Some((b, _)) = best {
                        // score = 1 - (free-share sum after)/2 and the sum
                        // is >= level/G - r_share, so members of this and
                        // later levels score at most `ub`. The 1e-9 slack
                        // swamps f64 rounding in the bound itself, keeping
                        // the cut conservative (never drops a true winner
                        // or an exact tie).
                        let ub = 1.0 - (level as f64 / GRID as f64 - r_share) / 2.0;
                        if b > ub + 1e-9 {
                            break;
                        }
                    }
                }
                k.visit_diag(level, fi, fj, |m| {
                    let free = m.free();
                    if !req.fits_in(free) {
                        return;
                    }
                    let s = legacy_score(k.cap, k.cap - free, req);
                    let better = match best {
                        None => true,
                        Some((b, bid)) => s > b || (s == b && m.id > bid),
                    };
                    if better {
                        best = Some((s, m.id));
                    }
                });
            }
        }
        best.map(|(_, id)| id)
    }

    /// Reference full scan for [`pick_most_requested_f64`](Self::pick_most_requested_f64):
    /// mirrors the orchestrator's historical `filter(fits).max_by(score)`.
    pub fn pick_most_requested_f64_naive(&self, req: Res) -> Option<u32> {
        let mut best: Option<(f64, u32)> = None;
        for (i, &e) in self.entries.iter().enumerate() {
            if e.class == DEAD {
                continue;
            }
            let cap = self.classes[e.class as usize].cap;
            let free = self.member(e).free();
            if !req.fits_in(free) {
                continue;
            }
            let s = legacy_score(cap, cap - free, req);
            let better = match best {
                None => true,
                // `max_by` keeps the last maximum: >= on an ascending scan.
                Some((b, _)) => s >= b,
            };
            if better {
                best = Some((s, i as u32));
            }
        }
        best.map(|(_, id)| id)
    }

    /// Asserts the index's internal invariants: masks match occupancy,
    /// every record round-trips through `entries` and sits in the cell
    /// its free vector maps to, class sizes sum to `live`, and the dead
    /// ids are exactly the free list. Classes with no members are only
    /// checked for all-zero masks: walking their cells after every op
    /// would cost more than the churn it checks.
    #[cfg(test)]
    fn check_invariants(&self) {
        let mut live = 0;
        for (c, k) in self.classes.iter().enumerate() {
            assert_eq!(self.class_ids[&k.cap], c as u32, "class {c} id");
            if k.len == 0 {
                assert_eq!(k.diag, [0; LEVELS], "empty class {c} masks");
                continue;
            }
            let mut diag = [0u32; LEVELS];
            let mut len = 0;
            for (cell, members) in k.cells.iter().enumerate() {
                if members.is_empty() {
                    continue;
                }
                let (ci, level) = row_and_level(cell as u32);
                diag[level] |= 1 << ci;
                for (slot, m) in members.iter().enumerate() {
                    let e = self.entries[m.id as usize];
                    assert_eq!(
                        (e.class, e.cell, e.slot),
                        (c as u32, cell as u32, slot as u32),
                        "node {} is misfiled",
                        m.id
                    );
                    assert_eq!(self.used(m.id) + m.free(), k.cap, "node {} free", m.id);
                    assert_eq!(k.cell_of(m.free()), cell as u32, "node {} cell", m.id);
                }
                len += members.len();
            }
            assert_eq!(diag, k.diag, "class {c} occupancy masks");
            assert_eq!(len, k.len, "class {c} len");
            live += k.len;
        }
        assert_eq!(live, self.live, "class sizes sum to live");
        let mut dead = Vec::new();
        for (id, &e) in self.entries.iter().enumerate() {
            if e.class == DEAD {
                dead.push(id as u32);
            } else {
                assert_eq!(self.member(e).id, id as u32, "node {id} record");
            }
        }
        let mut free = self.free_ids.clone();
        free.sort_unstable();
        assert_eq!(dead, free, "dead ids are exactly the free list");
    }
}

/// The orchestrator's scoring function, reproduced operation-for-operation
/// so the float results are bit-equal.
fn legacy_score(cap: Res, used: Res, req: Res) -> f64 {
    let cpu = (used.cpu_m + req.cpu_m) as f64 / cap.cpu_m.max(1) as f64;
    let mem = (used.mem_mib + req.mem_mib) as f64 / cap.mem_mib.max(1) as f64;
    (cpu + mem) / 2.0
}

/// Exact post-placement score of one node under `policy`.
fn score(cap: Res, free: Res, req: Res, policy: PlacePolicy) -> Frac {
    let (cc, cm) = (cap.cpu_m.max(1), cap.mem_mib.max(1));
    let fa_c = free.cpu_m - req.cpu_m;
    let fa_m = free.mem_mib - req.mem_mib;
    let num = match policy {
        PlacePolicy::MostRequested | PlacePolicy::Spread => fa_c * cm + fa_m * cc,
        PlacePolicy::BinPack => (fa_c * cm).max(fa_m * cc),
    };
    Frac { num, den: cc * cm }
}

/// Replaces `best` with `(f, id)` when strictly better under the policy
/// direction, or equal and preferred by the tie-break.
fn take_better(best: &mut Option<(Frac, u32)>, f: Frac, id: u32, minimize: bool, tie: TieBreak) {
    let better = match *best {
        None => true,
        Some((b, bid)) => match (f.cmp(b), minimize) {
            (Ordering::Less, true) | (Ordering::Greater, false) => true,
            (Ordering::Less, false) | (Ordering::Greater, true) => false,
            (Ordering::Equal, _) => match tie {
                TieBreak::SmallestId => id < bid,
                TieBreak::LargestId => id > bid,
            },
        },
    };
    if better {
        *best = Some((f, id));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::M5_CATALOG;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const POLICIES: [PlacePolicy; 3] = [
        PlacePolicy::MostRequested,
        PlacePolicy::BinPack,
        PlacePolicy::Spread,
    ];
    const TIES: [TieBreak; 2] = [TieBreak::SmallestId, TieBreak::LargestId];

    #[test]
    fn empty_index_picks_nothing() {
        let idx = FreeCapIndex::new();
        for p in POLICIES {
            assert_eq!(idx.pick(Res::new(1, 1), p, TieBreak::SmallestId), None);
        }
        assert_eq!(idx.pick_most_requested_f64(Res::new(1, 1)), None);
    }

    #[test]
    fn most_requested_prefers_the_fullest_node() {
        let mut idx = FreeCapIndex::new();
        let cap = Res::new(8_000, 32_768);
        let a = idx.insert(cap, Res::new(1_000, 4_096));
        let b = idx.insert(cap, Res::new(6_000, 24_576));
        let c = idx.insert(cap, Res::ZERO);
        let req = Res::new(1_000, 4_096);
        assert_eq!(
            idx.pick(req, PlacePolicy::MostRequested, TieBreak::SmallestId),
            Some(b)
        );
        assert_eq!(
            idx.pick(req, PlacePolicy::Spread, TieBreak::SmallestId),
            Some(c)
        );
        // Fill b so the request no longer fits there.
        idx.commit(b, Res::new(2_000, 8_000));
        assert_eq!(
            idx.pick(req, PlacePolicy::MostRequested, TieBreak::SmallestId),
            Some(a)
        );
    }

    #[test]
    fn binpack_minimizes_dominant_leftover() {
        let mut idx = FreeCapIndex::new();
        let cap = Res::new(10_000, 10_000);
        // After placing (1000,1000): a leaves max share 0.8, b leaves 0.3.
        let _a = idx.insert(cap, Res::new(1_000, 500));
        let b = idx.insert(cap, Res::new(6_000, 4_000));
        assert_eq!(
            idx.pick(
                Res::new(1_000, 1_000),
                PlacePolicy::BinPack,
                TieBreak::SmallestId
            ),
            Some(b)
        );
    }

    #[test]
    fn infeasible_requests_return_none() {
        let mut idx = FreeCapIndex::new();
        idx.insert(Res::new(1_000, 1_000), Res::new(900, 900));
        for p in POLICIES {
            assert_eq!(idx.pick(Res::new(200, 10), p, TieBreak::SmallestId), None);
        }
        assert_eq!(idx.pick_most_requested_f64(Res::new(200, 10)), None);
    }

    #[test]
    fn tie_break_direction_is_respected() {
        let mut idx = FreeCapIndex::new();
        let cap = Res::new(4_000, 4_000);
        let a = idx.insert(cap, Res::ZERO);
        let b = idx.insert(cap, Res::ZERO);
        let req = Res::new(100, 100);
        for p in POLICIES {
            assert_eq!(idx.pick(req, p, TieBreak::SmallestId), Some(a));
            assert_eq!(idx.pick(req, p, TieBreak::LargestId), Some(b));
        }
        assert_eq!(idx.pick_most_requested_f64(req), Some(b));
    }

    #[test]
    fn zero_capacity_nodes_only_accept_zero_requests() {
        let mut idx = FreeCapIndex::new();
        let drained = idx.insert(Res::ZERO, Res::ZERO);
        assert_eq!(
            idx.pick(
                Res::new(1, 0),
                PlacePolicy::MostRequested,
                TieBreak::SmallestId
            ),
            None
        );
        assert_eq!(
            idx.pick(Res::ZERO, PlacePolicy::MostRequested, TieBreak::SmallestId),
            Some(drained)
        );
    }

    #[test]
    fn remove_recycles_ids() {
        let mut idx = FreeCapIndex::new();
        let cap = Res::new(1_000, 1_000);
        let a = idx.insert(cap, Res::ZERO);
        let _b = idx.insert(cap, Res::ZERO);
        idx.remove(a);
        assert_eq!(idx.len(), 1);
        let c = idx.insert(cap, Res::new(10, 10));
        assert_eq!(c, a, "freed id is recycled");
        assert_eq!(idx.used(c), Res::new(10, 10));
    }

    /// Exhaustive equivalence under random churn: after every mutation the
    /// internal invariants hold, the indexed pick equals the naive full
    /// scan for every policy and tie-break, the legacy f64 query matches
    /// its reference, and any pick is feasible. Resets drain a node to
    /// zero capacity, move it to another class and bring it back home.
    #[test]
    fn pick_matches_naive_under_random_churn() {
        fn random_cap(rng: &mut StdRng) -> Res {
            if rng.gen_bool(0.8) {
                M5_CATALOG[rng.gen_range(0..M5_CATALOG.len())].capacity()
            } else {
                Res::new(rng.gen_range(0u64..5_000), rng.gen_range(0u64..20_000))
            }
        }
        fn random_used(rng: &mut StdRng, cap: Res) -> Res {
            Res::new(rng.gen_range(0..=cap.cpu_m), rng.gen_range(0..=cap.mem_mib))
        }
        let mut rng = StdRng::seed_from_u64(0x1d5eed);
        let mut idx = FreeCapIndex::new();
        // Live ids with the capacity they were inserted with.
        let mut live: Vec<(u32, Res)> = Vec::new();
        for step in 0..4_000 {
            // Mutate: insert, remove, update or reset a node.
            let op = rng.gen_range(0u32..13);
            if live.is_empty() || op < 4 {
                let cap = random_cap(&mut rng);
                let used = random_used(&mut rng, cap);
                live.push((idx.insert(cap, used), cap));
            } else if op < 6 {
                let i = rng.gen_range(0..live.len());
                idx.remove(live.swap_remove(i).0);
            } else {
                let (id, home) = live[rng.gen_range(0..live.len())];
                match op {
                    10 => idx.reset(id, Res::ZERO, Res::ZERO),
                    11 => {
                        let cap = loop {
                            let c = random_cap(&mut rng);
                            if c != idx.cap(id) {
                                break c;
                            }
                        };
                        let used = random_used(&mut rng, cap);
                        idx.reset(id, cap, used);
                    }
                    12 => {
                        let used = random_used(&mut rng, home);
                        idx.reset(id, home, used);
                    }
                    _ => {
                        let used = random_used(&mut rng, idx.cap(id));
                        idx.update_used(id, used);
                    }
                }
            }
            idx.check_invariants();
            // Query: a mix of small, large, and degenerate requests.
            let req = match rng.gen_range(0u32..4) {
                0 => Res::ZERO,
                1 => Res::new(rng.gen_range(0u64..2_000), rng.gen_range(0u64..8_192)),
                2 => Res::new(rng.gen_range(0u64..100_000), rng.gen_range(0u64..400_000)),
                _ => Res::new(rng.gen_range(0u64..500), rng.gen_range(0u64..100_000)),
            };
            for p in POLICIES {
                for t in TIES {
                    let fast = idx.pick(req, p, t);
                    let slow = idx.pick_naive(req, p, t);
                    assert_eq!(fast, slow, "step {step} policy {p:?} tie {t:?} req {req:?}");
                    if let Some(id) = fast {
                        assert!(
                            req.fits_in(idx.cap(id).saturating_sub(idx.used(id))),
                            "infeasible pick at step {step}"
                        );
                    }
                }
            }
            let fast = idx.pick_most_requested_f64(req);
            let slow = idx.pick_most_requested_f64_naive(req);
            assert_eq!(
                fast, slow,
                "legacy f64 divergence at step {step} req {req:?}"
            );
        }
    }

    /// One live node (id 0) and one removed id (1); id 2 was never issued.
    fn with_dead_and_unissued_ids() -> FreeCapIndex {
        let mut idx = FreeCapIndex::new();
        let cap = Res::new(1_000, 1_000);
        idx.insert(cap, Res::ZERO);
        let gone = idx.insert(cap, Res::ZERO);
        idx.remove(gone);
        idx
    }

    #[test]
    #[should_panic(expected = "node 2 is not live")]
    fn used_of_an_unissued_id_panics() {
        with_dead_and_unissued_ids().used(2);
    }

    #[test]
    #[should_panic(expected = "node 2 is not live")]
    fn cap_of_an_unissued_id_panics() {
        with_dead_and_unissued_ids().cap(2);
    }

    #[test]
    #[should_panic(expected = "node 2 is not live")]
    fn remove_of_an_unissued_id_panics() {
        with_dead_and_unissued_ids().remove(2);
    }

    #[test]
    #[should_panic(expected = "node 2 is not live")]
    fn update_of_an_unissued_id_panics() {
        with_dead_and_unissued_ids().update_used(2, Res::ZERO);
    }

    #[test]
    #[should_panic(expected = "node 2 is not live")]
    fn reset_of_an_unissued_id_panics() {
        with_dead_and_unissued_ids().reset(2, Res::ZERO, Res::ZERO);
    }

    #[test]
    #[should_panic(expected = "node 1 is not live")]
    fn remove_of_a_removed_id_panics() {
        with_dead_and_unissued_ids().remove(1);
    }
}
