//! Statistical validation and refinement of candidate FDs.
//!
//! Algorithm 3 reads FDs off the autoregression matrix. Its residual error
//! modes are (a) *orientation*: along dependency chains and inside
//! multi-attribute groups the linear SEM cannot tell `X → Y` from its
//! reversal, so the factorization may emit a reversed star or cascade, and
//! (b) *echo determinants*: collinear attributes leak weak coefficients into
//! a column. Both are cheaply testable against the data itself using the
//! paper's own FD semantics (Equation 2): for a real `X → Y`,
//! `P(t_i[Y] = t_j[Y] | t_i[X] = t_j[X]) = 1 − ε`.
//!
//! The refinement pipeline of [`refine`]:
//!
//! 1. **Component repair** — candidate FDs that fail the per-FD test of
//!    stage 2 (lift below `min_lift`, or fewer than `MIN_SUPPORT_PAIRS`
//!    supporting pairs) are grouped into connected attribute clusters, and
//!    each small cluster is re-decomposed by a greedy best-sink search:
//!    repeatedly pick the member that the rest of the cluster determines
//!    best (minimizing its determinant), until nothing validates. This
//!    recovers `{X₁..X_m} → Y` from a reversed cascade like `Y → X₁`,
//!    `{Y, X₁} → X₂` whose members fail that test. Every candidate that
//!    passes goes on to stage 2 unchanged, a reversed one too. A stricter
//!    bar would not spare true FDs under noise: when each rhs cell is
//!    replaced by a random state with probability `ε`, a true FD's lift
//!    falls to about `(1−ε)²` (0.90 at `ε = 0.05`), and the best-sink
//!    search then picks determinants among the noisy attribute's own
//!    children, which follow its noisy value.
//! 2. **Per-FD validation** — every FD is scored with the normalized
//!    agreement lift `L = (ρ − β)/(1 − β)` (`ρ` the conditional pair
//!    agreement, `β` the marginal), greedily minimized while the lift is
//!    preserved, reoriented if the reverse direction clearly dominates, and
//!    dropped if no orientation validates.
//!
//! Both stages funnel every score through a [`ScoreCtx`]. A score needs
//! three pair counts, `Σ C(|class|, 2)` over the classes of the lhs, of
//! `lhs ∪ {rhs}` and of the rhs, and no partition beyond them. The context
//! caches one `u64` pair count per *sorted* attribute set, plus a score
//! memo, so the thousands of overlapping `score_fd` calls issued by
//! minimization and component repair count each distinct attribute set at
//! most once. A lone attribute is one counting pass over its codes
//! ([`fdx_stats::code_pair_count`]); `lhs ∪ {rhs}` is a counting sort of
//! the rhs codes by lhs class and one tally per class
//! ([`fdx_stats::joint_pair_count`]). Row partitions ([`GroupIds`], derived
//! from a cached prefix by [`fdx_stats::refine_groups`]) are built only for
//! a multi-attribute lhs, whose classes a joint count starts from. All
//! scores are exact integer pair counts, so the cache changes nothing about
//! the output — see DESIGN.md §15 for the invariants — and the score rounds
//! can fan out over [`fdx_par::par_map_indexed`] with an index-ordered
//! reduction that keeps the refined FD set bit-identical at every thread
//! count.
//!
//! Like [`fdx_stats::group_ids`], every count takes two NULL cells of an
//! attribute to agree on it. The pair transform takes a NULL to agree with
//! nothing (DESIGN.md §15 records the mismatch).

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

use fdx_data::{AttrId, Dataset, Fd, FdSet};
use fdx_stats::{code_pair_count, group_ids, joint_pair_count, refine_groups, GroupIds};

/// The exact pair-agreement statistics of a candidate FD.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FdScore {
    /// `ρ = P(Z_Y = 1 | Z_X = 1)` over all tuple pairs.
    pub conditional: f64,
    /// `β = P(Z_Y = 1)` over all tuple pairs.
    pub baseline: f64,
    /// Normalized lift `(ρ − β)/(1 − β)`, clamped to `[0, 1]`.
    pub lift: f64,
    /// Number of lhs-agreeing pairs the estimate rests on.
    pub support_pairs: u64,
}

/// Computes the exact pair-agreement score of `lhs → rhs` on `ds`.
///
/// Uses group counts: with lhs groups of sizes `g_i` refined by rhs into
/// `c_{i,y}`, the number of lhs-agreeing pairs is `Σ C(g_i, 2)` and the
/// number also agreeing on rhs is `Σ C(c_{i,y}, 2)` — no pair sampling, no
/// quadratic blowup.
pub fn score_fd(ds: &Dataset, lhs: &[AttrId], rhs: AttrId) -> FdScore {
    let gx = group_ids(ds, lhs);
    let mut joint: Vec<AttrId> = lhs.to_vec();
    joint.push(rhs);
    let gxy = group_ids(ds, &joint);
    let gy = group_ids(ds, &[rhs]);
    score_from_pair_counts(
        ds.nrows() as u64,
        gx.pair_count(),
        gxy.pair_count(),
        gy.pair_count(),
    )
}

/// Builds an [`FdScore`] from exact within-group pair counts.
///
/// Shared by the uncached [`score_fd`] and the cached
/// [`ScoreCtx::score`]: both produce the same integer pair counts, and this
/// is the single place those integers meet floating point, so the two paths
/// are bit-identical by construction.
fn score_from_pair_counts(n: u64, pairs_x: u64, pairs_xy: u64, pairs_y: u64) -> FdScore {
    let pairs2 = |c: u64| c * c.saturating_sub(1) / 2;
    let all_pairs = pairs2(n).max(1);
    let conditional = if pairs_x > 0 {
        pairs_xy as f64 / pairs_x as f64
    } else {
        0.0
    };
    let baseline = pairs_y as f64 / all_pairs as f64;
    let lift = if baseline < 1.0 {
        ((conditional - baseline) / (1.0 - baseline)).clamp(0.0, 1.0)
    } else {
        0.0
    };
    FdScore {
        conditional,
        baseline,
        lift,
        support_pairs: pairs_x,
    }
}

/// Options steering [`refine_with_options`]; [`refine`] uses the defaults.
#[derive(Debug, Clone, Copy)]
pub struct RefineOptions {
    /// Thread budget for the score rounds (`None` = process default, see
    /// `fdx_par::resolve_threads`). The refined FD set is bit-identical at
    /// every thread count.
    pub threads: Option<usize>,
    /// Whether to reuse pair counts and partitions across scores. Scores
    /// are exact integer pair counts either way; disabling the cache scores
    /// every call with [`score_fd`] and only costs time. Exposed so tests
    /// and benchmarks can pin the equivalence.
    pub partition_cache: bool,
}

impl Default for RefineOptions {
    fn default() -> Self {
        RefineOptions {
            threads: None,
            partition_cache: true,
        }
    }
}

/// Shared scoring state for one [`refine`] run.
///
/// Three insert-only caches sit in front of the counting passes:
///
/// * **Pair counts** — `sorted attribute set → u64`, the number of row
///   pairs agreeing on the set. A count is a property of the set, whichever
///   lhs and rhs asked for it, so sorting the key is sound.
/// * **Partitions** — `sorted attribute set → GroupIds`, only for a
///   multi-attribute lhs: a joint count needs its classes. Each is derived
///   by refining the cached partition of its sorted prefix with the last
///   attribute's code column ([`refine_groups`]).
/// * **Score memo** — `(sorted lhs, rhs) → FdScore`. Minimization revisits
///   the same subsets along different removal paths; those re-scores are a
///   single hash lookup.
///
/// Every insert for a given key computes the identical value, so
/// concurrent score rounds may race on insertion without affecting any
/// result.
struct ScoreCtx<'a> {
    ds: &'a Dataset,
    /// Resolved thread budget for the outer score rounds.
    threads: usize,
    cache_enabled: bool,
    pairs: Mutex<HashMap<Vec<AttrId>, u64>>,
    partitions: Mutex<HashMap<Vec<AttrId>, Arc<GroupIds>>>,
    scores: Mutex<HashMap<(Vec<AttrId>, AttrId), FdScore>>,
}

/// Locks a cache mutex, recovering the guard if a worker panicked while
/// holding it (the maps are insert-only, so they are never left in a
/// half-updated state).
fn lock_cache<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl<'a> ScoreCtx<'a> {
    fn new(ds: &'a Dataset, threads: usize, cache_enabled: bool) -> Self {
        ScoreCtx {
            ds,
            threads,
            cache_enabled,
            pairs: Mutex::new(HashMap::new()),
            partitions: Mutex::new(HashMap::new()),
            scores: Mutex::new(HashMap::new()),
        }
    }

    /// Returns the row partition of the sorted attribute set `attrs`,
    /// deriving it from the cached partition of `attrs[..len-1]` where
    /// possible.
    fn partition(&self, attrs: &[AttrId]) -> Arc<GroupIds> {
        debug_assert!(attrs.windows(2).all(|w| w[0] <= w[1]));
        if let Some(p) = lock_cache(&self.partitions).get(attrs) {
            fdx_obs::counter_add("fdx.validate.partition_hits", 1);
            return Arc::clone(p);
        }
        fdx_obs::counter_add("fdx.validate.partition_misses", 1);
        let part = if attrs.len() <= 1 {
            Arc::new(group_ids(self.ds, attrs))
        } else {
            let last = attrs[attrs.len() - 1];
            let base = self.partition(&attrs[..attrs.len() - 1]);
            Arc::new(refine_groups(&base, self.ds.column(last).codes()))
        };
        // Another round may have inserted the same key meanwhile; both
        // computed the identical partition, so keep whichever landed first.
        Arc::clone(
            lock_cache(&self.partitions)
                .entry(attrs.to_vec())
                .or_insert(part),
        )
    }

    /// The pair count of the sorted attribute set `attrs`; `count` runs
    /// only when no earlier score counted the set.
    fn pair_count(&self, attrs: &[AttrId], count: impl FnOnce() -> u64) -> u64 {
        if let Some(&pairs) = lock_cache(&self.pairs).get(attrs) {
            return pairs;
        }
        fdx_obs::counter_add("fdx.validate.pair_counts", 1);
        let pairs = count();
        lock_cache(&self.pairs).insert(attrs.to_vec(), pairs);
        pairs
    }

    /// Runs `count` on the classes of the sorted lhs: a lone attribute's
    /// codes and distinct count, or the ids and group count of the lhs's
    /// partition.
    fn on_classes(&self, lhs: &[AttrId], count: impl FnOnce(&[u32], usize) -> u64) -> u64 {
        if let [a] = *lhs {
            let col = self.ds.column(a);
            count(col.codes(), col.distinct_count())
        } else {
            let part = self.partition(lhs);
            count(&part.ids, part.count)
        }
    }

    /// Cached equivalent of [`score_fd`]; bit-identical to it by
    /// construction (both call [`score_from_pair_counts`] on the same
    /// integer pair counts).
    fn score(&self, lhs: &[AttrId], rhs: AttrId) -> FdScore {
        fdx_obs::counter_add("fdx.validate.score_calls", 1);
        if !self.cache_enabled {
            return score_fd(self.ds, lhs, rhs);
        }
        let mut key = lhs.to_vec();
        key.sort_unstable();
        let memo_key = (key, rhs);
        if let Some(&s) = lock_cache(&self.scores).get(&memo_key) {
            fdx_obs::counter_add("fdx.validate.score_memo_hits", 1);
            return s;
        }
        let lhs = &memo_key.0;
        let y = self.ds.column(rhs);
        let pairs_x = self.pair_count(lhs, || self.on_classes(lhs, code_pair_count));
        let mut joint = lhs.clone();
        let pairs_xy = match joint.binary_search(&rhs) {
            // rhs already in the lhs: the joint set is the lhs, matching
            // `group_ids` over the duplicated set.
            Ok(_) => pairs_x,
            Err(pos) => {
                joint.insert(pos, rhs);
                self.pair_count(&joint, || {
                    self.on_classes(lhs, |classes, bound| {
                        joint_pair_count(classes, bound, y.codes(), y.distinct_count())
                    })
                })
            }
        };
        let pairs_y = self.pair_count(&[rhs], || code_pair_count(y.codes(), y.distinct_count()));
        let s = score_from_pair_counts(self.ds.nrows() as u64, pairs_x, pairs_xy, pairs_y);
        lock_cache(&self.scores).insert(memo_key, s);
        s
    }
}

/// Minimum lhs-agreeing pairs for a score to be trusted; below this the
/// conditional estimate is mostly sampling noise (a near-key lhs).
const MIN_SUPPORT_PAIRS: u64 = 8;

impl FdScore {
    /// The per-FD test: a lift of at least `min_lift` on at least
    /// [`MIN_SUPPORT_PAIRS`] lhs-agreeing pairs.
    fn passes(&self, min_lift: f64) -> bool {
        self.lift >= min_lift && self.support_pairs >= MIN_SUPPORT_PAIRS
    }
}

/// Lift a removal may cost before it stops counting as "preserving" the
/// full determinant's explanatory power.
const MINIMIZE_SLACK: f64 = 0.05;

/// Margin by which the reverse orientation must beat the forward one before
/// a validated single-attribute FD is flipped.
const FLIP_MARGIN: f64 = 0.08;

/// Largest attribute cluster the component repair will re-decompose.
const MAX_COMPONENT: usize = 8;

/// Copies `lhs` minus the attribute at `i` into `scratch`.
fn leave_one_out(lhs: &[AttrId], i: usize, scratch: &mut Vec<AttrId>) {
    scratch.clear();
    scratch.extend_from_slice(&lhs[..i]);
    scratch.extend_from_slice(&lhs[i + 1..]);
}

/// Greedily removes determinant attributes while the lift stays within
/// [`MINIMIZE_SLACK`] of the full determinant's lift. Returns the minimized
/// determinant and its score.
///
/// Each round scores the `|lhs|` leave-one-out subsets — on up to `threads`
/// threads when the round is wide enough — then picks the best candidate by
/// an index-ordered scan, so the removal sequence is the one the serial
/// loop would take at any thread count. Subsets revisited along different
/// removal paths hit the [`ScoreCtx`] memo instead of re-hashing the data.
fn minimize_lhs(
    ctx: &ScoreCtx,
    lhs: &[AttrId],
    rhs: AttrId,
    full: FdScore,
    min_lift: f64,
    threads: usize,
) -> (Vec<AttrId>, FdScore) {
    let mut lhs = lhs.to_vec();
    let mut current = full;
    let mut scratch: Vec<AttrId> = Vec::with_capacity(lhs.len());
    while lhs.len() > 1 {
        let scored: Vec<FdScore> = if threads > 1 && lhs.len() > 2 {
            let indices: Vec<usize> = (0..lhs.len()).collect();
            fdx_par::par_map_indexed(&indices, threads, |_, &i| {
                let mut reduced = Vec::with_capacity(lhs.len() - 1);
                leave_one_out(&lhs, i, &mut reduced);
                ctx.score(&reduced, rhs)
            })
        } else {
            (0..lhs.len())
                .map(|i| {
                    leave_one_out(&lhs, i, &mut scratch);
                    ctx.score(&scratch, rhs)
                })
                .collect()
        };
        let mut best: Option<(usize, FdScore)> = None;
        for (i, &s) in scored.iter().enumerate() {
            if best.as_ref().is_none_or(|(_, b)| s.lift > b.lift) {
                best = Some((i, s));
            }
        }
        match best {
            Some((i, s)) if s.lift >= full.lift - MINIMIZE_SLACK && s.lift >= min_lift => {
                lhs.remove(i);
                current = s;
            }
            _ => break,
        }
    }
    (lhs, current)
}

/// Validates, minimizes, and (where necessary) reorients candidate FDs.
/// See the module docs for the full pipeline.
pub fn refine(ds: &Dataset, candidates: &FdSet, min_lift: f64) -> FdSet {
    refine_with_options(ds, candidates, min_lift, RefineOptions::default())
}

/// [`refine`] with an explicit thread budget and cache toggle.
///
/// The refined FD set is bit-identical across every combination of
/// `threads` and `partition_cache`: scores are exact integer pair counts,
/// parallel score rounds reduce in index order, and tie-breaks are
/// index-ordered scans of those reductions.
pub fn refine_with_options(
    ds: &Dataset,
    candidates: &FdSet,
    min_lift: f64,
    opts: RefineOptions,
) -> FdSet {
    let ctx = ScoreCtx::new(
        ds,
        fdx_par::resolve_threads(opts.threads),
        opts.partition_cache,
    );
    let repaired = {
        let span = fdx_obs::Span::enter("fdx.validation.repair");
        let repaired = component_repair(&ctx, candidates, min_lift);
        drop(span);
        repaired
    };
    let span = fdx_obs::Span::enter("fdx.validation.scoring");
    let mut out = FdSet::new();
    for fd in repaired.iter() {
        let rhs = fd.rhs();
        let full = ctx.score(fd.lhs(), rhs);
        if full.passes(min_lift) {
            let (lhs, current) = minimize_lhs(&ctx, fd.lhs(), rhs, full, min_lift, ctx.threads);
            if lhs.len() == 1 {
                out.insert(orient(&ctx, lhs[0], rhs, current, min_lift));
            } else {
                out.insert(Fd::new(lhs, rhs));
            }
            continue;
        }
        // Full determinant failed: fall back to the strongest singleton in
        // either orientation.
        let mut best: Option<(Fd, f64)> = None;
        for &x in fd.lhs() {
            let fwd = ctx.score(&[x], rhs);
            if fwd.passes(min_lift) && best.as_ref().is_none_or(|&(_, l)| fwd.lift > l) {
                best = Some((Fd::new([x], rhs), fwd.lift));
            }
            let rev = ctx.score(&[rhs], x);
            if rev.passes(min_lift) && best.as_ref().is_none_or(|&(_, l)| rev.lift > l) {
                best = Some((Fd::new([rhs], x), rev.lift));
            }
        }
        if let Some((fd, _)) = best {
            out.insert(fd);
        }
    }
    let refined = drop_inversion_artifacts(ds, &out).minimize();
    drop(span);
    refined
}

/// Drops FDs that are inversion artifacts of other FDs in the set.
///
/// If `Y` is determined by `D → Y` elsewhere in the set, then an FD using
/// `Y` as a determinant can be rewritten with `D` substituted for `Y`. When
/// that substitution makes the FD *trivial* (its rhs appears in the expanded
/// determinant), the FD carried no information beyond the near-injectivity
/// of `Y` — e.g. `{A, Y} → B` alongside `{A, B, C} → Y` — and is removed.
/// Pure two-cycles (`X → Y` and `Y → X`, a bijection) are kept.
fn drop_inversion_artifacts(ds: &Dataset, fds: &FdSet) -> FdSet {
    use std::collections::BTreeMap;
    // Process the finest-domain rhs first: when two FDs mutually explain
    // each other, the "many small attributes determine one large one"
    // orientation is the generative one and must survive.
    let mut ordered: Vec<&Fd> = fds.iter().collect();
    ordered.sort_by_key(|fd| std::cmp::Reverse(ds.column(fd.rhs()).distinct_count()));
    let mut survivors: Vec<Fd> = Vec::new();
    for fd in ordered {
        let determiners: BTreeMap<AttrId, &Fd> = survivors.iter().map(|s| (s.rhs(), s)).collect();
        let mut expanded: Vec<AttrId> = Vec::new();
        for &x in fd.lhs() {
            match determiners.get(&x) {
                // Pure bijection pair: do not expand.
                Some(d) if d.lhs() == [fd.rhs()] => expanded.push(x),
                Some(d) => {
                    expanded.extend(d.lhs().iter().copied().filter(|&a| a != x));
                }
                None => expanded.push(x),
            }
        }
        if !expanded.contains(&fd.rhs()) {
            survivors.push(fd.clone());
        }
    }
    FdSet::from_fds(survivors)
}

/// Re-decomposes the attribute clusters of the candidates that fail the
/// per-FD test ([`FdScore::passes`]); every candidate that passes is kept
/// as it is. The module docs say why the bar is `min_lift` itself.
fn component_repair(ctx: &ScoreCtx, fds: &FdSet, min_lift: f64) -> FdSet {
    let ds = ctx.ds;
    let k = ds.ncols();
    let all: Vec<&Fd> = fds.iter().collect();
    let passes = fdx_par::par_map_indexed(&all, ctx.threads, |_, fd| {
        ctx.score(fd.lhs(), fd.rhs()).passes(min_lift)
    });
    let mut passing: Vec<Fd> = Vec::new();
    let mut failing: Vec<Fd> = Vec::new();
    for (fd, &pass) in all.iter().zip(&passes) {
        if pass {
            passing.push((*fd).clone());
        } else {
            failing.push((*fd).clone());
        }
    }
    if failing.is_empty() {
        return fds.clone();
    }

    // Union-find over attributes, joined by failing-FD participation.
    let mut parent: Vec<usize> = (0..k).collect();
    fn find(parent: &mut [usize], mut v: usize) -> usize {
        while parent[v] != v {
            parent[v] = parent[parent[v]];
            v = parent[v];
        }
        v
    }
    for fd in &failing {
        let root = find(&mut parent, fd.rhs());
        for &x in fd.lhs() {
            let rx = find(&mut parent, x);
            parent[rx] = root;
        }
    }
    let mut components: std::collections::BTreeMap<usize, Vec<AttrId>> = Default::default();
    let mut touched = vec![false; k];
    for fd in &failing {
        touched[fd.rhs()] = true;
        for &x in fd.lhs() {
            touched[x] = true;
        }
    }
    for (a, &t) in touched.iter().enumerate() {
        if t {
            let root = find(&mut parent, a);
            components.entry(root).or_default().push(a);
        }
    }

    let mut out = FdSet::from_fds(passing);
    for comp in components.values() {
        if comp.len() < 2 || comp.len() > MAX_COMPONENT {
            // Oversized or trivial: keep the originals; the per-FD pass
            // will judge them individually.
            for fd in &failing {
                if comp.contains(&fd.rhs()) {
                    out.insert(fd.clone());
                }
            }
            continue;
        }
        // Greedy best-sink decomposition of the cluster.
        let mut unclaimed: Vec<AttrId> = comp.clone();
        while unclaimed.len() >= 2 {
            fdx_obs::counter_add("fdx.validate.repair_rounds", 1);
            // One candidate sink per unclaimed attribute, scored and
            // minimized in parallel; flattening the index-ordered results
            // reproduces the serial push order exactly. Each worker
            // minimizes serially (threads = 1) so the round is the only
            // layer that spawns.
            let round: Vec<(FdScore, AttrId, Vec<AttrId>)> =
                fdx_par::par_map_indexed(&unclaimed, ctx.threads, |_, &y| {
                    // Determinants come from the *unclaimed* attributes
                    // only: sinks are extracted in reverse topological
                    // order, so an already-extracted sink (which is
                    // statistically near-injective) can never masquerade
                    // as a determinant.
                    let x_all: Vec<AttrId> =
                        unclaimed.iter().copied().filter(|&a| a != y).collect();
                    let full = ctx.score(&x_all, y);
                    if !full.passes(min_lift) {
                        return None;
                    }
                    let (lhs, s) = minimize_lhs(ctx, &x_all, y, full, min_lift, 1);
                    Some((s, y, lhs))
                })
                .into_iter()
                .flatten()
                .collect();
            if round.is_empty() {
                break;
            }
            // Near-ties in lift resolve to the finest-domain sink: in a
            // multi-attribute FD the determined attribute's partition is the
            // product of the determinants', so it has the most distinct
            // values.
            let best_lift = round
                .iter()
                .map(|(s, ..)| s.lift)
                .fold(f64::NEG_INFINITY, f64::max);
            let (_, y, lhs) = round
                .into_iter()
                .filter(|(s, ..)| s.lift >= best_lift - 0.06)
                .max_by_key(|&(_, y, _)| ds.column(y).distinct_count())
                // fdx-allow: L001 the filter keeps the max-lift element, so the round is non-empty
                .expect("non-empty round");
            out.insert(Fd::new(lhs, y));
            unclaimed.retain(|&a| a != y);
        }
    }
    out
}

/// Chooses the orientation of a validated single-attribute dependency:
/// flips to `rhs → x` only when the reverse lift clearly dominates.
fn orient(ctx: &ScoreCtx, x: AttrId, rhs: AttrId, forward: FdScore, min_lift: f64) -> Fd {
    let rev = ctx.score(&[rhs], x);
    if rev.passes(min_lift) && rev.lift > forward.lift + FLIP_MARGIN {
        Fd::new([rhs], x)
    } else {
        Fd::new([x], rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdx_data::{Column, Dataset, Schema, Value};

    fn fd_dataset() -> Dataset {
        // zip -> city exactly; city does not determine zip.
        let mut rows = Vec::new();
        for z in 0..6 {
            for _ in 0..5 {
                rows.push([format!("z{z}"), format!("c{}", z / 3)]);
            }
        }
        let refs: Vec<Vec<&str>> = rows
            .iter()
            .map(|r| r.iter().map(String::as_str).collect())
            .collect();
        let slices: Vec<&[&str]> = refs.iter().map(|v| &v[..]).collect();
        Dataset::from_string_rows(&["zip", "city"], &slices)
    }

    #[test]
    fn exact_fd_scores_full_lift() {
        let ds = fd_dataset();
        let s = score_fd(&ds, &[0], 1);
        assert!((s.conditional - 1.0).abs() < 1e-12);
        assert!((s.lift - 1.0).abs() < 1e-12);
        assert!(s.support_pairs >= MIN_SUPPORT_PAIRS);
    }

    #[test]
    fn reverse_direction_scores_low() {
        let ds = fd_dataset();
        let fwd = score_fd(&ds, &[0], 1);
        let rev = score_fd(&ds, &[1], 0);
        assert!(rev.lift < 0.5, "reverse lift = {}", rev.lift);
        assert!(fwd.lift > rev.lift);
    }

    #[test]
    fn refine_reorients_reversed_candidate() {
        let ds = fd_dataset();
        // Candidate points the wrong way; refine must flip it.
        let cands = FdSet::from_fds([Fd::new([1], 0)]);
        let refined = refine(&ds, &cands, 0.5);
        assert_eq!(refined.fds(), &[Fd::new([0], 1)]);
    }

    #[test]
    fn refine_minimizes_echo_determinants() {
        // noise is an echo: zip alone determines city.
        let mut rows = Vec::new();
        for z in 0..6 {
            for r in 0..5 {
                rows.push([
                    format!("z{z}"),
                    format!("c{}", z / 3),
                    format!("s{}", (z + r) % 3),
                ]);
            }
        }
        let refs: Vec<Vec<&str>> = rows
            .iter()
            .map(|r| r.iter().map(String::as_str).collect())
            .collect();
        let slices: Vec<&[&str]> = refs.iter().map(|v| &v[..]).collect();
        let ds = Dataset::from_string_rows(&["zip", "city", "noise"], &slices);
        let cands = FdSet::from_fds([Fd::new([0, 2], 1)]);
        let refined = refine(&ds, &cands, 0.5);
        assert_eq!(refined.fds(), &[Fd::new([0], 1)]);
    }

    #[test]
    fn refine_drops_unsupported_candidates() {
        // Independent columns: the spurious FD must vanish in both
        // orientations.
        let mut rows = Vec::new();
        for i in 0..40 {
            rows.push([format!("a{}", i % 7), format!("b{}", (i * 13 + i / 7) % 6)]);
        }
        let refs: Vec<Vec<&str>> = rows
            .iter()
            .map(|r| r.iter().map(String::as_str).collect())
            .collect();
        let slices: Vec<&[&str]> = refs.iter().map(|v| &v[..]).collect();
        let indep = Dataset::from_string_rows(&["a", "b"], &slices);
        let refined = refine(&indep, &FdSet::from_fds([Fd::new([0], 1)]), 0.5);
        assert!(refined.is_empty(), "{refined:?}");
    }

    #[test]
    fn multi_attribute_fd_validates_as_a_whole() {
        // y = f(a, b): neither singleton suffices.
        let mut rows = Vec::new();
        for a in 0..4 {
            for b in 0..4 {
                for _ in 0..4 {
                    rows.push([
                        format!("a{a}"),
                        format!("b{b}"),
                        format!("y{}", (a * 2 + b * 3) % 5),
                    ]);
                }
            }
        }
        let refs: Vec<Vec<&str>> = rows
            .iter()
            .map(|r| r.iter().map(String::as_str).collect())
            .collect();
        let slices: Vec<&[&str]> = refs.iter().map(|v| &v[..]).collect();
        let ds = Dataset::from_string_rows(&["a", "b", "y"], &slices);
        let refined = refine(&ds, &FdSet::from_fds([Fd::new([0, 1], 2)]), 0.6);
        assert_eq!(refined.fds(), &[Fd::new([0, 1], 2)]);
    }

    #[test]
    fn score_handles_near_key_lhs() {
        // lhs almost unique: support too small to trust.
        let ds = Dataset::from_string_rows(
            &["k", "y"],
            &[&["a", "0"], &["b", "1"], &["c", "0"], &["d", "1"]],
        );
        let s = score_fd(&ds, &[0], 1);
        assert!(s.support_pairs < MIN_SUPPORT_PAIRS);
        let refined = refine(&ds, &FdSet::from_fds([Fd::new([0], 1)]), 0.3);
        assert!(refined.is_empty());
    }

    /// y = f(a, b, c) with large domains, candidates emitted as the reversed
    /// cascade the factorization produces.
    fn group_dataset() -> Dataset {
        let mut rows = Vec::new();
        for a in 0..5 {
            for b in 0..5 {
                for c in 0..5 {
                    for _ in 0..3 {
                        // Knuth-style scramble so collisions don't preserve
                        // any single coordinate.
                        let config: u64 = a * 25 + b * 5 + c;
                        let y = (config.wrapping_mul(2654435761) >> 5) % 100;
                        rows.push([
                            format!("a{a}"),
                            format!("b{b}"),
                            format!("c{c}"),
                            format!("y{y}"),
                        ]);
                    }
                }
            }
        }
        let refs: Vec<Vec<&str>> = rows
            .iter()
            .map(|r| r.iter().map(String::as_str).collect())
            .collect();
        let slices: Vec<&[&str]> = refs.iter().map(|v| &v[..]).collect();
        Dataset::from_string_rows(&["a", "b", "c", "y"], &slices)
    }

    #[test]
    fn component_repair_recovers_reversed_star() {
        let ds = group_dataset();
        // Reversed star: y -> a, y -> b, y -> c (each individually weak).
        let cands = FdSet::from_fds([Fd::new([3], 0), Fd::new([3], 1), Fd::new([3], 2)]);
        let refined = refine(&ds, &cands, 0.7);
        assert_eq!(
            refined.fds(),
            &[Fd::new([0, 1, 2], 3)],
            "got {}",
            refined.render(ds.schema())
        );
    }

    #[test]
    fn component_repair_recovers_reversed_cascade() {
        let ds = group_dataset();
        // Reversed chain: y -> a, {y,a} -> b, {a,b} -> c.
        let cands = FdSet::from_fds([Fd::new([3], 0), Fd::new([3, 0], 1), Fd::new([0, 1], 2)]);
        let refined = refine(&ds, &cands, 0.7);
        assert_eq!(
            refined.fds(),
            &[Fd::new([0, 1, 2], 3)],
            "got {}",
            refined.render(ds.schema())
        );
    }

    #[test]
    fn cached_score_matches_uncached_exactly() {
        // Seeded columns with NULLs and domains from 2 to 40, so lhs class
        // counts fall on both sides of rhs code counts.
        let mut state = 0xF00D_u64;
        let domains = [2u64, 3, 7, 40, 5];
        let rows: Vec<Vec<String>> = (0..300)
            .map(|_| {
                domains
                    .iter()
                    .map(|&d| {
                        state = state
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1_442_695_040_888_963_407);
                        let v = (state >> 33) % (d + 1);
                        // One draw in d + 1 is a NULL cell.
                        if v == d {
                            String::new()
                        } else {
                            format!("v{v}")
                        }
                    })
                    .collect()
            })
            .collect();
        let refs: Vec<Vec<&str>> = rows
            .iter()
            .map(|r| r.iter().map(String::as_str).collect())
            .collect();
        let slices: Vec<&[&str]> = refs.iter().map(|v| &v[..]).collect();
        let ds = Dataset::from_string_rows(&["a", "b", "c", "d", "e"], &slices);
        assert!(ds.column(3).null_count() > 0);
        let k = ds.ncols();
        let mut queries: Vec<(Vec<AttrId>, AttrId)> = Vec::new();
        for mask in 1u32..1 << k {
            let lhs: Vec<AttrId> = (0..k).filter(|&a| mask >> a & 1 == 1).collect();
            if lhs.len() <= 3 {
                for rhs in 0..k {
                    // Reversed, so the cache's sorted key differs from the
                    // query; the rhs may sit inside the lhs.
                    queries.push((lhs.iter().rev().copied().collect(), rhs));
                }
            }
        }
        let ctx = ScoreCtx::new(&ds, 1, true);
        for (lhs, rhs) in &queries {
            assert_eq!(
                ctx.score(lhs, *rhs),
                score_fd(&ds, lhs, *rhs),
                "{lhs:?} -> {rhs}"
            );
        }
        // Second pass: every answer now comes from the memo, still exact.
        for (lhs, rhs) in &queries {
            assert_eq!(ctx.score(lhs, *rhs), score_fd(&ds, lhs, *rhs));
        }
    }

    #[test]
    fn two_null_cells_agree_in_validation_scores() {
        // The two NULL cells of x are x's only agreeing pair, and their y
        // agrees. Validation counts them as agreeing on x, so x → y scores a
        // lift of 1; if a NULL agreed with nothing, as in the pair
        // transform, x would have no agreeing pair and the lift would be 0.
        let ds = Dataset::from_string_rows(
            &["x", "y"],
            &[&["", "p"], &["", "p"], &["a", "q"], &["b", "r"]],
        );
        let ctx = ScoreCtx::new(&ds, 1, true);
        for s in [score_fd(&ds, &[0], 1), ctx.score(&[0], 1)] {
            assert_eq!(s.support_pairs, 1);
            assert_eq!(s.conditional, 1.0);
            assert_eq!(s.lift, 1.0);
        }
    }

    #[test]
    fn refine_is_identical_across_cache_and_threads() {
        let ds = group_dataset();
        let cands = FdSet::from_fds([Fd::new([3], 0), Fd::new([3, 0], 1), Fd::new([0, 1], 2)]);
        let baseline = refine_with_options(
            &ds,
            &cands,
            0.7,
            RefineOptions {
                threads: Some(1),
                partition_cache: false,
            },
        );
        for threads in [1, 2, 4] {
            for partition_cache in [false, true] {
                let got = refine_with_options(
                    &ds,
                    &cands,
                    0.7,
                    RefineOptions {
                        threads: Some(threads),
                        partition_cache,
                    },
                );
                assert_eq!(
                    got.fds(),
                    baseline.fds(),
                    "threads={threads} cache={partition_cache}"
                );
            }
        }
    }

    #[test]
    fn component_repair_leaves_true_hubs_alone() {
        // A key determines three attributes exactly; forward lifts are 1.0,
        // so every candidate passes the per-FD test and the component
        // repair must keep the star as-is.
        let mut rows = Vec::new();
        for k in 0..12 {
            for _ in 0..4 {
                rows.push([
                    format!("k{k}"),
                    format!("p{}", k % 4),
                    format!("q{}", k % 3),
                    format!("r{}", (k / 2) % 3),
                ]);
            }
        }
        let refs: Vec<Vec<&str>> = rows
            .iter()
            .map(|r| r.iter().map(String::as_str).collect())
            .collect();
        let slices: Vec<&[&str]> = refs.iter().map(|v| &v[..]).collect();
        let ds = Dataset::from_string_rows(&["key", "p", "q", "r"], &slices);
        let cands = FdSet::from_fds([Fd::new([0], 1), Fd::new([0], 2), Fd::new([0], 3)]);
        let refined = refine(&ds, &cands, 0.6);
        let edges = refined.edge_set();
        assert!(edges.contains(&(0, 1)));
        assert!(edges.contains(&(0, 2)));
        assert!(edges.contains(&(0, 3)));
        assert!(!edges.iter().any(|&(_, y)| y == 0), "{edges:?}");
    }

    #[test]
    fn component_repair_keeps_noisy_true_fds() {
        // The Cancer network's CPTs at ε = 0.05: c = f(p, s), x = d = g(c),
        // and each of c, x, d is replaced by a uniform state with
        // probability ε, so the true FDs lift about (1−ε)² ≈ 0.90. The
        // spurious s → p (lift ≈ 0) joins all five attributes into one
        // cluster, and the repair must rewrite only that candidate: given
        // the true ones too, the best-sink search draws c's determinant
        // from its children, which follow c's noisy value.
        fn noisy(rng: &mut fdx_rand::SplitMix64, clean: u32, states: u32) -> u32 {
            if rng.gen_bool(0.05) {
                rng.gen_range(0..states)
            } else {
                clean
            }
        }
        let f = [1, 1, 1, 1, 0, 0, 1, 1, 0];
        let g = [1, 0, 1];
        let names = ["p", "s", "c", "x", "d"];
        let states = [3, 3, 3, 2, 2];
        let mut rng = fdx_rand::SplitMix64::new(7);
        let mut codes: Vec<Vec<u32>> = vec![Vec::new(); names.len()];
        for _ in 0..2_000 {
            let p = rng.gen_range(0..3);
            let s = rng.gen_range(0..3);
            let c = noisy(&mut rng, f[(p + 3 * s) as usize], 3);
            let x = noisy(&mut rng, g[c as usize], 2);
            let d = noisy(&mut rng, g[c as usize], 2);
            for (col, v) in codes.iter_mut().zip([p, s, c, x, d]) {
                col.push(v);
            }
        }
        let columns = codes
            .into_iter()
            .zip(names.iter().zip(states))
            .map(|(col, (name, n))| {
                let dict = (0..n).map(|v| Value::text(format!("{name}{v}"))).collect();
                Column::from_codes(col, dict)
            })
            .collect();
        let ds = Dataset::new(Schema::from_names(&names), columns);
        let (p, s, c, x, d) = (0, 1, 2, 3, 4);
        let cands = FdSet::from_fds([
            Fd::new([s], p),
            Fd::new([p, s], c),
            Fd::new([c], d),
            Fd::new([c, d], x),
        ]);
        let refined = refine(&ds, &cands, crate::FdxConfig::default().min_lift);
        let truth = FdSet::from_fds([Fd::new([p, s], c), Fd::new([c], d), Fd::new([c], x)]);
        assert_eq!(
            refined.fds(),
            truth.fds(),
            "got {}",
            refined.render(ds.schema())
        );
    }
}
