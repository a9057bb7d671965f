use fdx_data::{Dataset, NULL_CODE};
use fdx_linalg::Matrix;
use fdx_obs::Stopwatch;
use fdx_rand::SplitMix64;
use fdx_stats::ShiftBlocks;

use crate::config::TransformConfig;

/// Sufficient statistics of the pair-difference sample (Algorithm 2's `D_t`)
/// without materializing the `n·k × k` binary matrix.
///
/// Each transform sample is a binary vector `z` with
/// `z[a] = 1(t_i[a] = t_j[a])` for a sampled tuple pair `(t_i, t_j)`. For
/// covariance estimation only two aggregates are needed:
///
/// * `co_counts[a][b] = Σ z[a]·z[b]` — co-agreement counts, and
/// * `ones[a] = Σ z[a]` — per-attribute agreement counts,
///
/// which this type accumulates from bit-packed per-attribute blocks (64
/// samples per word, combined with `AND` + `popcount`). This keeps the
/// transform linear in `n·k` with a tiny constant, the property behind the
/// paper's column-scalability result (Figure 6).
#[derive(Debug, Clone)]
pub struct PairStats {
    k: usize,
    /// Upper-triangular (including diagonal) co-agreement counts, row-major.
    co_counts: Vec<u64>,
    ones: Vec<u64>,
    /// Per-block agreement counts: `block_ones[blk * k + a]` counts
    /// agreements on attribute `a` among the pairs of block `blk` (the pairs
    /// produced while sorted by attribute `blk`).
    block_ones: Vec<u64>,
    /// Pairs contributed by each block.
    block_sizes: Vec<usize>,
    n_samples: usize,
}

impl PairStats {
    fn zeros(k: usize) -> PairStats {
        PairStats {
            k,
            co_counts: vec![0; k * k],
            ones: vec![0; k],
            block_ones: vec![0; k * k],
            block_sizes: vec![0; k],
            n_samples: 0,
        }
    }

    fn merge(&mut self, other: &PairStats) {
        debug_assert_eq!(self.k, other.k);
        for (a, b) in self.co_counts.iter_mut().zip(&other.co_counts) {
            *a += b;
        }
        for (a, b) in self.ones.iter_mut().zip(&other.ones) {
            *a += b;
        }
        for (a, b) in self.block_ones.iter_mut().zip(&other.block_ones) {
            *a += b;
        }
        for (a, b) in self.block_sizes.iter_mut().zip(&other.block_sizes) {
            *a += b;
        }
        self.n_samples += other.n_samples;
    }

    /// Number of attributes `k`.
    pub fn num_attributes(&self) -> usize {
        self.k
    }

    /// Number of transform samples accumulated (`n·k`).
    pub fn num_samples(&self) -> usize {
        self.n_samples
    }

    /// Raw co-agreement counts (row-major `k × k`, upper triangle).
    pub fn co_counts(&self) -> &[u64] {
        &self.co_counts
    }

    /// Raw per-attribute agreement counts.
    pub fn ones(&self) -> &[u64] {
        &self.ones
    }

    /// Raw per-block agreement counts (`block_ones[blk * k + a]`).
    pub fn block_ones(&self) -> &[u64] {
        &self.block_ones
    }

    /// Pairs contributed by each sort block.
    pub fn block_sizes(&self) -> &[usize] {
        &self.block_sizes
    }

    /// Per-attribute empirical agreement rate `P(z[a] = 1)`.
    pub fn agreement_rates(&self) -> Vec<f64> {
        let n = self.n_samples.max(1) as f64;
        self.ones.iter().map(|&o| o as f64 / n).collect()
    }

    /// Pooled **within-block** covariance of the transform samples — the
    /// `S` handed to the graphical lasso.
    ///
    /// Algorithm 2 produces one block of pairs per sort attribute, and the
    /// agreement rate of the sort attribute is systematically higher inside
    /// its own block. Pooling raw samples would therefore manufacture
    /// negative cross-attribute covariance out of pure block-mean shifts
    /// (severely so for small `k`). Centering each block on its own mean
    /// removes the stratification artifact while preserving the dependency
    /// signal FDs create *within* every block:
    ///
    /// ```text
    /// S = (1/N) Σ_blk Σ_{z ∈ blk} (z − z̄_blk)(z − z̄_blk)ᵀ
    ///   = (C − Σ_blk o_blk o_blkᵀ / m_blk) / N
    /// ```
    ///
    /// The block index is the outer loop: each block subtracts
    /// `o_a · o_b / m` from every upper-triangle entry, one row of entries
    /// at a time, so the division runs over contiguous entries. Every entry
    /// still starts from its count and takes the same subtractions in
    /// block order, so the result is bit for bit that of a per-entry loop
    /// over the blocks.
    pub fn covariance(&self) -> Matrix {
        let n = self.n_samples.max(1) as f64;
        let k = self.k;
        let mut c: Vec<f64> = self.co_counts.iter().map(|&c| c as f64).collect();
        let mut ones = vec![0.0; k];
        for (blk, &m) in self.block_sizes.iter().enumerate() {
            if m == 0 {
                continue;
            }
            let m = m as f64;
            for (o, &count) in ones
                .iter_mut()
                .zip(&self.block_ones[blk * k..(blk + 1) * k])
            {
                *o = count as f64;
            }
            for (a, &oa) in ones.iter().enumerate() {
                for (c, &ob) in c[a * k + a..(a + 1) * k].iter_mut().zip(&ones[a..]) {
                    *c -= oa * ob / m;
                }
            }
        }
        for a in 0..k {
            for b in a..k {
                let v = c[a * k + b] / n;
                c[a * k + b] = v;
                c[b * k + a] = v;
            }
        }
        Matrix::from_vec(k, k, c)
    }

    /// Correlation matrix of the transform samples (scale-free `S`).
    pub fn correlation(&self) -> Matrix {
        fdx_stats::correlation(&self.covariance())
    }
}

/// The most rows [`pair_transform`] takes: the block kernel addresses rows
/// with `u32` positions.
pub const MAX_TRANSFORM_ROWS: usize = u32::MAX as usize;

/// Runs Algorithm 2 and accumulates pair statistics.
///
/// For each attribute the (shuffled) dataset is sorted by that attribute
/// and every row is paired with its successor under a circular shift —
/// "this heuristic allows us to obtain tuple pair samples that cover a
/// wider range of attribute values" (§4.2). A NULL cell agrees with
/// nothing, another NULL included: under the noisy-channel model (§3.1) a
/// missing value is an error, so agreement because both cells are missing
/// would be spurious signal. The blocks come from the block kernel,
/// [`fdx_stats::ShiftBlocks`].
///
/// Every aggregate is an exact integer: agreement bits are packed 64 to a
/// word, and all `k²` co-agreement counts come out of the cache-blocked
/// popcount Gram kernel
/// ([`BitMatrix::gram_accumulate_words`](fdx_linalg::BitMatrix::gram_accumulate_words)),
/// run once per batch of sort blocks laid side by side
/// ([`ShiftBlocks::fold`]), so this path is bit-identical to any scalar
/// evaluation of the same pairs — the property `tests/bitkernel.rs` pins.
///
/// # Panics
///
/// Panics if the dataset has fewer than 2 rows, more than
/// [`MAX_TRANSFORM_ROWS`] or no attributes; callers (the [`crate::Fdx`]
/// pipeline) validate first.
pub fn pair_transform(ds: &Dataset, cfg: &TransformConfig) -> PairStats {
    let n = ds.nrows();
    let k = ds.ncols();
    assert!(n >= 2, "pair transform requires at least two rows");
    assert!(k >= 1, "pair transform requires at least one attribute");
    let columns: Vec<&[u32]> = (0..k).map(|a| ds.column(a).codes()).collect();
    // The circular-shift layout is built once, before the parallel region,
    // and shared read-only by its workers.
    let blocks = ShiftBlocks::new(&columns, cfg.seed);
    // Each worker folds its sort blocks in batches of up to `batch_len`; a
    // batch never spans two workers' chunks, so a worker's batch matrix has
    // no more slots than its chunk has blocks.
    let accumulate = |ids: &[usize]| {
        let mut local = PairStats::zeros(k);
        let mut split = Split::start();
        let mut scratch = blocks.scratch(ids.len());
        for batch in ids.chunks(scratch.slots()) {
            for (slot, &attr) in batch.iter().enumerate() {
                blocks.sort(attr, &mut scratch);
                split.sorted();
                blocks.compare(slot, &mut scratch);
                split.packed();
            }
            let words = blocks.fold(
                &scratch,
                batch,
                &mut local.co_counts,
                &mut local.ones,
                &mut local.block_ones,
            );
            for &attr in batch {
                local.block_sizes[attr] += n;
            }
            local.n_samples += n * batch.len();
            split.folded(k, words);
        }
        split.record();
        local
    };

    let attrs: Vec<usize> = (0..k).collect();
    let threads = fdx_par::resolve_threads(cfg.threads);
    if k > 1 && threads > 1 {
        // Chunk boundaries depend only on `k` (never on the thread count),
        // and fdx-par returns the partials in attribute order, so the
        // ordered merge below is the identical reduction at every thread
        // count (integer counters make it commutative anyway — the ordering
        // is what keeps the contract checkable). At most 32 partial
        // `PairStats` are materialized, bounding memory at large `k`.
        let chunk = k.div_ceil(32);
        let partials = fdx_par::par_map_chunks(&attrs, chunk, threads, |_, ids| accumulate(ids));
        let mut total = PairStats::zeros(k);
        for p in &partials {
            total.merge(p);
        }
        total
    } else {
        accumulate(&attrs)
    }
}

/// One worker's transform time, split between building blocks (sort, then
/// compare and pack) and folding them into the counters through the Gram.
///
/// It measures only while obs recording is on, and adds its sums to the
/// `fdx.transform.{sort_us,pack_us,gram_us,gram_words}` counters once per
/// worker, so with several workers the times are summed over threads.
/// `pack_us` is the whole block build, its sort included, so `sort_us ≤
/// pack_us`.
struct Split {
    clock: Option<Stopwatch>,
    sort_secs: f64,
    pack_secs: f64,
    gram_secs: f64,
    gram_words: u64,
}

impl Split {
    fn start() -> Split {
        Split {
            clock: fdx_obs::enabled().then(Stopwatch::start),
            sort_secs: 0.0,
            pack_secs: 0.0,
            gram_secs: 0.0,
            gram_words: 0,
        }
    }

    /// Seconds since the previous lap, restarting the clock.
    fn lap(&mut self) -> f64 {
        self.clock.as_mut().map_or(0.0, |clock| {
            let secs = clock.elapsed_secs();
            *clock = Stopwatch::start();
            secs
        })
    }

    /// Ends a block's sort, the first part of its build.
    fn sorted(&mut self) {
        let secs = self.lap();
        self.sort_secs += secs;
        self.pack_secs += secs;
    }

    /// Ends a block build.
    fn packed(&mut self) {
        self.pack_secs += self.lap();
    }

    /// Ends the fold of a batch, whose Gram counted `k(k+1)/2` row pairs of
    /// `words` words each.
    fn folded(&mut self, k: usize, words: usize) {
        self.gram_secs += self.lap();
        let k = k as u64;
        self.gram_words += k * (k + 1) / 2 * words as u64;
    }

    fn record(self) {
        if self.clock.is_some() {
            fdx_obs::counter_add("fdx.transform.sort_us", micros(self.sort_secs));
            fdx_obs::counter_add("fdx.transform.pack_us", micros(self.pack_secs));
            fdx_obs::counter_add("fdx.transform.gram_us", micros(self.gram_secs));
            fdx_obs::counter_add("fdx.transform.gram_words", self.gram_words);
        }
    }
}

/// Whole microseconds in `secs`.
fn micros(secs: f64) -> u64 {
    (secs * 1e6).round() as u64
}

/// Materializes Algorithm 2's binary matrix `D_t` (`n·k × k`, entries
/// 0/1): one block of `n` pairs per sort attribute, in attribute order.
/// The reference the tests check [`pair_transform`] against; the FDX
/// pipeline itself uses the streaming transform.
pub fn pair_transform_matrix(ds: &Dataset, cfg: &TransformConfig) -> Matrix {
    let n = ds.nrows();
    let k = ds.ncols();
    assert!(n >= 2 && k >= 1);
    let mut shuffled: Vec<usize> = (0..n).collect();
    SplitMix64::new(cfg.seed).shuffle(&mut shuffled);

    let mut m = Matrix::zeros(n * k, k);
    for attr in 0..k {
        let codes = ds.column(attr).codes();
        let mut order = shuffled.clone();
        order.sort_by_key(|&r| codes[r]);
        for r in 0..n {
            let (i, j) = (order[r], order[(r + 1) % n]);
            for a in 0..k {
                let ci = ds.code(i, a);
                if ci != NULL_CODE && ci == ds.code(j, a) {
                    m[(attr * n + r, a)] = 1.0;
                }
            }
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdx_data::Dataset;

    /// The covariance of `z` with each block of `n` rows centred on its own
    /// mean.
    fn block_centred_covariance(z: &Matrix, n: usize) -> Matrix {
        let k = z.cols();
        let mut s = Matrix::zeros(k, k);
        for rows in (0..z.rows()).step_by(n).map(|lo| lo..lo + n) {
            let mean: Vec<f64> = (0..k)
                .map(|a| rows.clone().map(|r| z[(r, a)]).sum::<f64>() / n as f64)
                .collect();
            for r in rows {
                for a in 0..k {
                    for b in 0..k {
                        s[(a, b)] += (z[(r, a)] - mean[a]) * (z[(r, b)] - mean[b]);
                    }
                }
            }
        }
        for a in 0..k {
            for b in 0..k {
                s[(a, b)] /= z.rows() as f64;
            }
        }
        s
    }

    fn ds() -> Dataset {
        Dataset::from_string_rows(
            &["zip", "city"],
            &[
                &["60608", "Chicago"],
                &["60611", "Chicago"],
                &["60608", "Chicago"],
                &["53703", "Madison"],
                &["53703", "Madison"],
                &["53706", "Madison"],
            ],
        )
    }

    #[test]
    fn circular_shift_sample_count() {
        let stats = pair_transform(&ds(), &TransformConfig::default());
        assert_eq!(stats.num_samples(), 6 * 2);
        assert_eq!(stats.num_attributes(), 2);
    }

    #[test]
    fn stats_match_materialized_matrix() {
        let cfg = TransformConfig {
            threads: Some(1),
            ..TransformConfig::default()
        };
        let stats = pair_transform(&ds(), &cfg);
        let m = pair_transform_matrix(&ds(), &cfg);
        assert_eq!(m.rows(), stats.num_samples());
        // The streaming covariance equals the materialized matrix's, with
        // each sort block centred on its own mean.
        let s_stream = stats.covariance();
        let s_mat = block_centred_covariance(&m, 6);
        for a in 0..2 {
            for b in 0..2 {
                assert!(
                    (s_stream[(a, b)] - s_mat[(a, b)]).abs() < 1e-12,
                    "({a},{b}): {} vs {}",
                    s_stream[(a, b)],
                    s_mat[(a, b)]
                );
            }
        }
    }

    #[test]
    fn parallel_equals_serial() {
        let serial = pair_transform(
            &ds(),
            &TransformConfig {
                threads: Some(1),
                ..TransformConfig::default()
            },
        );
        let parallel = pair_transform(
            &ds(),
            &TransformConfig {
                threads: Some(4),
                ..TransformConfig::default()
            },
        );
        assert_eq!(serial.num_samples(), parallel.num_samples());
        assert_eq!(serial.co_counts, parallel.co_counts);
        assert_eq!(serial.ones, parallel.ones);
    }

    #[test]
    fn fd_shows_as_positive_covariance() {
        let stats = pair_transform(&ds(), &TransformConfig::default());
        let s = stats.covariance();
        // Agreement on zip implies agreement on city: positive covariance.
        assert!(s[(0, 1)] > 0.0, "cov = {}", s[(0, 1)]);
    }

    #[test]
    fn nulls_never_agree() {
        // Column `a` repeats only NULL, which sorts into adjacent pairs in
        // both blocks; `b` repeats `x` on the same rows.
        let ds = Dataset::from_string_rows(&["a", "b"], &[&["", "x"], &["", "x"], &["1", "y"]]);
        let stats = pair_transform(&ds, &TransformConfig::default());
        assert_eq!(stats.ones[0], 0);
        assert!(stats.ones[1] > 0);
    }

    #[test]
    fn sorted_pairing_maximizes_self_agreement() {
        // Sorting by an attribute pairs duplicate values adjacently, so the
        // diagonal agreement count for that attribute is at least the count
        // under random pairing.
        let stats = pair_transform(&ds(), &TransformConfig::default());
        let rates = stats.agreement_rates();
        // zip has duplicates 60608×2, 53703×2 → at least 2 agreeing pairs in
        // its own sorted block of 6.
        assert!(rates[0] > 0.0);
        // city: 2 values × 3 rows → sorted block gives 4 agreeing pairs.
        assert!(rates[1] >= rates[0]);
    }

    #[test]
    fn deterministic_under_seed() {
        let a = pair_transform(&ds(), &TransformConfig::default());
        let b = pair_transform(&ds(), &TransformConfig::default());
        assert_eq!(a.co_counts, b.co_counts);
        let c = pair_transform(
            &ds(),
            &TransformConfig {
                seed: 99,
                ..TransformConfig::default()
            },
        );
        // Different shuffle may (or may not) change counts; sample count is
        // invariant either way.
        assert_eq!(a.num_samples(), c.num_samples());
    }

    #[test]
    fn key_column_has_low_agreement() {
        // All-distinct key: only adjacent-in-sorted-order equal values agree,
        // of which there are none.
        let ds = Dataset::from_string_rows(
            &["key", "grp"],
            &[&["a", "x"], &["b", "x"], &["c", "y"], &["d", "y"]],
        );
        let stats = pair_transform(&ds, &TransformConfig::default());
        assert_eq!(stats.ones[0], 0);
        assert!(stats.ones[1] > 0);
    }
}
