//! A Pyro-flavoured approximate-FD search (Kruse & Naumann 2018).
//!
//! Pyro's defining idea relative to TANE: per-RHS searches that *estimate*
//! FD errors from samples of agreeing tuple pairs and only *validate*
//! promising candidates exactly. This reimplementation keeps that
//! estimate-then-validate structure (DESIGN.md, substitution #3): for every
//! RHS attribute it ascends the determinant lattice, discards candidates
//! whose sampled error is hopeless, validates survivors with exact
//! stripped-partition errors, and emits all minimal approximate FDs — the
//! near-exhaustive, high-recall/low-precision behaviour the paper observes
//! for Pyro (hundreds of FDs on real datasets, Table 6).

use std::collections::HashMap;

use fdx_data::{AttrId, Dataset, Fd, FdSet};
use fdx_obs::Span;
use fdx_rand::SplitMix64;

use crate::lattice::{self, AttrSet};
use crate::partition::StrippedPartition;

/// Configuration of [`Pyro`].
#[derive(Debug, Clone)]
pub struct PyroConfig {
    /// Maximum error of an approximate FD (the paper sets this to the known
    /// noise rate per dataset).
    pub max_error: f64,
    /// Tuple pairs sampled, with replacement, for error estimation. A table
    /// with fewer distinct pairs draws the full count too.
    pub sample_pairs: usize,
    /// Estimation slack: candidates whose estimated error exceeds
    /// `max_error + slack` are discarded without exact validation.
    pub estimate_slack: f64,
    /// Maximum determinant size.
    pub max_lhs: usize,
    /// Wall-clock budget.
    pub max_seconds: f64,
    /// Sampling seed.
    pub seed: u64,
}

impl Default for PyroConfig {
    fn default() -> Self {
        PyroConfig {
            max_error: 0.01,
            sample_pairs: 5_000,
            estimate_slack: 0.05,
            max_lhs: 3,
            max_seconds: 60.0,
            seed: 0xB12D,
        }
    }
}

/// The Pyro-flavoured discoverer.
#[derive(Debug, Clone, Default)]
pub struct Pyro {
    config: PyroConfig,
}

/// Lattice counters accumulated across the per-RHS searches and flushed to
/// the metrics registry in one batch when discovery finishes.
#[derive(Debug, Default)]
struct SearchStats {
    candidates: u64,
    estimated_out: u64,
    validations: u64,
    validated: u64,
}

impl Pyro {
    /// Creates a Pyro instance.
    pub fn new(config: PyroConfig) -> Pyro {
        Pyro { config }
    }

    /// Discovers all minimal approximate FDs (per RHS) within the error
    /// budget.
    pub fn discover(&self, ds: &Dataset) -> FdSet {
        let k = ds.ncols();
        assert!(k <= lattice::MAX_ATTRS);
        let n = ds.nrows();
        // The span doubles as the budget clock for the per-RHS searches.
        let span = Span::enter("pyro.discover");
        let mut fds = FdSet::new();
        if n < 2 || k < 2 {
            return fds;
        }

        // Agreement bitmask per sampled tuple pair — the "agree set sample"
        // every per-RHS search shares.
        let mut rng = SplitMix64::new(self.config.seed);
        let pairs = self.config.sample_pairs.max(1);
        let mut agree: Vec<AttrSet> = Vec::with_capacity(pairs);
        for _ in 0..pairs {
            let i = rng.gen_range(0..n);
            let mut j = rng.gen_range(0..n - 1);
            if j >= i {
                j += 1;
            }
            let mut mask: AttrSet = 0;
            for a in 0..k {
                let ci = ds.code(i, a);
                if ci != fdx_data::NULL_CODE && ci == ds.code(j, a) {
                    mask |= lattice::singleton(a);
                }
            }
            agree.push(mask);
        }

        let singles: Vec<StrippedPartition> = (0..k)
            .map(|a| StrippedPartition::from_column(ds, a))
            .collect();

        let mut stats = SearchStats::default();
        for rhs in 0..k {
            if span.elapsed_secs() > self.config.max_seconds {
                break;
            }
            self.search_rhs(ds, rhs, &agree, &singles, &span, &mut stats, &mut fds);
        }
        fdx_obs::counter_add("pyro.candidates", stats.candidates);
        fdx_obs::counter_add("pyro.estimated_out", stats.estimated_out);
        fdx_obs::counter_add("pyro.validations", stats.validations);
        fdx_obs::counter_add("pyro.validated", stats.validated);
        fds
    }

    /// Per-RHS lattice ascension with estimate-then-validate.
    #[allow(clippy::too_many_arguments)]
    fn search_rhs(
        &self,
        ds: &Dataset,
        rhs: AttrId,
        agree: &[AttrSet],
        singles: &[StrippedPartition],
        span: &Span,
        stats: &mut SearchStats,
        fds: &mut FdSet,
    ) {
        let k = ds.ncols();
        let rhs_bit = lattice::singleton(rhs);
        // Estimated error of X → rhs from the agree-set sample:
        // P(disagree on rhs | agree on X).
        let estimate = |x: AttrSet| -> f64 {
            let mut agree_x = 0usize;
            let mut violate = 0usize;
            for &mask in agree {
                if mask & x == x {
                    agree_x += 1;
                    if mask & rhs_bit == 0 {
                        violate += 1;
                    }
                }
            }
            if agree_x == 0 {
                0.0 // unsupported: optimistic, forces exact validation
            } else {
                violate as f64 / agree_x as f64
            }
        };

        let mut level: Vec<AttrSet> = (0..k)
            .filter(|&a| a != rhs)
            .map(lattice::singleton)
            .collect();
        let mut partitions: HashMap<AttrSet, StrippedPartition> = level
            .iter()
            .map(|&s| {
                let a = s.trailing_zeros() as usize;
                (s, singles[a].clone())
            })
            .collect();
        let mut minimal_found: Vec<AttrSet> = Vec::new();

        for depth in 1..=self.config.max_lhs {
            if level.is_empty() || span.elapsed_secs() > self.config.max_seconds {
                break;
            }
            let mut survivors: Vec<AttrSet> = Vec::new();
            for &x in &level {
                if span.elapsed_secs() > self.config.max_seconds {
                    return;
                }
                // Minimality: skip supersets of found determinants.
                if minimal_found.iter().any(|&m| m & !x == 0) {
                    continue;
                }
                stats.candidates += 1;
                let est = estimate(x);
                if est > self.config.max_error + self.config.estimate_slack {
                    // Hopeless by estimate — but keep ascending through it.
                    stats.estimated_out += 1;
                    survivors.push(x);
                    continue;
                }
                // Exact validation.
                stats.validations += 1;
                let px = partitions
                    .get(&x)
                    // fdx-allow: L001 ascend() inserts a partition before queuing any member
                    .expect("partition maintained for every level member");
                let pxr = px.product(&singles[rhs]);
                let error = px.fd_error(&pxr);
                if error <= self.config.max_error {
                    stats.validated += 1;
                    fds.insert(Fd::new(lattice::members(x), rhs));
                    minimal_found.push(x);
                } else {
                    survivors.push(x);
                }
            }
            // The level after the last one is never searched.
            if depth == self.config.max_lhs {
                break;
            }
            // Generate the next level from non-FD survivors.
            survivors.sort_unstable();
            let Some(next) =
                lattice::next_level(&survivors, || span.elapsed_secs() > self.config.max_seconds)
            else {
                return;
            };
            let mut next_partitions = HashMap::with_capacity(next.len());
            for &cand in &next {
                if span.elapsed_secs() > self.config.max_seconds {
                    return;
                }
                let m = lattice::members(cand);
                let first = lattice::singleton(m[0]);
                let rest = cand & !first;
                if let (Some(p1), Some(p2)) = (partitions.get(&first), partitions.get(&rest)) {
                    next_partitions.insert(cand, p1.product(p2));
                }
            }
            // Singletons stay available for products.
            for (a, p) in singles.iter().enumerate() {
                next_partitions.insert(lattice::singleton(a), p.clone());
            }
            partitions = next_partitions;
            level = next
                .into_iter()
                .filter(|s| partitions.contains_key(s))
                .collect();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_ds() -> Dataset {
        // a -> b -> c, 36 rows.
        let mut rows = Vec::new();
        for i in 0..36 {
            let a = i % 12;
            rows.push([
                format!("a{a}"),
                format!("b{}", a / 2),
                format!("c{}", a / 4),
            ]);
        }
        let refs: Vec<Vec<&str>> = rows
            .iter()
            .map(|r| r.iter().map(String::as_str).collect())
            .collect();
        let slices: Vec<&[&str]> = refs.iter().map(|v| &v[..]).collect();
        Dataset::from_string_rows(&["a", "b", "c"], &slices)
    }

    #[test]
    fn finds_chain_fds() {
        let fds = Pyro::default().discover(&chain_ds());
        assert!(fds.fds().contains(&Fd::new([0], 1)), "{fds:?}");
        assert!(fds.fds().contains(&Fd::new([1], 2)), "{fds:?}");
        assert!(
            fds.fds().contains(&Fd::new([0], 2)),
            "transitive syntactic FD"
        );
        assert!(!fds.fds().contains(&Fd::new([2], 0)));
    }

    #[test]
    fn minimality_suppresses_supersets() {
        let fds = Pyro::default().discover(&chain_ds());
        assert!(!fds.fds().contains(&Fd::new([0, 1], 2)), "{fds:?}");
    }

    #[test]
    fn near_exhaustive_on_keyed_data() {
        // A key column syntactically determines everything: Pyro reports it
        // all (the low-precision flood the paper describes).
        let ds = Dataset::from_string_rows(
            &["id", "u", "v"],
            &[
                &["1", "p", "q"],
                &["2", "p", "r"],
                &["3", "s", "q"],
                &["4", "s", "r"],
            ],
        );
        let fds = Pyro::default().discover(&ds);
        assert!(fds.fds().contains(&Fd::new([0], 1)));
        assert!(fds.fds().contains(&Fd::new([0], 2)));
        assert!(fds.fds().contains(&Fd::new([1, 2], 0)), "{fds:?}");
    }

    #[test]
    fn error_budget_admits_noisy_fd() {
        let mut ds = chain_ds();
        ds.column_mut(1).set_value(0, fdx_data::Value::text("zz"));
        let strict = Pyro::new(PyroConfig {
            max_error: 0.0,
            ..Default::default()
        })
        .discover(&ds);
        assert!(!strict.fds().contains(&Fd::new([0], 1)));
        let tolerant = Pyro::new(PyroConfig {
            max_error: 0.06,
            ..Default::default()
        })
        .discover(&ds);
        assert!(tolerant.fds().contains(&Fd::new([0], 1)), "{tolerant:?}");
    }
}
