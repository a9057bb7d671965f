//! TANE (Huhtala, Kärkkäinen, Porkka, Toivonen 1999) with approximate FDs.

use std::collections::HashMap;

use fdx_data::{Dataset, Fd, FdSet};

use crate::lattice::{self, AttrSet};
use crate::partition::StrippedPartition;

/// Configuration of [`Tane`].
#[derive(Debug, Clone)]
pub struct TaneConfig {
    /// Maximum `g3` error an approximate FD may have. The paper tunes this
    /// to the known noise level per dataset; the released TANE's default is
    /// (near-)exact discovery.
    pub max_error: f64,
    /// Maximum determinant size explored (lattice level cap).
    pub max_lhs: usize,
    /// Wall-clock budget; the search stops cleanly when exceeded, matching
    /// the paper's 8-hour-timeout methodology at bench scale.
    pub max_seconds: f64,
}

impl Default for TaneConfig {
    fn default() -> Self {
        TaneConfig {
            max_error: 0.01,
            max_lhs: 4,
            max_seconds: 60.0,
        }
    }
}

/// The TANE discoverer: levelwise lattice search over stripped partitions
/// with candidate-rhs (`C⁺`) and key pruning.
#[derive(Debug, Clone, Default)]
pub struct Tane {
    config: TaneConfig,
}

impl Tane {
    /// Creates a TANE instance.
    pub fn new(config: TaneConfig) -> Tane {
        Tane { config }
    }

    /// Discovers all minimal (approximate) FDs with determinant size up to
    /// `max_lhs` and error at most `max_error`.
    ///
    /// Returns whatever was found so far if the time budget runs out.
    pub fn discover(&self, ds: &Dataset) -> FdSet {
        let k = ds.ncols();
        assert!(
            k <= lattice::MAX_ATTRS,
            "TANE's lattice supports at most {} attributes",
            lattice::MAX_ATTRS
        );
        // The span doubles as the budget clock: `elapsed_secs` works whether
        // or not recording is enabled.
        let span = fdx_obs::Span::enter("tane.discover");
        let mut candidates_checked = 0u64;
        let mut validated = 0u64;
        let mut pruned = 0u64;
        let full: AttrSet = if k == lattice::MAX_ATTRS {
            u128::MAX
        } else {
            (1u128 << k) - 1
        };
        let mut fds = FdSet::new();

        // Level 1 setup.
        let mut level: Vec<AttrSet> = (0..k).map(lattice::singleton).collect();
        let mut partitions: HashMap<AttrSet, StrippedPartition> = level
            .iter()
            .enumerate()
            .map(|(a, &s)| (s, StrippedPartition::from_column(ds, a)))
            .collect();
        // C⁺ of the previous level (C⁺(∅) = R for level 1).
        let mut cplus_prev: HashMap<AttrSet, AttrSet> = HashMap::from([(0, full)]);

        let last_depth = self.config.max_lhs + 1;
        'levels: for depth in 1..=last_depth {
            if level.is_empty() || span.elapsed_secs() > self.config.max_seconds {
                break;
            }
            let mut cplus: HashMap<AttrSet, AttrSet> = HashMap::with_capacity(level.len());
            // compute_dependencies
            for &x in &level {
                if span.elapsed_secs() > self.config.max_seconds {
                    break 'levels;
                }
                let mut cp = full;
                for a in lattice::members(x) {
                    let sub = x & !lattice::singleton(a);
                    cp &= cplus_prev.get(&sub).copied().unwrap_or(0);
                }
                for a in lattice::members(x & cp) {
                    let sub = x & !lattice::singleton(a);
                    if sub == 0 {
                        continue; // FDs with empty determinants are not emitted
                    }
                    let (Some(px), Some(psub)) = (partitions.get(&x), partitions.get(&sub)) else {
                        continue;
                    };
                    candidates_checked += 1;
                    let error = psub.fd_error(px);
                    if error <= self.config.max_error {
                        validated += 1;
                        fds.insert(Fd::new(lattice::members(sub), a));
                        cp &= !lattice::singleton(a);
                        if fdx_linalg::is_exact_zero(error) {
                            // Exact FD: no attribute outside X can extend a
                            // minimal FD through this set.
                            cp &= x | !full;
                        }
                    }
                }
                cplus.insert(x, cp);
            }
            // prune: emit the key rule first — a (super)key trivially
            // determines every remaining rhs candidate (TANE's key pruning).
            for &x in &level {
                let Some(p) = partitions.get(&x) else {
                    continue;
                };
                if !p.is_key() {
                    continue;
                }
                let cp = cplus.get(&x).copied().unwrap_or(0);
                for a in lattice::members(cp & !x) {
                    // TANE's full key rule: X → A only if A survives in the
                    // C⁺ of every same-level neighbor X ∪ {A} ∖ {B} — this
                    // is what keeps key-derived FDs minimal.
                    let bit_a = lattice::singleton(a);
                    let minimal = lattice::members(x).into_iter().all(|b| {
                        let neighbor = (x | bit_a) & !lattice::singleton(b);
                        cplus.get(&neighbor).is_some_and(|&cp_n| cp_n & bit_a != 0)
                    });
                    if minimal {
                        validated += 1;
                        fds.insert(Fd::new(lattice::members(x), a));
                    }
                }
            }
            let before_prune = level.len();
            level.retain(|x| {
                cplus.get(x).is_some_and(|&cp| cp != 0)
                    && partitions.get(x).is_some_and(|p| !p.is_key())
            });
            pruned += (before_prune - level.len()) as u64;
            if depth == last_depth {
                break;
            }
            // generate next level with partition products; the join is
            // quadratic in the level size, so it checks the budget too
            let Some(next) =
                lattice::next_level(&level, || span.elapsed_secs() > self.config.max_seconds)
            else {
                break;
            };
            let mut next_partitions: HashMap<AttrSet, StrippedPartition> =
                HashMap::with_capacity(next.len());
            for &cand in &next {
                if span.elapsed_secs() > self.config.max_seconds {
                    break;
                }
                // Split into two subsets whose partitions we hold.
                let m = lattice::members(cand);
                let first = lattice::singleton(m[0]);
                let rest = cand & !first;
                if let (Some(p1), Some(p2)) = (partitions.get(&first), partitions.get(&rest)) {
                    next_partitions.insert(cand, p1.product(p2));
                }
            }
            level = next
                .into_iter()
                .filter(|s| next_partitions.contains_key(s))
                .collect();
            // Accumulate: fd_error at level ℓ+1 reads the level-ℓ partition
            // of every one-smaller subset.
            partitions.extend(next_partitions);
            cplus_prev = cplus;
        }
        fdx_obs::counter_add("tane.candidates", candidates_checked);
        fdx_obs::counter_add("tane.validated", validated);
        fdx_obs::counter_add("tane.pruned", pruned);
        fds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_ds() -> Dataset {
        // a -> b exactly, c independent.
        let mut rows = Vec::new();
        for i in 0..24 {
            rows.push([
                format!("a{}", i % 6),
                format!("b{}", (i % 6) / 2),
                format!("c{}", (i * 7 + 3) % 5),
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
    fn finds_exact_fd() {
        let fds = Tane::default().discover(&exact_ds());
        assert!(
            fds.fds().contains(&Fd::new([0], 1)),
            "a -> b missing: {fds:?}"
        );
        // And does not invent b -> a (violated: b value maps to 2 a values).
        assert!(!fds.fds().contains(&Fd::new([1], 0)));
    }

    #[test]
    fn tolerates_noise_with_error_budget() {
        let mut ds = exact_ds();
        // Violate a -> b in one row out of 24.
        ds.column_mut(1).set_value(0, fdx_data::Value::text("zz"));
        let strict = Tane::new(TaneConfig {
            max_error: 0.0,
            ..Default::default()
        })
        .discover(&ds);
        assert!(!strict.fds().contains(&Fd::new([0], 1)));
        let tolerant = Tane::new(TaneConfig {
            max_error: 0.05,
            ..Default::default()
        })
        .discover(&ds);
        assert!(tolerant.fds().contains(&Fd::new([0], 1)), "{tolerant:?}");
    }

    #[test]
    fn emits_only_minimal_fds() {
        let fds = Tane::default().discover(&exact_ds());
        // {a, c} -> b must not appear: a -> b already holds.
        assert!(!fds.fds().contains(&Fd::new([0, 2], 1)), "{fds:?}");
    }

    #[test]
    fn multi_attribute_determinant() {
        // y = f(a, b); neither a nor b alone suffices.
        let mut rows = Vec::new();
        for a in 0..4 {
            for b in 0..4 {
                for _ in 0..2 {
                    rows.push([
                        format!("a{a}"),
                        format!("b{b}"),
                        format!("y{}", (a * 3 + b * 5) % 7),
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
        let fds = Tane::default().discover(&ds);
        assert!(fds.fds().contains(&Fd::new([0, 1], 2)), "{fds:?}");
        assert!(!fds.fds().contains(&Fd::new([0], 2)));
        assert!(!fds.fds().contains(&Fd::new([1], 2)));
    }

    #[test]
    fn key_attributes_determine_everything() {
        let ds = Dataset::from_string_rows(&["id", "v"], &[&["1", "x"], &["2", "y"], &["3", "x"]]);
        let fds = Tane::default().discover(&ds);
        // id is a key: id -> v follows (trivially, zero error).
        assert!(fds.fds().contains(&Fd::new([0], 1)), "{fds:?}");
    }

    /// A table whose third level is large and prunes almost nothing: 60
    /// attributes of two random values over 16 rows hold few exact FDs,
    /// so the join of level 3's ~34 000 sets into level 4 compares about
    /// 5.9 · 10⁸ pairs (4 s in a release build on a 2-vCPU Xeon VM), while
    /// the levels before it take well under the budget below.
    fn lattice_heavy_ds() -> Dataset {
        let mut rng = fdx_rand::SplitMix64::new(5);
        let k = 60;
        let rows: Vec<Vec<String>> = (0..16)
            .map(|_| (0..k).map(|_| format!("v{}", rng.next_u64() % 2)).collect())
            .collect();
        let names: Vec<String> = (0..k).map(|a| format!("a{a}")).collect();
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let refs: Vec<Vec<&str>> = rows
            .iter()
            .map(|r| r.iter().map(String::as_str).collect())
            .collect();
        let slices: Vec<&[&str]> = refs.iter().map(|v| &v[..]).collect();
        Dataset::from_string_rows(&name_refs, &slices)
    }

    #[test]
    fn stops_inside_the_candidate_join() {
        // The join checks the budget once per set, so the search overruns
        // it by one set's pass over its level, not by the whole join.
        let ds = lattice_heavy_ds();
        let budget = 2.0;
        let t = Tane::new(TaneConfig {
            max_error: 0.0,
            max_seconds: budget,
            ..Default::default()
        });
        let span = fdx_obs::Span::enter("tane.join_budget_test");
        let _ = t.discover(&ds);
        let secs = span.elapsed_secs();
        assert!(
            secs < budget + 0.5,
            "TANE took {secs:.2} s at a {budget} s budget"
        );
    }

    #[test]
    fn respects_time_budget() {
        let data = fdx_synth::generator::generate(&fdx_synth::SynthConfig {
            tuples: 400,
            attributes: 14,
            ..Default::default()
        });
        let t = Tane::new(TaneConfig {
            max_seconds: 0.001,
            ..Default::default()
        });
        let span = fdx_obs::Span::enter("tane.time_budget_test");
        let _ = t.discover(&data.noisy);
        assert!(span.elapsed_secs() < 5.0);
    }
}
