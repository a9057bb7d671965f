//! Shared plumbing for the per-table/figure experiment binaries.
//!
//! Every binary regenerates one table or figure of the paper
//! (`cargo run --release -p fdx-bench --bin <table4|fig2|…>`). Common knobs
//! are environment variables so the binaries stay argument-free:
//!
//! * `FDX_BENCH_INSTANCES` — instances per synthetic setting (default 3;
//!   the paper uses 5),
//! * `FDX_BENCH_ROWS` — sample size for the known-structure networks
//!   (default 2000), and `fig6`'s tuple count (default 1000),
//! * `FDX_BENCH_BUDGET` — per-method wall-clock budget in seconds
//!   (default 60).

use fdx_baselines::{PyroConfig, RfiConfig, TaneConfig};
use fdx_bayesnet::BayesNet;
use fdx_data::{Dataset, FdSet};
use fdx_eval::Method;

/// ε-violation rate used when sampling the benchmark networks: stands in
/// for the inherent randomness of the bnlearn default CPTs (the paper adds
/// no extra noise to these datasets).
pub const BN_EPSILON: f64 = 0.05;

/// Reads a `usize` knob from the environment.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Reads an `f64` knob from the environment.
pub fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Instances per synthetic setting.
pub fn instances() -> usize {
    env_usize("FDX_BENCH_INSTANCES", 3)
}

/// Rows sampled from each benchmark network.
pub fn bn_rows() -> usize {
    env_usize("FDX_BENCH_ROWS", 2_000)
}

/// Per-method time budget in seconds.
pub fn budget() -> f64 {
    env_f64("FDX_BENCH_BUDGET", 60.0)
}

/// The Table 4 method lineup with the shared time budget applied and every
/// error knob (including FDX's validation lift) tuned to the *cell flip*
/// noise rate — the protocol of the synthetic experiments (Figure 2).
pub fn lineup_for(noise: f64) -> Vec<Method> {
    budgeted_lineup()
        .into_iter()
        .map(|m| m.tuned_for_noise(noise))
        .collect()
}

/// The lineup for datasets without injected flip noise (benchmark networks,
/// real-world data): the lattice searches get their error budget set to the
/// expected violation rate (the paper's PYRO/TANE tuning), while FDX runs
/// with its defaults, exactly as in the paper's Tables 4–6.
pub fn lineup_default(search_error: f64) -> Vec<Method> {
    budgeted_lineup()
        .into_iter()
        .map(|m| match m {
            Method::Pyro(mut cfg) => {
                cfg.max_error = search_error.max(0.005);
                Method::Pyro(cfg)
            }
            Method::Tane(mut cfg) => {
                cfg.max_error = search_error.max(0.005);
                Method::Tane(cfg)
            }
            other => other,
        })
        .collect()
}

fn budgeted_lineup() -> Vec<Method> {
    let b = budget();
    Method::lineup()
        .into_iter()
        .map(|m| match m {
            Method::Pyro(cfg) => Method::Pyro(PyroConfig {
                max_seconds: b,
                ..cfg
            }),
            Method::Tane(cfg) => Method::Tane(TaneConfig {
                max_seconds: b,
                ..cfg
            }),
            Method::Rfi(cfg) => Method::Rfi(RfiConfig {
                max_seconds: b,
                ..cfg
            }),
            other => other,
        })
        .collect()
}

/// Samples a benchmark network with the standard ε and row knobs, returning
/// the instance and its ground truth.
pub fn bn_instance(net: &BayesNet, seed: u64) -> (Dataset, FdSet) {
    let noisy = net.clone().with_fd_epsilon(BN_EPSILON);
    let truth = noisy.true_fds();
    (noisy.sample(bn_rows(), seed), truth)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_knobs_have_defaults() {
        assert_eq!(env_usize("FDX_SURELY_UNSET_KNOB", 7), 7);
        assert_eq!(env_f64("FDX_SURELY_UNSET_KNOB", 1.5), 1.5);
    }

    #[test]
    fn lineup_has_eight_methods() {
        assert_eq!(lineup_for(0.05).len(), 8);
    }

    #[test]
    fn bn_instance_shapes() {
        let net = fdx_bayesnet::networks::cancer(0);
        let (ds, truth) = bn_instance(&net, 1);
        assert_eq!(ds.ncols(), 5);
        assert_eq!(truth.len(), 3);
    }
}
