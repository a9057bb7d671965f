//! Regenerates **Figure 6**: FDX's column-wise scalability — mean total
//! runtime vs mean model (structure-learning) runtime as the attribute
//! count grows.
//!
//! `FDX_BENCH_ROWS` sets the tuple count (default 1,000), and
//! `FDX_BENCH_MAX_COLS` / `FDX_BENCH_COL_STEP` the column sweep (default
//! 4 to 190 in steps of 20). Set `FDX_BENCH_METRICS=<path>` to also write
//! one JSON line per run in the same `run_summary` shape `fdx discover
//! --metrics` emits.

use std::io::Write as _;

use fdx_bench::{env_usize, instances};
use fdx_core::{Fdx, FdxConfig};
use fdx_eval::median;
use fdx_synth::generator::{self, SynthConfig};

fn main() {
    let rows = env_usize("FDX_BENCH_ROWS", 1_000);
    let max_cols = env_usize("FDX_BENCH_MAX_COLS", 190);
    let step = env_usize("FDX_BENCH_COL_STEP", 20);
    let reps = instances();
    let mut metrics_out = std::env::var("FDX_BENCH_METRICS").ok().map(|path| {
        std::fs::File::create(&path).unwrap_or_else(|e| panic!("FDX_BENCH_METRICS={path}: {e}"))
    });
    println!(
        "Figure 6: column-wise scalability of FDX ({rows} tuples, {reps} instances per size)\n"
    );
    println!("{:>8}  {:>12}  {:>12}", "columns", "total (s)", "model (s)");
    let mut cols = 4usize;
    while cols <= max_cols {
        let mut totals = Vec::new();
        let mut models = Vec::new();
        for inst in 0..reps {
            let cfg = SynthConfig {
                tuples: rows,
                attributes: cols,
                domain_range: (64, 216),
                noise_rate: 0.01,
                seed: 300 + inst as u64,
            };
            let data = generator::generate(&cfg);
            if let Ok(r) = Fdx::new(FdxConfig::default()).discover(&data.noisy) {
                totals.push(r.timings.total_secs());
                models.push(r.timings.model_secs());
                if let Some(f) = metrics_out.as_mut() {
                    writeln!(f, "{}", r.summary_json()).expect("metrics write failed");
                }
            }
        }
        println!(
            "{:>8}  {:>12.4}  {:>12.4}",
            cols,
            median(&totals),
            median(&models)
        );
        cols += step;
    }
}
