//! Property suite for the bit-packed pair-agreement kernels (DESIGN.md §15).
//!
//! The packed transform and the partition-cached validation are pure
//! reorganizations of exact integer arithmetic, so their outputs must be
//! *bit-identical* — not merely close — to the reference paths:
//!
//! * the popcount Gram kernel vs a naive per-bit double loop, across
//!   matrix shapes and cache-block widths;
//! * [`fdx::pair_transform`]'s moment matrices vs the materialized 0/1
//!   sample matrix, across row counts, attribute counts and thread counts,
//!   on NULL-sprinkled data, on a grid that straddles every boundary of
//!   the block kernel: the row-major crossover in `k`, 64-attribute
//!   chunks, 64-pair tiles and the u8/u16/u32 code widths, plus long
//!   blocks whose packed rows run several 8-word steps of the 512-bit
//!   Gram tile before its tail, and the lane boundaries of the AVX-512BW
//!   row compare (its u8/u16/u32 tile words and 16-lane u32 compares);
//! * the same moments vs pairs counted one by one, at the boundaries of
//!   the batches of sort blocks one Gram folds: full batches, a partial
//!   last batch, batches cut by the worker chunks, and one-block batches
//!   above 32 768 rows, at threads 1/2/4;
//! * `PairStats::covariance`, which runs the block index outermost, vs a
//!   per-entry loop over the blocks, bit for bit on every grid cell;
//! * [`fdx::refine_with_options`]'s FD sets with the partition cache on
//!   vs off, across thread counts, on synthetic and realistic corpora.

use fdx::{
    pair_transform, pair_transform_matrix, refine_with_options, Fdx, FdxConfig, PairStats,
    RefineOptions, TransformConfig,
};
use fdx_data::{Column, Dataset, Schema, Value, NULL_CODE};
use fdx_linalg::BitMatrix;
use fdx_rand::SplitMix64;
use fdx_synth::generator::{self, SynthConfig};
use fdx_synth::realworld;

#[test]
fn gram_kernel_matches_naive_popcount_across_shapes_and_blocks() {
    let mut rng = SplitMix64::new(0xFD);
    for (rows, bits) in [
        (1, 1),
        (3, 64),
        (5, 63),
        (8, 200),
        (17, 1000),
        (4, 64 * 600),
    ] {
        let mut m = BitMatrix::zeros(rows, bits);
        for r in 0..rows {
            for (w, word) in m.row_mut(r).iter_mut().enumerate() {
                *word = rng.next_u64();
                // Keep the trailing-bits-zero invariant on the last word.
                let used = bits - w * 64;
                if used < 64 {
                    *word &= (1u64 << used) - 1;
                }
            }
        }
        let mut naive = vec![0u64; rows * rows];
        for a in 0..rows {
            for b in a..rows {
                let mut c = 0;
                for i in 0..bits {
                    if m.get(a, i) && m.get(b, i) {
                        c += 1;
                    }
                }
                naive[a * rows + b] = c;
            }
        }
        assert_eq!(m.gram(), naive, "rows={rows} bits={bits}");
        for block in [1, 2, 7, 512] {
            let mut acc = vec![0u64; rows * rows];
            m.gram_accumulate(block, &mut acc);
            assert_eq!(acc, naive, "rows={rows} bits={bits} block={block}");
        }
    }
}

/// A categorical dataset with duplicate-heavy columns and a sprinkling of
/// nulls (empty strings infer as [`fdx_data::Value::Null`]).
fn noisy_dataset(rows: usize, k: usize, seed: u64) -> Dataset {
    let mut rng = SplitMix64::new(seed);
    let mut cells: Vec<Vec<String>> = Vec::with_capacity(rows);
    for _ in 0..rows {
        let mut row = Vec::with_capacity(k);
        for a in 0..k {
            let r = rng.next_u64();
            if r.is_multiple_of(13) {
                row.push(String::new()); // null cell
            } else {
                let domain = 2 + (a % 5) * 7;
                row.push(format!("v{}", r as usize % domain));
            }
        }
        cells.push(row);
    }
    let names: Vec<String> = (0..k).map(|a| format!("c{a}")).collect();
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let refs: Vec<Vec<&str>> = cells
        .iter()
        .map(|r| r.iter().map(String::as_str).collect())
        .collect();
    let slices: Vec<&[&str]> = refs.iter().map(|v| &v[..]).collect();
    Dataset::from_string_rows(&name_refs, &slices)
}

/// Reference second moment from the materialized 0/1 sample matrix, with
/// the per-block agreement counts.
///
/// The matrix entries are exact 0.0/1.0, so the dot products are exact
/// integers and are compared with `PairStats::co_counts` for equality —
/// any packing bug shows up as a count difference, not a tolerance
/// failure. Each sample row adds one
/// to `counts[a][b]` for every pair of its agreeing attributes, which is
/// the dot product without the `k²` scan of each row. The matrix holds one
/// block of equally many rows per sort attribute, in attribute order, and
/// `block_ones[blk * k + a]` counts the rows of block `blk` agreeing on `a`.
fn reference_second_moment(ds: &Dataset, cfg: &TransformConfig) -> (Vec<u64>, Vec<u64>) {
    let z = pair_transform_matrix(ds, cfg);
    let (n, k) = (z.rows(), z.cols());
    let block_rows = n / k;
    let mut counts = vec![0u64; k * k];
    let mut block_ones = vec![0u64; k * k];
    let mut agreeing = Vec::with_capacity(k);
    for r in 0..n {
        agreeing.clear();
        agreeing.extend((0..k).filter(|&a| z[(r, a)] != 0.0));
        for &a in &agreeing {
            block_ones[(r / block_rows) * k + a] += 1;
            for &b in &agreeing {
                counts[a * k + b] += 1;
            }
        }
    }
    (counts, block_ones)
}

/// The block-centred covariance computed one entry at a time: the entry's
/// count, minus `o_a · o_b / m` for each non-empty block in block order,
/// divided by the sample count, as a row-major `k × k` buffer.
fn per_entry_covariance(stats: &PairStats) -> Vec<f64> {
    let k = stats.num_attributes();
    let n = stats.num_samples().max(1) as f64;
    let mut s = vec![0.0; k * k];
    for a in 0..k {
        for b in a..k {
            let mut c = stats.co_counts()[a * k + b] as f64;
            for blk in 0..k {
                let m = stats.block_sizes()[blk];
                if m > 0 {
                    let oa = stats.block_ones()[blk * k + a] as f64;
                    let ob = stats.block_ones()[blk * k + b] as f64;
                    c -= oa * ob / m as f64;
                }
            }
            s[a * k + b] = c / n;
            s[b * k + a] = c / n;
        }
    }
    s
}

/// Attribute counts on each side of the row-major crossover (32) and of
/// the 64-attribute tile chunks.
const GRID_K: [usize; 7] = [2, 31, 32, 63, 64, 65, 129];
/// Row counts on each side of the 64-pair tile.
const GRID_N: [usize; 6] = [2, 3, 63, 64, 65, 130];
/// Largest codes on each side of the u8 → u16 → u32 layout switches.
const GRID_MAX_CODES: [u32; 6] = [254, 255, 256, 65_534, 65_535, 65_536];

/// One cell of the transform grid.
struct GridCell {
    ds: Dataset,
    label: String,
}

/// The transform grid: every `(k, n, largest code)` of [`GRID_K`] ×
/// [`GRID_N`] × [`GRID_MAX_CODES`].
fn transform_grid() -> Vec<GridCell> {
    let mut cells = Vec::new();
    for k in GRID_K {
        for n in GRID_N {
            for max_code in GRID_MAX_CODES {
                cells.push(GridCell {
                    ds: coded_dataset(n, k, max_code, (k * 1000 + n) as u64 ^ u64::from(max_code)),
                    label: format!("k={k} n={n} max_code={max_code}"),
                });
            }
        }
    }
    cells
}

/// Row counts of 17 and 33 words plus one bit: each block row runs two or
/// four full 8-word steps of the 512-bit Gram tile and then its masked
/// tail, which the row counts of [`GRID_N`] (at most 3 words) never reach.
const LONG_N: [usize; 2] = [1089, 2113];
/// Attribute counts at and past the 64-attribute tile chunks.
const LONG_K: [usize; 2] = [64, 129];

/// Long-block cells, kept out of the product grid so the debug run stays
/// short: every `(k, n)` of [`LONG_K`] × [`LONG_N`] at one largest code.
fn long_block_grid() -> Vec<GridCell> {
    let mut cells = Vec::new();
    for k in LONG_K {
        for n in LONG_N {
            cells.push(GridCell {
                ds: coded_dataset(n, k, 255, (k * 1000 + n) as u64),
                label: format!("k={k} n={n} long"),
            });
        }
    }
    cells
}

/// Attribute counts on each side of the AVX-512BW copy's narrow tile
/// widths (`u8` pair words up to 8 attributes, `u16` up to 16) and of its
/// 16-lane `u32` compare.
const LANE_K: [usize; 5] = [1, 8, 9, 16, 17];
/// Row counts past one and two 64-pair tiles.
const LANE_N: [usize; 2] = [65, 130];
/// Largest codes of the `u8`, `u16` and `u32` layouts.
const LANE_MAX_CODES: [u32; 3] = [254, 65_534, 65_536];

/// Lane-boundary cells, chained after the transform grid like the long
/// blocks: every `(k, n, largest code)` of [`LANE_K`] × [`LANE_N`] ×
/// [`LANE_MAX_CODES`].
fn lane_boundary_grid() -> Vec<GridCell> {
    let mut cells = Vec::new();
    for k in LANE_K {
        for n in LANE_N {
            for max_code in LANE_MAX_CODES {
                cells.push(GridCell {
                    ds: coded_dataset(n, k, max_code, (k * 1000 + n) as u64 ^ u64::from(max_code)),
                    label: format!("k={k} n={n} max_code={max_code} lanes"),
                });
            }
        }
    }
    cells
}

/// `n` rows of `k` columns built from codes: small domains with ~1/11
/// NULL cells, and column `k / 2` holding `max_code` once, with a
/// dictionary of `max_code + 1` entries, so the layout width switches
/// while `n` stays small.
fn coded_dataset(n: usize, k: usize, max_code: u32, seed: u64) -> Dataset {
    let mut rng = SplitMix64::new(seed);
    let columns = (0..k)
        .map(|a| {
            let domain = 2 + (a % 7) as u64;
            let codes: Vec<u32> = (0..n)
                .map(|i| {
                    let r = rng.next_u64();
                    match r % 11 {
                        _ if a == k / 2 && i == n / 2 => max_code,
                        0 => NULL_CODE,
                        _ => u32::try_from(r % domain).unwrap(),
                    }
                })
                .collect();
            let dict_len = if a == k / 2 {
                u64::from(max_code) + 1
            } else {
                domain
            };
            let dict = (0..dict_len).map(|v| Value::Int(v as i64)).collect();
            Column::from_codes(codes, dict)
        })
        .collect();
    let names: Vec<String> = (0..k).map(|a| format!("c{a}")).collect();
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    Dataset::new(Schema::from_names(&name_refs), columns)
}

#[test]
fn packed_moments_bit_identical_to_materialized_matrix() {
    let cfg = TransformConfig {
        threads: Some(1),
        ..TransformConfig::default()
    };
    for (rows, k) in [(64, 3), (129, 5), (400, 9)] {
        let ds = noisy_dataset(rows, k, 0xA11CE + rows as u64);
        let stats = pair_transform(&ds, &cfg);
        let (counts, block_ones) = reference_second_moment(&ds, &cfg);
        assert_eq!(
            stats.block_ones(),
            block_ones.as_slice(),
            "rows={rows} k={k}"
        );
        for a in 0..k {
            for b in a..k {
                assert_eq!(
                    stats.co_counts()[a * k + b],
                    counts[a * k + b],
                    "rows={rows} k={k} cell=({a},{b})"
                );
            }
        }
    }
    for cell in transform_grid()
        .into_iter()
        .chain(long_block_grid())
        .chain(lane_boundary_grid())
    {
        let k = cell.ds.ncols();
        let stats = pair_transform(&cell.ds, &cfg);
        let (counts, block_ones) = reference_second_moment(&cell.ds, &cfg);
        let diagonal: Vec<u64> = (0..k).map(|a| counts[a * k + a]).collect();
        assert_eq!(stats.ones(), diagonal.as_slice(), "{}", cell.label);
        assert_eq!(stats.block_ones(), block_ones.as_slice(), "{}", cell.label);
        assert_eq!(
            stats.block_sizes(),
            vec![cell.ds.nrows(); k],
            "{}",
            cell.label
        );
        for a in 0..k {
            for b in a..k {
                assert_eq!(
                    stats.co_counts()[a * k + b],
                    counts[a * k + b],
                    "{} cell=({a},{b})",
                    cell.label
                );
            }
        }
        let (cov, want) = (stats.covariance(), per_entry_covariance(&stats));
        for a in 0..k {
            for b in 0..k {
                assert_eq!(
                    cov[(a, b)].to_bits(),
                    want[a * k + b].to_bits(),
                    "{} covariance cell=({a},{b})",
                    cell.label
                );
            }
        }
    }
}

/// Batch-boundary cells `(n, k, largest code)`. A batch holds
/// `⌊512 / ⌈n/64⌉⌋` sort blocks, at most `k`, and never spans two worker
/// chunks of `⌈k/32⌉` attributes:
///
/// * 4000 × 16: two full batches of 8 at one thread (63-word block rows);
/// * 4000 × 20: batches of 8, 8 and a partial 4;
/// * 1000 × 65: batches of 32, 32 and 1 at one thread, and of the worker
///   chunks' 3 (2 in the last) at two and four, on the 64-bit chunk path;
/// * 32 769 × 3: one block per batch, a block row being 513 words.
///
/// The largest codes put the cells on the `u8`, `u16` and `u32` layouts.
const BATCH_CELLS: [(usize, usize, u32); 4] = [
    (4000, 16, 254),
    (4000, 20, 255),
    (1000, 65, 254),
    (32_769, 3, 65_536),
];

/// The pair statistics counted one pair at a time, without materializing
/// `D_t`: the shuffled rows sorted by each attribute with `sort_by_key`,
/// and each circular pair's agreeing attributes counted directly. Returns
/// the co-agreement counts (row-major `k × k`, both triangles) and the
/// per-block agreement counts `block_ones[blk * k + a]`.
fn counted_reference(ds: &Dataset, cfg: &TransformConfig) -> (Vec<u64>, Vec<u64>) {
    let (n, k) = (ds.nrows(), ds.ncols());
    let mut shuffled: Vec<usize> = (0..n).collect();
    SplitMix64::new(cfg.seed).shuffle(&mut shuffled);
    let mut counts = vec![0u64; k * k];
    let mut block_ones = vec![0u64; k * k];
    let mut agreeing = Vec::with_capacity(k);
    for blk in 0..k {
        let codes = ds.column(blk).codes();
        let mut order = shuffled.clone();
        order.sort_by_key(|&r| codes[r]);
        for r in 0..n {
            let (i, j) = (order[r], order[(r + 1) % n]);
            agreeing.clear();
            agreeing.extend((0..k).filter(|&a| {
                let c = ds.code(i, a);
                c != NULL_CODE && c == ds.code(j, a)
            }));
            for &a in &agreeing {
                block_ones[blk * k + a] += 1;
                for &b in &agreeing {
                    counts[a * k + b] += 1;
                }
            }
        }
    }
    (counts, block_ones)
}

#[test]
fn batched_blocks_count_every_pair_once_at_every_thread_count() {
    for (n, k, max_code) in BATCH_CELLS {
        let ds = coded_dataset(n, k, max_code, (k * 1000 + n) as u64 ^ u64::from(max_code));
        let (counts, block_ones) = counted_reference(&ds, &TransformConfig::default());
        let diagonal: Vec<u64> = (0..k).map(|a| counts[a * k + a]).collect();
        for threads in [1, 2, 4] {
            let cfg = TransformConfig {
                threads: Some(threads),
                ..TransformConfig::default()
            };
            let stats = pair_transform(&ds, &cfg);
            let label = format!("n={n} k={k} max_code={max_code} threads={threads}");
            assert_eq!(stats.ones(), diagonal.as_slice(), "{label}");
            assert_eq!(stats.block_ones(), block_ones.as_slice(), "{label}");
            assert_eq!(stats.block_sizes(), vec![n; k], "{label}");
            assert_eq!(stats.num_samples(), n * k, "{label}");
            for a in 0..k {
                for b in a..k {
                    assert_eq!(
                        stats.co_counts()[a * k + b],
                        counts[a * k + b],
                        "{label} cell=({a},{b})"
                    );
                }
            }
            let (cov, want) = (stats.covariance(), per_entry_covariance(&stats));
            for a in 0..k {
                for b in 0..k {
                    assert_eq!(
                        cov[(a, b)].to_bits(),
                        want[a * k + b].to_bits(),
                        "{label} covariance cell=({a},{b})"
                    );
                }
            }
        }
    }
}

#[test]
fn packed_moments_bit_identical_across_thread_counts() {
    for (rows, k) in [(150, 6), (333, 11)] {
        let ds = noisy_dataset(rows, k, 0xBEE + k as u64);
        let base_cfg = TransformConfig {
            threads: Some(1),
            ..TransformConfig::default()
        };
        let base = pair_transform(&ds, &base_cfg);
        let cov0 = base.covariance();
        for threads in [2, 4, 8] {
            let cfg = TransformConfig {
                threads: Some(threads),
                ..TransformConfig::default()
            };
            let stats = pair_transform(&ds, &cfg);
            let cov = stats.covariance();
            for a in 0..k {
                for b in 0..k {
                    assert_eq!(
                        cov[(a, b)].to_bits(),
                        cov0[(a, b)].to_bits(),
                        "covariance threads={threads} cell=({a},{b})"
                    );
                }
                for b in a..k {
                    assert_eq!(
                        stats.co_counts()[a * k + b],
                        base.co_counts()[a * k + b],
                        "co-agreement threads={threads} cell=({a},{b})"
                    );
                }
            }
        }
    }
    for cell in transform_grid()
        .into_iter()
        .chain(long_block_grid())
        .chain(lane_boundary_grid())
    {
        let run = |threads: usize| {
            let cfg = TransformConfig {
                threads: Some(threads),
                ..TransformConfig::default()
            };
            pair_transform(&cell.ds, &cfg)
        };
        let base = run(1);
        let cov0 = base.covariance();
        for threads in [2, 4] {
            let stats = run(threads);
            let label = format!("{} threads={threads}", cell.label);
            assert_eq!(stats.co_counts(), base.co_counts(), "{label}");
            assert_eq!(stats.ones(), base.ones(), "{label}");
            assert_eq!(stats.block_ones(), base.block_ones(), "{label}");
            assert_eq!(stats.block_sizes(), base.block_sizes(), "{label}");
            let cov = stats.covariance();
            for a in 0..cell.ds.ncols() {
                for b in 0..cell.ds.ncols() {
                    assert_eq!(cov[(a, b)].to_bits(), cov0[(a, b)].to_bits(), "{label}");
                }
            }
        }
    }
}

/// Unrefined candidates for a dataset: the pipeline with validation off.
fn raw_candidates(ds: &Dataset) -> fdx_data::FdSet {
    let cfg = FdxConfig {
        validate: false,
        ..FdxConfig::default()
    };
    Fdx::new(cfg).discover(ds).unwrap().fds
}

#[test]
fn partition_cache_and_threads_leave_fd_sets_byte_identical() {
    let synth = generator::generate(&SynthConfig {
        tuples: 800,
        attributes: 10,
        domain_range: (27, 125),
        noise_rate: 0.02,
        seed: 7,
    });
    let hospital = realworld::hospital(0);
    for (name, ds) in [("synth", &synth.noisy), ("hospital", &hospital.data)] {
        let candidates = raw_candidates(ds);
        let min_lift = FdxConfig::default().min_lift;
        let baseline = refine_with_options(
            ds,
            &candidates,
            min_lift,
            RefineOptions {
                threads: Some(1),
                partition_cache: false,
            },
        );
        assert!(
            !baseline.is_empty(),
            "{name}: refinement dropped every candidate; the equivalence check would be vacuous"
        );
        for threads in [1, 2, 4] {
            for partition_cache in [false, true] {
                let got = refine_with_options(
                    ds,
                    &candidates,
                    min_lift,
                    RefineOptions {
                        threads: Some(threads),
                        partition_cache,
                    },
                );
                assert_eq!(
                    got.fds(),
                    baseline.fds(),
                    "{name}: threads={threads} cache={partition_cache}"
                );
            }
        }
    }
}
