//! Packed bit-matrix with cache-blocked popcount Gram kernels.
//!
//! The pair transform (paper §4.2) reduces to one primitive: given `k`
//! binary indicator rows over `m` sampled pairs, count pairwise
//! co-agreements `|z_a AND z_b|` for every attribute pair. Packing each
//! indicator row into `u64` words turns that into word-wise `AND` +
//! `count_ones()` — 64 samples per instruction before any SIMD — and
//! keeps every count an exact integer, so downstream covariance assembly
//! is bit-identical regardless of how the work is chunked or threaded.
//!
//! [`BitMatrix`] is row-major: row `a` occupies `words_per_row` consecutive
//! `u64`s, bit `i` of the row lives at word `i / 64`, bit position `i % 64`
//! (little-endian within the word). Trailing bits past `bits` in the last
//! word are always zero — every mutator upholds this, so popcounts never
//! see garbage.
//!
//! The Gram kernel walks the words in column blocks (default
//! [`BitMatrix::DEFAULT_BLOCK_WORDS`] words = 4 KiB per row-slice) so that
//! for wide matrices the row-slices of a block stay cache-resident across
//! its `k²/2` pairs; co-counts accumulate across blocks by integer
//! addition, which is associative, so the block width never changes the
//! result. [`BitMatrix::gram_accumulate_words`] counts a prefix of every
//! row, so a caller can fill a matrix's rows part way and count only what
//! it filled.
//!
//! Inside a column block the pairs run in register tiles: a tile is up to
//! `T` a-rows × `T` b-rows ([`TILE`] in the AVX-512 copy, [`SCALAR_TILE`]
//! in the scalar ones), each tile row is loaded once per step and ANDed
//! with every tile column, and each of the tile's entries keeps its own
//! accumulator until the block ends. A partial tile at the
//! bottom or right edge reads row `k − 1` in place of the rows past it,
//! and only entries with `b ≥ a` inside the matrix reach the accumulator.
//!
//! The Gram kernel ([`BitMatrix::gram_accumulate`]) runs in one of three
//! copies, picked at run time by [`PopcountKernel::detect`]:
//!
//! * on x86-64 with `avx512f` + `avx512vpopcntdq`, an explicit 512-bit
//!   tile (`tile_avx512`): unmasked 8-word loads of every tile row per
//!   step, `vpopcntq` into one accumulator per entry, one zero-masked step
//!   for the < 8-word tail, and one unpack/shuffle reduction per eight
//!   entries at the end of the block;
//! * on x86-64 with `popcnt`, the scalar tile (`tile_words`) compiled with
//!   the scalar instruction (baseline x86-64 has none, so without this copy
//!   `count_ones` lowers to a dozen-instruction bit-twiddling sequence);
//! * everywhere else, the scalar tile.
//!
//! The blocked tile loop exists once, as an `#[inline(always)]` body
//! parameterized by the tile counter, so the copies differ only in how
//! they count one tile; inlining into each `#[target_feature]` copy is what
//! lets LLVM emit that copy's instructions. The scalar copies use 1 × 1
//! tiles: their popcounts, not their loads, bound them. All copies count
//! the same integers, which the tests below pin. The Gram's diagonal is
//! each row's popcount; [`BitMatrix::add_row_popcounts`] counts part of
//! every row, for callers that need that, with one plain loop compiled in
//! the same three copies.

use std::ops::Range;

/// Packed row-major binary matrix over `u64` words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitMatrix {
    rows: usize,
    bits: usize,
    words_per_row: usize,
    data: Vec<u64>,
}

impl BitMatrix {
    /// Default Gram-kernel block width: 512 words = 4 KiB per row-slice.
    ///
    /// A tile's eight row slices then take 32 KiB, the size of the L1 data
    /// cache of the x86-64 cores measured. One sort block of the pair
    /// transform holds one bit per row of the table, so its rows are
    /// `⌈n/64⌉` words: 63 words (500 bytes) at 4000 rows, and a whole
    /// column block only from 32 705 rows up. The transform therefore lays
    /// `⌊512 / ⌈n/64⌉⌋` blocks side by side in one matrix and counts them
    /// with one Gram, whose rows are then close to this width (DESIGN.md
    /// §15).
    pub const DEFAULT_BLOCK_WORDS: usize = 512;

    /// All-zeros matrix with `rows` rows of `bits` bits each.
    pub fn zeros(rows: usize, bits: usize) -> BitMatrix {
        let words_per_row = bits.div_ceil(64);
        BitMatrix {
            rows,
            bits,
            words_per_row,
            data: vec![0u64; rows * words_per_row],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of valid bits per row.
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// Words backing each row (`bits.div_ceil(64)`).
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// The packed words of row `r`.
    pub fn row(&self, r: usize) -> &[u64] {
        let w = self.words_per_row;
        &self.data[r * w..(r + 1) * w]
    }

    /// Mutable packed words of row `r`, for word-at-a-time fills.
    ///
    /// Callers writing the final partial word must leave bits at positions
    /// `>= bits % 64` zero; the popcount kernels trust that invariant.
    pub fn row_mut(&mut self, r: usize) -> &mut [u64] {
        let w = self.words_per_row;
        &mut self.data[r * w..(r + 1) * w]
    }

    /// Resets every bit to zero without reallocating.
    pub fn clear(&mut self) {
        self.data.fill(0);
    }

    /// Sets bit `i` of row `r`.
    pub fn set(&mut self, r: usize, i: usize) {
        debug_assert!(i < self.bits);
        let w = self.words_per_row;
        self.data[r * w + i / 64] |= 1u64 << (i % 64);
    }

    /// Reads bit `i` of row `r`.
    pub fn get(&self, r: usize, i: usize) -> bool {
        debug_assert!(i < self.bits);
        let w = self.words_per_row;
        (self.data[r * w + i / 64] >> (i % 64)) & 1 == 1
    }

    /// Adds each row's population count over the words `words` into `out`:
    /// `out[r] += |row_r[words]|`.
    ///
    /// One plain loop, compiled with the features of the Gram copy
    /// [`PopcountKernel::detect`] picks, so `count_ones` becomes that
    /// copy's `popcnt` or `vpopcntq`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != rows` or `words` ends past a row.
    pub fn add_row_popcounts(&self, words: Range<usize>, out: &mut [u64]) {
        assert_eq!(out.len(), self.rows, "one popcount per row");
        assert!(
            words.start <= words.end && words.end <= self.words_per_row,
            "word range past the end of a row"
        );
        match PopcountKernel::detect() {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `detect` returns `Avx512` only when the running CPU
            // supports `avx512f` and `avx512vpopcntdq`, the features this
            // copy enables.
            PopcountKernel::Avx512 => unsafe { popcounts_avx512(self, words, out) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `detect` returns `Popcnt` only when the running CPU
            // supports `popcnt`, the one feature this copy enables.
            PopcountKernel::Popcnt => unsafe { popcounts_popcnt(self, words, out) },
            _ => popcounts_body(self, words, out),
        }
    }

    /// Upper-triangular (inclusive) popcount Gram matrix.
    ///
    /// Returns a row-major `rows × rows` buffer with `out[a * rows + b] =
    /// |row_a AND row_b|` for `b >= a`; the strictly-lower triangle is left
    /// zero. The diagonal is each row's popcount. Uses the default block
    /// width; see [`BitMatrix::gram_accumulate`] for the blocking scheme.
    pub fn gram(&self) -> Vec<u64> {
        let mut out = vec![0u64; self.rows * self.rows];
        self.gram_accumulate(Self::DEFAULT_BLOCK_WORDS, &mut out);
        out
    }

    /// Adds the upper-triangular (inclusive) popcount Gram into `acc`.
    ///
    /// `acc` must be a row-major `rows × rows` buffer; entries `acc[a *
    /// rows + b]` with `b >= a` receive `+= |row_a AND row_b|`. Counts are
    /// exact integers, so accumulating several matrices (or the same matrix
    /// block by block) is associative and order-independent.
    ///
    /// The word range is processed in column blocks of `block_words` so
    /// the row-slices of a block are short enough to stay cache-resident
    /// across its tiles. `block_words` only affects the order of the
    /// integer additions, never the counts.
    ///
    /// # Panics
    ///
    /// Panics if `acc.len() != rows * rows` or `block_words == 0`.
    pub fn gram_accumulate(&self, block_words: usize, acc: &mut [u64]) {
        self.gram_accumulate_words(self.words_per_row, block_words, acc);
    }

    /// [`BitMatrix::gram_accumulate`] over the first `words` words of every
    /// row: `acc[a * rows + b] += |row_a[..words] AND row_b[..words]|`.
    ///
    /// # Panics
    ///
    /// Panics if `acc.len() != rows * rows`, `block_words == 0` or `words`
    /// exceeds [`BitMatrix::words_per_row`].
    pub fn gram_accumulate_words(&self, words: usize, block_words: usize, acc: &mut [u64]) {
        assert_eq!(
            acc.len(),
            self.rows * self.rows,
            "gram accumulator has wrong shape"
        );
        assert!(block_words > 0, "gram block width must be positive");
        assert!(
            words <= self.words_per_row,
            "gram prefix past the end of a row"
        );
        match PopcountKernel::detect() {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `detect` returns `Avx512` only when the running CPU
            // supports `avx512f` and `avx512vpopcntdq`, the features this
            // copy enables.
            PopcountKernel::Avx512 => unsafe { gram_avx512(self, words, block_words, acc) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `detect` returns `Popcnt` only when the running CPU
            // supports `popcnt`, the one feature this copy enables.
            PopcountKernel::Popcnt => unsafe { gram_popcnt(self, words, block_words, acc) },
            _ => gram_body(self, words, block_words, acc, tile_words::<SCALAR_TILE>),
        }
    }
}

/// Which copy of the Gram kernel runs on this CPU.
///
/// [`PopcountKernel::detect`] is the one place the choice is made: the
/// dispatch in [`BitMatrix::gram_accumulate`] calls it, and run reports
/// print its [`PopcountKernel::name`], so a report cannot disagree with
/// what ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PopcountKernel {
    /// The explicit 512-bit `vpopcntq` tile (x86-64 with `avx512f` and
    /// `avx512vpopcntdq`).
    Avx512,
    /// The scalar tile compiled with the `popcnt` instruction (x86-64 with
    /// `popcnt`).
    Popcnt,
    /// The scalar tile at the build's baseline target features.
    Portable,
}

impl PopcountKernel {
    /// The fastest copy the running CPU supports, in the order `Avx512`,
    /// `Popcnt`, `Portable`.
    ///
    /// Feature detection is cached by the standard library, so a call
    /// costs a few relaxed loads.
    pub fn detect() -> PopcountKernel {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512vpopcntdq")
            {
                return PopcountKernel::Avx512;
            }
            if std::arch::is_x86_feature_detected!("popcnt") {
                return PopcountKernel::Popcnt;
            }
        }
        PopcountKernel::Portable
    }

    /// The copy's name in run reports: `"avx512"`, `"popcnt"` or
    /// `"portable"`.
    pub fn name(self) -> &'static str {
        match self {
            PopcountKernel::Avx512 => "avx512",
            PopcountKernel::Popcnt => "popcnt",
            PopcountKernel::Portable => "portable",
        }
    }
}

/// Rows per side of a tile in the AVX-512 copy: 16 entry accumulators
/// and 8 row registers fit the 32 vector registers.
const TILE: usize = 4;

/// Rows per side of a tile in the scalar copies: one row pair.
///
/// Scalar `popcnt` runs on one port of the x86-64 cores measured, so a
/// scalar count is bound by its popcounts, not its loads, and a larger
/// tile only adds the entries below the diagonal: 2 × 2 tiles took
/// 1.13× the per-pair loop's Gram time, 1 × 1 tiles 1.00–1.06×
/// (DESIGN.md §15).
const SCALAR_TILE: usize = 1;

/// The blocked, tiled Gram loop over the first `words` words of each row,
/// inlined into each dispatch copy.
///
/// `tile(xs, ys)` returns `|xs[i] AND ys[j]|` for every entry of a tile of
/// equal-length row slices. A tile that runs past row `k − 1` repeats that
/// row; its extra entries, and those below the diagonal, are dropped.
#[inline(always)]
fn gram_body<const T: usize>(
    m: &BitMatrix,
    words: usize,
    block_words: usize,
    acc: &mut [u64],
    tile: impl Fn(&[&[u64]; T], &[&[u64]; T]) -> [[u64; T]; T],
) {
    let k = m.rows;
    let w = m.words_per_row;
    let mut start = 0;
    while start < words {
        let end = (start + block_words).min(words);
        // Every row's slice of this block, then `T - 1` repeats of the last
        // row, so the rows of any tile are `T` consecutive entries.
        let slices: Vec<&[u64]> = (0..k + T - 1)
            .map(|r| {
                let r = r.min(k - 1);
                &m.data[r * w + start..r * w + end]
            })
            .collect();
        let tile_rows =
            |first: usize| -> [&[u64]; T] { std::array::from_fn(|i| slices[first + i]) };
        for a0 in (0..k).step_by(T) {
            let xs = tile_rows(a0);
            for b0 in (a0..k).step_by(T) {
                let counts = tile(&xs, &tile_rows(b0));
                for (a, row) in (a0..k).zip(&counts) {
                    for (b, &c) in (b0..k).zip(row) {
                        if b >= a {
                            acc[a * k + b] += c;
                        }
                    }
                }
            }
        }
        start = end;
    }
}

/// One tile counted a word at a time with scalar popcounts. Always
/// inlined, so it compiles to `popcnt` inside the `popcnt` copy.
#[inline(always)]
fn tile_words<const T: usize>(xs: &[&[u64]; T], ys: &[&[u64]; T]) -> [[u64; T]; T] {
    std::array::from_fn(|i| {
        std::array::from_fn(|j| {
            xs[i]
                .iter()
                .zip(ys[j])
                .map(|(x, y)| u64::from((x & y).count_ones()))
                .sum()
        })
    })
}

/// [`gram_body`] with the scalar tile, compiled with the `popcnt`
/// instruction.
///
/// # Safety
///
/// SAFETY: the running CPU must support `popcnt` (callers detect it first).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "popcnt")]
unsafe fn gram_popcnt(m: &BitMatrix, words: usize, block_words: usize, acc: &mut [u64]) {
    gram_body(m, words, block_words, acc, tile_words::<SCALAR_TILE>);
}

/// [`gram_body`] with the 512-bit tile.
///
/// # Safety
///
/// SAFETY: the running CPU must support `avx512f` and `avx512vpopcntdq`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vpopcntdq")]
unsafe fn gram_avx512(m: &BitMatrix, words: usize, block_words: usize, acc: &mut [u64]) {
    gram_body(m, words, block_words, acc, |xs, ys| {
        // SAFETY: this copy runs only where `avx512f` and `avx512vpopcntdq`
        // were detected, the features `tile_avx512` needs.
        unsafe { tile_avx512(xs, ys) }
    });
}

/// The row-popcount loop, inlined into each dispatch copy.
#[inline(always)]
fn popcounts_body(m: &BitMatrix, words: Range<usize>, out: &mut [u64]) {
    for (r, out) in out.iter_mut().enumerate() {
        let row = &m.row(r)[words.clone()];
        *out += row.iter().map(|w| u64::from(w.count_ones())).sum::<u64>();
    }
}

/// [`popcounts_body`] compiled with the `popcnt` instruction.
///
/// # Safety
///
/// SAFETY: the running CPU must support `popcnt` (callers detect it first).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "popcnt")]
unsafe fn popcounts_popcnt(m: &BitMatrix, words: Range<usize>, out: &mut [u64]) {
    popcounts_body(m, words, out);
}

/// [`popcounts_body`] compiled with `avx512vpopcntdq`, which LLVM
/// vectorizes into `vpopcntq`.
///
/// # Safety
///
/// SAFETY: the running CPU must support `avx512f` and `avx512vpopcntdq`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vpopcntdq")]
unsafe fn popcounts_avx512(m: &BitMatrix, words: Range<usize>, out: &mut [u64]) {
    popcounts_body(m, words, out);
}

/// One [`TILE`] × [`TILE`] tile of `|xs[i] AND ys[j]|`, 8 words per step.
///
/// Each full step makes one unmasked 512-bit load of every tile row and
/// adds `vpopcntq(x AND y)` into the entry's accumulator. The < 8-word
/// tail is one step of zero-masked loads (`vmovdqu64` with a zeroing
/// mask): masked-off lanes are never read, so no load touches memory past
/// a slice, and a zeroed lane adds nothing. The lanes are summed once, by
/// [`sum_lanes8`].
///
/// # Panics
///
/// Panics if the slices differ in length.
///
/// # Safety
///
/// SAFETY: the running CPU must support `avx512f` and `avx512vpopcntdq`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vpopcntdq")]
unsafe fn tile_avx512(xs: &[&[u64]; TILE], ys: &[&[u64]; TILE]) -> [[u64; TILE]; TILE] {
    use std::arch::x86_64::{
        __m512i, _mm512_add_epi64, _mm512_and_si512, _mm512_loadu_si512, _mm512_maskz_loadu_epi64,
        _mm512_popcnt_epi64, _mm512_setzero_si512, _mm512_storeu_si512,
    };
    let n = xs[0].len();
    assert!(
        xs.iter().chain(ys).all(|r| r.len() == n),
        "tile rows of unequal length"
    );
    let mut acc = [_mm512_setzero_si512(); TILE * TILE];
    let mut add = |x: [__m512i; TILE], y: [__m512i; TILE]| {
        for (i, x) in x.into_iter().enumerate() {
            for (j, &y) in y.iter().enumerate() {
                let c = &mut acc[i * TILE + j];
                *c = _mm512_add_epi64(*c, _mm512_popcnt_epi64(_mm512_and_si512(x, y)));
            }
        }
    };
    let mut at = 0;
    while at + 8 <= n {
        // SAFETY: words `at..at + 8` lie inside every slice (`at + 8 <= n`),
        // and `loadu` has no alignment requirement.
        let load = |r: &[u64]| unsafe { _mm512_loadu_si512(r.as_ptr().add(at).cast()) };
        add(xs.map(load), ys.map(load));
        at += 8;
    }
    if at < n {
        let live = u8::MAX >> (8 - (n - at));
        // SAFETY: lane `j` is read only if bit `j` of `live` is set, i.e.
        // for words `at..n`, all inside every slice; `at < n`, so the base
        // pointer stays inside each slice.
        let load = |r: &[u64]| unsafe { _mm512_maskz_loadu_epi64(live, r.as_ptr().add(at).cast()) };
        add(xs.map(load), ys.map(load));
    }
    let mut sums = [[0u64; TILE]; TILE];
    for (eight, out) in acc.chunks_exact(8).zip(sums.chunks_exact_mut(2)) {
        // SAFETY: as for this function, the features `sum_lanes8` needs.
        let lanes = unsafe { sum_lanes8(eight) };
        // SAFETY: `out` is two rows of `TILE = 4` words, the 64 bytes the
        // store writes, and `storeu` has no alignment requirement.
        unsafe { _mm512_storeu_si512(out.as_mut_ptr().cast(), lanes) };
    }
    sums
}

/// The lane sums of eight vectors as the lanes of one: lane `i` is the sum
/// of `v[i]`'s eight `u64` lanes.
///
/// Unpack-and-add within 128-bit lanes, then two rounds of 128-bit
/// shuffles and adds: 21 instructions for eight sums, where eight
/// `_mm512_reduce_add_epi64` take about three times as many.
///
/// # Panics
///
/// Panics if `v` is not eight vectors long.
///
/// # Safety
///
/// SAFETY: the running CPU must support `avx512f`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn sum_lanes8(v: &[std::arch::x86_64::__m512i]) -> std::arch::x86_64::__m512i {
    use std::arch::x86_64::{
        __m512i, _mm512_add_epi64, _mm512_shuffle_i64x2, _mm512_unpackhi_epi64,
        _mm512_unpacklo_epi64,
    };
    assert_eq!(v.len(), 8, "eight vectors");
    // 128-bit lane `l` of the result: `[Σ x over words 2l, 2l + 1; same for y]`.
    let pairs = |x, y| _mm512_add_epi64(_mm512_unpacklo_epi64(x, y), _mm512_unpackhi_epi64(x, y));
    // Adds 128-bit lanes 0 + 1 and 2 + 3 of `x`, then of `y`:
    // `[x01, x23, y01, y23]`.
    let halves = |x: __m512i, y: __m512i| {
        _mm512_add_epi64(
            _mm512_shuffle_i64x2::<0b10_00_10_00>(x, y),
            _mm512_shuffle_i64x2::<0b11_01_11_01>(x, y),
        )
    };
    let (t0, t1) = (pairs(v[0], v[1]), pairs(v[2], v[3]));
    let (t2, t3) = (pairs(v[4], v[5]), pairs(v[6], v[7]));
    halves(halves(t0, t1), halves(t2, t3))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random bit fill: each bit is set with
    /// probability 1/4, one draw of the stream seeded with `salt` per bit.
    fn filled(rows: usize, bits: usize, salt: u64) -> BitMatrix {
        let mut rng = fdx_rand::SplitMix64::new(salt);
        let mut m = BitMatrix::zeros(rows, bits);
        for r in 0..rows {
            for i in 0..bits {
                if rng.next_u64() & 3 == 0 {
                    m.set(r, i);
                }
            }
        }
        m
    }

    /// Reference Gram by per-bit iteration: every bit position adds one to
    /// each pair of rows that both have it set.
    fn naive_gram(m: &BitMatrix) -> Vec<u64> {
        let k = m.rows();
        let mut out = vec![0u64; k * k];
        let mut set = Vec::with_capacity(k);
        for i in 0..m.bits() {
            set.clear();
            set.extend((0..k).filter(|&r| m.get(r, i)));
            for (x, &a) in set.iter().enumerate() {
                for &b in &set[x..] {
                    out[a * k + b] += 1;
                }
            }
        }
        out
    }

    #[test]
    fn set_get_roundtrip_and_word_layout() {
        let mut m = BitMatrix::zeros(2, 130);
        m.set(0, 0);
        m.set(0, 63);
        m.set(0, 64);
        m.set(1, 129);
        assert!(m.get(0, 0) && m.get(0, 63) && m.get(0, 64) && m.get(1, 129));
        assert!(!m.get(0, 1) && !m.get(1, 0));
        assert_eq!(m.words_per_row(), 3);
        assert_eq!(m.row(0)[0], (1u64 << 63) | 1);
        assert_eq!(m.row(0)[1], 1);
        assert_eq!(m.row(1)[2], 1 << 1);
    }

    /// Every row's popcount over `words`, from [`BitMatrix::add_row_popcounts`].
    fn row_popcounts(m: &BitMatrix, words: Range<usize>) -> Vec<u64> {
        let mut out = vec![0; m.rows()];
        m.add_row_popcounts(words, &mut out);
        out
    }

    #[test]
    fn row_popcounts_match_set_bits() {
        let m = filled(5, 200, 7);
        for (r, &pop) in row_popcounts(&m, 0..m.words_per_row()).iter().enumerate() {
            let manual = (0..200).filter(|&i| m.get(r, i)).count() as u64;
            assert_eq!(pop, manual, "row {r}");
        }
        // Every word range, each added onto counts already there.
        for lo in 0..=4 {
            for hi in lo..=4 {
                let mut out = vec![7; 5];
                m.add_row_popcounts(lo..hi, &mut out);
                for (r, &pop) in out.iter().enumerate() {
                    let manual = (lo * 64..(hi * 64).min(200))
                        .filter(|&i| m.get(r, i))
                        .count() as u64;
                    assert_eq!(pop, 7 + manual, "row {r} words {lo}..{hi}");
                }
            }
        }
    }

    #[test]
    fn gram_prefix_counts_only_its_words() {
        let m = filled(6, 640, 11);
        for words in 0..=10 {
            // The same rows cut to `words` words.
            let mut cut = BitMatrix::zeros(6, words * 64);
            for r in 0..6 {
                cut.row_mut(r).copy_from_slice(&m.row(r)[..words]);
            }
            for block in [1, 3, 512] {
                let mut acc = vec![0u64; 36];
                m.gram_accumulate_words(words, block, &mut acc);
                assert_eq!(acc, naive_gram(&cut), "words={words} block={block}");
            }
        }
    }

    #[test]
    fn gram_matches_naive_counting() {
        for &(rows, bits) in &[(1usize, 1usize), (3, 64), (4, 65), (6, 257), (5, 1000)] {
            let m = filled(rows, bits, (rows * 1000 + bits) as u64);
            assert_eq!(m.gram(), naive_gram(&m), "rows={rows} bits={bits}");
        }
    }

    #[test]
    fn gram_block_width_never_changes_counts() {
        let m = filled(7, 777, 42);
        let reference = m.gram();
        for block in [1usize, 2, 3, 5, 8, 512, 10_000] {
            let mut acc = vec![0u64; 7 * 7];
            m.gram_accumulate(block, &mut acc);
            assert_eq!(acc, reference, "block={block}");
        }
    }

    #[test]
    fn gram_accumulate_adds_instead_of_overwriting() {
        let m = filled(3, 100, 9);
        let one = m.gram();
        let mut acc = vec![0u64; 9];
        m.gram_accumulate(64, &mut acc);
        m.gram_accumulate(64, &mut acc);
        let doubled: Vec<u64> = one.iter().map(|&c| 2 * c).collect();
        assert_eq!(acc, doubled);
    }

    /// A Gram copy: adds the Gram of a matrix into an accumulator, cut into
    /// column blocks of the given width.
    type GramCopy = fn(&BitMatrix, usize, &mut [u64]);

    /// Every Gram copy this CPU can run, by name.
    fn runnable_copies() -> Vec<(&'static str, GramCopy)> {
        let mut copies: Vec<(&'static str, GramCopy)> = vec![("portable", |m, block, acc| {
            gram_body(m, m.words_per_row(), block, acc, tile_words::<SCALAR_TILE>)
        })];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("popcnt") {
                // SAFETY: the running CPU was just detected to support
                // `popcnt`, the only feature this copy enables.
                copies.push(("popcnt", |m, block, acc| unsafe {
                    gram_popcnt(m, m.words_per_row(), block, acc)
                }));
            }
            if PopcountKernel::detect() == PopcountKernel::Avx512 {
                // SAFETY: `detect` found `avx512f` and `avx512vpopcntdq`,
                // the features this copy enables.
                copies.push(("avx512", |m, block, acc| unsafe {
                    gram_avx512(m, m.words_per_row(), block, acc)
                }));
            }
        }
        copies
    }

    #[test]
    fn every_copy_counts_the_naive_gram() {
        // 1-9 rows end a tile at every remainder of both tile widths, and
        // 127-129 rows add many whole tiles around one. 1, 7-9, 15-17 and
        // 63-65 words run every masked-tail length around zero, one and
        // several full 8-word steps; block widths 1, 7 and 8 cut the rows
        // into blocks of each kind.
        let copies = runnable_copies();
        let words: Vec<usize> = [1]
            .into_iter()
            .chain(7..=9)
            .chain(15..=17)
            .chain(63..=65)
            .collect();
        for rows in (1..=9).chain(127..=129) {
            for &w in &words {
                // One bit into the last word, so trailing words are partial.
                let bits = 64 * (w - 1) + 1 + (rows + w) % 63;
                let m = filled(rows, bits, (rows * 7919 + w) as u64);
                assert_eq!(m.words_per_row(), w);
                let naive = naive_gram(&m);
                let diagonal: Vec<u64> = (0..rows).map(|r| naive[r * rows + r]).collect();
                assert_eq!(row_popcounts(&m, 0..w), diagonal, "rows={rows} words={w}");
                for block in [1usize, 7, 8, 512] {
                    for &(name, gram) in &copies {
                        let mut acc = vec![0u64; rows * rows];
                        gram(&m, block, &mut acc);
                        assert_eq!(acc, naive, "{name} rows={rows} words={w} block={block}");
                    }
                }
            }
        }
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn avx512_tile_reads_only_its_slices() {
        if PopcountKernel::detect() != PopcountKernel::Avx512 {
            return;
        }
        // Tile rows cut out of a buffer whose words around them are all
        // ones: a load past either end of any row would change a count.
        let stride = 40;
        let buf: Vec<u64> = (0..2 * TILE * stride + 16)
            .map(|i| {
                if i % stride >= 8 {
                    (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                } else {
                    u64::MAX
                }
            })
            .collect();
        for len in 0..=stride - 8 {
            // Row `r` ends where the ones before row `r + 1` begin.
            let row = |r: usize| &buf[(r + 1) * stride - len..(r + 1) * stride];
            let xs: [&[u64]; TILE] = std::array::from_fn(row);
            let ys: [&[u64]; TILE] = std::array::from_fn(|j| row(TILE + j));
            // SAFETY: `detect` found `avx512f` and `avx512vpopcntdq`.
            let got = unsafe { tile_avx512(&xs, &ys) };
            let want = tile_words(&xs, &ys);
            assert_eq!(got, want, "len={len}");
        }
    }

    #[test]
    fn clear_resets_without_shape_change() {
        let mut m = filled(3, 90, 1);
        m.clear();
        assert_eq!(row_popcounts(&m, 0..m.words_per_row()), vec![0, 0, 0]);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.bits(), 90);
    }

    #[test]
    #[should_panic(expected = "wrong shape")]
    fn gram_accumulate_rejects_misshaped_buffer() {
        let m = BitMatrix::zeros(2, 10);
        let mut acc = vec![0u64; 3];
        m.gram_accumulate(8, &mut acc);
    }
}
