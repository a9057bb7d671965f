//! The circular-shift pair block kernel of Algorithm 2 (§4.2).
//!
//! The pair transform, `fdx_core::pair_transform`, shuffles the rows
//! ([`SplitMix64`] from a seed), then for every sort attribute stably
//! sorts the shuffled rows by that attribute's codes and pairs each row
//! with its circular successor.
//! One block is a `k × n` bit-matrix: bit `r` of row `a` says whether the
//! `r`-th pair agrees on attribute `a` (a NULL agrees with nothing, another
//! NULL included). [`ShiftBlocks`] is the single implementation of
//! that loop.
//!
//! Blocks are folded into the pair-statistics counters in batches. A block
//! row is `w = ⌈n/64⌉` words, and [`ShiftBlocks::batch_len`] blocks, as
//! many as fit [`BitMatrix::DEFAULT_BLOCK_WORDS`] words side by side, share
//! one `k`-row [`BitMatrix`]: [`ShiftBlocks::compare`] writes a block into
//! its own `w`-word slot of every row, and [`ShiftBlocks::fold`] counts the
//! filled slots with one popcount Gram, so the Gram's rows are up to a
//! column block long however short one block's rows are. Every count is
//! an exact integer, so a batch counts what its blocks would one by one.
//!
//! Two layouts compute the same bits:
//!
//! * **Row-major.** The codes are laid out once per call as an `n × k`
//!   matrix in shuffled-row order, at the narrowest of `u8`/`u16`/`u32`
//!   whose maximum value exceeds every code; that maximum is the NULL
//!   sentinel, so narrowing keeps both the code order and NULL's place
//!   after every code. Each block counting-sorts the matrix positions by
//!   the attribute's column of the matrix, compares each pair's two rows
//!   into one agreement bit per attribute, and transposes each tile of 64
//!   pairs into one word of every attribute row of the block's
//!   [`BitMatrix`].
//! * **Per-column gather.** The block counting-sorts the shuffled rows by
//!   the attribute's column; each attribute's codes are then gathered
//!   through the sort permutation with a wrap sentinel and packed by
//!   `pack_adjacent_agreement`.
//!
//! A block is two calls, [`ShiftBlocks::sort`] and then
//! [`ShiftBlocks::compare`], so a caller can time them apart. Both layouts
//! sort with [`crate::stable_sort_by_codes`]: one pass reads the key column
//! and counts its buckets, one scatters the positions. The bucket count is
//! each column's largest code plus one, found once per call, with NULL in
//! one more bucket after it.
//!
//! The row compare runs in one of two copies, picked at run time by
//! [`CompareKernel::detect`]:
//!
//! * on x86-64 with `avx512f` + `avx512bw`, a pair's agreement word is a
//!   masked `vpcmpeq` of its two rows, under a `vpcmpneq` of the first
//!   row against the NULL sentinel. Up to 32 attributes, a pair is two
//!   zero-masked row loads, a tile keeps each pair's word at the narrowest
//!   of `u8`/`u16`/`u32`, and an attribute's block word is one `vptestm`
//!   per tile register. Wider rows run one 64-attribute chunk at a time:
//!   the tile's rows are loaded once each, since pair `j`'s second row is
//!   pair `j + 1`'s first (unmasked loads, but for a last, partial chunk),
//!   and the tile's 64 chunk words are transposed in eight `zmm`
//!   registers. This copy is row-major at every `k`;
//! * everywhere else, the portable copy compares a pair into a 0/1 byte
//!   buffer (a plain lane-wise loop the auto-vectorizer widens), packs it
//!   eight bytes per multiply and transposes 64 × 64 tiles. It is
//!   row-major from [`ROW_KERNEL_MIN_ATTRS`] attributes and gathers below,
//!   where a row this short does not amortize its packing and transpose.
//!
//! The tile loop exists once, as an `#[inline(always)]` body
//! parameterized by how one pair is compared and how one tile is
//! transposed; inlining it into the `#[target_feature]` copy is what lets
//! LLVM emit that copy's instructions. The layout and the copy only
//! reorganize the same compares, and every layout sorts with
//! [`crate::stable_sort_by_codes`], so the pairs, and hence every bit, are
//! those of `sort_by_key` over the shuffled rows. Positions are `u32`, so a
//! call covers at most `u32::MAX` rows.

use fdx_data::NULL_CODE;
use fdx_linalg::BitMatrix;
use fdx_rand::SplitMix64;

use crate::bitpack::{pack64, pack_adjacent_agreement};
use crate::groups::stable_sort_by_codes;

/// Attribute count from which the portable copy uses the row-major
/// layout; the AVX-512BW copy uses it at every `k`.
///
/// The portable row body's byte compare, packing and 64 × 64 transpose
/// cost about the same per pair at any `k`, while the per-column gather
/// makes `k` passes per block. On the whole block build (2-vCPU Xeon VM,
/// one thread, release build, 2000 to 160 000 rows) the row body took
/// 1.2–2.0× the gather's time at `k = 8` and 0.95–1.3× at `k = 16`
/// (DESIGN.md §15 has the table).
pub const ROW_KERNEL_MIN_ATTRS: usize = 32;

/// Which copy of the row compare runs on this CPU.
///
/// [`CompareKernel::detect`] is the one place the choice is made:
/// [`ShiftBlocks::new`] calls it, and run reports print its
/// [`CompareKernel::name`], so a report cannot disagree with what ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompareKernel {
    /// Masked 512-bit compares into agreement words and `vptestm` tile
    /// transposes (x86-64 with `avx512f` and `avx512bw`); row-major at
    /// every `k`.
    Avx512bw,
    /// The byte compare at the build's baseline target features, with the
    /// per-column gather below 32 attributes.
    Portable,
}

impl CompareKernel {
    /// `Avx512bw` where the running CPU supports `avx512f` and `avx512bw`,
    /// otherwise `Portable`.
    ///
    /// Feature detection is cached by the standard library, so a call
    /// costs a few relaxed loads.
    pub fn detect() -> CompareKernel {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512bw")
            {
                return CompareKernel::Avx512bw;
            }
        }
        CompareKernel::Portable
    }

    /// The copy's name in run reports: `"avx512bw"` or `"portable"`.
    pub fn name(self) -> &'static str {
        match self {
            CompareKernel::Avx512bw => "avx512bw",
            CompareKernel::Portable => "portable",
        }
    }

    /// Whether this copy lays `k` attributes out row-major.
    fn row_major(self, k: usize) -> bool {
        self == CompareKernel::Avx512bw || k >= ROW_KERNEL_MIN_ATTRS
    }
}

/// Sort blocks of one call: the shuffled rows, laid out for the kernel.
#[derive(Debug)]
pub struct ShiftBlocks<'a> {
    n: usize,
    k: usize,
    kernel: CompareKernel,
    /// Per attribute, one more than its largest non-NULL code (0 if it has
    /// none): the sort's bucket count before NULL's.
    bounds: Vec<u32>,
    layout: Layout<'a>,
}

#[derive(Debug)]
enum Layout<'a> {
    /// The caller's columns, read through the shuffled row order.
    Columns {
        columns: Vec<&'a [u32]>,
        shuffled: Vec<u32>,
    },
    Rows8(RowMajor<u8>),
    Rows16(RowMajor<u16>),
    Rows32(RowMajor<u32>),
}

/// The codes as an `n × k` row-major matrix in shuffled-row order.
#[derive(Debug)]
struct RowMajor<T> {
    /// `cells[i * k + a]`: attribute `a` of the `i`-th shuffled row, NULL
    /// as [`Code::NULL`].
    cells: Vec<T>,
}

/// Per-thread buffers for [`ShiftBlocks::sort`], [`ShiftBlocks::compare`]
/// and [`ShiftBlocks::fold`]; reused across blocks.
#[derive(Debug)]
pub struct ShiftScratch {
    /// Blocks a batch holds: at least one, at most
    /// [`ShiftBlocks::batch_len`].
    slots: usize,
    /// A batch of blocks: `k` rows of `slots` slots of `⌈n/64⌉` words, slot
    /// `i`'s words holding the `n` pair bits of the batch's block `i`.
    bits: BitMatrix,
    /// Sort permutation plus a wrap entry (`order[n] = order[0]`): matrix
    /// positions (row-major) or row ids (per-column).
    order: Vec<u32>,
    /// The sort's bucket per position; then, per-column, one gathered
    /// column plus its wrap sentinel.
    codes: Vec<u32>,
    /// Portable row compare: one pair's agreement bytes, `k` rounded up to
    /// 64 (the padding stays zero).
    eq: Vec<u8>,
    /// Portable row compare: 64 pair words per 64-attribute chunk.
    tile: Vec<u64>,
}

impl ShiftScratch {
    /// Blocks one batch holds: the slots [`ShiftBlocks::compare`] can fill
    /// and [`ShiftBlocks::fold`] counts.
    pub fn slots(&self) -> usize {
        self.slots
    }
}

impl<'a> ShiftBlocks<'a> {
    /// Shuffles the rows of `columns` ([`SplitMix64`] from `seed`) and
    /// lays them out for the compare copy [`CompareKernel::detect`] picks.
    ///
    /// # Panics
    ///
    /// Panics if the columns have unequal lengths or more than `u32::MAX`
    /// rows.
    pub fn new(columns: &[&'a [u32]], seed: u64) -> ShiftBlocks<'a> {
        let kernel = CompareKernel::detect();
        Self::build(columns, seed, kernel, kernel.row_major(columns.len()))
    }

    /// [`ShiftBlocks::new`] with the copy and the layout given.
    ///
    /// # Panics
    ///
    /// Panics if the columns have unequal lengths or more than `u32::MAX`
    /// rows, or `kernel` is `Avx512bw` where [`CompareKernel::detect`] does
    /// not return it.
    fn build(
        columns: &[&'a [u32]],
        seed: u64,
        kernel: CompareKernel,
        row_major: bool,
    ) -> ShiftBlocks<'a> {
        let k = columns.len();
        let n = columns.first().map_or(0, |c| c.len());
        assert!(
            columns.iter().all(|c| c.len() == n),
            "columns of unequal length"
        );
        assert!(
            u32::try_from(n).is_ok(),
            "a call covers at most u32::MAX rows"
        );
        assert!(
            kernel == CompareKernel::Portable || kernel == CompareKernel::detect(),
            "this CPU cannot run the {} copy",
            kernel.name()
        );
        let mut shuffled: Vec<u32> = (0..=u32::MAX).take(n).collect();
        SplitMix64::new(seed).shuffle(&mut shuffled);
        // `c + 1` wraps NULL to 0, so this is one more than the largest
        // non-NULL code (0 if there is none).
        let bounds: Vec<u32> = columns
            .iter()
            .map(|c| c.iter().map(|c| c.wrapping_add(1)).max().unwrap_or(0))
            .collect();
        let layout = if !row_major {
            Layout::Columns {
                columns: columns.to_vec(),
                shuffled,
            }
        } else {
            let bound = bounds.iter().copied().max().unwrap_or(0);
            if bound <= u32::from(u8::MAX) {
                Layout::Rows8(RowMajor::new(columns, &shuffled))
            } else if bound <= u32::from(u16::MAX) {
                Layout::Rows16(RowMajor::new(columns, &shuffled))
            } else {
                Layout::Rows32(RowMajor::new(columns, &shuffled))
            }
        };
        ShiftBlocks {
            n,
            k,
            kernel,
            bounds,
            layout,
        }
    }

    /// Blocks per batch: as many `⌈n/64⌉`-word block rows as fit
    /// [`BitMatrix::DEFAULT_BLOCK_WORDS`] words, at least one and at most
    /// `k`.
    ///
    /// Above 32 768 rows a block row alone is longer than that, and a batch
    /// is one block.
    pub fn batch_len(&self) -> usize {
        let w = self.n.div_ceil(64);
        BitMatrix::DEFAULT_BLOCK_WORDS
            .checked_div(w)
            .unwrap_or(1)
            .clamp(1, self.k.max(1))
    }

    /// Buffers for the blocks of this call, in batches of up to `blocks`
    /// blocks: [`ShiftScratch::slots`] is `blocks` clamped to
    /// `1..=batch_len()`.
    ///
    /// A caller that folds fewer blocks than a batch holds asks for as many
    /// slots as it has blocks, so its batch matrix has no slot it never
    /// fills.
    pub fn scratch(&self, blocks: usize) -> ShiftScratch {
        let chunks = self.k.div_ceil(64);
        let slots = blocks.clamp(1, self.batch_len());
        ShiftScratch {
            slots,
            bits: BitMatrix::zeros(self.k, slots * self.n.div_ceil(64) * 64),
            order: Vec::with_capacity(self.n + 1),
            codes: Vec::with_capacity(self.n + 1),
            eq: vec![0; chunks * 64],
            tile: vec![0; chunks * 64],
        }
    }

    /// Sorts the shuffled rows by attribute `attr` into `scratch`: the
    /// first half of the block sorted by `attr`.
    ///
    /// # Panics
    ///
    /// Panics if `attr >= k` or `scratch` was made for other blocks.
    pub fn sort(&self, attr: usize, scratch: &mut ShiftScratch) {
        assert!(attr < self.k, "sort attribute out of range");
        self.check(scratch);
        let ShiftScratch { order, codes, .. } = scratch;
        let bound = self.bounds[attr];
        match &self.layout {
            Layout::Columns { columns, shuffled } => {
                let column = columns[attr];
                let keys = shuffled.iter().map(|&r| column[r as usize]);
                stable_sort_by_codes(keys, bound, codes, order);
                // Positions of the shuffled order to row ids, for the gather.
                for r in order.iter_mut() {
                    *r = shuffled[*r as usize];
                }
            }
            Layout::Rows8(m) => stable_sort_by_codes(m.column(self.k, attr), bound, codes, order),
            Layout::Rows16(m) => stable_sort_by_codes(m.column(self.k, attr), bound, codes, order),
            Layout::Rows32(m) => stable_sort_by_codes(m.column(self.k, attr), bound, codes, order),
        }
        if let Some(&first) = order.first() {
            order.push(first);
        }
    }

    /// Packs the block `scratch` was last sorted into by
    /// [`ShiftBlocks::sort`] into batch slot `slot`: its `n` circular pairs,
    /// words `slot · ⌈n/64⌉..` of one bit-row per attribute.
    ///
    /// Every word of the slot is assigned, and bits past `n` are zero.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= scratch.slots()`, or `scratch` was made for
    /// other blocks or holds no sort.
    pub fn compare(&self, slot: usize, scratch: &mut ShiftScratch) {
        self.check(scratch);
        assert!(slot < scratch.slots, "batch slot out of range");
        if self.n > 0 {
            assert_eq!(scratch.order.len(), self.n + 1, "compare before sort");
            let base = slot * self.n.div_ceil(64);
            match &self.layout {
                Layout::Columns { columns, .. } => gather_block(columns, scratch, base),
                Layout::Rows8(m) => self.rows_block(m, scratch, base),
                Layout::Rows16(m) => self.rows_block(m, scratch, base),
                Layout::Rows32(m) => self.rows_block(m, scratch, base),
            }
        }
    }

    /// Adds the batch in `scratch` into the pair-statistics counters: its
    /// slot `i` holds the block sorted by `attrs[i]`, compared by
    /// [`ShiftBlocks::compare`]. Returns the words of each row the Gram
    /// counted, `attrs.len() · ⌈n/64⌉`.
    ///
    /// One popcount Gram over the filled slots adds every block's pairs
    /// into `co_counts`. Its diagonal (`row AND row`) adds each row's
    /// popcount over the batch into `ones`. A block's own counts,
    /// `block_ones[attrs[i] * k..]`, are the popcounts of its slot; the
    /// last block's are the diagonal's less the others', so a one-block
    /// batch takes them from the diagonal alone, with no popcount pass.
    ///
    /// An empty `attrs` adds nothing.
    ///
    /// # Panics
    ///
    /// Panics if `attrs` is longer than [`ShiftScratch::slots`], `scratch`
    /// was made for other blocks, or a counter is too short.
    pub fn fold(
        &self,
        scratch: &ShiftScratch,
        attrs: &[usize],
        co_counts: &mut [u64],
        ones: &mut [u64],
        block_ones: &mut [u64],
    ) -> usize {
        self.check(scratch);
        assert!(attrs.len() <= scratch.slots, "batch past its slots");
        let Some((&last, filled)) = attrs.split_last() else {
            return 0;
        };
        let (k, w) = (self.k, self.n.div_ceil(64));
        let bits = &scratch.bits;
        let mut rest: Vec<u64> = (0..k).map(|a| co_counts[a * k + a]).collect();
        bits.gram_accumulate_words(attrs.len() * w, BitMatrix::DEFAULT_BLOCK_WORDS, co_counts);
        for (a, (rest, o)) in rest.iter_mut().zip(ones.iter_mut()).enumerate() {
            *rest = co_counts[a * k + a] - *rest;
            *o += *rest;
        }
        let mut slot_ones = vec![0; k];
        for (slot, &attr) in filled.iter().enumerate() {
            slot_ones.fill(0);
            bits.add_row_popcounts(slot * w..(slot + 1) * w, &mut slot_ones);
            for ((b, rest), &c) in block_ones[attr * k..(attr + 1) * k]
                .iter_mut()
                .zip(&mut rest)
                .zip(&slot_ones)
            {
                *b += c;
                *rest -= c;
            }
        }
        for (b, rest) in block_ones[last * k..(last + 1) * k].iter_mut().zip(rest) {
            *b += rest;
        }
        attrs.len() * w
    }

    /// Panics unless `scratch` was made by this call's
    /// [`ShiftBlocks::scratch`] (or one of the same shape).
    fn check(&self, scratch: &ShiftScratch) {
        assert!(
            scratch.slots <= self.batch_len()
                && (scratch.bits.rows(), scratch.bits.words_per_row())
                    == (self.k, scratch.slots * self.n.div_ceil(64)),
            "scratch of another call"
        );
    }

    /// The row-major block in `s.order`, compared by this call's copy into
    /// the slot whose words start at `base`.
    fn rows_block<T: Code>(&self, m: &RowMajor<T>, s: &mut ShiftScratch, base: usize) {
        match self.kernel {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `build` admits `Avx512bw` only where `detect` returns
            // it: the CPU has `avx512f` and `avx512bw`, which this enables.
            CompareKernel::Avx512bw => unsafe { rows_avx512bw(&m.cells, self.k, s, base) },
            _ => rows_portable(&m.cells, self.k, s, base),
        }
    }
}

/// Per-column gather of the rows in `s.order`: gathers and packs one
/// attribute at a time into the slot whose words start at `base`.
fn gather_block(columns: &[&[u32]], s: &mut ShiftScratch, base: usize) {
    // Plain locals, so the hot loops keep their pointers in registers
    // instead of reloading them after every store.
    let ShiftScratch {
        bits, order, codes, ..
    } = s;
    let n = order.len() - 1;
    codes.resize(n + 1, 0);
    let (order, gathered) = (&order[..n], &mut codes[..=n]);
    for (a, &col) in columns.iter().enumerate() {
        for (g, &r) in gathered.iter_mut().zip(order) {
            *g = col[r as usize];
        }
        gathered[n] = gathered[0];
        pack_adjacent_agreement(gathered, &mut bits.row_mut(a)[base..base + n.div_ceil(64)]);
    }
}

/// A lane width of the row-major layout: a code width and, for the
/// AVX-512BW copy, a narrow tile word.
trait Code: Copy + Default + Eq + TryFrom<u64> + std::fmt::Debug {
    /// The NULL sentinel: the width's maximum, above every stored code.
    const NULL: Self;
    /// Narrows a code the width was chosen to hold.
    fn narrow(code: u32) -> Self;
    /// Widens back to the dictionary code (`NULL` to [`NULL_CODE`]).
    fn widen(self) -> u32;
    /// Writes word `word` of attribute rows `0..k` from a tile of 64 pair
    /// words of this width: bit `j` of row `a` is bit `a` of pair `j`.
    ///
    /// # Safety
    ///
    /// SAFETY: the running CPU must support `avx512f` and `avx512bw`.
    #[cfg(target_arch = "x86_64")]
    unsafe fn transpose_tile(tile: &[Self], k: usize, bits: &mut BitMatrix, word: usize);
    /// One row's chunk of up to 64 cells in registers, with the mask of its
    /// cells that are not NULL, per register.
    #[cfg(target_arch = "x86_64")]
    type Chunk: Copy;
    /// Loads `row`, at most 64 cells, and tests it against the NULL
    /// sentinel. With `FULL` the row is 64 cells and every load is
    /// unmasked; otherwise lanes past the row are neither read nor live.
    ///
    /// # Safety
    ///
    /// SAFETY: the running CPU must support `avx512f` and `avx512bw`.
    #[cfg(target_arch = "x86_64")]
    unsafe fn load_chunk<const FULL: bool>(row: &[Self]) -> Self::Chunk;
    /// The agreement word of two loaded chunks: bit `a` is set where both
    /// hold cell `a` equal and `x`'s is live (not NULL).
    ///
    /// # Safety
    ///
    /// SAFETY: the running CPU must support `avx512f` and `avx512bw`.
    #[cfg(target_arch = "x86_64")]
    unsafe fn agree_chunk(x: Self::Chunk, y: Self::Chunk) -> u64;
}

/// Implements [`Code`] for one width: its NULL sentinel is the maximum,
/// and one 512-bit register holds `$lanes` cells under a `$mask`.
macro_rules! code {
    (
        $t:ty, $lanes:expr, $mask:ty,
        $load:ident, $eq:ident, $neq:ident, $set1:ident, $test:ident
    ) => {
        impl Code for $t {
            const NULL: $t = <$t>::MAX;
            #[inline]
            fn narrow(code: u32) -> $t {
                if code == NULL_CODE {
                    Self::NULL
                } else {
                    // fdx-allow: L001 the layout width is chosen above every code, so this cannot fail
                    <$t>::try_from(code).expect("layout width holds every code")
                }
            }
            #[inline]
            fn widen(self) -> u32 {
                if self == Self::NULL {
                    NULL_CODE
                } else {
                    u32::from(self)
                }
            }
            #[cfg(target_arch = "x86_64")]
            #[inline]
            #[target_feature(enable = "avx512f,avx512bw")]
            // SAFETY: the caller guarantees the features (trait contract).
            unsafe fn transpose_tile(tile: &[$t], k: usize, bits: &mut BitMatrix, word: usize) {
                use std::arch::x86_64::*;
                assert_eq!(tile.len(), 64, "a tile is 64 pairs");
                debug_assert!(k <= 512 / $lanes, "a tile word holds one bit per attribute");
                let mut regs = [_mm512_setzero_si512(); 64 / $lanes];
                for (reg, lanes) in regs.iter_mut().zip(tile.chunks_exact($lanes)) {
                    // SAFETY: `lanes` is 64 bytes inside the tile, and
                    // `loadu` has no alignment requirement.
                    *reg = unsafe { _mm512_loadu_si512(lanes.as_ptr().cast()) };
                }
                for a in 0..k {
                    let bit = $set1(1 << a);
                    let mut w = 0;
                    for (r, &reg) in regs.iter().enumerate() {
                        w |= u64::from($test(reg, bit)) << (r * $lanes);
                    }
                    bits.row_mut(a)[word] = w;
                }
            }
            #[cfg(target_arch = "x86_64")]
            type Chunk = (
                [std::arch::x86_64::__m512i; 64 / $lanes],
                [$mask; 64 / $lanes],
            );
            #[cfg(target_arch = "x86_64")]
            #[inline]
            #[target_feature(enable = "avx512f,avx512bw")]
            // SAFETY: the caller guarantees the features (trait contract).
            unsafe fn load_chunk<const FULL: bool>(row: &[$t]) -> Self::Chunk {
                use std::arch::x86_64::*;
                debug_assert!(row.len() <= 64 && (!FULL || row.len() == 64));
                let mut regs = [_mm512_setzero_si512(); 64 / $lanes];
                let mut live = [0; 64 / $lanes];
                for (r, (reg, live)) in regs.iter_mut().zip(&mut live).enumerate() {
                    let at = r * $lanes;
                    if FULL {
                        // SAFETY: a full row is 64 cells, so this register's
                        // cells lie inside it; `loadu` has no alignment
                        // requirement.
                        *reg = unsafe { _mm512_loadu_si512(row.as_ptr().add(at).cast()) };
                        *live = $neq(<$mask>::MAX, *reg, $set1(-1));
                    } else if at < row.len() {
                        let load = <$mask>::MAX >> ($lanes - (row.len() - at).min($lanes));
                        // SAFETY: only lanes set in `load`, cells inside the
                        // row, are read; AVX-512 never loads masked-off
                        // lanes (no fault) and zeroes them.
                        *reg = unsafe { $load(load, row.as_ptr().add(at).cast()) };
                        // The zeroed lanes are not live.
                        *live = $neq(load, *reg, $set1(-1));
                    }
                }
                (regs, live)
            }
            #[cfg(target_arch = "x86_64")]
            #[inline]
            #[target_feature(enable = "avx512f,avx512bw")]
            // SAFETY: the caller guarantees the features (trait contract).
            unsafe fn agree_chunk(x: Self::Chunk, y: Self::Chunk) -> u64 {
                use std::arch::x86_64::*;
                let mut word = 0;
                for (r, ((&x, &live), &y)) in x.0.iter().zip(&x.1).zip(&y.0).enumerate() {
                    word |= u64::from($eq(live, x, y)) << (r * $lanes);
                }
                word
            }
        }
    };
}

code!(
    u8,
    64,
    u64,
    _mm512_maskz_loadu_epi8,
    _mm512_mask_cmpeq_epi8_mask,
    _mm512_mask_cmpneq_epi8_mask,
    _mm512_set1_epi8,
    _mm512_test_epi8_mask
);
code!(
    u16,
    32,
    u32,
    _mm512_maskz_loadu_epi16,
    _mm512_mask_cmpeq_epi16_mask,
    _mm512_mask_cmpneq_epi16_mask,
    _mm512_set1_epi16,
    _mm512_test_epi16_mask
);
code!(
    u32,
    16,
    u16,
    _mm512_maskz_loadu_epi32,
    _mm512_mask_cmpeq_epi32_mask,
    _mm512_mask_cmpneq_epi32_mask,
    _mm512_set1_epi32,
    _mm512_test_epi32_mask
);

impl<T: Code> RowMajor<T> {
    /// Writes each source row `r` at its shuffled position `i`
    /// (`shuffled[i] = r`), so every column is read in order.
    fn new(columns: &[&[u32]], shuffled: &[u32]) -> RowMajor<T> {
        let (n, k) = (shuffled.len(), columns.len());
        let mut at = vec![0; n];
        for (i, &r) in shuffled.iter().enumerate() {
            at[r as usize] = i;
        }
        let mut cells = vec![T::NULL; n * k];
        for (r, &i) in at.iter().enumerate() {
            for (cell, col) in cells[i * k..i * k + k].iter_mut().zip(columns) {
                *cell = T::narrow(col[r]);
            }
        }
        RowMajor { cells }
    }

    /// The codes of attribute `attr` in position order, NULL as
    /// [`NULL_CODE`].
    fn column(&self, k: usize, attr: usize) -> impl ExactSizeIterator<Item = u32> + '_ {
        self.cells.iter().skip(attr).step_by(k).map(|c| c.widen())
    }
}

/// The row-major tile loop, inlined into each compare copy.
///
/// The pairs `(order[r], order[r + 1])`, `r < n = order.len() − 1`, run in
/// tiles of 64: `pair(tile, j, x, y)` compares the two rows of the tile's
/// pair `j` into the tile, and `transpose(tile, bits, t)` turns the `t`-th
/// tile into its word of every attribute row. Pairs past `n` in the last
/// tile are zeroed first, so they leave zero bits.
#[inline(always)]
fn rows_body<T: Code, W: Copy + Default>(
    cells: &[T],
    k: usize,
    order: &[u32],
    bits: &mut BitMatrix,
    tile: &mut [W],
    mut pair: impl FnMut(&mut [W], usize, &[T], &[T]),
    mut transpose: impl FnMut(&mut [W], &mut BitMatrix, usize),
) {
    let n = order.len() - 1;
    for (word, lo) in (0..n).step_by(64).enumerate() {
        let hi = (lo + 64).min(n);
        if hi - lo < 64 {
            tile.fill(W::default());
        }
        for (j, p) in order[lo..=hi].windows(2).enumerate() {
            let (x, y) = (p[0] as usize * k, p[1] as usize * k);
            pair(tile, j, &cells[x..x + k], &cells[y..y + k]);
        }
        transpose(tile, bits, word);
    }
}

/// The portable copy: each pair into 0/1 bytes, packed to one word per
/// 64-attribute chunk, and a 64 × 64 transpose per chunk.
fn rows_portable<T: Code>(cells: &[T], k: usize, s: &mut ShiftScratch, base: usize) {
    let ShiftScratch {
        bits,
        order,
        eq,
        tile,
        ..
    } = s;
    let eq = &mut eq[..];
    rows_body(
        cells,
        k,
        order,
        bits,
        tile,
        |tile, j, x, y| {
            agree(x, y, &mut eq[..k]);
            for (c, eq) in eq.chunks_exact(64).enumerate() {
                tile[c * 64 + j] = pack64(eq);
            }
        },
        |tile, bits, t| {
            for (c, tile) in tile.chunks_exact_mut(64).enumerate() {
                transpose64(tile);
                for (i, &w) in tile.iter().enumerate().take(k - c * 64) {
                    bits.row_mut(c * 64 + i)[base + t] = w;
                }
            }
        },
    );
}

/// The AVX-512BW copy: masked compares straight into agreement words.
///
/// Up to 32 attributes, a pair's word fits the narrowest of
/// `u8`/`u16`/`u32`, so a 64-pair tile is one, two or four registers and
/// each attribute's block word is one `vptestm` per register
/// ([`narrow_tiles`]). Wider rows take 64-bit chunk words and a 64 × 64
/// transpose ([`wide_tiles`]), which measured faster there than eight
/// `vptestmq` per attribute.
///
/// # Safety
///
/// SAFETY: the running CPU must support `avx512f` and `avx512bw`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn rows_avx512bw<T: Code>(cells: &[T], k: usize, s: &mut ShiftScratch, base: usize) {
    let ShiftScratch { bits, order, .. } = s;
    // SAFETY: this copy runs only where `avx512f` and `avx512bw` were
    // detected, the features `narrow_tiles` and `wide_tiles` enable.
    unsafe {
        match k {
            0..=8 => narrow_tiles::<T, u8>(cells, k, order, bits, base),
            9..=16 => narrow_tiles::<T, u16>(cells, k, order, bits, base),
            17..=32 => narrow_tiles::<T, u32>(cells, k, order, bits, base),
            _ => wide_tiles(cells, k, order, bits, base),
        }
    }
}

/// [`rows_body`] over a 64-entry tile of `W`, for `k` up to `W`'s width.
///
/// # Safety
///
/// SAFETY: the running CPU must support `avx512f` and `avx512bw`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn narrow_tiles<T: Code, W: Code>(
    cells: &[T],
    k: usize,
    order: &[u32],
    bits: &mut BitMatrix,
    base: usize,
) {
    rows_body(
        cells,
        k,
        order,
        bits,
        &mut [W::default(); 64],
        |tile, j, x, y| {
            // SAFETY: this copy runs only where `avx512f` and `avx512bw`
            // were detected, the features `load_chunk` and `agree_chunk`
            // need.
            let (x, y) = unsafe { (T::load_chunk::<false>(x), T::load_chunk::<false>(y)) };
            // SAFETY: as above.
            let word = unsafe { T::agree_chunk(x, y) };
            // `k` attributes set at most `k` low bits, which `W` holds.
            tile[j] = W::try_from(word).unwrap_or_default();
        },
        // SAFETY: as above, for the features `transpose_tile` needs.
        |tile, bits, t| unsafe { W::transpose_tile(tile, k, bits, base + t) },
    );
}

/// 64 pair words of one 64-attribute chunk, aligned for the eight 512-bit
/// loads and stores of [`transpose64_zmm`].
#[cfg(target_arch = "x86_64")]
#[repr(C, align(64))]
struct Tile([u64; 64]);

/// The AVX-512BW copy above 32 attributes: for each tile of 64 pairs, one
/// 64-attribute chunk at a time, 64 chunk words ([`chunk_words`]) and
/// their transpose in registers ([`transpose64_zmm`]), written as word
/// `base + t` of the chunk's attribute rows for the `t`-th tile.
///
/// # Safety
///
/// SAFETY: the running CPU must support `avx512f` and `avx512bw`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn wide_tiles<T: Code>(
    cells: &[T],
    k: usize,
    order: &[u32],
    bits: &mut BitMatrix,
    base: usize,
) {
    let n = order.len() - 1;
    let mut tile = Tile([0; 64]);
    for (word, lo) in (0..n).step_by(64).enumerate() {
        let rows = &order[lo..=(lo + 64).min(n)];
        for at in (0..k).step_by(64) {
            let len = (k - at).min(64);
            let words = &mut tile.0[..rows.len() - 1];
            // SAFETY: this copy runs only where `avx512f` and `avx512bw`
            // were detected, the features `chunk_words` enables.
            unsafe {
                if len == 64 {
                    chunk_words::<T, true>(cells, k, at..at + len, rows, words);
                } else {
                    chunk_words::<T, false>(cells, k, at..at + len, rows, words);
                }
            }
            // Pairs past `n` in the last tile leave zero bits.
            tile.0[rows.len() - 1..].fill(0);
            // SAFETY: as above, for the feature `transpose64_zmm` needs.
            unsafe { transpose64_zmm(&mut tile) };
            for (a, &w) in tile.0[..len].iter().enumerate() {
                bits.row_mut(at + a)[base + word] = w;
            }
        }
    }
}

/// The agreement words of consecutive rows on the cells `chunk` of each
/// row: `words[j]` for rows `rows[j]` and `rows[j + 1]`.
///
/// Each row is loaded and NULL-tested once: pair `j`'s second row carries
/// over as pair `j + 1`'s first. With `FULL` the chunk is 64 cells and
/// every load is unmasked.
///
/// # Safety
///
/// SAFETY: the running CPU must support `avx512f` and `avx512bw`.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
// SAFETY: the caller guarantees the features (`# Safety` above).
unsafe fn chunk_words<T: Code, const FULL: bool>(
    cells: &[T],
    k: usize,
    chunk: std::ops::Range<usize>,
    rows: &[u32],
    words: &mut [u64],
) {
    let row = |r: u32| &cells[r as usize * k..][chunk.clone()];
    // SAFETY: the caller detected the features `load_chunk` needs.
    let mut x = unsafe { T::load_chunk::<FULL>(row(rows[0])) };
    for (word, &r) in words.iter_mut().zip(&rows[1..]) {
        // SAFETY: as above, for `load_chunk` and `agree_chunk`.
        let y = unsafe { T::load_chunk::<FULL>(row(r)) };
        // SAFETY: as above.
        *word = unsafe { T::agree_chunk(x, y) };
        x = y;
    }
}

/// [`transpose64`] in eight `zmm` registers: bit `j` of `m[i]` becomes bit
/// `i` of `m[j]`.
///
/// Row `i` sits in lane `i % 8` of register `i / 8`, and the rounds are
/// [`transpose64`]'s. Rows 32, 16 and 8 apart are in registers 4, 2 and 1
/// apart, lane for lane; rows 4, 2 and 1 apart are lanes of one register,
/// which `vpermq` brings together. In a round of width `w`, the lower row
/// of a pair keeps its bits outside the round's high mask and takes its
/// partner's bits `w` below them, and the upper row keeps its bits outside
/// the low mask and takes its partner's bits `w` above them: one shift or
/// per-lane rotate and one `vpternlogq` select per register. AVX-512F
/// only.
///
/// # Safety
///
/// SAFETY: the running CPU must support `avx512f`.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx512f")]
// SAFETY: the caller guarantees the feature (`# Safety` above).
unsafe fn transpose64_zmm(m: &mut Tile) {
    use std::arch::x86_64::*;
    // `keep` where `sel` is clear, `moved` where it is set: truth table
    // 0xCA is `A ? B : C`.
    let select = |sel, moved, keep| _mm512_ternarylogic_epi64::<0xCA>(sel, moved, keep);
    let mut r: [__m512i; 8] = std::array::from_fn(|i| {
        // SAFETY: words `8i..8i + 8` lie inside the 64-byte-aligned tile.
        unsafe { _mm512_load_si512(m.0.as_ptr().add(8 * i).cast()) }
    });
    for (round, &mask) in TRANSPOSE_MASKS[..3].iter().enumerate() {
        let w = 32u32 >> round;
        let count = _mm512_set1_epi64(i64::from(w));
        let (low, high) = (
            _mm512_set1_epi64(mask as i64),
            _mm512_set1_epi64((mask << w) as i64),
        );
        let apart = (w / 8) as usize;
        for lo in (0..8).filter(|i| i & apart == 0) {
            let (a, b) = (r[lo], r[lo + apart]);
            r[lo] = select(high, _mm512_sllv_epi64(b, count), a);
            r[lo + apart] = select(low, _mm512_srlv_epi64(a, count), b);
        }
    }
    let lane = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);
    for (round, &mask) in TRANSPOSE_MASKS.iter().enumerate().skip(3) {
        let w = 32u32 >> round;
        let apart = _mm512_set1_epi64(i64::from(w));
        let partner = _mm512_xor_si512(lane, apart);
        // Lanes whose row is the upper one of its pair.
        let upper = _mm512_test_epi64_mask(lane, apart);
        let sel = _mm512_mask_blend_epi64(
            upper,
            _mm512_set1_epi64((mask << w) as i64),
            _mm512_set1_epi64(mask as i64),
        );
        // Rotating left by `64 − w` is rotating right by `w`; the bits a
        // rotation wraps around are never selected.
        let count = _mm512_mask_blend_epi64(upper, apart, _mm512_set1_epi64(i64::from(64 - w)));
        for reg in &mut r {
            let moved = _mm512_rolv_epi64(_mm512_permutexvar_epi64(partner, *reg), count);
            *reg = select(sel, moved, *reg);
        }
    }
    for (i, &reg) in r.iter().enumerate() {
        // SAFETY: as for the loads.
        unsafe { _mm512_store_si512(m.0.as_mut_ptr().add(8 * i).cast(), reg) };
    }
}

/// `eq[a] = 1` where rows `x` and `y` agree on attribute `a` (never on
/// NULL).
///
/// A plain lane-wise compare, which the auto-vectorizer turns into wide
/// compares over the whole row.
#[inline]
fn agree<T: Code>(x: &[T], y: &[T], eq: &mut [u8]) {
    for ((e, a), b) in eq.iter_mut().zip(x).zip(y) {
        *e = u8::from(*a == *b && *a != T::NULL);
    }
}

/// The low halves of the bit blocks [`transpose64`] swaps, for block widths
/// 32, 16, 8, 4, 2 and 1.
const TRANSPOSE_MASKS: [u64; 6] = [
    0x0000_0000_FFFF_FFFF,
    0x0000_FFFF_0000_FFFF,
    0x00FF_00FF_00FF_00FF,
    0x0F0F_0F0F_0F0F_0F0F,
    0x3333_3333_3333_3333,
    0x5555_5555_5555_5555,
];

/// Transposes a 64 × 64 bit matrix in place: bit `j` of `m[i]` becomes
/// bit `i` of `m[j]`.
///
/// Six rounds of block swaps (Hacker's Delight §7-3): round `w` swaps,
/// within every `2w × 2w` block, the upper-right `w × w` quarter (rows
/// `r`, high bits) with the lower-left one (rows `r + w`, low bits).
///
/// # Panics
///
/// Panics if `m` is not 64 words long.
fn transpose64(m: &mut [u64]) {
    assert_eq!(m.len(), 64, "a tile is 64 words");
    let mut w = 32;
    for mask in TRANSPOSE_MASKS {
        for base in (0..64).step_by(2 * w) {
            for r in base..base + w {
                let t = ((m[r] >> w) ^ m[r + w]) & mask;
                m[r + w] ^= t;
                m[r] ^= t << w;
            }
        }
        w /= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first word of the stream seeded with `z`: a hash of a counter.
    fn mix(z: u64) -> u64 {
        SplitMix64::new(z).next_u64()
    }

    /// `k` columns of `n` codes over a small domain, with NULLs and one
    /// cell forced to `max_code`.
    fn columns(n: usize, k: usize, max_code: u32, salt: u64) -> Vec<Vec<u32>> {
        (0..k)
            .map(|a| {
                (0..n)
                    .map(|i| {
                        let z = mix(salt ^ ((a * 1_000_003 + i) as u64));
                        match z % 11 {
                            0 => NULL_CODE,
                            _ if i == a % n => max_code,
                            _ => u32::try_from(z % 4).unwrap() + max_code.saturating_sub(3),
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// The block sorted by `attr`, compared into batch slot `slot`
    /// ([`ShiftBlocks::sort`], then [`ShiftBlocks::compare`]) and cut out of
    /// the batch as a `k × n` matrix.
    fn block(
        blocks: &ShiftBlocks<'_>,
        attr: usize,
        slot: usize,
        scratch: &mut ShiftScratch,
    ) -> BitMatrix {
        blocks.sort(attr, scratch);
        blocks.compare(slot, scratch);
        let w = blocks.n.div_ceil(64);
        let mut bits = BitMatrix::zeros(blocks.k, blocks.n);
        for a in 0..blocks.k {
            bits.row_mut(a)
                .copy_from_slice(&scratch.bits.row(a)[slot * w..(slot + 1) * w]);
        }
        bits
    }

    /// The blocks sorted by `attrs` by the definition: sort the shuffled
    /// rows with `sort_by_key`, compare circular neighbours bit by bit.
    fn reference(cols: &[Vec<u32>], seed: u64, attrs: &[usize]) -> Vec<BitMatrix> {
        let (k, n) = (cols.len(), cols[0].len());
        let mut shuffled: Vec<usize> = (0..n).collect();
        SplitMix64::new(seed).shuffle(&mut shuffled);
        attrs
            .iter()
            .map(|&attr| {
                let mut order = shuffled.clone();
                order.sort_by_key(|&r| cols[attr][r]);
                let mut bits = BitMatrix::zeros(k, n);
                for r in 0..n {
                    let (i, j) = (order[r], order[(r + 1) % n]);
                    for (a, col) in cols.iter().enumerate() {
                        if col[i] == col[j] && col[i] != NULL_CODE {
                            bits.set(a, r);
                        }
                    }
                }
                bits
            })
            .collect()
    }

    /// The copies this CPU can run, each as `(kernel, row_major)`: the
    /// gather, the portable row compare and, where the CPU has it, the
    /// AVX-512BW row compare. Prints a note when that one is skipped.
    fn runnable_copies(test: &str) -> Vec<(CompareKernel, bool)> {
        let mut copies = vec![
            (CompareKernel::Portable, false),
            (CompareKernel::Portable, true),
        ];
        if CompareKernel::detect() == CompareKernel::Avx512bw {
            copies.push((CompareKernel::Avx512bw, true));
        } else {
            eprintln!("{test}: this CPU lacks avx512f/avx512bw; the AVX-512BW copy is not run");
        }
        copies
    }

    /// Checks the blocks sorted by `attrs` of every copy against
    /// [`reference`], the `i`-th compared into batch slot `i` modulo the
    /// batch length.
    fn check_copies(
        copies: &[(CompareKernel, bool)],
        cols: &[Vec<u32>],
        attrs: &[usize],
        label: &str,
    ) {
        let views: Vec<&[u32]> = cols.iter().map(Vec::as_slice).collect();
        let want = reference(cols, 9, attrs);
        for &(kernel, row_major) in copies {
            let blocks = ShiftBlocks::build(&views, 9, kernel, row_major);
            let mut scratch = blocks.scratch(attrs.len());
            for (i, (&attr, want)) in attrs.iter().zip(&want).enumerate() {
                let slot = i % scratch.slots();
                assert_eq!(
                    &block(&blocks, attr, slot, &mut scratch),
                    want,
                    "{label} {kernel:?} row_major={row_major} attr={attr} slot={slot}"
                );
            }
        }
    }

    #[test]
    fn every_copy_packs_the_reference_bits() {
        let copies = runnable_copies("every_copy_packs_the_reference_bits");
        for (rows, k) in [(2, 1), (3, 31), (64, 33), (65, 64), (130, 65), (70, 129)] {
            // One row, and up to 63 and 64 rows, end the last 64-pair tile
            // at each of its tails.
            let mut ns = vec![1, rows.min(63), rows.min(64), rows];
            ns.dedup();
            for n in ns {
                for max_code in [3, 254, 255, 65_534, 65_535, 70_000] {
                    let cols = columns(n, k, max_code, u64::from(max_code) ^ n as u64);
                    let attrs: Vec<usize> = (0..k).collect();
                    check_copies(
                        &copies,
                        &cols,
                        &attrs,
                        &format!("n={n} k={k} max={max_code}"),
                    );
                }
            }
        }
    }

    #[test]
    fn compare_copies_pack_the_reference_bits_at_every_k() {
        // Every k to 66 crosses each tile width (u8/u16/u32 words up to 32
        // attributes, 64-bit chunks above) and every masked-load tail of
        // the 64-, 32- and 16-lane compares; 128 and 129 add whole chunks.
        // 63 to 65 rows end the last 64-pair tile one pair short of, at and
        // one pair past a full tile. Each block runs the same compare and
        // transpose, so three sort attributes per shape keep the debug run
        // short; `every_copy_packs_the_reference_bits` checks every block.
        let copies: Vec<_> = runnable_copies("compare_copies_pack_the_reference_bits_at_every_k")
            .into_iter()
            .filter(|&(_, row_major)| row_major)
            .collect();
        for k in (1..=66).chain([128, 129]) {
            let mut attrs = vec![0, k / 2, k - 1];
            attrs.dedup();
            for max_code in [254, 255, 65_534, 65_535, 70_000] {
                for n in [63, 64, 65, 100] {
                    let cols = columns(n, k, max_code, ((k as u64) << 20) ^ u64::from(max_code));
                    let label = format!("n={n} k={k} max={max_code}");
                    check_copies(&copies, &cols, &attrs, &label);
                }
            }
        }
    }

    /// Checks `agree_chunk` of two `load_chunk`s, masked and (at 64 cells)
    /// unmasked, on every row length to 64 against the byte compare, on
    /// rows cut out of two buffers so that each row ends where the buffers'
    /// 64 trailing cells, equal in both and not NULL, begin: any lane read
    /// past the row sets a bit past its length.
    #[cfg(target_arch = "x86_64")]
    fn check_chunks_read_only_their_rows<T: Code>(codes: impl Fn(u64) -> T) {
        let fill = |salt: u64| -> Vec<T> {
            (0..128u64)
                .map(|i| {
                    if i < 64 {
                        match mix(salt ^ i) % 5 {
                            0 => T::NULL,
                            z => codes(z),
                        }
                    } else {
                        codes(1)
                    }
                })
                .collect()
        };
        let (xs, ys) = (fill(1), fill(2));
        for len in 0..=64 {
            let (x, y) = (&xs[64 - len..64], &ys[64 - len..64]);
            let mut eq = vec![0u8; 64];
            agree(x, y, &mut eq[..len]);
            // SAFETY: the caller found `avx512f` and `avx512bw`.
            let (a, b) = unsafe { (T::load_chunk::<false>(x), T::load_chunk::<false>(y)) };
            // SAFETY: as above.
            assert_eq!(unsafe { T::agree_chunk(a, b) }, pack64(&eq), "len={len}");
            if len == 64 {
                // SAFETY: as above; a 64-cell row is loaded unmasked.
                let (a, b) = unsafe { (T::load_chunk::<true>(x), T::load_chunk::<true>(y)) };
                // SAFETY: as above.
                assert_eq!(unsafe { T::agree_chunk(a, b) }, pack64(&eq), "unmasked");
            }
        }
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn avx512bw_compare_reads_only_its_rows() {
        if CompareKernel::detect() != CompareKernel::Avx512bw {
            eprintln!("avx512bw_compare_reads_only_its_rows: this CPU lacks avx512f/avx512bw");
            return;
        }
        check_chunks_read_only_their_rows(|z| u8::try_from(z).unwrap());
        check_chunks_read_only_their_rows(|z| u16::try_from(z).unwrap());
        check_chunks_read_only_their_rows(|z| u32::try_from(z).unwrap());
    }

    #[test]
    fn layout_width_is_the_narrowest_above_every_code() {
        for kernel in [CompareKernel::Avx512bw, CompareKernel::Portable] {
            // The layout each copy picks, built under the portable copy so
            // the test runs on any CPU.
            let width = |max_code: u32, k: usize| {
                let cols = vec![vec![0, NULL_CODE, max_code]; k];
                let views: Vec<&[u32]> = cols.iter().map(Vec::as_slice).collect();
                let portable = CompareKernel::Portable;
                match ShiftBlocks::build(&views, 1, portable, kernel.row_major(k)).layout {
                    Layout::Rows8(_) => 8,
                    Layout::Rows16(_) => 16,
                    Layout::Rows32(_) => 32,
                    Layout::Columns { .. } => 0,
                }
            };
            assert_eq!(width(254, 32), 8, "{kernel:?}");
            assert_eq!(width(255, 32), 16, "{kernel:?}");
            assert_eq!(width(65_534, 32), 16, "{kernel:?}");
            assert_eq!(width(65_535, 32), 32, "{kernel:?}");
            // Below the crossover the portable copy gathers; the AVX-512BW
            // copy stays row-major at every `k`.
            let few = match kernel {
                CompareKernel::Avx512bw => 8,
                CompareKernel::Portable => 0,
            };
            assert_eq!(width(254, ROW_KERNEL_MIN_ATTRS - 1), few, "{kernel:?}");
            assert_eq!(width(254, 1), few, "{kernel:?}");
        }
        let few = vec![vec![0u32, 1]; ROW_KERNEL_MIN_ATTRS - 1];
        let views: Vec<&[u32]> = few.iter().map(Vec::as_slice).collect();
        assert_eq!(
            matches!(ShiftBlocks::new(&views, 1).layout, Layout::Columns { .. }),
            CompareKernel::detect() == CompareKernel::Portable
        );
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn register_transpose_matches_transpose64() {
        if CompareKernel::detect() != CompareKernel::Avx512bw {
            eprintln!("register_transpose_matches_transpose64: this CPU lacks avx512f/avx512bw");
            return;
        }
        for salt in 0..64u64 {
            let mut tile = Tile([0; 64]);
            for (i, w) in tile.0.iter_mut().enumerate() {
                // Sparse, dense and single-bit words.
                *w = match salt % 3 {
                    0 => mix(salt << 8 | i as u64),
                    1 => mix(salt << 8 | i as u64) & mix(!(salt << 8 | i as u64)),
                    _ => 1 << ((i as u64 * salt) % 64),
                };
            }
            let mut want = tile.0;
            transpose64(&mut want);
            // SAFETY: `detect` found `avx512f`.
            unsafe { transpose64_zmm(&mut tile) };
            assert_eq!(tile.0, want, "salt={salt}");
        }
    }

    #[test]
    fn transpose64_moves_every_bit() {
        let mut m = [0u64; 64];
        for (i, w) in m.iter_mut().enumerate() {
            *w = mix(i as u64);
        }
        let before = m;
        transpose64(&mut m);
        for (i, &row) in m.iter().enumerate() {
            for (j, &column) in before.iter().enumerate() {
                assert_eq!((row >> j) & 1, (column >> i) & 1, "({i},{j})");
            }
        }
    }

    #[test]
    fn scratch_is_reused_without_stale_bits() {
        let cols = columns(100, 40, 9, 3);
        let views: Vec<&[u32]> = cols.iter().map(Vec::as_slice).collect();
        let blocks = ShiftBlocks::new(&views, 5);
        let mut scratch = blocks.scratch(40);
        let first = block(&blocks, 0, 0, &mut scratch);
        for attr in 1..40 {
            block(&blocks, attr, attr % scratch.slots(), &mut scratch);
        }
        assert_eq!(block(&blocks, 0, 0, &mut scratch), first);
    }

    /// Folds the blocks sorted by every attribute of `cols` through a
    /// scratch asked for `blocks` slots, one batch of up to its slots at a
    /// time, and checks every counter against the [`reference`] blocks
    /// counted one by one. Returns the slots the scratch got.
    fn check_fold(copies: &[(CompareKernel, bool)], cols: &[Vec<u32>], blocks: usize) -> usize {
        let (k, n) = (cols.len(), cols[0].len());
        let views: Vec<&[u32]> = cols.iter().map(Vec::as_slice).collect();
        let attrs: Vec<usize> = (0..k).collect();
        let mut want_co = vec![0; k * k];
        let mut want_block_ones = vec![0; k * k];
        for (attr, bits) in reference(cols, 9, &attrs).iter().enumerate() {
            for (a, (co, gram)) in want_co.iter_mut().zip(bits.gram()).enumerate() {
                *co += gram;
                if a / k == a % k {
                    want_block_ones[attr * k + a / k] = gram;
                }
            }
        }
        let want_ones: Vec<u64> = (0..k).map(|a| want_co[a * k + a]).collect();
        let mut slots = 0;
        for &(kernel, row_major) in copies {
            let shift = ShiftBlocks::build(&views, 9, kernel, row_major);
            let mut scratch = shift.scratch(blocks);
            slots = scratch.slots();
            let (mut co, mut ones, mut block_ones) = (vec![0; k * k], vec![0; k], vec![0; k * k]);
            let mut words = 0;
            for batch in attrs.chunks(slots) {
                for (slot, &attr) in batch.iter().enumerate() {
                    shift.sort(attr, &mut scratch);
                    shift.compare(slot, &mut scratch);
                }
                words += shift.fold(&scratch, batch, &mut co, &mut ones, &mut block_ones);
            }
            let label = format!("n={n} k={k} {kernel:?} row_major={row_major}");
            assert_eq!(co, want_co, "{label}");
            assert_eq!(ones, want_ones, "{label}");
            assert_eq!(block_ones, want_block_ones, "{label}");
            assert_eq!(words, k * n.div_ceil(64), "{label}: padding counted");
        }
        slots
    }

    #[test]
    fn fold_counts_every_batch_as_its_blocks() {
        let copies = runnable_copies("fold_counts_every_batch_as_its_blocks");
        // Asked for every block: one batch of every block; full batches of
        // 32 and a last of 8; batches of 8 and a last of 4; one block per
        // batch above 32 768 rows. Asked for fewer slots than a batch holds,
        // as a worker with a short chunk asks: batches of 5 and a last of 3;
        // and one slot, for a request of none.
        for (n, k, blocks, slots) in [
            (300, 7, 7, 7),
            (1000, 40, 40, 32),
            (4000, 20, 20, 8),
            (32_769, 3, 3, 1),
            (1000, 33, 5, 5),
            (300, 7, 0, 1),
        ] {
            let cols = columns(n, k, 254, n as u64);
            let label = format!("n={n} k={k} blocks={blocks}");
            assert_eq!(check_fold(&copies, &cols, blocks), slots, "{label}");
        }
    }
}
