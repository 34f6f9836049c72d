//! Batched, bit-packed multi-sample bounded draws for the graph engine.
//!
//! The graph engine needs a handful of bounded uniform indices
//! per *(round, vertex)* cell — one per neighbor sample. Drawing each index
//! from its own 64-bit word pays a full SplitMix64 mix per sample; this
//! module amortizes that cost by packing **three 21-bit samples into one
//! RNG word** and mapping each lane into `[0, range)` with Lemire's
//! multiply-shift, rejecting biased lanes.
//!
//! # The documented sampling order (normative)
//!
//! Every consumer of a cell's index stream — batched, scalar, sequential,
//! sharded, or rayon-parallel — must produce bit-identical indices. The
//! order is defined as follows and enforced by proptests:
//!
//! 1. The word stream is `CellRng::for_cell(round_key, vertex)`: words
//!    `w₀, w₁, …`, each one SplitMix64 finalisation.
//! 2. **Packed path** (`1 ≤ range ≤ 2²¹`): each word is split into three
//!    21-bit lanes, **low bits first** — lane `j` of word `w` is
//!    `(w >> (21·j)) & 0x1F_FFFF` for `j = 0, 1, 2` (the top bit of the
//!    word is never used). Lanes are consumed strictly in stream order.
//!    A lane `ℓ` yields the sample `(ℓ·range) >> 21` and is **accepted**
//!    iff `(ℓ·range) mod 2²¹ ≥ (2²¹ − range) mod range` (Lemire's
//!    rejection test, which makes the accepted samples exactly uniform);
//!    rejected lanes are skipped. Once the requested number of samples is
//!    produced, the remaining lanes of the current word are discarded —
//!    the next request for the *same cell* would start at a fresh word
//!    (in the engine each cell makes exactly one request per round).
//! 3. **Wide path** (`range > 2²¹`): each sample consumes one full word
//!    via the 64-bit multiply-shift `(w · range) >> 64` — no rejection;
//!    the residual bias of `range/2⁶⁴` is immaterial next to Monte-Carlo
//!    noise and matches the engine's historical `sample_neighbor`.
//!
//! [`fill_indices_batched`] is the production implementation;
//! [`fill_indices_scalar`] is an intentionally naive lane-at-a-time
//! reference of the same order, kept for differential testing.

use crate::seeds::CellRng;
use rand::RngCore;

/// Largest range the 21-bit packed path can serve (inclusive): `2²¹`.
pub const MAX_PACKED_RANGE: u32 = 1 << 21;

/// Bit width of one packed lane.
const LANE_BITS: u32 = 21;

/// Mask of one packed lane.
const LANE_MASK: u64 = (1 << LANE_BITS) - 1;

/// Lanes per 64-bit word (`3 × 21 = 63` bits; the top bit is unused).
const LANES_PER_WORD: u32 = 3;

/// The Lemire rejection threshold for the packed path:
/// `(2²¹ − range) mod range` (equivalently `2²¹ mod range`). A lane is
/// accepted iff its low product half is `≥` this value.
///
/// # Panics
///
/// Panics if `range` is zero or exceeds [`MAX_PACKED_RANGE`].
#[must_use]
#[inline]
pub fn packed_threshold(range: u32) -> u32 {
    assert!(
        (1..=MAX_PACKED_RANGE).contains(&range),
        "packed_threshold: range {range} outside [1, 2^21]"
    );
    (MAX_PACKED_RANGE - range) % range
}

/// Memo of [`packed_threshold`] values keyed by range.
///
/// The threshold is a pure function of the range, so entries never go
/// stale and one memo can serve any number of graphs. The batched engine
/// keeps one per scratch buffer: irregular graphs (Erdős–Rényi, SBM)
/// would otherwise pay an integer division per vertex per round.
#[derive(Debug, Clone, Default)]
pub struct ThresholdMemo {
    /// `table[range] = threshold`, lazily filled (`u32::MAX` = unset;
    /// real thresholds are `< range ≤ 2²¹`).
    table: Vec<u32>,
}

impl ThresholdMemo {
    /// Creates an empty memo.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The threshold for `range`, computed once and cached.
    ///
    /// # Panics
    ///
    /// Panics if `range` is zero or exceeds [`MAX_PACKED_RANGE`].
    #[inline]
    pub fn threshold(&mut self, range: u32) -> u32 {
        let slot = range as usize;
        if slot >= self.table.len() {
            self.table.resize(slot + 1, u32::MAX);
        }
        let cached = self.table[slot];
        if cached != u32::MAX {
            return cached;
        }
        let t = packed_threshold(range);
        self.table[slot] = t;
        t
    }
}

/// Fills `out` with uniform samples in `[0, range)` from `cell`'s word
/// stream via the packed path, with a caller-precomputed threshold
/// (see [`packed_threshold`]; hoist it across vertices of equal degree).
///
/// # Panics
///
/// Panics if `range` is zero, exceeds [`MAX_PACKED_RANGE`], or
/// `threshold != packed_threshold(range)` (debug builds only).
#[inline]
pub fn fill_packed(cell: &mut CellRng, range: u32, threshold: u32, out: &mut [u32]) {
    debug_assert!((1..=MAX_PACKED_RANGE).contains(&range));
    debug_assert_eq!(threshold, packed_threshold(range));
    let d = u64::from(range);
    let t = u64::from(threshold);
    // The consensus protocols request 1–3 samples per cell, so the
    // three- and two-slot shapes get straight-line single-word fast
    // paths. When a lane is rejected the remaining lanes of that word
    // are consumed in order here and the general loop finishes from the
    // next word — the consumed lane order is identical either way.
    let len = out.len();
    if len == 3 {
        let word = cell.next_u64();
        let m0 = (word & LANE_MASK) * d;
        let m1 = ((word >> LANE_BITS) & LANE_MASK) * d;
        let m2 = ((word >> (2 * LANE_BITS)) & LANE_MASK) * d;
        if (m0 & LANE_MASK) >= t && (m1 & LANE_MASK) >= t && (m2 & LANE_MASK) >= t {
            out[0] = (m0 >> LANE_BITS) as u32;
            out[1] = (m1 >> LANE_BITS) as u32;
            out[2] = (m2 >> LANE_BITS) as u32;
            return;
        }
        // ≤ 2 lanes of this word were accepted; store them in order.
        let mut filled = 0usize;
        for m in [m0, m1, m2] {
            if (m & LANE_MASK) >= t {
                out[filled] = (m >> LANE_BITS) as u32;
                filled += 1;
            }
        }
        return fill_packed_general(cell, d, t, out, filled);
    }
    if len == 2 {
        let word = cell.next_u64();
        let m0 = (word & LANE_MASK) * d;
        let m1 = ((word >> LANE_BITS) & LANE_MASK) * d;
        if (m0 & LANE_MASK) >= t && (m1 & LANE_MASK) >= t {
            out[0] = (m0 >> LANE_BITS) as u32;
            out[1] = (m1 >> LANE_BITS) as u32;
            return;
        }
        // A rejection among the first two lanes: lane 2 of this word is
        // still in play for the remaining slot(s).
        let m2 = ((word >> (2 * LANE_BITS)) & LANE_MASK) * d;
        let mut filled = 0usize;
        for m in [m0, m1, m2] {
            if filled < 2 && (m & LANE_MASK) >= t {
                out[filled] = (m >> LANE_BITS) as u32;
                filled += 1;
            }
        }
        if filled < 2 {
            fill_packed_general(cell, d, t, out, filled);
        }
        return;
    }
    fill_packed_general(cell, d, t, out, 0);
}

/// The general lane-ordered loop behind [`fill_packed`]: fills
/// `out[filled..]` from fresh words of `cell`.
fn fill_packed_general(cell: &mut CellRng, d: u64, t: u64, out: &mut [u32], filled: usize) {
    let mut filled = filled;
    while filled < out.len() {
        let word = cell.next_u64();
        for lane_index in 0..LANES_PER_WORD {
            let lane = (word >> (LANE_BITS * lane_index)) & LANE_MASK;
            let m = lane * d;
            if (m & LANE_MASK) >= t {
                out[filled] = (m >> LANE_BITS) as u32;
                filled += 1;
                if filled == out.len() {
                    return;
                }
            }
        }
    }
}

/// Fills `out` with samples in `[0, range)` via the wide path: one full
/// word and a 64-bit multiply-shift per sample.
///
/// # Panics
///
/// Panics if `range` is zero or exceeds `2³²` (samples are `u32`).
#[inline]
pub fn fill_wide(cell: &mut CellRng, range: u64, out: &mut [u32]) {
    assert!(
        (1..=1u64 << 32).contains(&range),
        "fill_wide: range {range} outside [1, 2^32]"
    );
    for slot in out {
        *slot = ((u128::from(cell.next_u64()) * u128::from(range)) >> 64) as u32;
    }
}

/// A cell's multi-sample index generator: the [`CellRng`] word stream plus
/// the packed/wide dispatch of the documented order.
///
/// # Examples
///
/// ```
/// use od_sampling::batched::BatchedCellRng;
/// use od_sampling::seeds::round_key;
/// let rk = round_key(7, 3);
/// let mut a = BatchedCellRng::for_cell(rk, 41);
/// let mut b = BatchedCellRng::for_cell(rk, 41);
/// let (mut xs, mut ys) = ([0u32; 5], [0u32; 5]);
/// a.fill_indices(10, &mut xs);
/// b.fill_indices(10, &mut ys);
/// assert_eq!(xs, ys);
/// assert!(xs.iter().all(|&x| x < 10));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchedCellRng {
    cell: CellRng,
}

impl BatchedCellRng {
    /// Constructs the generator of one `(round, vertex)` cell from a
    /// precomputed [`crate::seeds::round_key`].
    #[must_use]
    #[inline]
    pub fn for_cell(round_key: u64, vertex: u64) -> Self {
        Self {
            cell: CellRng::for_cell(round_key, vertex),
        }
    }

    /// Fills `out` with uniform samples in `[0, range)` in the documented
    /// order, dispatching between the packed and wide paths.
    ///
    /// # Panics
    ///
    /// Panics if `range` is zero or exceeds `2³²`.
    #[inline]
    pub fn fill_indices(&mut self, range: u64, out: &mut [u32]) {
        assert!(range >= 1, "fill_indices: range must be positive");
        if range <= u64::from(MAX_PACKED_RANGE) {
            let r = range as u32;
            fill_packed(&mut self.cell, r, packed_threshold(r), out);
        } else {
            fill_wide(&mut self.cell, range, out);
        }
    }
}

/// Convenience form of [`BatchedCellRng::fill_indices`] for one cell.
///
/// # Panics
///
/// Panics if `range` is zero or exceeds `2³²`.
#[inline]
pub fn fill_indices_batched(round_key: u64, vertex: u64, range: u64, out: &mut [u32]) {
    BatchedCellRng::for_cell(round_key, vertex).fill_indices(range, out);
}

/// Naive lane-at-a-time reference implementation of the documented order,
/// for differential testing of [`fill_indices_batched`]. Pulls one lane
/// (or, on the wide path, one word) per iteration with no batching.
pub fn fill_indices_scalar(round_key: u64, vertex: u64, range: u64, out: &mut [u32]) {
    assert!(range >= 1, "fill_indices_scalar: range must be positive");
    let mut cell = CellRng::for_cell(round_key, vertex);
    if range > u64::from(MAX_PACKED_RANGE) {
        assert!(range <= 1 << 32, "fill_indices_scalar: range too large");
        for slot in out {
            *slot = ((u128::from(cell.next_u64()) * u128::from(range)) >> 64) as u32;
        }
        return;
    }
    let t = u64::from(packed_threshold(range as u32));
    // A lane cursor over the word stream: lane 0, 1, 2 of word 0, then of
    // word 1, and so on.
    let mut word = 0u64;
    let mut lanes_left = 0u32;
    let mut next_lane = move |cell: &mut CellRng| {
        if lanes_left == 0 {
            word = cell.next_u64();
            lanes_left = LANES_PER_WORD;
        }
        let lane = word & LANE_MASK;
        word >>= LANE_BITS;
        lanes_left -= 1;
        lane
    };
    for slot in out {
        loop {
            let m = next_lane(&mut cell) * range;
            if (m & LANE_MASK) >= t {
                *slot = (m >> LANE_BITS) as u32;
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batched(range: u64, vertex: u64, count: usize) -> Vec<u32> {
        let mut out = vec![0u32; count];
        fill_indices_batched(0xABCD_EF01, vertex, range, &mut out);
        out
    }

    fn scalar(range: u64, vertex: u64, count: usize) -> Vec<u32> {
        let mut out = vec![0u32; count];
        fill_indices_scalar(0xABCD_EF01, vertex, range, &mut out);
        out
    }

    #[test]
    fn batched_matches_scalar_over_ranges_and_counts() {
        // Sweep small ranges and every refill boundary: counts that are
        // 0, 1, and 2 mod 3 cross word boundaries differently.
        for range in [1u64, 2, 3, 7, 10, 64, 1000, 4097] {
            for count in [1usize, 2, 3, 4, 5, 6, 7, 9, 10, 31] {
                for vertex in [0u64, 1, 999] {
                    assert_eq!(
                        batched(range, vertex, count),
                        scalar(range, vertex, count),
                        "range {range}, count {count}, vertex {vertex}"
                    );
                }
            }
        }
    }

    #[test]
    fn range_one_is_all_zeros() {
        assert_eq!(batched(1, 5, 7), vec![0u32; 7]);
    }

    #[test]
    fn edge_ranges_near_the_packing_limit() {
        // 2²¹ − 1, 2²¹ (threshold 0 — the exact-divisor case), and
        // 2²¹ + 1 (first wide range) must all stay in bounds and match
        // the scalar reference.
        for range in [
            u64::from(MAX_PACKED_RANGE) - 1,
            u64::from(MAX_PACKED_RANGE),
            u64::from(MAX_PACKED_RANGE) + 1,
        ] {
            let xs = batched(range, 3, 16);
            assert_eq!(xs, scalar(range, 3, 16), "range {range}");
            assert!(
                xs.iter().all(|&x| u64::from(x) < range),
                "range {range}: out of bounds"
            );
        }
        // 2²¹ has threshold 0: every lane is accepted, and the identity
        // map means lanes come straight through.
        assert_eq!(packed_threshold(MAX_PACKED_RANGE), 0);
    }

    #[test]
    fn rejection_heavy_range_still_matches_and_stays_uniform() {
        // range = 2²⁰ + 1 maximizes the rejection probability (threshold
        // ≈ 2²⁰, so nearly half the lanes are rejected): the strongest
        // exercise of the refill path.
        let range = (1u64 << 20) + 1;
        let t = packed_threshold(range as u32);
        assert!(u64::from(t) > LANE_MASK / 3, "want a high-rejection range");
        for count in [1usize, 2, 3, 4, 8, 33] {
            assert_eq!(batched(range, 9, count), scalar(range, 9, count));
        }
        // Two-bucket uniformity across many cells.
        let mut low = 0u64;
        let cells = 40_000u64;
        for v in 0..cells {
            let mut out = [0u32; 1];
            fill_indices_batched(0x5EED, v, range, &mut out);
            low += u64::from(u64::from(out[0]) < range / 2);
        }
        let frac = low as f64 / cells as f64;
        assert!((frac - 0.5).abs() < 0.02, "low fraction {frac}");
    }

    #[test]
    fn thresholds_are_correct_and_memoized() {
        // 2²¹ mod range, by definition.
        for range in [1u32, 2, 3, 5, 1000, MAX_PACKED_RANGE - 1, MAX_PACKED_RANGE] {
            assert_eq!(
                u64::from(packed_threshold(range)),
                (1u64 << 21) % u64::from(range),
                "range {range}"
            );
        }
        let mut memo = ThresholdMemo::new();
        assert_eq!(memo.threshold(12), packed_threshold(12));
        assert_eq!(memo.threshold(12), packed_threshold(12));
        assert_eq!(memo.threshold(7), packed_threshold(7));
        assert_eq!(memo.threshold(MAX_PACKED_RANGE), 0);
    }

    #[test]
    fn cells_are_independent() {
        let a = batched(100, 1, 8);
        let b = batched(100, 2, 8);
        assert_ne!(a, b, "adjacent cells must not produce identical draws");
    }

    #[test]
    fn fill_is_uniform_across_cells_small_range() {
        // Pool the first sample of many cells over range 8 (the engine's
        // dominant consumption shape) and bucket-count.
        let mut counts = [0u64; 8];
        let cells = 80_000u64;
        for v in 0..cells {
            let mut out = [0u32; 3];
            fill_indices_batched(0xFACE, v, 8, &mut out);
            for &x in &out {
                counts[x as usize] += 1;
            }
        }
        let expect = (cells * 3) as f64 / 8.0;
        for (bucket, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expect).abs() < 6.0 * expect.sqrt(),
                "bucket {bucket}: {c} vs {expect}"
            );
        }
    }

    #[test]
    fn wide_path_covers_large_ranges() {
        let range = (1u64 << 22) + 3;
        let xs = batched(range, 0, 64);
        assert!(xs.iter().all(|&x| u64::from(x) < range));
        assert_eq!(xs, scalar(range, 0, 64));
    }

    #[test]
    #[should_panic(expected = "range must be positive")]
    fn zero_range_is_rejected() {
        let mut out = [0u32; 1];
        fill_indices_batched(0, 0, 0, &mut out);
    }
}
