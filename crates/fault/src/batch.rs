//! Cross-row batch planning: fill every simulation lane.
//!
//! Simulated on its own, each triplet's `τ + 1` expanded patterns pay
//! for full 64-lane blocks whether they fill them or not — at the
//! default `τ = 31` half of every block is dead, at `τ = 3` it is 94 %.
//! A [`BatchPlan`] removes that waste by concatenating the pattern
//! streams of many rows into *shared* blocks: each block carries up to
//! `64·W` consecutive patterns of the global stream (`W` is the plan's
//! SIMD width in words, see [`fbist_bits::simd::width_for`]), and a
//! [`LaneGroup`] records which lanes belong to which row. The good
//! circuit is then evaluated once per shared block and each fault's cone
//! is propagated once per shared block, cutting both counts by up to
//! `64·W / (τ + 1)` versus simulating each row alone.
//!
//! Detection attribution is exact: a row's first detection of a fault is
//! its lowest lane, over all of its groups, that differs at a primary
//! output, which is precisely what [`FaultSimulator::run`] records on the
//! row alone — so the batched rows are bit-identical to per-row ones (see
//! [`FaultSimulator::first_detections_blocks`]). The same argument makes
//! the result independent of `W`: a `W`-wide block is exactly `W`
//! consecutive 64-lane blocks evaluated together, lanes keep their flat
//! stream order, and first-detection minimums reduce in that order.
//!
//! [`FaultSimulator::run`]: crate::FaultSimulator::run
//! [`FaultSimulator::first_detections_blocks`]: crate::FaultSimulator::first_detections_blocks

use std::ops::Range;

use fbist_bits::{pack, simd, SimWord, SIMD_WIDTHS};

/// One row's contiguous run of lanes within one shared block.
///
/// A row whose stream straddles a block boundary is split into several
/// groups in consecutive blocks; `start` locates each group's first
/// pattern within the row's own stream. Lane offsets and lengths are
/// *flat* lane indices in `0..64·W`, so they need `u16` (a `W = 8` block
/// has 512 lanes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneGroup {
    /// Row index in the batch.
    pub row: u32,
    /// Index of the group's first pattern within the row's stream.
    pub start: u32,
    /// First flat lane the group occupies in the block.
    pub lane_offset: u16,
    /// Number of lanes (= patterns) in the group.
    pub len: u16,
}

impl LaneGroup {
    /// The flat block lanes this group occupies, as a width-`W` mask.
    #[inline]
    pub fn mask<const W: usize>(&self) -> SimWord<W> {
        pack::lane_group_mask(self.lane_offset as usize, self.len as usize)
    }
}

/// One shared block of the plan (up to `64·W` lanes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchBlock {
    /// The lane groups sharing the block, in ascending lane order (and
    /// therefore ascending row order — the stream is concatenated in row
    /// index order). Never empty.
    pub groups: Vec<LaneGroup>,
    /// Total occupied lanes (`≤ 64·W`; every block except possibly the
    /// last is full).
    pub lanes_used: usize,
}

/// The shared-block layout for a batch of rows.
///
/// Built from the row lengths alone: the SIMD width is the one rule's
/// pick for the total lane count ([`simd::width_for`]), so lane
/// assignment is a pure function of `row_lengths`, and a plan computed
/// once can drive any number of simulations and any partition of its
/// blocks across workers. The width is carried by the plan, which is how
/// the batched fault-simulation engines know which monomorphised sweep to
/// dispatch to.
///
/// # Example
///
/// ```
/// use fbist_fault::BatchPlan;
///
/// // 20 rows of 6 patterns each (τ = 5): 120 lanes in one 128-lane
/// // (W = 2) block instead of the 20 blocks the per-row build would
/// // evaluate.
/// let plan = BatchPlan::new(&[6; 20]);
/// assert_eq!(plan.width_words(), 2);
/// assert_eq!(plan.block_count(), 1);
/// assert_eq!(plan.total_lanes(), 120);
/// assert!(plan.occupancy() > 0.9);
/// // 90 rows (540 lanes) widen to 512-lane blocks; one row straddles
/// // the block boundary and splits into two lane groups
/// let plan = BatchPlan::new(&[6; 90]);
/// assert_eq!((plan.width_words(), plan.block_count()), (8, 2));
/// let groups: usize = plan.blocks().iter().map(|b| b.groups.len()).sum();
/// assert_eq!(groups, 91);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchPlan {
    blocks: Vec<BatchBlock>,
    rows: usize,
    total_lanes: usize,
    width_words: usize,
}

impl BatchPlan {
    /// Plans shared blocks for rows of the given pattern-stream lengths,
    /// concatenating streams in row order, at the width
    /// [`simd::width_for`] picks for their total lane count. Zero-length
    /// rows occupy no lanes (they simply detect nothing).
    ///
    /// # Panics
    ///
    /// Panics if the total lane count overflows `usize` (callers building
    /// rows from `τ + 1`-pattern expansions are bounded long before this
    /// by `FlowConfig::MAX_TAU`, but the planner checks rather than
    /// wrapping silently in release builds).
    pub fn new(row_lengths: &[usize]) -> BatchPlan {
        BatchPlan::with_width(row_lengths, simd::width_for(total_lanes(row_lengths)))
    }

    /// [`new`](Self::new) at a forced width, for the in-crate tests that
    /// pin every width against the others.
    ///
    /// # Panics
    ///
    /// Panics if `width_words` is not one of `1, 2, 4, 8`, or as
    /// [`new`](Self::new) does.
    pub(crate) fn with_width(row_lengths: &[usize], width_words: usize) -> BatchPlan {
        assert!(
            SIMD_WIDTHS.contains(&width_words),
            "BatchPlan: unsupported SIMD width {width_words} (expected one of {SIMD_WIDTHS:?})"
        );
        let capacity = pack::BLOCK * width_words;
        let total_lanes = total_lanes(row_lengths);
        let mut blocks = Vec::with_capacity(total_lanes.div_ceil(capacity));
        let mut cur = BatchBlock {
            groups: Vec::new(),
            lanes_used: 0,
        };
        for (row, &len) in row_lengths.iter().enumerate() {
            let mut start = 0usize;
            while start < len {
                if cur.lanes_used == capacity {
                    blocks.push(std::mem::replace(
                        &mut cur,
                        BatchBlock {
                            groups: Vec::new(),
                            lanes_used: 0,
                        },
                    ));
                }
                let seg = (len - start).min(capacity - cur.lanes_used);
                cur.groups.push(LaneGroup {
                    row: row as u32,
                    start: start as u32,
                    lane_offset: cur.lanes_used as u16,
                    len: seg as u16,
                });
                cur.lanes_used += seg;
                start += seg;
            }
        }
        if cur.lanes_used > 0 {
            blocks.push(cur);
        }
        BatchPlan {
            blocks,
            rows: row_lengths.len(),
            total_lanes,
            width_words,
        }
    }

    /// The planned blocks, in global stream order.
    pub fn blocks(&self) -> &[BatchBlock] {
        &self.blocks
    }

    /// Number of planned blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Number of rows the plan covers (including zero-length ones).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The rows with lane groups in the blocks `range`: one consecutive
    /// span, because streams are concatenated in row order (empty for an
    /// empty range). The block-range simulations take exactly these
    /// rows' patterns, so a caller expands only what a range touches.
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds for the plan.
    pub fn row_span(&self, range: Range<usize>) -> Range<usize> {
        let blocks = &self.blocks[range];
        match (blocks.first(), blocks.last()) {
            (Some(first), Some(last)) => {
                let end = last.groups.last().expect("blocks are never empty").row;
                first.groups[0].row as usize..end as usize + 1
            }
            _ => 0..0,
        }
    }

    /// Total occupied lanes across all blocks.
    pub fn total_lanes(&self) -> usize {
        self.total_lanes
    }

    /// The plan's SIMD width in `u64` words per block (`1`, `2`, `4` or
    /// `8`).
    pub fn width_words(&self) -> usize {
        self.width_words
    }

    /// Lane capacity of one block (`64 · width_words`).
    pub fn lane_capacity(&self) -> usize {
        pack::BLOCK * self.width_words
    }

    /// Occupied fraction of the planned lane capacity, in `[0, 1]` (1.0
    /// for an empty plan). Every block except possibly the last is full,
    /// so this approaches 1 as the batch grows — compare with the
    /// `(τ + 1) / 64` the per-row build is stuck at when `τ + 1 < 64`.
    pub fn occupancy(&self) -> f64 {
        if self.blocks.is_empty() {
            1.0
        } else {
            self.total_lanes as f64 / (self.blocks.len() * self.lane_capacity()) as f64
        }
    }
}

/// The summed row lengths, checked against `usize` overflow.
fn total_lanes(row_lengths: &[usize]) -> usize {
    row_lengths
        .iter()
        .try_fold(0usize, |acc, &len| acc.checked_add(len))
        .expect("BatchPlan: total lane count overflows usize")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_concatenates_streams() {
        let plan = BatchPlan::new(&[4, 4, 4]);
        assert_eq!(plan.block_count(), 1);
        assert_eq!(plan.total_lanes(), 12);
        assert_eq!(plan.width_words(), 1);
        let b = &plan.blocks()[0];
        assert_eq!(b.lanes_used, 12);
        assert_eq!(b.groups.len(), 3);
        assert_eq!(b.groups[1].row, 1);
        assert_eq!(b.groups[1].lane_offset, 4);
        assert_eq!(b.groups[2].lane_offset, 8);
        assert_eq!(b.groups[1].mask::<1>().0, [0b1111_0000]);
    }

    #[test]
    fn straddling_rows_split_into_groups() {
        // 60 + 10: the second row spans the block boundary
        let plan = BatchPlan::with_width(&[60, 10], 1);
        assert_eq!(plan.block_count(), 2);
        let b0 = &plan.blocks()[0];
        let b1 = &plan.blocks()[1];
        assert_eq!(b0.groups.len(), 2);
        assert_eq!(
            b0.groups[1],
            LaneGroup {
                row: 1,
                start: 0,
                lane_offset: 60,
                len: 4
            }
        );
        assert_eq!(b1.groups.len(), 1);
        assert_eq!(
            b1.groups[0],
            LaneGroup {
                row: 1,
                start: 4,
                lane_offset: 0,
                len: 6
            }
        );
        assert_eq!(b1.lanes_used, 6);
    }

    #[test]
    fn long_rows_fill_whole_blocks() {
        let plan = BatchPlan::with_width(&[130], 1);
        assert_eq!(plan.block_count(), 3);
        assert_eq!(plan.blocks()[2].lanes_used, 2);
        let starts: Vec<u32> = plan
            .blocks()
            .iter()
            .flat_map(|b| b.groups.iter().map(|g| g.start))
            .collect();
        assert_eq!(starts, vec![0, 64, 128]);
    }

    #[test]
    fn wide_plan_is_narrow_plan_reblocked() {
        // the flat lane stream is identical at every width: group (row,
        // start, len) runs agree once narrow blocks are re-chunked
        let lengths = [0usize, 4, 1, 60, 130, 7, 0, 64, 33];
        let narrow = BatchPlan::with_width(&lengths, 1);
        for &w in &[2usize, 4, 8] {
            let wide = BatchPlan::with_width(&lengths, w);
            assert_eq!(wide.width_words(), w);
            assert_eq!(wide.total_lanes(), narrow.total_lanes());
            assert_eq!(
                wide.block_count(),
                narrow.total_lanes().div_ceil(64 * w),
                "width {w}"
            );
            // every pattern lands at flat stream position start-of-block
            // + lane_offset, matching the narrow plan's stream order
            let mut stream_pos = 0usize;
            for block in wide.blocks() {
                for g in &block.groups {
                    assert_eq!(g.lane_offset as usize, stream_pos % (64 * w));
                    stream_pos += g.len as usize;
                }
            }
            assert_eq!(stream_pos, narrow.total_lanes());
        }
    }

    #[test]
    fn wide_groups_exceed_u8_lane_offsets() {
        // a W=8 block has 512 lanes; offsets past 255 must survive intact
        let plan = BatchPlan::with_width(&[300, 212], 8);
        assert_eq!(plan.block_count(), 1);
        let b = &plan.blocks()[0];
        assert_eq!(b.lanes_used, 512);
        assert_eq!(b.groups[1].lane_offset, 300);
        assert_eq!(b.groups[1].len, 212);
        let m = b.groups[1].mask::<8>();
        assert_eq!(m.count_ones(), 212);
        assert_eq!(m.trailing_zeros(), 300);
    }

    #[test]
    #[should_panic(expected = "unsupported SIMD width")]
    fn bogus_width_rejected() {
        let _ = BatchPlan::with_width(&[4; 4], 3);
    }

    #[test]
    fn zero_length_rows_are_skipped_but_counted() {
        let plan = BatchPlan::new(&[0, 3, 0]);
        assert_eq!(plan.rows(), 3);
        assert_eq!(plan.block_count(), 1);
        assert_eq!(plan.blocks()[0].groups.len(), 1);
        assert_eq!(plan.blocks()[0].groups[0].row, 1);
    }

    #[test]
    fn row_span_names_the_rows_a_range_touches() {
        // 60 + 10 + 0 + 70 lanes: block 0 holds rows 0-1, block 1 rows
        // 1 and 3 (the empty row 2 sits inside the span), block 2 row 3
        let plan = BatchPlan::with_width(&[60, 10, 0, 70], 1);
        assert_eq!(plan.block_count(), 3);
        assert_eq!(plan.row_span(0..1), 0..2);
        assert_eq!(plan.row_span(1..2), 1..4);
        assert_eq!(plan.row_span(2..3), 3..4);
        assert_eq!(plan.row_span(0..3), 0..4);
        assert_eq!(plan.row_span(1..1), 0..0);
        // a leading empty row is outside every span
        assert_eq!(BatchPlan::new(&[0, 3]).row_span(0..1), 1..2);
    }

    #[test]
    fn empty_plan() {
        let plan = BatchPlan::new(&[]);
        assert_eq!(plan.block_count(), 0);
        assert_eq!(plan.occupancy(), 1.0);
    }

    #[test]
    fn occupancy_improves_on_per_row() {
        // per-row at τ = 3: 4/64 = 6.25 %; batched with 32 rows: 100 %
        let plan = BatchPlan::with_width(&[4; 32], 1);
        assert_eq!(plan.block_count(), 2);
        assert_eq!(plan.occupancy(), 1.0);
        // and the rule's width-2 plan fits them in one 128-lane block
        let wide = BatchPlan::new(&[4; 32]);
        assert_eq!(wide.width_words(), 2);
        assert_eq!(wide.block_count(), 1);
        assert_eq!(wide.occupancy(), 1.0);
    }
}
