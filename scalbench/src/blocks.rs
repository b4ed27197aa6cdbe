//! A timed window cut into blocks, and the end-to-end metrics read off
//! the blocks as medians.
//!
//! The recording host is a shared two-core box: for a second or two at
//! a time something else takes a core, and a mean over the window moves
//! with how many such seconds a run happened to get. Each block is a
//! complete measurement of the same workload; the median block is what
//! the system does when left alone for the length of a block, and it
//! does not move when a minority of blocks are disturbed.

use crate::stats::{median, percentile};

/// Length of one block of a `serve_*` window (a `pipeline_cold` block
/// is one pass over the job mix).
pub const BLOCK_SECONDS: f64 = 0.5;

/// Fewest latency samples a block needs before its own p95 is read:
/// ten beyond the percentile.
const P95_SAMPLES: usize = 200;

/// One slice of a window: how long it was, the latency of every op
/// that completed in it, and the CPU time the measured process used.
#[derive(Debug, Clone, Default)]
pub struct Block {
    pub seconds: f64,
    pub latencies_ms: Vec<f64>,
    pub cpu_ms: f64,
}

/// Cut a window at the sampler's marks `(ns since window start, CPU ms
/// of the measured process so far)`. An op belongs to the block it
/// completed in; what follows the last mark is dropped, since a partial
/// block is not a measurement of the same length.
pub fn cut(ops: &[(u64, f64)], marks: &[(u64, f64)]) -> Vec<Block> {
    let mut blocks: Vec<Block> = marks
        .windows(2)
        .map(|pair| Block {
            seconds: (pair[1].0 - pair[0].0) as f64 / 1e9,
            latencies_ms: Vec::new(),
            cpu_ms: pair[1].1 - pair[0].1,
        })
        .collect();
    for &(done_ns, latency_ms) in ops {
        let index = marks.partition_point(|&(t, _)| t <= done_ns);
        if let Some(block) = index.checked_sub(1).and_then(|i| blocks.get_mut(i)) {
            block.latencies_ms.push(latency_ms);
        }
    }
    blocks
}

/// Median over the blocks of ops completed per second.
pub fn throughput_ops_s(blocks: &[Block]) -> f64 {
    median(&per_block(blocks, |b| {
        Some(b.latencies_ms.len() as f64 / b.seconds)
    }))
}

/// Median over the blocks of CPU milliseconds per completed op.
pub fn cpu_ms_per_op(blocks: &[Block]) -> f64 {
    median(&per_block(blocks, |b| {
        (!b.latencies_ms.is_empty()).then(|| b.cpu_ms / b.latencies_ms.len() as f64)
    }))
}

/// The `q` latency quantile: the median over the blocks of each
/// block's own quantile where at least three blocks have the samples
/// for one, and the quantile of all samples pooled otherwise (which
/// itself fails when even the pool is too small).
pub fn latency_ms(blocks: &[Block], q: f64) -> Result<f64, String> {
    let own = per_block(blocks, |b| {
        (b.latencies_ms.len() >= P95_SAMPLES)
            .then(|| percentile(&b.latencies_ms, q).ok())
            .flatten()
            .map(|p| p.value)
    });
    if own.len() >= 3 {
        return Ok(median(&own));
    }
    let pooled: Vec<f64> = blocks
        .iter()
        .flat_map(|b| b.latencies_ms.iter().copied())
        .collect();
    percentile(&pooled, q).map(|p| p.value)
}

fn per_block(blocks: &[Block], f: impl Fn(&Block) -> Option<f64>) -> Vec<f64> {
    blocks.iter().filter_map(f).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_fall_into_the_block_they_completed_in() {
        let marks = [(0, 100.0), (1_000, 110.0), (2_000, 130.0)];
        let ops = [
            (10, 1.0),
            (999, 2.0),
            (1_000, 3.0),
            (1_500, 4.0),
            (2_000, 5.0),
            (2_500, 6.0),
        ];
        let blocks = cut(&ops, &marks);
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0].latencies_ms, [1.0, 2.0]);
        assert_eq!(blocks[1].latencies_ms, [3.0, 4.0]);
        assert_eq!((blocks[0].cpu_ms, blocks[1].cpu_ms), (10.0, 20.0));
        assert_eq!(blocks[0].seconds, 1e-6);
    }

    /// Two of five blocks are disturbed (half the ops, twice the
    /// latency): the medians read the undisturbed level, a mean would not.
    #[test]
    fn a_disturbed_minority_of_blocks_does_not_move_the_medians() {
        let block = |ops: usize, latency: f64| Block {
            seconds: 0.5,
            latencies_ms: vec![latency; ops],
            cpu_ms: ops as f64 * 0.25,
        };
        let blocks = [
            block(400, 1.0),
            block(200, 2.0),
            block(400, 1.0),
            block(400, 1.0),
            block(200, 2.0),
        ];
        assert_eq!(throughput_ops_s(&blocks), 800.0);
        assert_eq!(cpu_ms_per_op(&blocks), 0.25);
        assert_eq!(latency_ms(&blocks, 0.95), Ok(1.0));
        assert_eq!(latency_ms(&blocks, 0.5), Ok(1.0));
        // Too few samples per block: pooled, and refused when the pool is short too.
        let small = [block(100, 1.0), block(100, 3.0)];
        assert_eq!(latency_ms(&small, 0.95), Ok(3.0));
        assert!(latency_ms(&small[..1], 0.95).is_err());
    }
}
