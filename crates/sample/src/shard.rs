//! Shard math: splitting a sampled run's windows into contiguous ranges.
//!
//! Windows are assigned in **contiguous chunks** (not round-robin) so a
//! shard needs exactly one architectural checkpoint — the unit boundary
//! of its first window — instead of one per window. Because every window
//! simulates on fresh warmed structures derived only from the master
//! executor's state at its own boundary, the merged result of any shard
//! split is bit-identical to the single-process run.

use std::ops::Range;

/// One shard's identity within a run: `index` of `count`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// Zero-based shard index.
    pub index: u64,
    /// Total shards.
    pub count: u64,
}

/// The contiguous window range shard `spec` owns out of `total_windows`.
/// Ranges partition `0..total_windows`; the first `total % count` shards
/// take one extra window.
pub fn window_range(total_windows: u64, spec: ShardSpec) -> Range<u64> {
    let base = total_windows / spec.count;
    let extra = total_windows % spec.count;
    let lo = spec.index * base + spec.index.min(extra);
    let hi = lo + base + u64::from(spec.index < extra);
    lo..hi
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_partition_the_windows() {
        for total in [0u64, 1, 7, 100, 101, 103] {
            for count in [1u64, 2, 3, 8] {
                let mut covered = Vec::new();
                let mut last_hi = 0;
                for index in 0..count {
                    let r = window_range(total, ShardSpec { index, count });
                    assert_eq!(r.start, last_hi, "contiguous chunks");
                    last_hi = r.end;
                    covered.extend(r);
                }
                assert_eq!(covered, (0..total).collect::<Vec<_>>(), "total {total} count {count}");
            }
        }
    }

    #[test]
    fn chunk_sizes_differ_by_at_most_one() {
        for index in 0..8 {
            let r = window_range(100, ShardSpec { index, count: 8 });
            let len = r.end - r.start;
            assert!((12..=13).contains(&len));
        }
    }
}
