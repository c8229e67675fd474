//! Interval time-series of cycle-accounting deltas.
//!
//! A [`TimeSeriesSink`] turns a stream of *delta* column vectors (one per
//! simulated chunk or sampled window) into JSONL rows of roughly
//! `interval` committed instructions each. Deltas are accumulated whole —
//! a chunk is never split across rows — so **summing any column over all
//! emitted rows reproduces the end-of-run aggregate exactly**: no cycles
//! are dropped or double-counted at interval boundaries. (Row granularity
//! is therefore `interval` rounded up to the caller's chunk size; callers
//! that want exact interval boundaries drive the simulator in
//! `interval`-sized chunks.)
//!
//! The sink is simulator-agnostic: columns are declared by name at
//! construction and fed as plain `u64` slices. `sfetch-bench` supplies
//! the `SimStats`-to-columns conversion.

use std::io::{self, Write};

use crate::jsonl::{str_array, Row};

/// JSONL time-series writer; see the [module docs](self).
#[derive(Debug)]
pub struct TimeSeriesSink<W: Write> {
    out: W,
    columns: Vec<&'static str>,
    /// Index of the committed-instructions column that drives row
    /// boundaries.
    key: usize,
    interval: u64,
    acc: Vec<u64>,
    total: Vec<u64>,
    rows: u64,
}

impl<W: Write> TimeSeriesSink<W> {
    /// Creates a sink over `out`, writing a header row naming the
    /// `columns`. `key` is the index of the column that counts committed
    /// instructions; a row is emitted whenever the accumulated deltas
    /// reach `interval` in that column (`interval == 0` emits one row per
    /// recorded delta — the sampled runners' per-window mode).
    pub fn new(
        mut out: W,
        columns: &[&'static str],
        key: usize,
        interval: u64,
    ) -> io::Result<Self> {
        assert!(key < columns.len(), "key column out of range");
        let header = Row::new()
            .s("row", "header")
            .raw("columns", &str_array(columns))
            .s("key", columns[key])
            .u("interval", interval)
            .finish();
        writeln!(out, "{header}")?;
        Ok(TimeSeriesSink {
            out,
            columns: columns.to_vec(),
            key,
            interval,
            acc: vec![0; columns.len()],
            total: vec![0; columns.len()],
            rows: 0,
        })
    }

    /// Records one delta vector (same length and order as the declared
    /// columns), emitting a row if the interval is reached.
    pub fn record(&mut self, delta: &[u64]) -> io::Result<()> {
        assert_eq!(delta.len(), self.columns.len(), "delta arity mismatch");
        for (a, d) in self.acc.iter_mut().zip(delta) {
            *a += d;
        }
        for (t, d) in self.total.iter_mut().zip(delta) {
            *t += d;
        }
        if self.interval == 0 || self.acc[self.key] >= self.interval {
            self.flush_row()?;
        }
        Ok(())
    }

    fn flush_row(&mut self) -> io::Result<()> {
        if self.acc.iter().all(|&v| v == 0) {
            return Ok(());
        }
        let mut row = Row::new()
            .u("row", self.rows)
            .u("end", self.total[self.key]);
        for (c, v) in self.columns.iter().zip(&self.acc) {
            row = row.u(c, *v);
        }
        writeln!(self.out, "{}", row.finish())?;
        self.rows += 1;
        self.acc.iter_mut().for_each(|v| *v = 0);
        Ok(())
    }

    /// Emits any partial final row, flushes the writer, and returns the
    /// per-column totals (the exact sum of every recorded delta).
    pub fn finish(mut self) -> io::Result<Vec<u64>> {
        self.flush_row()?;
        self.out.flush()?;
        Ok(self.total)
    }

    /// Rows emitted so far.
    pub fn rows(&self) -> u64 {
        self.rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_partition_the_deltas_exactly() {
        let mut buf = Vec::new();
        {
            let mut sink =
                TimeSeriesSink::new(&mut buf, &["committed", "cycles"], 0, 100).unwrap();
            // Chunks of 60 committed: rows land at 120, 240, ... plus a
            // 60-inst residual row from finish().
            for _ in 0..7 {
                sink.record(&[60, 31]).unwrap();
            }
            let totals = sink.finish().unwrap();
            assert_eq!(totals, vec![420, 217]);
        }
        let text = String::from_utf8(buf).unwrap();
        let mut committed = 0;
        let mut cycles = 0;
        let mut rows = 0;
        for line in text.lines().skip(1) {
            let row = crate::jsonl::Obj::parse(line).expect("row parses");
            committed += row.u::<u64>("committed").expect("committed column");
            cycles += row.u::<u64>("cycles").expect("cycles column");
            rows += 1;
        }
        assert_eq!((committed, cycles), (420, 217), "row sums must equal the aggregate");
        assert_eq!(rows, 4, "3 full rows + 1 residual");
    }

    #[test]
    fn per_window_mode_emits_every_delta() {
        let mut buf = Vec::new();
        let mut sink = TimeSeriesSink::new(&mut buf, &["committed"], 0, 0).unwrap();
        sink.record(&[5]).unwrap();
        sink.record(&[7]).unwrap();
        assert_eq!(sink.rows(), 2);
        assert_eq!(sink.finish().unwrap(), vec![12]);
    }
}
