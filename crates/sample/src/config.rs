//! Sampling parameters: the U/W/D interval schedule.

use std::fmt;

/// Confidence level for the Student-t interval on the aggregate estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Confidence {
    /// 90% two-sided confidence.
    C90,
    /// 95% two-sided confidence (the SMARTS default).
    #[default]
    C95,
    /// 99% two-sided confidence.
    C99,
}

/// Two-sided Student-t quantiles for 1..=30 degrees of freedom, per
/// confidence level (beyond 30, [`Confidence::quantile`] switches to a
/// Cornish–Fisher tail that decays smoothly to the normal quantile).
const T90: [f64; 30] = [
    6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833, 1.812, 1.796, 1.782, 1.771,
    1.761, 1.753, 1.746, 1.740, 1.734, 1.729, 1.725, 1.721, 1.717, 1.714, 1.711, 1.708, 1.706,
    1.703, 1.701, 1.699, 1.697,
];
const T95: [f64; 30] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048, 2.045, 2.042,
];
const T99: [f64; 30] = [
    63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355, 3.250, 3.169, 3.106, 3.055, 3.012,
    2.977, 2.947, 2.921, 2.898, 2.878, 2.861, 2.845, 2.831, 2.819, 2.807, 2.797, 2.787, 2.779,
    2.771, 2.763, 2.756, 2.750,
];

impl Confidence {
    /// The two-sided normal quantile `z` for this level.
    pub fn z(self) -> f64 {
        match self {
            Confidence::C90 => 1.6449,
            Confidence::C95 => 1.9600,
            Confidence::C99 => 2.5758,
        }
    }

    /// The two-sided Student-t quantile for `df` degrees of freedom —
    /// what the interval on a sample mean with estimated variance
    /// actually calls for. Sparse checkpoint-grid schedules measure
    /// only a handful of windows, where the normal quantile undersizes
    /// the interval badly (df = 3 needs 3.18σ, not 1.96σ). Tabulated
    /// through df = 30; beyond that the first-order Cornish–Fisher
    /// expansion `z + (z³ + z)/(4·df)` carries the quantile smoothly
    /// down to [`Confidence::z`] (within 0.2% of the true t quantile at
    /// df = 31, converging as df grows — no jump at the table edge).
    pub fn quantile(self, df: u64) -> f64 {
        if df == 0 {
            // One window: no variance information; the interval
            // degenerates to a point regardless of the quantile.
            return self.z();
        }
        if df > 30 {
            let z = self.z();
            return z + (z * z * z + z) / (4.0 * df as f64);
        }
        let table = match self {
            Confidence::C90 => &T90,
            Confidence::C95 => &T95,
            Confidence::C99 => &T99,
        };
        table[df as usize - 1]
    }

    /// The level as a fraction (0.95 for [`Confidence::C95`]).
    pub fn level(self) -> f64 {
        match self {
            Confidence::C90 => 0.90,
            Confidence::C95 => 0.95,
            Confidence::C99 => 0.99,
        }
    }
}

impl fmt::Display for Confidence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}%", (self.level() * 100.0).round())
    }
}

/// The systematic-sampling schedule. One *sampling unit* spans
/// [`SampleConfig::interval`] committed instructions and ends with a
/// functionally-warmed, detail-warmed, measured window; everything before
/// it is architectural fast-forward.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleConfig {
    /// `U`: committed instructions per sampling unit (one measured window
    /// per unit).
    pub interval: u64,
    /// `Wf`: functional-warming instructions before the detailed window
    /// (cache + predictor state only, no timing).
    pub warm_func: u64,
    /// Cache-warming tail: the last `warm_mem` instructions of `Wf` also
    /// drive the memory hierarchy's warm paths. Predictor tables need the
    /// whole `Wf` horizon to converge; cache state converges within a few
    /// hundred thousand instructions, so warming it over the full horizon
    /// would only slow the fast-forward.
    pub warm_mem: u64,
    /// `Wd`: detailed-warmup instructions (full pipeline, statistics
    /// discarded).
    pub warm_detail: u64,
    /// `D`: measured instructions per window.
    pub measure: u64,
    /// Confidence level of the aggregate estimate's interval.
    pub confidence: Confidence,
}

impl Default for SampleConfig {
    /// U = 2.75M, Wf = 900k (caches warmed over the whole horizon), Wd =
    /// 25k, D = 20k at 95% confidence. The warming horizon is the
    /// accuracy lever: per-window state is built fresh (that is what
    /// makes windows independent and shard merges exact), so warming
    /// must span roughly one phase residency of the long-horizon
    /// workloads (~1M instructions) for predictor tables to converge —
    /// shorter horizons under-train the stream predictor and bias IPC
    /// low (measured: Wf = 30k → −58%, 300k → −5%, ~1M → −1% on the
    /// phased workload, with the stream engine's self-checking warm path
    /// supplying the partial-stream entries plain commit training cannot)
    /// — and the L2's data working set needs the same depth (a 200k
    /// cache-warming tail re-introduced a −8% bias). At this schedule
    /// the 50M-instruction sampled run landed within ~1% of the full run
    /// at ≥10× wall-clock speedup on one core (`BENCH_4.json`
    /// `sampling_ab`).
    fn default() -> Self {
        SampleConfig {
            interval: 2_750_000,
            warm_func: 900_000,
            warm_mem: 900_000,
            warm_detail: 25_000,
            measure: 20_000,
            confidence: Confidence::C95,
        }
    }
}

impl SampleConfig {
    /// Validates the schedule.
    ///
    /// # Panics
    ///
    /// Panics if the warm + measure phases do not fit inside the interval
    /// or the measured window is empty.
    pub fn validate(&self) {
        assert!(self.measure >= 1, "measured window must be non-empty");
        assert!(
            self.warm_mem <= self.warm_func,
            "cache-warming tail {} exceeds the warming horizon {}",
            self.warm_mem,
            self.warm_func
        );
        assert!(
            self.warm_func + self.warm_detail + self.measure <= self.interval,
            "warm_func {} + warm_detail {} + measure {} exceed the interval {}",
            self.warm_func,
            self.warm_detail,
            self.measure,
            self.interval
        );
    }

    /// Number of whole sampling units (= measured windows) in a run of
    /// `total_insts` committed instructions.
    pub fn windows(&self, total_insts: u64) -> u64 {
        total_insts / self.interval
    }

    /// Fast-forward length at the head of each unit.
    pub fn fast_forward(&self) -> u64 {
        self.interval - self.warm_func - self.warm_detail - self.measure
    }

    /// Parses a `U,Wf,Wd,D[,Wm]` comma-separated schedule (the `--sample`
    /// CLI flag), keeping the default confidence. The optional fifth
    /// field is the cache-warming tail (default: the whole horizon `Wf`).
    ///
    /// # Errors
    ///
    /// Reports malformed fields or a schedule that fails validation.
    pub fn parse(s: &str) -> Result<Self, String> {
        let parts: Vec<&str> = s.split(',').collect();
        if parts.len() != 4 && parts.len() != 5 {
            return Err(format!("expected U,Wf,Wd,D[,Wm] (4-5 comma-separated numbers), got {s:?}"));
        }
        let mut nums = vec![0u64; parts.len()];
        for (slot, p) in nums.iter_mut().zip(&parts) {
            *slot = p.trim().parse().map_err(|e| format!("bad number {p:?}: {e}"))?;
        }
        let cfg = SampleConfig {
            interval: nums[0],
            warm_func: nums[1],
            warm_mem: nums.get(4).copied().unwrap_or(nums[1]),
            warm_detail: nums[2],
            measure: nums[3],
            confidence: Confidence::default(),
        };
        if cfg.measure == 0
            || cfg.warm_mem > cfg.warm_func
            || cfg.warm_func + cfg.warm_detail + cfg.measure > cfg.interval
        {
            return Err(format!(
                "schedule {s:?} does not fit: need Wm <= Wf, Wf+Wd+D <= U and D >= 1"
            ));
        }
        Ok(cfg)
    }

    /// Renders the schedule in the `U,Wf,Wd,D,Wm` form
    /// [`SampleConfig::parse`] accepts — the one way shard parents hand
    /// their schedule to child processes, so the field order can never
    /// drift between a binary's formatter and the parser.
    pub fn to_spec(&self) -> String {
        format!(
            "{},{},{},{},{}",
            self.interval, self.warm_func, self.warm_detail, self.measure, self.warm_mem
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_schedule_is_valid() {
        let c = SampleConfig::default();
        c.validate();
        assert_eq!(c.windows(50_000_000), 18);
        assert_eq!(c.fast_forward() + c.warm_func + c.warm_detail + c.measure, c.interval);
        assert!(c.warm_mem <= c.warm_func);
    }

    #[test]
    fn parse_round_trips() {
        let c = SampleConfig::parse("100000, 10000, 1000, 5000").expect("valid");
        assert_eq!(c.interval, 100_000);
        assert_eq!(c.warm_func, 10_000);
        assert_eq!(c.warm_mem, 10_000, "cache tail defaults to the whole horizon");
        assert_eq!(c.warm_detail, 1_000);
        assert_eq!(c.measure, 5_000);
        let c5 = SampleConfig::parse("100000,10000,1000,5000,4000").expect("valid with Wm");
        assert_eq!(c5.warm_mem, 4_000);
        assert_eq!(
            SampleConfig::parse(&c5.to_spec()).expect("spec round-trips"),
            c5,
            "to_spec must stay parseable by parse"
        );
        assert!(SampleConfig::parse("1,2,3").is_err(), "wrong arity");
        assert!(SampleConfig::parse("10,20,30,x").is_err(), "bad number");
        assert!(SampleConfig::parse("10,20,30,40").is_err(), "does not fit");
        assert!(SampleConfig::parse("100,20,30,0").is_err(), "empty window");
        assert!(SampleConfig::parse("100,20,30,5,25").is_err(), "tail beyond horizon");
    }

    #[test]
    #[should_panic(expected = "exceed the interval")]
    fn validate_rejects_oversized_phases() {
        SampleConfig {
            interval: 10,
            warm_func: 5,
            warm_mem: 5,
            warm_detail: 5,
            measure: 5,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    fn confidence_quantiles() {
        assert!((Confidence::C95.z() - 1.96).abs() < 1e-6);
        assert!(Confidence::C99.z() > Confidence::C95.z());
        assert_eq!(Confidence::C95.to_string(), "95%");
    }

    #[test]
    fn t_quantiles_widen_small_samples_and_converge_to_z() {
        // df = 3 (a 4-window sparse grid) needs 3.18σ at 95%.
        assert!((Confidence::C95.quantile(3) - 3.182).abs() < 1e-9);
        // The Cornish–Fisher tail tracks the true t quantile closely
        // (t(40) at 95% is 2.021, at 99% 2.704).
        assert!((Confidence::C95.quantile(40) - 2.021).abs() < 5e-3);
        assert!((Confidence::C99.quantile(40) - 2.704).abs() < 2e-2);
        // Monotone nonincreasing in df — no jump at the table edge —
        // always at least z, converging to z for large df.
        for c in [Confidence::C90, Confidence::C95, Confidence::C99] {
            let mut prev = f64::INFINITY;
            for df in 1..=200 {
                let q = c.quantile(df);
                assert!(q <= prev + 1e-12, "{c} df {df}");
                assert!(q >= c.z() - 1e-12, "{c} df {df}");
                prev = q;
            }
            assert!((c.quantile(100_000) - c.z()).abs() < 1e-4, "{c} converges to z");
        }
    }
}
