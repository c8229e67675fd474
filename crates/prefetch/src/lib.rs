//! # sfetch-prefetch
//!
//! Instruction-prefetch policies for the non-blocking L1i miss pipeline
//! (`sfetch_mem`'s MSHR + fill queue).
//!
//! The paper's central observation is that streams are *long sequential
//! runs* the front-end can run ahead of: once the next stream predictor
//! has named a stream, every cache line it covers — and the start of the
//! stream after it — is known many cycles before the I-cache stage gets
//! there (§3.3). A blocking I-cache throws that lookahead away; with
//! MSHRs, a [`Prefetcher`] can turn it into overlapped fills. Three
//! policies are provided:
//!
//! * [`NextLine`] — classic next-N-line prefetch keyed on the demand line;
//!   the no-lookahead baseline every front-end can drive.
//! * [`StreamDirected`] — consumes the engine's *lookahead structure*
//!   (FTQ occupancy and the predicted next stream start) and prefetches
//!   whole streams ahead of the fetch cursor — the policy the stream
//!   front-end is architected for.
//! * [`Mana`] — a MANA-style *record* prefetcher (Ansari et al.,
//!   PAPERS.md): a table keyed on a miss line holds the miss lines that
//!   historically followed it, replayed on each re-miss.
//!
//! Policies are pure address generators: they observe demand accesses via
//! [`Prefetcher::observe_demand`] and emit candidate line addresses via
//! [`Prefetcher::probes`]; the fetch engine's I-cache port decides the
//! per-cycle probe bandwidth and the memory hierarchy drops redundant
//! probes (resident or already in flight).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod mana;
pub mod next_line;
pub mod stream_directed;

use sfetch_isa::Addr;

pub use mana::Mana;
pub use next_line::NextLine;
pub use stream_directed::StreamDirected;

/// Prefetch-policy selector, carried by the processor configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PrefetchKind {
    /// No prefetching; with `mshrs == 0` this is the legacy blocking
    /// L1i model, bit-identical to the pre-prefetch simulator.
    #[default]
    None,
    /// Next-N-line prefetch keyed on the demand line.
    NextLine,
    /// Stream-directed prefetch from the FTQ and the predicted next
    /// stream (the lookahead-exploiting policy).
    StreamDirected,
    /// MANA-style record prefetcher keyed on miss history.
    Mana,
}

impl PrefetchKind {
    /// All selectable kinds, `None` first.
    pub const ALL: [PrefetchKind; 4] = [
        PrefetchKind::None,
        PrefetchKind::NextLine,
        PrefetchKind::StreamDirected,
        PrefetchKind::Mana,
    ];

    /// Builds the policy with its default geometry; `None` builds nothing.
    pub fn prefetcher(self) -> Option<Box<dyn Prefetcher>> {
        match self {
            PrefetchKind::None => None,
            PrefetchKind::NextLine => Some(Box::new(NextLine::new(2))),
            PrefetchKind::StreamDirected => Some(Box::new(StreamDirected::new())),
            PrefetchKind::Mana => Some(Box::new(Mana::table2())),
        }
    }

    /// Parses the CLI spelling (`none`, `next-line`, `stream`, `mana`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "none" => Some(PrefetchKind::None),
            "next-line" => Some(PrefetchKind::NextLine),
            "stream" => Some(PrefetchKind::StreamDirected),
            "mana" => Some(PrefetchKind::Mana),
            _ => None,
        }
    }
}

impl std::fmt::Display for PrefetchKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PrefetchKind::None => f.write_str("none"),
            PrefetchKind::NextLine => f.write_str("next-line"),
            PrefetchKind::StreamDirected => f.write_str("stream"),
            PrefetchKind::Mana => f.write_str("mana"),
        }
    }
}

/// Prefetch subsystem configuration (policy + miss-pipeline geometry).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PrefetchConfig {
    /// The prefetch policy.
    pub kind: PrefetchKind,
    /// L1i MSHR entries. `0` disables the non-blocking miss pipeline
    /// entirely (legacy blocking I-cache).
    pub mshrs: usize,
    /// Maximum prefetch probes issued to the memory system per cycle.
    pub degree: usize,
}

impl PrefetchConfig {
    /// The disabled configuration: blocking L1i, no prefetcher —
    /// bit-identical to the pre-prefetch simulator.
    pub fn none() -> Self {
        PrefetchConfig { kind: PrefetchKind::None, mshrs: 0, degree: 0 }
    }

    /// The default enabled configuration for a policy: 8 MSHRs, 2 probes
    /// per cycle (one L1i fill port's worth of tag bandwidth).
    pub fn enabled(kind: PrefetchKind) -> Self {
        PrefetchConfig { kind, mshrs: 8, degree: 2 }
    }

    /// Whether the non-blocking miss pipeline is active.
    pub fn pipelined(&self) -> bool {
        self.mshrs > 0
    }

    /// Validates the combination.
    ///
    /// # Panics
    ///
    /// Panics if a prefetch policy is selected without any MSHRs (the
    /// policy would have nowhere to put its fills).
    pub fn validate(&self) {
        assert!(
            self.kind == PrefetchKind::None || self.mshrs > 0,
            "prefetch policy {} requires mshrs > 0",
            self.kind
        );
    }
}

impl Default for PrefetchConfig {
    fn default() -> Self {
        Self::none()
    }
}

/// The engine's per-cycle lookahead, handed to [`Prefetcher::probes`].
///
/// Decoupled front-ends (stream, FTB) fill `queued` with every fetch
/// request sitting in the FTQ — the head's unread tail included — and
/// `predicted_next` with the prediction stage's next start address;
/// coupled front-ends (EV8) can only offer the demand address.
#[derive(Debug, Clone, Copy)]
pub struct Lookahead<'a> {
    /// The address the I-cache stage demands this cycle (fetch cursor).
    pub demand: Option<Addr>,
    /// Upcoming fetch ranges, oldest first: `(start, instructions)`.
    pub queued: &'a [(Addr, u32)],
    /// Predicted start of the unit beyond everything queued (next stream
    /// or next trace).
    pub predicted_next: Option<Addr>,
    /// L1 instruction-cache line size in bytes.
    pub line_bytes: u64,
}

/// An instruction-prefetch policy.
///
/// Implementations are deterministic address generators; they never touch
/// the memory system themselves. `observe_demand` is called once per
/// distinct demand access (at the hit, or when the miss is allocated);
/// `probes` is called once per cycle with the engine's lookahead and a
/// probe budget.
pub trait Prefetcher: std::fmt::Debug {
    /// Policy name for reports.
    fn name(&self) -> &'static str;

    /// Observes one demand access to `line` (a line index) and whether it
    /// hit the L1i.
    fn observe_demand(&mut self, line: u64, hit: bool);

    /// Emits up to `budget` candidate prefetch addresses for this cycle.
    fn probes(&mut self, ctx: &Lookahead<'_>, budget: usize, out: &mut Vec<Addr>);

    /// Feedback that an emitted probe for `line` could not start its fill
    /// this cycle (no free MSHR) and may be worth re-emitting. Default:
    /// ignore (stateless policies re-derive their candidates anyway).
    fn unissued(&mut self, line: u64) {
        let _ = line;
    }

    /// Estimated storage cost of the policy's tables in bits.
    fn storage_bits(&self) -> u64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_parse_roundtrips() {
        for k in PrefetchKind::ALL {
            assert_eq!(PrefetchKind::parse(&k.to_string()), Some(k));
        }
        assert_eq!(PrefetchKind::parse("bogus"), None);
    }

    #[test]
    fn none_builds_nothing_and_everything_else_builds() {
        assert!(PrefetchKind::None.prefetcher().is_none());
        for k in [PrefetchKind::NextLine, PrefetchKind::StreamDirected, PrefetchKind::Mana] {
            let p = k.prefetcher().expect("policy");
            assert!(p.storage_bits() < 10_000_000, "{}: implausible storage", p.name());
        }
    }

    #[test]
    fn config_validation() {
        PrefetchConfig::none().validate();
        PrefetchConfig::enabled(PrefetchKind::StreamDirected).validate();
        assert!(!PrefetchConfig::none().pipelined());
        assert!(PrefetchConfig::enabled(PrefetchKind::None).pipelined());
    }

    #[test]
    #[should_panic(expected = "requires mshrs")]
    fn policy_without_mshrs_is_rejected() {
        PrefetchConfig { kind: PrefetchKind::NextLine, mshrs: 0, degree: 2 }.validate();
    }
}
