//! Edge profiles: the input to profile-guided code layout.
//!
//! The paper obtains profiles with `pixie` on the *train* input and lays out
//! with `spike`, then measures on the *ref* input. Our equivalent: the
//! `sfetch-trace` crate executes the program with a *training seed* and fills
//! an [`EdgeProfile`]; the evaluation run uses a different seed.

use sfetch_tab::FnvMap;

use crate::behavior::CondBehavior;
use crate::graph::{BlockId, Cfg, FuncId, Terminator};

/// Execution-frequency profile of a [`Cfg`]: block counts, intra-procedural
/// edge counts and call-graph edge counts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EdgeProfile {
    // FNV-keyed: `count_*` land once per executed block/edge/call on the
    // training walk, making these the profile pass's hot maps.
    block: FnvMap<BlockId, u64>,
    edge: FnvMap<(BlockId, BlockId), u64>,
    call: FnvMap<(FuncId, FuncId), u64>,
}

impl EdgeProfile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one execution of `b`.
    pub fn count_block(&mut self, b: BlockId) {
        *self.block.entry(b).or_insert(0) += 1;
    }

    /// Records one traversal of the intra-procedural edge `from -> to`.
    pub fn count_edge(&mut self, from: BlockId, to: BlockId) {
        *self.edge.entry((from, to)).or_insert(0) += 1;
    }

    /// Records one dynamic call `caller -> callee`.
    pub fn count_call(&mut self, caller: FuncId, callee: FuncId) {
        *self.call.entry((caller, callee)).or_insert(0) += 1;
    }

    /// Times `b` executed.
    pub fn block_count(&self, b: BlockId) -> u64 {
        self.block.get(&b).copied().unwrap_or(0)
    }

    /// Times the edge `from -> to` was traversed.
    pub fn edge_count(&self, from: BlockId, to: BlockId) -> u64 {
        self.edge.get(&(from, to)).copied().unwrap_or(0)
    }

    /// Times `caller` called `callee`.
    pub fn call_count(&self, caller: FuncId, callee: FuncId) -> u64 {
        self.call.get(&(caller, callee)).copied().unwrap_or(0)
    }

    /// All recorded intra-procedural edges with counts.
    pub fn edges(&self) -> impl Iterator<Item = (BlockId, BlockId, u64)> + '_ {
        self.edge.iter().map(|(&(a, b), &w)| (a, b, w))
    }

    /// All recorded call edges with counts.
    pub fn calls(&self) -> impl Iterator<Item = (FuncId, FuncId, u64)> + '_ {
        self.call.iter().map(|(&(a, b), &w)| (a, b, w))
    }

    /// A cheap *static* profile estimate derived from the branch behaviour
    /// models (no execution), via bounded value iteration.
    ///
    /// Useful for tests and for layout "heuristics instead of profile data"
    /// experiments (the paper's §2.4 notes real users often skip profiling —
    /// Ball–Larus-style estimation fills in).
    pub fn from_expected(cfg: &Cfg) -> Self {
        const ITERS: usize = 25;
        const LOOP_GAIN: f64 = 8.0; // assumed mean trips when unknown
        let n = cfg.num_blocks();
        let mut w = vec![0.0f64; n];
        // Seed every function entry so even cold functions get an ordering.
        for f in cfg.funcs() {
            w[f.entry().index()] = if f.id() == cfg.entry() { 1000.0 } else { 1.0 };
        }
        let mut edge_acc: FnvMap<(BlockId, BlockId), f64> = FnvMap::default();
        let mut call_acc: FnvMap<(FuncId, FuncId), f64> = FnvMap::default();
        let mut block_acc = vec![0.0f64; n];
        for _ in 0..ITERS {
            let mut next = vec![0.0f64; n];
            for blk in cfg.blocks() {
                let src = w[blk.id().index()];
                if src <= 0.0 {
                    continue;
                }
                block_acc[blk.id().index()] += src;
                let push = |to: BlockId, amount: f64,
                                edge_acc: &mut FnvMap<(BlockId, BlockId), f64>,
                                next: &mut Vec<f64>| {
                    *edge_acc.entry((blk.id(), to)).or_insert(0.0) += amount;
                    next[to.index()] += amount;
                };
                match blk.terminator() {
                    Terminator::FallThrough { next: t } | Terminator::Jump { target: t } => {
                        push(*t, src, &mut edge_acc, &mut next);
                    }
                    Terminator::Cond { taken, not_taken, behavior } => {
                        let p = behavior.expected_p_taken();
                        let p = if matches!(behavior, CondBehavior::Loop { .. }) {
                            // Back-edges multiply flow; cap the gain.
                            1.0 - 1.0 / LOOP_GAIN
                        } else {
                            p
                        };
                        push(*taken, src * p, &mut edge_acc, &mut next);
                        push(*not_taken, src * (1.0 - p), &mut edge_acc, &mut next);
                    }
                    Terminator::Call { callee, ret_to } => {
                        *call_acc.entry((blk.func(), *callee)).or_insert(0.0) += src;
                        push(*ret_to, src, &mut edge_acc, &mut next);
                    }
                    Terminator::IndirectCall { callees, ret_to, .. } => {
                        let total: u64 = callees.iter().map(|&(_, w)| u64::from(w)).sum();
                        for &(c, cw) in callees {
                            let frac = f64::from(cw) / total.max(1) as f64;
                            *call_acc.entry((blk.func(), c)).or_insert(0.0) += src * frac;
                        }
                        push(*ret_to, src, &mut edge_acc, &mut next);
                    }
                    Terminator::Return => {}
                    Terminator::IndirectJump { targets, .. } => {
                        let total: u64 = targets.iter().map(|&(_, w)| u64::from(w)).sum();
                        for &(t, tw) in targets {
                            let frac = f64::from(tw) / total.max(1) as f64;
                            push(t, src * frac, &mut edge_acc, &mut next);
                        }
                    }
                }
            }
            // Damp to convergence; re-seed entries a little to keep cold
            // functions ranked.
            for f in cfg.funcs() {
                next[f.entry().index()] += 0.01;
            }
            w = next;
        }
        let mut p = EdgeProfile::new();
        for (i, &acc) in block_acc.iter().enumerate() {
            if acc > 0.0 {
                p.block.insert(BlockId::from_index(i), (acc * 100.0) as u64);
            }
        }
        for (&(a, b), &acc) in edge_acc.iter() {
            if acc > 0.0 {
                p.edge.insert((a, b), (acc * 100.0) as u64 + 1);
            }
        }
        for (&(a, b), &acc) in call_acc.iter() {
            if acc > 0.0 {
                p.call.insert((a, b), (acc * 100.0) as u64 + 1);
            }
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CfgBuilder;
    use crate::{CondBehavior, TripCount};

    #[test]
    fn counting_accumulates() {
        let mut p = EdgeProfile::new();
        let a = BlockId::from_index(0);
        let b = BlockId::from_index(1);
        p.count_block(a);
        p.count_block(a);
        p.count_edge(a, b);
        p.count_call(FuncId::from_index(0), FuncId::from_index(1));
        assert_eq!(p.block_count(a), 2);
        assert_eq!(p.edge_count(a, b), 1);
        assert_eq!(p.edge_count(b, a), 0);
        assert_eq!(p.call_count(FuncId::from_index(0), FuncId::from_index(1)), 1);
        assert_eq!(p.edges().count(), 1);
        assert_eq!(p.calls().count(), 1);
    }

    #[test]
    fn expected_profile_prefers_hot_edge() {
        // cond with p_taken = 0.9: taken edge should out-weigh not-taken.
        let mut bld = CfgBuilder::new();
        let f = bld.add_func("main");
        let a = bld.add_block(f, 1);
        let hot = bld.add_block(f, 1);
        let cold = bld.add_block(f, 1);
        let exit = bld.add_block(f, 1);
        bld.set_cond(a, hot, cold, CondBehavior::Bernoulli { p_taken: 0.9 });
        bld.set_fallthrough(hot, exit);
        bld.set_fallthrough(cold, exit);
        bld.set_return(exit);
        let cfg = bld.finish().expect("valid");
        let p = EdgeProfile::from_expected(&cfg);
        assert!(p.edge_count(a, hot) > p.edge_count(a, cold));
    }

    #[test]
    fn expected_profile_amplifies_loops() {
        let mut bld = CfgBuilder::new();
        let f = bld.add_func("main");
        let pre = bld.add_block(f, 1);
        let body = bld.add_block(f, 1);
        let exit = bld.add_block(f, 1);
        bld.set_fallthrough(pre, body);
        bld.set_cond(body, body, exit, CondBehavior::Loop { trip: TripCount::Fixed(50) });
        bld.set_return(exit);
        let cfg = bld.finish().expect("valid");
        let p = EdgeProfile::from_expected(&cfg);
        assert!(p.block_count(body) > p.block_count(pre), "loop body hotter than preheader");
    }
}
