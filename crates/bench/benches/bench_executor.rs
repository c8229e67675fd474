//! Microbenchmark of the architectural executor's per-instruction hot loop.
//!
//! Compares the interned side-table oracle ([`sfetch_trace::Executor`], which
//! resolves control by index into `CodeImage::control()`) against a faithful
//! reimplementation of the old cloning walker, which re-matched the CFG
//! [`Terminator`] and cloned its `behavior`/`callees`/`targets` vectors on
//! every dynamic control instruction. The interned path must be ≥ 20% faster
//! per instruction.
//!
//! A second group times the checkpoint fast-forward on the registered
//! long-horizon `phased` program: the record walk (`next()` per
//! instruction, records dropped) against the block-granular state-only
//! walk ([`Executor::advance`]) over the same span.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sfetch_cfg::{Cfg, CodeImage, CondBehavior, IndirectSelect, Terminator, TripCount};
use sfetch_isa::{Addr, BranchKind};
use sfetch_trace::{DynControl, DynInst, Executor};
use sfetch_workloads::{suite, LayoutChoice, Workload};

const N: u64 = 200_000;

fn workload() -> Workload {
    suite::build(suite::by_name("twolf").expect("known benchmark"))
}

/// The pre-side-table oracle: identical control semantics, but resolves every
/// dynamic branch by matching the owner block's [`Terminator`] and cloning
/// its heap payloads — the baseline the interned executor is measured against.
struct CloningOracle<'a> {
    cfg: &'a Cfg,
    image: &'a CodeImage,
    rng: SmallRng,
    pc: Addr,
    seq: u64,
    loop_remaining: Vec<Option<u32>>,
    pattern_idx: Vec<u32>,
    indirect_idx: Vec<u32>,
    call_stack: Vec<Addr>,
    hist: std::collections::VecDeque<bool>,
    exec_count: Vec<u64>,
}

impl<'a> CloningOracle<'a> {
    fn new(cfg: &'a Cfg, image: &'a CodeImage, seed: u64) -> Self {
        CloningOracle {
            cfg,
            image,
            rng: SmallRng::seed_from_u64(seed),
            pc: image.entry(),
            seq: 0,
            loop_remaining: vec![None; cfg.num_blocks()],
            pattern_idx: vec![0; cfg.num_blocks()],
            indirect_idx: vec![0; cfg.num_blocks()],
            call_stack: Vec::with_capacity(64),
            hist: std::collections::VecDeque::with_capacity(16),
            exec_count: vec![0; image.len_insts()],
        }
    }

    fn eval_cond(&mut self, owner: usize, beh: &CondBehavior) -> bool {
        let logical = match beh {
            CondBehavior::Bernoulli { p_taken } => self.rng.random_bool(p_taken.clamp(0.0, 1.0)),
            CondBehavior::Pattern(pat) => {
                if pat.is_empty() {
                    false
                } else {
                    let v = pat[self.pattern_idx[owner] as usize % pat.len()];
                    self.pattern_idx[owner] = self.pattern_idx[owner].wrapping_add(1);
                    v
                }
            }
            CondBehavior::Loop { trip } => {
                let remaining = match self.loop_remaining[owner] {
                    Some(r) => r,
                    None => match *trip {
                        TripCount::Fixed(n) => n.max(1),
                        TripCount::Uniform { lo, hi } => {
                            self.rng.random_range(lo.max(1)..=hi.max(lo.max(1)))
                        }
                        TripCount::Geometric { mean } => {
                            let mean = f64::from(mean.max(1));
                            let u: f64 = self.rng.random();
                            let v: f64 = (1.0 - u).ln() / (1.0 - 1.0 / mean).ln();
                            (v as u32).clamp(1, 1_000_000)
                        }
                    },
                };
                if remaining > 1 {
                    self.loop_remaining[owner] = Some(remaining - 1);
                    true
                } else {
                    self.loop_remaining[owner] = None;
                    false
                }
            }
            CondBehavior::Correlated { dist, invert, noise } => {
                let noisy = self.rng.random_bool(noise.clamp(0.0, 1.0));
                let base = if noisy || (*dist as usize) > self.hist.len() {
                    self.rng.random_bool(0.5)
                } else {
                    self.hist[self.hist.len() - *dist as usize]
                };
                base ^ invert
            }
        };
        if self.hist.len() == 16 {
            self.hist.pop_front();
        }
        self.hist.push_back(logical);
        logical
    }

    fn pick_weighted<T: Copy>(&mut self, items: &[(T, u32)]) -> T {
        let total: u64 = items.iter().map(|&(_, w)| u64::from(w.max(1))).sum();
        let mut r = self.rng.random_range(0..total.max(1));
        for &(item, w) in items {
            let w = u64::from(w.max(1));
            if r < w {
                return item;
            }
            r -= w;
        }
        items.last().expect("non-empty").0
    }

    fn pick_indirect<T: Copy>(&mut self, owner: usize, items: &[(T, u32)], select: &IndirectSelect) -> T {
        match select {
            IndirectSelect::Weighted => self.pick_weighted(items),
            IndirectSelect::Cyclic(seq) => {
                if seq.is_empty() {
                    return self.pick_weighted(items);
                }
                let idx = &mut self.indirect_idx[owner];
                let slot = seq[*idx as usize % seq.len()] as usize % items.len();
                *idx = idx.wrapping_add(1);
                items[slot].0
            }
        }
    }

    /// Steps one instruction, producing the same `DynInst` record the real
    /// executor produces, but resolving control through terminator matching
    /// and payload cloning.
    fn step(&mut self) -> DynInst {
        let slot = self.image.slot_of(self.pc).expect("in image");
        let ii = *self.image.inst(slot);
        let pc = self.pc;

        let mem_addr = ii.inst.mem_pattern().map(|p| {
            let k = self.exec_count[slot];
            self.exec_count[slot] += 1;
            p.address(k)
        });

        let control = ii.control.map(|attr| {
            let owner = attr.owner;
            let oi = owner.index();
            let (taken, target) = if attr.is_fixup {
                (true, attr.target.expect("fixup"))
            } else {
                match attr.kind {
                    BranchKind::Jump => (true, attr.target.expect("direct")),
                    BranchKind::Cond => {
                        // The cloning baseline: clone the behaviour out of
                        // the terminator on every dynamic instance.
                        let beh = match self.cfg.block(owner).terminator() {
                            Terminator::Cond { behavior, .. } => behavior.clone(),
                            t => panic!("bad terminator {t:?}"),
                        };
                        let logical = self.eval_cond(oi, &beh);
                        (logical ^ attr.flipped, attr.target.expect("direct"))
                    }
                    BranchKind::Call => {
                        self.call_stack.push(attr.fallthrough);
                        (true, attr.target.expect("direct"))
                    }
                    BranchKind::IndirectCall => {
                        let (callees, select) = match self.cfg.block(owner).terminator() {
                            Terminator::IndirectCall { callees, select, .. } => {
                                (callees.clone(), select.clone())
                            }
                            t => panic!("bad terminator {t:?}"),
                        };
                        let callee = self.pick_indirect(oi, &callees, &select);
                        self.call_stack.push(attr.fallthrough);
                        let entry = self.cfg.func(callee).entry();
                        (true, self.image.block_addr(entry))
                    }
                    BranchKind::Return => {
                        (true, self.call_stack.pop().unwrap_or_else(|| self.image.entry()))
                    }
                    BranchKind::IndirectJump => {
                        let (targets, select) = match self.cfg.block(owner).terminator() {
                            Terminator::IndirectJump { targets, select } => {
                                (targets.clone(), select.clone())
                            }
                            t => panic!("bad terminator {t:?}"),
                        };
                        let tb = self.pick_indirect(oi, &targets, &select);
                        (true, self.image.block_addr(tb))
                    }
                }
            };
            let next_pc = if taken { target } else { attr.fallthrough };
            DynControl { kind: attr.kind, taken, target, next_pc, is_fixup: attr.is_fixup }
        });

        self.pc = match control {
            Some(c) => c.next_pc,
            None => pc.next_inst(),
        };
        let rec = DynInst { seq: self.seq, pc, inst: ii.inst, mem_addr, control };
        self.seq += 1;
        rec
    }
}

fn bench_oracle(c: &mut Criterion) {
    let w = workload();
    let img = w.image(LayoutChoice::Optimized);
    let mut g = c.benchmark_group("executor_hot_loop");
    g.throughput(Throughput::Elements(N));
    g.bench_function("interned_side_table", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for d in Executor::new(w.cfg(), img, w.ref_seed()).take(N as usize) {
                acc = acc.wrapping_add(d.pc.get());
            }
            black_box(acc)
        })
    });
    g.bench_function("cloning_baseline", |b| {
        b.iter(|| {
            let mut o = CloningOracle::new(w.cfg(), img, w.ref_seed());
            let mut acc = 0u64;
            for _ in 0..N {
                acc = acc.wrapping_add(o.step().pc.get());
            }
            black_box(acc)
        })
    });
    g.finish();
}

/// Instructions per fast-forward iteration.
const FF: u64 = 2_000_000;

fn bench_fast_forward(c: &mut Criterion) {
    let w = sfetch_workloads::phased::long_workload();
    let img = w.image(LayoutChoice::Optimized);
    let mut g = c.benchmark_group("fast_forward");
    g.throughput(Throughput::Elements(FF));
    g.bench_function("record_walk", |b| {
        b.iter(|| {
            let mut ex = Executor::from_image(img, w.ref_seed());
            for _ in 0..FF {
                ex.next();
            }
            black_box(ex.pc())
        })
    });
    g.bench_function("advance", |b| {
        b.iter(|| {
            let mut ex = Executor::from_image(img, w.ref_seed());
            ex.advance(FF);
            black_box(ex.pc())
        })
    });
    g.finish();
}

criterion_group!(benches, bench_oracle, bench_fast_forward);
criterion_main!(benches);
