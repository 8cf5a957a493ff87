//! The linter's one abstract interpreter: a path-sensitive symbolic walk
//! of the structured statement tree that every rule reads from.
//!
//! Registers hold [`SymVal`]s: an affine-in-thread-id form (kernel
//! parameters are baked in, so pointers are mostly concrete), the base
//! object a pointer derives from, whether it points into persistent
//! memory or depends on the block index, the comparison it is the result
//! of, and the memory reads it was computed from. The walk produces two
//! things at once:
//!
//! * **Guarded events** for the inter-thread rules: every persist,
//!   fence, synchronization and flag access, tagged with its path
//!   condition as affine predicates ([`Ev::residual`] specializes it at
//!   a concrete thread).
//! * **Epoch state** for the intra-thread rules, forked at branches and
//!   joined after them next to the registers: the persistent stores
//!   still unordered on the path (with the branch literals under which
//!   they are), and the run of fences since the last persist. P001,
//!   P004 and P005 are checked as the walk steps; P006 reads the exit
//!   state.
//!
//! Loops run their body twice: once from the entry state (zero- and
//! one-iteration paths; events are recorded on this pass only), and
//! once from the entry joined with the first pass's exit, so pairs
//! formed across the back edge are observed.

use crate::diag::{Diagnostic, LintCode};
use crate::lint::LintConfig;
use sbrp_core::scope::{Scope, WARP_SIZE};
use sbrp_isa::{Affine, BinOp, Instr, Kernel, LaunchConfig, Reg, RepThread, Special, Stmt};
use std::collections::BTreeSet;
use std::rc::Rc;

// ---------------------------------------------------------------------------
// Symbolic values and path guards
// ---------------------------------------------------------------------------

/// An affine comparison `l <op> r` (op is one of the `Set*` `BinOp`s).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct APred {
    l: Affine,
    r: Affine,
    op: BinOp,
}

impl APred {
    /// Evaluates the predicate at a concrete thread.
    fn eval(self, t: RepThread) -> bool {
        let l = self.l.eval(t.tid, t.block);
        let r = self.r.eval(t.tid, t.block);
        match self.op {
            BinOp::SetLt => l < r,
            BinOp::SetLe => l <= r,
            BinOp::SetEq => l == r,
            BinOp::SetNe => l != r,
            BinOp::SetGt => l > r,
            BinOp::SetGe => l >= r,
            op => unreachable!("APred built from non-comparison {op:?}"),
        }
    }

    /// The predicate as a branch literal `special == value` (or a
    /// constant comparison), the only shape the intra-thread rules
    /// correlate across sibling branches.
    fn literal(self, pol: bool) -> Option<Lit> {
        if self.op != BinOp::SetEq {
            return None;
        }
        let (form, value) = match (self.l.as_constant(), self.r.as_constant()) {
            (_, Some(v)) if self.l.is_constant() || pins(self.l, v).is_some() => (self.l, v),
            (Some(v), _) if pins(self.r, v).is_some() => (self.r, v),
            _ => return None,
        };
        Some(Lit { form, value, pol })
    }
}

/// The `(lane, warp, cta)` coordinates `form == value` pins, when `form`
/// is a special register's: `tid == v` pins `lane = v % 32` and
/// `warp = v / 32`, and `gtid == 0` pins all three.
fn pins(form: Affine, value: i128) -> Option<[Option<i128>; 3]> {
    let w = WARP_SIZE as i128;
    if form.k != 0 {
        return None;
    }
    Some(match (form.lane, form.warp, form.cta) {
        (1, 0, 0) => [Some(value), None, None],
        (0, 1, 0) => [None, Some(value), None],
        (0, 0, 1) => [None, None, Some(value)],
        (1, ww, 0) if ww == w => [Some(value % w), Some(value / w), None],
        (1, ww, c) if ww == w && c > 0 => [(value == 0).then_some(0); 3],
        _ => return None,
    })
}

/// A branch literal `form == value` taken with polarity `pol`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Lit {
    form: Affine,
    value: i128,
    pol: bool,
}

impl Lit {
    /// Does `self`'s equality holding imply `other`'s (ignoring
    /// polarities)?
    fn implies(self, other: Lit) -> bool {
        if (self.form, self.value) == (other.form, other.value) {
            return true;
        }
        let (Some(a), Some(b)) = (pins(self.form, self.value), pins(other.form, other.value))
        else {
            return false;
        };
        b.iter().any(Option::is_some) && b.iter().zip(&a).all(|(y, x)| y.is_none() || y == x)
    }
}

/// Is a conjunction of literals satisfiable? False when a constant
/// comparison is taken the wrong way, a positive literal implies a
/// negated one, or two positive ones pin the same special to different
/// values (e.g. `tid == 0` taken but `lane == 0` not: no thread takes
/// that path).
fn satisfiable(lits: &[Lit]) -> bool {
    let decided = |l: &Lit| {
        l.form
            .as_constant()
            .is_some_and(|k| (k == l.value) != l.pol)
    };
    !lits.iter().any(decided)
        && !lits.iter().filter(|p| p.pol).any(|p| {
            lits.iter().any(|q| {
                if q.pol {
                    q.form == p.form && q.value != p.value
                } else {
                    p.implies(*q)
                }
            })
        })
}

/// Can no thread run both paths? Provable only when they take opposite
/// arms of one branch, or their branch literals together are
/// unsatisfiable (`tid == 0` on one, `lane != 0` on the other).
pub(crate) fn exclusive(a: &[Guard], b: &[Guard]) -> bool {
    let opposite = a.iter().any(|g| match *g {
        Guard::Pred(p, pol) => b.contains(&Guard::Pred(p, !pol)),
        Guard::Opaque(l, pol) => b.contains(&Guard::Opaque(l, !pol)),
        Guard::Loop(_) => false,
    });
    opposite || !satisfiable(&literals(a.iter().chain(b)))
}

/// The branch literals among a path condition's guards.
fn literals<'g>(guards: impl IntoIterator<Item = &'g Guard>) -> Vec<Lit> {
    guards
        .into_iter()
        .filter_map(|g| match *g {
            Guard::Pred(p, pol) => p.literal(pol),
            _ => None,
        })
        .collect()
}

/// One conjunct of an event's path condition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Guard {
    /// An affine branch condition with the polarity taken.
    Pred(APred, bool),
    /// A branch on a non-affine (data-dependent) condition, identified
    /// by the branch's location; never decidable at a thread.
    Opaque(usize, bool),
    /// Inside the body of the loop at `loc` (may run zero times).
    Loop(usize),
}

/// The abstract content of one register.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct SymVal {
    /// Affine form of the value, when it has one.
    aff: Option<Affine>,
    /// Base object (parameter/constant address) the value derives from;
    /// displacements keep it.
    obj: Option<u64>,
    /// Points into the persistent window.
    pm: bool,
    /// Depends on the block index, through arithmetic, a select or the
    /// address of a memory read (a per-block flag loaded from a table).
    block_varying: bool,
    /// When the value is a comparison result: the comparison.
    pred: Option<APred>,
    /// Memory reads (loads, atomics, acquires) the value was computed
    /// from, numbered per visit.
    slice: BTreeSet<u32>,
}

impl SymVal {
    fn constant(v: u64, pm_base: u64) -> SymVal {
        SymVal {
            aff: Some(Affine::constant(v)),
            obj: Some(v),
            pm: v >= pm_base,
            ..SymVal::default()
        }
    }

    /// A fresh memory-read result carrying the address's provenance.
    fn mem_read(def: u32, addr: &SymVal) -> SymVal {
        let mut slice = addr.slice.clone();
        slice.insert(def);
        SymVal {
            block_varying: addr.block_varying,
            slice,
            ..SymVal::default()
        }
    }

    fn concrete(&self) -> Option<u64> {
        u64::try_from(self.aff?.as_constant()?).ok()
    }

    /// Known byte offset from the base object.
    fn offset(&self) -> Option<u64> {
        Some(self.concrete()?.wrapping_sub(self.obj?))
    }

    /// A concrete value is its own object (unless it is a displacement
    /// of one) and decides PM-ness exactly.
    fn normalize(mut self, pm_base: u64) -> SymVal {
        if let Some(c) = self.concrete() {
            self.obj = self.obj.or(Some(c));
            self.pm = c >= pm_base;
        }
        self
    }

    fn join(a: &SymVal, b: &SymVal) -> SymVal {
        if a == b {
            return a.clone();
        }
        SymVal {
            aff: a.aff.filter(|_| a.aff == b.aff),
            obj: a.obj.filter(|_| a.obj == b.obj),
            pm: a.pm || b.pm,
            block_varying: a.block_varying || b.block_varying,
            pred: a.pred.filter(|_| a.pred == b.pred),
            slice: a.slice.union(&b.slice).copied().collect(),
        }
    }
}

/// A store/load address: affine form plus base-object fallback.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct SymAddr {
    pub(crate) aff: Option<Affine>,
    pub(crate) obj: Option<u64>,
    pub(crate) width: u64,
}

impl SymAddr {
    pub(crate) fn at(self, t: RepThread) -> Option<u64> {
        self.aff?.eval_addr(t.tid, t.block)
    }
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum EvKind {
    /// Persistent store, with the stored value's affine form when known
    /// (used to suppress benign same-value races).
    Persist(SymAddr, Option<Affine>),
    /// Persistent store with no known base object: outside the race
    /// analysis (its documented soundness boundary), but still a
    /// persist a fence orders.
    Unresolved,
    /// Load of a persistent address outside a spin loop.
    PmLoad(SymAddr),
    /// Store to a non-persistent address (volatile handshake publish).
    VolStore(SymAddr),
    /// Load inside a `while` condition (spin read of a flag).
    VolSpin(SymAddr),
    OFence,
    DFence,
    Sync,
    Epoch,
    Rel {
        scope: Scope,
        flag: SymAddr,
    },
    Acq {
        scope: Scope,
        flag: SymAddr,
        spins: bool,
    },
}

#[derive(Clone, Debug)]
pub(crate) struct Ev {
    pub(crate) loc: usize,
    pub(crate) instr: String,
    pub(crate) kind: EvKind,
    pub(crate) guards: Vec<Guard>,
}

impl Ev {
    /// Specializes the path condition at a concrete thread: `None` when
    /// the thread provably never executes the event, otherwise the
    /// residual (undecidable) guards. Empty residual = must execute.
    pub(crate) fn residual(&self, t: RepThread) -> Option<Vec<Guard>> {
        let mut res = Vec::new();
        for g in &self.guards {
            match g {
                Guard::Pred(p, pol) => {
                    if p.eval(t) != *pol {
                        return None;
                    }
                }
                Guard::Opaque(..) | Guard::Loop(_) => res.push(*g),
            }
        }
        Some(res)
    }

    pub(crate) fn loop_guards(&self) -> Vec<usize> {
        self.guards
            .iter()
            .filter_map(|g| match g {
                Guard::Loop(l) => Some(*l),
                _ => None,
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Path state
// ---------------------------------------------------------------------------

/// A persistent store still unordered on the current path.
#[derive(Clone, Debug)]
struct Pending {
    loc: usize,
    instr: String,
    /// Base object the store hits, when known.
    obj: Option<u64>,
    /// Memory-read provenance of both the address and the stored value.
    slice: BTreeSet<u32>,
    /// Branch literals under which the store is still unordered: when a
    /// join finds the store ordered on one side only, the surviving copy
    /// is tagged with the other side's condition, so a later store on a
    /// path contradicting it does not pair with it (`tid == 0` implies
    /// `lane == 0`, so a store fenced under `lane == 0` is ordered on
    /// every path the block leader takes).
    alive: Vec<Lit>,
}

/// Abstract machine state along one path.
#[derive(Clone)]
struct Path {
    regs: Vec<Rc<SymVal>>,
    pending: Vec<Pending>,
    /// `Some(loc)` when the previous ordering-relevant op on this path
    /// was a fence with no persist after it (for the redundancy rule).
    fence_run: Option<usize>,
}

impl Path {
    /// Joins two branch exits. `lit` is the branch condition as a
    /// literal (then-polarity) when it has that shape: a pending store
    /// surviving only one side keeps that side's literal.
    fn join(a: &Path, b: &Path, lit: Option<Lit>) -> Path {
        let regs = a
            .regs
            .iter()
            .zip(&b.regs)
            .map(|(x, y)| {
                if Rc::ptr_eq(x, y) {
                    Rc::clone(x)
                } else {
                    Rc::new(SymVal::join(x, y))
                }
            })
            .collect();
        let mut pending = Vec::new();
        for p in &a.pending {
            let mut merged = p.clone();
            if let Some(q) = b.pending.iter().find(|q| q.loc == p.loc) {
                // Alive on both sides: only shared literals survive.
                merged.alive.retain(|l| q.alive.contains(l));
            } else {
                merged.alive.extend(lit);
            }
            pending.push(merged);
        }
        for q in &b.pending {
            if !a.pending.iter().any(|p| p.loc == q.loc) {
                let mut only = q.clone();
                only.alive.extend(lit.map(|l| Lit { pol: false, ..l }));
                pending.push(only);
            }
        }
        Path {
            regs,
            pending,
            fence_run: if a.fence_run == b.fence_run {
                a.fence_run
            } else {
                None
            },
        }
    }
}

/// A release or acquire site, collected on every visit for the
/// flag-identity rules (P002/P003).
#[derive(Clone, Debug)]
pub(crate) struct SyncSite {
    pub(crate) loc: usize,
    pub(crate) instr: String,
    pub(crate) scope: Scope,
    /// Base object of the flag address, when known.
    pub(crate) object: Option<u64>,
    /// Known offset within the object.
    pub(crate) offset: Option<u64>,
    /// Flag address differs per block (private flag per block).
    pub(crate) block_varying: bool,
}

impl SyncSite {
    fn new(loc: usize, i: &Instr, scope: Scope, addr: &SymVal) -> SyncSite {
        SyncSite {
            loc,
            instr: i.to_string(),
            scope,
            object: addr.obj,
            offset: addr.offset(),
            block_varying: addr.block_varying,
        }
    }
}

/// Findings deduplicated by `(code, loc, related loc)`: loops walk
/// statements twice, and joins and thread pairs re-derive findings.
#[derive(Default)]
pub(crate) struct Findings {
    pub(crate) diags: Vec<Diagnostic>,
    seen: BTreeSet<(LintCode, usize, usize)>,
}

impl Findings {
    pub(crate) fn push(&mut self, d: Diagnostic) {
        let rel = d.related.as_ref().map_or(usize::MAX, |r| r.0);
        if self.seen.insert((d.code, d.loc, rel)) {
            self.diags.push(d);
        }
    }
}

/// Everything one walk of a kernel yields.
pub(crate) struct Walk {
    /// Guarded events, one per recorded instruction.
    pub(crate) events: Vec<Ev>,
    /// The walk's P001, P004, P005 and P006 findings; the sync-site
    /// and pair rules add theirs.
    pub(crate) findings: Findings,
    pub(crate) rels: Vec<SyncSite>,
    pub(crate) acqs: Vec<SyncSite>,
}

// ---------------------------------------------------------------------------
// The walk
// ---------------------------------------------------------------------------

struct Walker<'a> {
    pm_base: u64,
    params: &'a [u64],
    launch: Option<LaunchConfig>,
    guards: Vec<Guard>,
    in_while_cond: bool,
    next_def: u32,
    out: Walk,
}

/// Walks `kernel` once under `cfg`.
pub(crate) fn walk(kernel: &Kernel, cfg: &LintConfig) -> Walk {
    let mut w = Walker::new(cfg.pm_base, kernel.params(), cfg.launch);
    let mut path = Path {
        // Every register the kernel names starts as the same unknown
        // value.
        regs: std::iter::repeat_n(Rc::new(SymVal::default()), kernel.num_regs()).collect(),
        pending: Vec::new(),
        fence_run: None,
    };
    let mut pc = 0usize;
    w.walk(kernel.program(), &mut path, &mut pc, true);
    // P006: persists never ordered by any fence on some path to exit.
    for p in path.pending {
        w.out.findings.push(Diagnostic::new(
            LintCode::TrailingPersist,
            p.loc,
            p.instr,
            None,
            "persistent store not ordered by any fence before kernel exit; \
             its durability is unconstrained"
                .into(),
        ));
    }
    w.out
}

impl<'a> Walker<'a> {
    fn new(pm_base: u64, params: &'a [u64], launch: Option<LaunchConfig>) -> Walker<'a> {
        Walker {
            pm_base,
            params,
            launch,
            guards: Vec::new(),
            in_while_cond: false,
            next_def: 0,
            out: Walk {
                events: Vec::new(),
                findings: Findings::default(),
                rels: Vec::new(),
                acqs: Vec::new(),
            },
        }
    }

    fn record(&mut self, loc: usize, instr: &Instr, kind: EvKind) {
        self.out.events.push(Ev {
            loc,
            instr: instr.to_string(),
            kind,
            guards: self.guards.clone(),
        });
    }

    fn report(
        &mut self,
        code: LintCode,
        loc: usize,
        i: &Instr,
        related: Option<(usize, String)>,
        message: &str,
    ) {
        self.out.findings.push(Diagnostic::new(
            code,
            loc,
            i.to_string(),
            related,
            message.into(),
        ));
    }

    fn fresh_def(&mut self) -> u32 {
        self.next_def += 1;
        self.next_def - 1
    }

    /// A special register's value. Without a launch the sizes have no
    /// affine form, and `gtid` takes a placeholder block stride: nothing
    /// evaluates forms per thread then, and `gtid == 0` still pins every
    /// coordinate.
    fn special(&self, s: Special) -> SymVal {
        let aff = match self.launch {
            Some(l) => Affine::of_special(s, l),
            None if matches!(s, Special::Ntid | Special::NCta) => None,
            None => Affine::of_special(s, LaunchConfig::new(1, WARP_SIZE as u32)),
        };
        SymVal {
            aff,
            block_varying: matches!(s, Special::CtaId | Special::GlobalTid),
            ..SymVal::default()
        }
        .normalize(self.pm_base)
    }

    fn addr_of(regs: &[Rc<SymVal>], a: Reg, off: i64, width: u64) -> SymAddr {
        let base = &regs[a.index()];
        SymAddr {
            aff: base.aff.map(|f| {
                f + Affine {
                    k: i128::from(off),
                    ..Affine::constant(0)
                }
            }),
            obj: base.obj,
            width,
        }
    }

    /// Clears the pending epoch at an intra-thread ordering point.
    fn order_point(path: &mut Path) {
        path.pending.clear();
        path.fence_run = None;
    }

    #[allow(clippy::too_many_lines)]
    fn step(&mut self, i: &Instr, loc: usize, path: &mut Path, record: bool) {
        let regs = &mut path.regs;
        match i {
            Instr::MovI(d, v) => regs[d.index()] = Rc::new(SymVal::constant(*v, self.pm_base)),
            Instr::Mov(d, s) => regs[d.index()] = regs[s.index()].clone(),
            Instr::Bin(op, d, a, b) => {
                regs[d.index()] = Rc::new(self.bin(*op, &regs[a.index()], &regs[b.index()]));
            }
            Instr::BinI(op, d, a, imm) => {
                let y = SymVal::constant(*imm, self.pm_base);
                regs[d.index()] = Rc::new(self.bin(*op, &regs[a.index()], &y));
            }
            Instr::Spec(d, s) => regs[d.index()] = Rc::new(self.special(*s)),
            Instr::Param(d, idx) => {
                regs[d.index()] = Rc::new(match self.params.get(*idx as usize) {
                    Some(&v) => SymVal::constant(v, self.pm_base),
                    None => SymVal::default(),
                });
            }
            Instr::Select(d, c, a, b) => {
                let mut v = SymVal::join(&regs[a.index()], &regs[b.index()]);
                v.block_varying |= regs[c.index()].block_varying;
                v.slice.extend(&regs[c.index()].slice);
                regs[d.index()] = Rc::new(v);
            }
            Instr::Ld(d, a, off, w) | Instr::LdVol(d, a, off, w) => {
                let addr = Self::addr_of(regs, *a, *off, w.bytes());
                if record {
                    if self.in_while_cond {
                        self.record(loc, i, EvKind::VolSpin(addr));
                    } else if regs[a.index()].pm {
                        self.record(loc, i, EvKind::PmLoad(addr));
                    }
                }
                let def = self.fresh_def();
                regs[d.index()] = Rc::new(SymVal::mem_read(def, &regs[a.index()]));
            }
            // Atomics are volatile-only in this ISA; the result is a
            // fresh memory read.
            Instr::AtomAdd(d, a, _v, _w) => {
                let def = self.fresh_def();
                regs[d.index()] = Rc::new(SymVal::mem_read(def, &regs[a.index()]));
            }
            Instr::St(a, off, v, w) => {
                let addr = Self::addr_of(regs, *a, *off, w.bytes());
                let (base, val) = (&regs[a.index()], &regs[v.index()]);
                if record {
                    let kind = if !base.pm {
                        EvKind::VolStore(addr)
                    } else if addr.aff.is_none() && addr.obj.is_none() {
                        EvKind::Unresolved
                    } else {
                        EvKind::Persist(addr, val.aff)
                    };
                    self.record(loc, i, kind);
                }
                if base.pm {
                    let store = Pending {
                        loc,
                        instr: i.to_string(),
                        obj: base.obj,
                        slice: base.slice.union(&val.slice).copied().collect(),
                        alive: Vec::new(),
                    };
                    self.unordered_pairs(&store, path);
                    path.pending.push(store);
                    path.fence_run = None;
                }
            }
            Instr::OFence | Instr::DFence | Instr::EpochBarrier => {
                if record {
                    let kind = match i {
                        Instr::OFence => EvKind::OFence,
                        Instr::DFence => EvKind::DFence,
                        _ => EvKind::Epoch,
                    };
                    self.record(loc, i, kind);
                    let in_loop = self.in_while_cond
                        || self.guards.iter().any(|g| matches!(g, Guard::Loop(_)));
                    if matches!(i, Instr::DFence) && in_loop {
                        self.report(
                            LintCode::DFenceInLoop,
                            loc,
                            i,
                            None,
                            "dFence drains the full persist path on every iteration; \
                             hoist it out of the loop or use oFence + one trailing dFence",
                        );
                    }
                }
                if let Some(prev) = path.fence_run {
                    self.report(
                        LintCode::RedundantFence,
                        loc,
                        i,
                        Some((prev, "fence".into())),
                        "back-to-back fences with no persist in between; the second orders nothing",
                    );
                }
                path.pending.clear();
                path.fence_run = Some(loc);
            }
            Instr::PAcq(d, a, scope) => {
                let flag = Self::addr_of(regs, *a, 0, 4);
                if record {
                    let spins = self.in_while_cond;
                    self.record(
                        loc,
                        i,
                        EvKind::Acq {
                            scope: *scope,
                            flag,
                            spins,
                        },
                    );
                }
                let site = SyncSite::new(loc, i, *scope, &regs[a.index()]);
                self.out.acqs.push(site);
                let def = self.fresh_def();
                regs[d.index()] = Rc::new(SymVal::mem_read(def, &regs[a.index()]));
                // An acquire is an ordering point for the issuing
                // thread's earlier persists (TraceBuilder::op records it
                // as one).
                Self::order_point(path);
            }
            Instr::PRel(a, _v, scope) => {
                let flag = Self::addr_of(regs, *a, 0, 4);
                if record {
                    self.record(
                        loc,
                        i,
                        EvKind::Rel {
                            scope: *scope,
                            flag,
                        },
                    );
                }
                let site = SyncSite::new(loc, i, *scope, &regs[a.index()]);
                self.out.rels.push(site);
                Self::order_point(path);
            }
            // SyncBlock is an execution barrier, not a persist ordering
            // point: persists before and after it stay in the same epoch.
            Instr::SyncBlock => {
                if record {
                    self.record(loc, i, EvKind::Sync);
                }
            }
            Instr::Sleep(_) => {}
        }
    }

    /// P001: a new persist against every unordered store of the epoch
    /// that it depends with through a memory read, on another object,
    /// on a path some thread can take.
    fn unordered_pairs(&mut self, store: &Pending, path: &Path) {
        let lits = literals(&self.guards);
        for p in &path.pending {
            let distinct = matches!((p.obj, store.obj), (Some(x), Some(y)) if x != y);
            if !distinct || p.slice.is_disjoint(&store.slice) {
                continue;
            }
            let mut all = lits.clone();
            all.extend_from_slice(&p.alive);
            if satisfiable(&all) {
                self.out.findings.push(Diagnostic::new(
                    LintCode::UnorderedPersists,
                    store.loc,
                    store.instr.clone(),
                    Some((p.loc, p.instr.clone())),
                    "dependent persistent stores to distinct objects with no \
                     ordering point between them; a crash may persist the \
                     second without the first (missing oFence?)"
                        .into(),
                ));
            }
        }
    }

    fn bin(&self, op: BinOp, x: &SymVal, y: &SymVal) -> SymVal {
        let cmp = matches!(
            op,
            BinOp::SetLt | BinOp::SetLe | BinOp::SetEq | BinOp::SetNe | BinOp::SetGt | BinOp::SetGe
        );
        let aff = match (x.concrete(), y.concrete(), x.aff, y.aff) {
            // Constants fold with the machine's wrapping arithmetic;
            // division by zero is a kernel bug the linter gives up on.
            (Some(a), Some(b), ..) => (!matches!(op, BinOp::Div | BinOp::Rem) || b != 0)
                .then(|| Affine::constant(op.apply(a, b))),
            (_, _, Some(a), Some(b)) => Affine::bin(op, a, b),
            _ => None,
        };
        let pred = match (x.aff, y.aff) {
            (Some(l), Some(r)) if cmp => Some(APred { l, r, op }),
            _ => None,
        };
        // Pointer arithmetic: only additive ops keep the object;
        // comparisons are never addresses.
        let (obj, pm) = match op {
            BinOp::Add | BinOp::Sub if x.pm && !y.pm => (x.obj, true),
            BinOp::Add if y.pm && !x.pm => (y.obj, true),
            _ if cmp => (None, false),
            _ => (None, x.pm || y.pm),
        };
        SymVal {
            aff,
            obj,
            pm,
            block_varying: x.block_varying || y.block_varying,
            pred,
            slice: x.slice.union(&y.slice).copied().collect(),
        }
        .normalize(self.pm_base)
    }

    fn walk_cond(&mut self, block: &[Stmt], path: &mut Path, pc: &mut usize, record: bool) {
        let was = self.in_while_cond;
        self.in_while_cond = true;
        self.walk(block, path, pc, record);
        self.in_while_cond = was;
    }

    fn walk_guarded(
        &mut self,
        g: Guard,
        block: &[Stmt],
        path: &mut Path,
        pc: &mut usize,
        record: bool,
    ) {
        self.guards.push(g);
        self.walk(block, path, pc, record);
        self.guards.pop();
    }

    /// Walks a block. Each instruction, `If` and `While` occupies one
    /// pre-order location slot; children follow.
    fn walk(&mut self, block: &[Stmt], path: &mut Path, pc: &mut usize, record: bool) {
        for stmt in block {
            match stmt {
                Stmt::I(i) => {
                    self.step(i, *pc, path, record);
                    *pc += 1;
                }
                Stmt::If {
                    cond,
                    then_b,
                    else_b,
                } => {
                    let loc = *pc;
                    *pc += 1;
                    let pred = path.regs[cond.index()].pred;
                    let guard = |pol| pred.map_or(Guard::Opaque(loc, pol), |p| Guard::Pred(p, pol));
                    let mut then_p = path.clone();
                    self.walk_guarded(guard(true), then_b, &mut then_p, pc, record);
                    let mut else_p = path.clone();
                    self.walk_guarded(guard(false), else_b, &mut else_p, pc, record);
                    *path = Path::join(&then_p, &else_p, pred.and_then(|p| p.literal(true)));
                }
                Stmt::While { cond_b, body, .. } => {
                    let loc = *pc;
                    *pc += 1;
                    let pc_cond = *pc;
                    // Pass 1 from the entry state: the zero- and
                    // one-iteration paths.
                    let mut once = path.clone();
                    self.walk_cond(cond_b, &mut once, pc, record);
                    let exit0 = once.clone();
                    self.walk_guarded(Guard::Loop(loc), body, &mut once, pc, record);
                    let pc_end = *pc;
                    // Pass 2 from the widened state: pairs formed across
                    // the back edge (store at the loop tail, store at the
                    // head with no fence in between). Events are recorded
                    // on the first pass only.
                    let mut again = Path::join(path, &once, None);
                    *pc = pc_cond;
                    self.walk_cond(cond_b, &mut again, pc, false);
                    let exit1 = again.clone();
                    self.walk_guarded(Guard::Loop(loc), body, &mut again, pc, false);
                    *pc = pc_end;
                    *path = Path::join(&exit0, &exit1, None);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PM: u64 = 1 << 40;

    fn walker(launch: Option<LaunchConfig>) -> Walker<'static> {
        Walker::new(PM, &[], launch)
    }

    #[test]
    fn pointer_arithmetic_keeps_base() {
        let w = walker(None);
        let p = SymVal::constant(PM + 0x100, PM);
        let q = w.bin(BinOp::Add, &p, &w.special(Special::Tid));
        assert!(q.pm);
        assert_eq!(q.obj, Some(PM + 0x100));
        assert_eq!(q.offset(), None); // tid not concrete
        let r = w.bin(BinOp::Add, &p, &SymVal::constant(8, PM));
        assert_eq!(r.concrete(), Some(PM + 0x108));
        assert_eq!((r.obj, r.offset()), (Some(PM + 0x100), Some(8)));
    }

    #[test]
    fn comparisons_are_never_pm() {
        let w = walker(None);
        let p = SymVal::constant(PM, PM);
        let c = w.bin(BinOp::SetLt, &p, &p);
        assert!(!c.pm);
        assert_eq!(c.concrete(), Some(0));
    }

    #[test]
    fn mem_read_is_fresh_and_inherits_addr_provenance() {
        let mut addr = SymVal::constant(PM, PM);
        addr.slice.insert(7);
        let v = SymVal::mem_read(3, &addr);
        assert!(v.slice.contains(&3) && v.slice.contains(&7));
        assert_eq!(v.concrete(), None);
    }

    #[test]
    fn join_widens() {
        let a = SymVal::constant(1, PM);
        let j = SymVal::join(&a, &SymVal::constant(2, PM));
        assert_eq!((j.concrete(), j.obj), (None, None));
        assert_eq!(SymVal::join(&a, &a).concrete(), Some(1));
    }

    #[test]
    fn specials_become_concrete_with_launch() {
        let w = walker(Some(LaunchConfig::new(4, 128)));
        assert_eq!(w.special(Special::Ntid).concrete(), Some(128));
        let g = w.special(Special::GlobalTid);
        assert!(g.block_varying && g.aff.is_some_and(|a| a.cta == 128));
        let bare = walker(None);
        assert_eq!(bare.special(Special::Ntid).concrete(), None);
        assert!(bare.special(Special::Tid).aff.is_some());
        assert!(bare.special(Special::GlobalTid).aff.is_some());
    }

    #[test]
    fn block_dependence_survives_reads_and_non_affine_ops() {
        let w = walker(Some(LaunchConfig::new(4, 128)));
        let cta = w.special(Special::CtaId);
        let masked = w.bin(BinOp::And, &cta, &SymVal::constant(1, PM));
        assert!(masked.aff.is_none() && masked.block_varying);
        assert!(SymVal::mem_read(0, &masked).block_varying);
        assert!(!w.special(Special::Tid).block_varying);
    }

    #[test]
    fn only_provably_disjoint_paths_are_exclusive() {
        let w = walker(Some(LaunchConfig::new(2, 64)));
        let eq = |s, v| {
            let c = w.bin(BinOp::SetEq, &w.special(s), &SymVal::constant(v, PM));
            c.pred.unwrap()
        };
        let g = |s, v, pol| [Guard::Pred(eq(s, v), pol)];
        let lane5 = g(Special::Lane, 5, true);
        let tid0 = g(Special::Tid, 0, true);
        // Same guard on both sides: whichever lanes run one run the other.
        assert!(!exclusive(&lane5, &lane5));
        assert!(exclusive(&lane5, &g(Special::Lane, 5, false)));
        assert!(exclusive(&tid0, &g(Special::Lane, 0, false)));
        assert!(!exclusive(&tid0, &g(Special::Lane, 5, false)));
        let opaque = |l, pol| [Guard::Opaque(l, pol)];
        assert!(exclusive(&opaque(3, true), &opaque(3, false)));
        assert!(!exclusive(&opaque(3, true), &opaque(4, false)));
    }

    #[test]
    fn leader_literal_implies_lane_zero() {
        let w = walker(Some(LaunchConfig::new(2, 64)));
        let eq0 = |s| {
            let c = w.bin(BinOp::SetEq, &w.special(s), &SymVal::constant(0, PM));
            c.pred.unwrap()
        };
        let (tid0, lane0) = (eq0(Special::Tid), eq0(Special::Lane));
        let lit = |p: APred, pol| p.literal(pol).unwrap();
        assert!(!satisfiable(&[lit(tid0, true), lit(lane0, false)]));
        assert!(satisfiable(&[lit(tid0, false), lit(lane0, true)]));
        let gtid0 = eq0(Special::GlobalTid);
        assert!(!satisfiable(&[lit(gtid0, true), lit(tid0, false)]));
    }
}
