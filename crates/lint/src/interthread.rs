//! Whole-kernel, scope-aware inter-thread persist-race analysis
//! (rules P007–P012).
//!
//! The intra-thread rules in [`crate::lint_kernel`] see one thread's
//! program order; the rules here ask the cross-thread question the
//! paper's §5.3 is about: for two threads `x`, `y` of the launch and a
//! conflicting pair of persistent accesses, is there a *persist-order*
//! edge between them, and does its scope actually cover the pair?
//!
//! The analysis is three abstractions stacked:
//!
//! 1. **Thread geometry** ([`sbrp_isa::geometry`]): the grid is
//!    sampled at its corners and every sampled pair is classified
//!    intra-warp / intra-block / cross-block. Kernels whose behaviour
//!    is affine in the thread coordinates behave identically at the
//!    sampled pair and any other pair of the same level.
//! 2. **Affine addresses** ([`sbrp_isa::affine`]): persistent store and
//!    load addresses are tracked as `base + affine(tid)` forms and
//!    *evaluated at the concrete sampled threads*, so aliasing between
//!    two specific threads is decided exactly; forms that leave the
//!    domain (hash-dependent addresses) fall back to may-alias by base
//!    object, and stores with no known base are left out of the pair
//!    analysis (the documented soundness boundary — the model checker
//!    covers those kernels dynamically when tractable).
//! 3. **Guarded events**: the linter's one symbolic walk of the
//!    statement tree (the `walk` module, shared by all threads — every
//!    thread runs the same program) collects persist/fence/sync events
//!    tagged with their path condition as affine predicates; the
//!    intra-thread rules read the same walk. Specializing the guards at a
//!    concrete thread answers "does this thread execute this event"
//!    with *must* / *may* / *never*, which is what turns the single
//!    event list into per-thread traces with sound must-ordering.
//!
//! Happens-before edges recognized between `x@tx` and `y@ty`:
//! a scoped `pRel`→spinning-`pAcq` chain (persist order iff the
//! effective scope covers the pair, §5.3); a volatile-flag handshake or
//! `syncBlock`/epoch barrier (execution order; persist order only with
//! a producer-side durability point — `dFence`, or the epoch barrier
//! itself, which waits for the block's drains); and intra-warp program
//! order (persist order iff an ordering point seals the earlier store).

use crate::diag::{Diagnostic, Edit, Fix, Hazard, LintCode, LintReport};
use crate::lint::{check_sync_sites, LintConfig};
use crate::walk::{exclusive, walk, Ev, EvKind, Findings, Guard, SymAddr};
use sbrp_core::scope::{Scope, WARP_SIZE};
use sbrp_isa::{rep_pairs, Affine, Instr, Kernel, LaunchConfig, RepThread, ScopeLevel, Stmt};
use std::sync::Arc;

/// `a ⊆ b` over residual guard lists: `a`'s event executes whenever
/// `b`'s does (on the specialized thread).
fn subset(a: &[Guard], b: &[Guard]) -> bool {
    a.iter().all(|g| b.contains(g))
}

// ---------------------------------------------------------------------------
// Pair analysis
// ---------------------------------------------------------------------------

/// How (if at all) `x@tx` is ordered before `y@ty`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Order {
    /// A persist-order edge covers the pair.
    Persist,
    /// Execution order only (drain order still free).
    ExecOnly,
    /// A release/acquire chain connects the pair but its effective
    /// scope excludes it; the chain's (release, acquire) locations are
    /// carried for the diagnostic and fix.
    NarrowChain(usize, usize, Scope),
    /// Nothing orders the pair in this direction.
    None,
}

struct Analysis<'a> {
    events: &'a [Ev],
}

impl Analysis<'_> {
    fn flags_match(f1: SymAddr, t1: RepThread, f2: SymAddr, t2: RepThread) -> bool {
        match (f1.at(t1), f2.at(t2)) {
            (Some(a), Some(b)) => a == b,
            _ => false,
        }
    }

    fn same_warp(t1: RepThread, t2: RepThread) -> bool {
        let w = WARP_SIZE as u32;
        t1.block == t2.block && t1.tid / w == t2.tid / w
    }

    /// All scoped release→acquire chains from `tx`'s trace after
    /// `x_loc` into `ty`'s trace before `y_loc`, as
    /// `(rel_loc, acq_loc, effective_scope, covers_pair)`.
    fn chains(
        &self,
        x_loc: usize,
        rx: &[Guard],
        tx: RepThread,
        y_loc: usize,
        ry: &[Guard],
        ty: RepThread,
    ) -> Vec<(usize, usize, Scope, bool)> {
        let mut out = Vec::new();
        for rel in self.events {
            let EvKind::Rel {
                scope: rs,
                flag: rf,
            } = &rel.kind
            else {
                continue;
            };
            if rel.loc <= x_loc {
                continue;
            }
            let Some(rr) = rel.residual(tx) else {
                continue;
            };
            if !subset(&rr, rx) {
                continue;
            }
            for acq in self.events {
                let EvKind::Acq {
                    scope: as_,
                    flag: af,
                    spins,
                } = &acq.kind
                else {
                    continue;
                };
                if !spins || acq.loc >= y_loc {
                    continue;
                }
                let Some(ar) = acq.residual(ty) else {
                    continue;
                };
                if !subset(&ar, ry) {
                    continue;
                }
                if !Self::flags_match(*rf, tx, *af, ty) {
                    continue;
                }
                let eff = (*rs).min(*as_);
                let covers = tx.pos().shares_scope(ty.pos(), eff);
                out.push((rel.loc, acq.loc, eff, covers));
            }
        }
        out
    }

    /// A producer-side durability point between `x_loc` and `rel_loc`
    /// in `tx`'s trace: a `dFence`, or an epoch barrier (which waits
    /// for the block's pending drains).
    fn durability_between(
        &self,
        x_loc: usize,
        rel_loc: usize,
        rx: &[Guard],
        tx: RepThread,
    ) -> bool {
        self.events.iter().any(|e| {
            matches!(e.kind, EvKind::DFence | EvKind::Epoch)
                && e.loc > x_loc
                && e.loc <= rel_loc
                && e.residual(tx).is_some_and(|r| subset(&r, rx))
        })
    }

    /// Volatile-flag handshakes `VolStore@tx → VolSpin@ty` between the
    /// two locations, as `(store_loc)` release points.
    fn vol_chains(
        &self,
        x_loc: usize,
        rx: &[Guard],
        tx: RepThread,
        y_loc: usize,
        ry: &[Guard],
        ty: RepThread,
    ) -> Vec<usize> {
        let mut out = Vec::new();
        for vs in self.events {
            let EvKind::VolStore(f1) = &vs.kind else {
                continue;
            };
            if vs.loc <= x_loc {
                continue;
            }
            let Some(rr) = vs.residual(tx) else {
                continue;
            };
            if !subset(&rr, rx) {
                continue;
            }
            for spin in self.events {
                let EvKind::VolSpin(f2) = &spin.kind else {
                    continue;
                };
                if spin.loc >= y_loc {
                    continue;
                }
                let Some(sr) = spin.residual(ty) else {
                    continue;
                };
                if !subset(&sr, ry) {
                    continue;
                }
                if Self::flags_match(*f1, tx, *f2, ty) {
                    out.push(vs.loc);
                }
            }
        }
        out
    }

    /// Block-wide barriers (sync or epoch) between the two locations
    /// that both threads must reach, as `(loc, is_epoch)`.
    fn barriers_between(
        &self,
        x_loc: usize,
        rx: &[Guard],
        tx: RepThread,
        y_loc: usize,
        ry: &[Guard],
        ty: RepThread,
    ) -> Vec<(usize, bool)> {
        if tx.block != ty.block {
            return Vec::new();
        }
        self.events
            .iter()
            .filter(|e| matches!(e.kind, EvKind::Sync | EvKind::Epoch))
            .filter(|e| e.loc > x_loc && e.loc < y_loc)
            .filter(|e| {
                e.residual(tx).is_some_and(|r| subset(&r, rx))
                    && e.residual(ty).is_some_and(|r| subset(&r, ry))
            })
            .map(|e| (e.loc, matches!(e.kind, EvKind::Epoch)))
            .collect()
    }

    /// Classifies the ordering of `x@tx` before `y@ty`. `rx`/`ry` are
    /// the events' residual guards at their threads.
    #[allow(clippy::too_many_arguments)]
    fn order(
        &self,
        x_loc: usize,
        rx: &[Guard],
        tx: RepThread,
        y_loc: usize,
        ry: &[Guard],
        ty: RepThread,
    ) -> Order {
        // Scoped chains: covering chain ⇒ persist order (§5.3 — the
        // acquire inherits the release's persist dependencies);
        // non-covering chain ⇒ execution order with the value flowing
        // but no persist edge, unless a durability point precedes the
        // release.
        let chains = self.chains(x_loc, rx, tx, y_loc, ry, ty);
        let mut narrow = None;
        let mut exec = false;
        for &(rel_loc, acq_loc, eff, covers) in &chains {
            if covers {
                return Order::Persist;
            }
            if self.durability_between(x_loc, rel_loc, rx, tx) {
                return Order::Persist;
            }
            narrow.get_or_insert((rel_loc, acq_loc, eff));
            exec = true;
        }
        // Volatile handshakes: execution order; persist order with a
        // producer-side durability point before the publish.
        for rel_loc in self.vol_chains(x_loc, rx, tx, y_loc, ry, ty) {
            if self.durability_between(x_loc, rel_loc, rx, tx) {
                return Order::Persist;
            }
            exec = true;
        }
        // Block barriers: execution order; an epoch barrier is its own
        // durability point, a syncBlock needs a dFence before it.
        for (bloc, is_epoch) in self.barriers_between(x_loc, rx, tx, y_loc, ry, ty) {
            if is_epoch || self.durability_between(x_loc, bloc, rx, tx) {
                return Order::Persist;
            }
            exec = true;
        }
        // Intra-warp lockstep: program order is execution order; an
        // ordering point between the two seals the earlier entry.
        if Self::same_warp(tx, ty) && x_loc < y_loc {
            let sealed = self.events.iter().any(|e| {
                matches!(
                    e.kind,
                    EvKind::OFence
                        | EvKind::DFence
                        | EvKind::Epoch
                        | EvKind::Rel { .. }
                        | EvKind::Acq { .. }
                ) && e.loc > x_loc
                    && e.loc < y_loc
                    && (e.residual(tx).is_some_and(|r| subset(&r, rx))
                        || e.residual(ty).is_some_and(|r| subset(&r, ry)))
            });
            if sealed {
                return Order::Persist;
            }
            exec = true;
        }
        if let Some((rel_loc, acq_loc, eff)) = narrow {
            return Order::NarrowChain(rel_loc, acq_loc, eff);
        }
        if exec {
            return Order::ExecOnly;
        }
        Order::None
    }

    /// The `(block, tid, nth)` persist mark of event `e` at thread `t`,
    /// when statically definite (the event and every preceding persist
    /// unconditional at `t` and loop-free).
    fn mark_of(&self, e: &Ev, t: RepThread) -> Option<(u32, u32, u32)> {
        if !e.residual(t)?.is_empty() {
            return None;
        }
        let mut nth = 0u32;
        for p in self.events {
            if !matches!(p.kind, EvKind::Persist(..)) || p.loc >= e.loc {
                continue;
            }
            match p.residual(t) {
                None => {}
                Some(r) if r.is_empty() => nth += 1,
                Some(_) => return None,
            }
        }
        Some((t.block, t.tid, nth))
    }

    /// Hazard for "y@ty can be durable while x@tx is lost".
    fn hazard(&self, x: &Ev, tx: RepThread, y: &Ev, ty: RepThread) -> Option<Hazard> {
        if let (Some(lost), Some(durable)) = (self.mark_of(x, tx), self.mark_of(y, ty)) {
            return Some(Hazard::MarkOrder { durable, lost });
        }
        let (EvKind::Persist(ax, _), EvKind::Persist(ay, _)) = (&x.kind, &y.kind) else {
            return None;
        };
        match (ax.at(tx), ay.at(ty)) {
            (Some(l), Some(d)) if l != d => Some(Hazard::AddrOrder {
                durable: d,
                lost: l,
            }),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Runs the inter-thread analysis (P007–P012) over one kernel.
///
/// Requires a launch geometry in `cfg`; without one the report is
/// empty (there are no thread pairs to analyze).
#[must_use]
pub fn interthread_kernel(kernel: &Kernel, cfg: &LintConfig) -> LintReport {
    let mut f = Findings::default();
    if let Some(launch) = cfg.launch {
        pair_rules(&walk(kernel, cfg).events, launch, &mut f);
    }
    LintReport::from_diags(kernel.name().to_string(), f.diags)
}

/// Runs every rule — the intra-thread rules of [`crate::lint_kernel`]
/// plus the inter-thread rules here — off one walk of the kernel.
#[must_use]
pub fn lint_all(kernel: &Kernel, cfg: &LintConfig) -> LintReport {
    let mut w = walk(kernel, cfg);
    check_sync_sites(&mut w, cfg);
    if let Some(launch) = cfg.launch {
        pair_rules(&w.events, launch, &mut w.findings);
    }
    LintReport::from_diags(kernel.name().to_string(), w.findings.diags)
}

/// P007–P012 over the walk's events.
#[allow(clippy::too_many_lines)]
fn pair_rules(events: &[Ev], launch: LaunchConfig, f: &mut Findings) {
    let a = Analysis { events };
    let pairs = rep_pairs(launch);

    // -------- conflicting persist/persist and persist/load pairs ------
    for &(p1, p2, level) in &pairs {
        for (tx, ty) in [(p1, p2), (p2, p1)] {
            for x in events {
                let EvKind::Persist(ax, vx) = &x.kind else {
                    continue;
                };
                let Some(rx) = x.residual(tx) else {
                    continue;
                };
                // store/store races
                for y in events {
                    let EvKind::Persist(ay, vy) = &y.kind else {
                        continue;
                    };
                    if x.loc == y.loc && level == ScopeLevel::IntraWarp {
                        // One warp instruction; lanes commit together.
                        continue;
                    }
                    if x.loc > y.loc || (x.loc == y.loc && tx > ty) {
                        continue; // each unordered event pair once
                    }
                    let Some(ry) = y.residual(ty) else {
                        continue;
                    };
                    let alias = conflicts(*ax, tx, *ay, ty);
                    if alias == Alias::No {
                        continue;
                    }
                    if values_equal(*vx, tx, *vy, ty) {
                        // Both threads persist the same value: the durable
                        // outcome is drain-order independent.
                        continue;
                    }
                    let fwd = a.order(x.loc, &rx, tx, y.loc, &ry, ty);
                    if fwd == Order::Persist {
                        continue;
                    }
                    let bwd = a.order(y.loc, &ry, ty, x.loc, &rx, tx);
                    if bwd == Order::Persist {
                        continue;
                    }
                    let mut d = classify_store_pair(&a, level, x, tx, &fwd, y, ty, &bwd);
                    if alias == Alias::May {
                        demote_may(&mut d);
                    }
                    f.push(d);
                }
                // persist → dependent recovery-read races: the read's
                // thread republishes (first persist after the read); the
                // recovery invariant "republication implies source" is
                // what a crash can break.
                for y in events {
                    let EvKind::PmLoad(ay) = &y.kind else {
                        continue;
                    };
                    let Some(ry) = y.residual(ty) else {
                        continue;
                    };
                    let alias = conflicts(*ax, tx, *ay, ty);
                    if alias == Alias::No {
                        continue;
                    }
                    let Some(sink) = events.iter().find(|s| {
                        matches!(s.kind, EvKind::Persist(..))
                            && s.loc > y.loc
                            && s.residual(ty).is_some_and(|r| subset(&r, &ry))
                    }) else {
                        continue;
                    };
                    let rs = sink.residual(ty).unwrap_or_default();
                    let ord = a.order(x.loc, &rx, tx, sink.loc, &rs, ty);
                    if ord == Order::Persist {
                        continue;
                    }
                    let mut d = match ord {
                        Order::NarrowChain(rel_loc, acq_loc, eff) => {
                            narrow_chain_diag(events, level, rel_loc, acq_loc, eff)
                        }
                        _ => Diagnostic::new(
                            LintCode::UnsyncRecoveryRead,
                            y.loc,
                            y.instr.clone(),
                            Some((x.loc, x.instr.clone())),
                            format!(
                                "{} read of a persist made by {} with no covering \
                                 release/acquire chain and no producer-side durability \
                                 point; state derived from the read can become durable \
                                 while the source persist is lost",
                                level.name(),
                                tx.pos(),
                            ),
                        ),
                    };
                    if d.hazard.is_none() {
                        d.hazard = a.hazard(x, tx, sink, ty);
                    }
                    if alias == Alias::May {
                        demote_may(&mut d);
                    }
                    f.push(d);
                }
            }
        }
    }

    // -------- P011: dominated fences ----------------------------------
    dominated_fences(events, |d| f.push(d));

    // -------- P012: over-wide scopes ----------------------------------
    overwide_scopes(&pairs, events, |d| f.push(d));
}

/// Do the two stores provably write the same value at the two threads?
fn values_equal(a: Option<Affine>, ta: RepThread, b: Option<Affine>, tb: RepThread) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => a.eval(ta.tid, ta.block) == b.eval(tb.tid, tb.block),
        _ => false,
    }
}

/// How two accesses may overlap at a concrete thread pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Alias {
    /// Provably disjoint.
    No,
    /// Concrete addresses overlap.
    Definite,
    /// Same base object with an unresolvable offset on at least one
    /// side: overlap cannot be proven or refuted. Findings built on a
    /// may-alias demote from error to warning severity.
    May,
}

/// How the two accesses overlap at this concrete thread pair: concrete
/// addresses decide exactly; unknown offsets fall back to base-object
/// identity, which proves nothing either way ([`Alias::May`]).
fn conflicts(ax: SymAddr, tx: RepThread, ay: SymAddr, ty: RepThread) -> Alias {
    match (ax.at(tx), ay.at(ty)) {
        (Some(x), Some(y)) => {
            if x < y.saturating_add(ay.width) && y < x.saturating_add(ax.width) {
                Alias::Definite
            } else {
                Alias::No
            }
        }
        _ => {
            if ax.obj.is_some() && ax.obj == ay.obj {
                Alias::May
            } else {
                Alias::No
            }
        }
    }
}

/// Demotes a finding that rests on an unproven overlap: marks it `may`
/// (warning severity for error-class codes) and says so in the
/// message.
fn demote_may(d: &mut Diagnostic) {
    d.may = true;
    d.message.push_str(" [may-alias: overlap not proven]");
}

/// P008 for the chain `rel_loc → acq_loc`, whose effective scope `eff`
/// is narrower than a `level` pair needs; both sites are recorded
/// events.
fn narrow_chain_diag(
    events: &[Ev],
    level: ScopeLevel,
    rel_loc: usize,
    acq_loc: usize,
    eff: Scope,
) -> Diagnostic {
    let instr = |loc: usize| {
        events
            .iter()
            .find(|e| e.loc == loc)
            .map_or_else(String::new, |e| e.instr.clone())
    };
    let need = level.required_scope();
    let mut d = Diagnostic::new(
        LintCode::PairScopeTooNarrow,
        acq_loc,
        instr(acq_loc),
        Some((rel_loc, instr(rel_loc))),
        format!(
            "release/acquire chain orders this {} pair, but its effective scope \
             `{eff}` is narrower than the pair's least common scope `{need}`; the \
             value flows without a persist-order edge (§5.3) — widen both sides \
             to `{need}`",
            level.name(),
        ),
    );
    d.fix = Some(Fix {
        title: format!("widen release/acquire scopes to {need}"),
        edits: vec![
            Edit::SetScope {
                loc: rel_loc,
                scope: need,
            },
            Edit::SetScope {
                loc: acq_loc,
                scope: need,
            },
        ],
    });
    d
}

#[allow(clippy::too_many_arguments)]
fn classify_store_pair(
    a: &Analysis<'_>,
    level: ScopeLevel,
    x: &Ev,
    tx: RepThread,
    fwd: &Order,
    y: &Ev,
    ty: RepThread,
    bwd: &Order,
) -> Diagnostic {
    // Prefer the direction with the most structure for the diagnostic.
    if let Order::NarrowChain(rel_loc, acq_loc, eff) = fwd {
        let mut d = narrow_chain_diag(a.events, level, *rel_loc, *acq_loc, *eff);
        d.hazard = a.hazard(x, tx, y, ty);
        return d;
    }
    if let Order::NarrowChain(rel_loc, acq_loc, eff) = bwd {
        let mut d = narrow_chain_diag(a.events, level, *rel_loc, *acq_loc, *eff);
        d.hazard = a.hazard(y, ty, x, tx);
        return d;
    }
    if *fwd == Order::ExecOnly || *bwd == Order::ExecOnly {
        // Execution-ordered but drain-order free: the "later" store can
        // still become durable first.
        let (e1, t1, e2, t2) = if *fwd == Order::ExecOnly {
            (x, tx, y, ty)
        } else {
            (y, ty, x, tx)
        };
        let mut d = Diagnostic::new(
            LintCode::DrainOrderRace,
            e2.loc,
            e2.instr.clone(),
            Some((e1.loc, e1.instr.clone())),
            format!(
                "conflicting {} persists are execution-ordered but carry no \
                 persist-order edge; which one survives a crash depends on \
                 drain order (add a dFence before the synchronization point, \
                 or a scoped release/acquire)",
                level.name(),
            ),
        );
        d.hazard = a.hazard(e1, t1, e2, t2);
        return d;
    }
    let mut d = Diagnostic::new(
        LintCode::CrossThreadRace,
        y.loc,
        y.instr.clone(),
        Some((x.loc, x.instr.clone())),
        format!(
            "conflicting persists from {} and {} ({} pair) with no synchronizing \
             release/acquire chain in either direction; the durable outcome is \
             unconstrained",
            tx.pos(),
            ty.pos(),
            level.name(),
        ),
    );
    d.hazard = a.hazard(x, tx, y, ty);
    d
}

/// P011: a fence immediately dominated by an adjacent fence of equal or
/// greater strength, with nothing to order in between, is dead.
fn dominated_fences(events: &[Ev], mut push: impl FnMut(Diagnostic)) {
    let strength = |k: &EvKind| match k {
        EvKind::OFence => Some(1u8),
        EvKind::DFence | EvKind::Epoch => Some(2),
        _ => None,
    };
    let mut sorted: Vec<&Ev> = events.iter().collect();
    sorted.sort_by_key(|e| e.loc);
    for (i, f1) in sorted.iter().enumerate() {
        let Some(s1) = strength(&f1.kind) else {
            continue;
        };
        if matches!(f1.kind, EvKind::Epoch) {
            continue; // epoch barriers also synchronize; never "dead"
        }
        for f2 in &sorted[i + 1..] {
            // Anything the first fence could be ordering on some thread
            // ends the scan.
            if matches!(
                f2.kind,
                EvKind::Persist(..)
                    | EvKind::Unresolved
                    | EvKind::PmLoad(_)
                    | EvKind::VolStore(_)
                    | EvKind::Rel { .. }
                    | EvKind::Acq { .. }
            ) && !exclusive(&f1.guards, &f2.guards)
            {
                break;
            }
            let Some(s2) = strength(&f2.kind) else {
                continue;
            };
            // The dominator must fire whenever the dominated fence does,
            // in the same loop context, and be at least as strong.
            if s2 >= s1 && subset(&f2.guards, &f1.guards) && f1.loop_guards() == f2.loop_guards() {
                let mut d = Diagnostic::new(
                    LintCode::DominatedFence,
                    f1.loc,
                    f1.instr.clone(),
                    Some((f2.loc, f2.instr.clone())),
                    format!(
                        "this fence is dominated by the {} at #{} with no persist \
                         in between; it orders nothing the stronger fence does \
                         not already order",
                        f2.instr, f2.loc
                    ),
                );
                d.fix = Some(Fix {
                    title: format!("drop the dominated fence at #{}", f1.loc),
                    edits: vec![Edit::DropInstr { loc: f1.loc }],
                });
                push(d);
                break;
            }
        }
    }
}

/// P012: a release/acquire chain whose scope is wider than any sampled
/// pair it actually orders.
fn overwide_scopes(
    pairs: &[(RepThread, RepThread, ScopeLevel)],
    events: &[Ev],
    mut push: impl FnMut(Diagnostic),
) {
    for rel in events {
        let EvKind::Rel {
            scope: rs,
            flag: rf,
        } = &rel.kind
        else {
            continue;
        };
        for acq in events {
            let EvKind::Acq {
                scope: as_,
                flag: af,
                spins: true,
            } = &acq.kind
            else {
                continue;
            };
            let eff = (*rs).min(*as_);
            if eff == Scope::Block {
                continue; // nothing narrower to suggest
            }
            // Which sampled pairs rely on this chain?
            let mut used: Option<ScopeLevel> = None;
            for &(p1, p2, level) in pairs {
                for (tx, ty) in [(p1, p2), (p2, p1)] {
                    if rel.residual(tx).is_none() || acq.residual(ty).is_none() {
                        continue;
                    }
                    if !Analysis::flags_match(*rf, tx, *af, ty) {
                        continue;
                    }
                    let depends = events.iter().any(|x| {
                        matches!(x.kind, EvKind::Persist(..))
                            && x.loc < rel.loc
                            && x.residual(tx).is_some()
                            && events.iter().any(|y| {
                                matches!(y.kind, EvKind::Persist(..) | EvKind::PmLoad(_))
                                    && y.loc > acq.loc
                                    && y.residual(ty).is_some()
                                    && match (&x.kind, &y.kind) {
                                        (
                                            EvKind::Persist(ax, _),
                                            EvKind::Persist(ay, _) | EvKind::PmLoad(ay),
                                        ) => conflicts(*ax, tx, *ay, ty) != Alias::No,
                                        _ => false,
                                    }
                            })
                    });
                    if depends {
                        used = Some(used.map_or(level, |u| u.max(level)));
                    }
                }
            }
            let Some(max_level) = used else {
                continue;
            };
            let need = max_level.required_scope();
            if eff > need {
                let mut d = Diagnostic::new(
                    LintCode::OverwideScope,
                    acq.loc,
                    acq.instr.clone(),
                    Some((rel.loc, rel.instr.clone())),
                    format!(
                        "effective scope `{eff}` is wider than any racing pair this \
                         chain orders (widest: {}); narrower scopes drain less — \
                         narrow both sides to `{need}`",
                        max_level.name(),
                    ),
                );
                d.fix = Some(Fix {
                    title: format!("narrow release/acquire scopes to {need}"),
                    edits: vec![
                        Edit::SetScope {
                            loc: rel.loc,
                            scope: need,
                        },
                        Edit::SetScope {
                            loc: acq.loc,
                            scope: need,
                        },
                    ],
                });
                push(d);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Fix application
// ---------------------------------------------------------------------------

/// Applies a [`Fix`]'s edits to a kernel, producing the rewritten
/// kernel (named `<name>__fixed`). Locations are pre-order instruction
/// indices of the *original* kernel.
///
/// # Panics
/// Panics if an edit's location does not name an instruction of the
/// expected kind (a `SetScope` on something that is not `pRel`/`pAcq`).
#[must_use]
pub fn apply_fix(kernel: &Kernel, fix: &Fix) -> Kernel {
    fn rewrite(block: &[Stmt], pc: &mut usize, edits: &[Edit], out: &mut Vec<Stmt>) {
        for stmt in block {
            match stmt {
                Stmt::I(i) => {
                    let loc = *pc;
                    *pc += 1;
                    let mut drop = false;
                    let mut instr = i.clone();
                    for e in edits {
                        match e {
                            Edit::DropInstr { loc: l } if *l == loc => drop = true,
                            Edit::SetScope { loc: l, scope } if *l == loc => {
                                instr = match instr {
                                    Instr::PAcq(d, a, _) => Instr::PAcq(d, a, *scope),
                                    Instr::PRel(a, v, _) => Instr::PRel(a, v, *scope),
                                    other => {
                                        panic!("SetScope at #{loc} targets `{other}`")
                                    }
                                };
                            }
                            _ => {}
                        }
                    }
                    if !drop {
                        out.push(Stmt::I(instr));
                    }
                }
                Stmt::If {
                    cond,
                    then_b,
                    else_b,
                } => {
                    *pc += 1;
                    let mut t = Vec::new();
                    rewrite(then_b, pc, edits, &mut t);
                    let mut e = Vec::new();
                    rewrite(else_b, pc, edits, &mut e);
                    out.push(Stmt::If {
                        cond: *cond,
                        then_b: t.into(),
                        else_b: e.into(),
                    });
                }
                Stmt::While { cond_b, cond, body } => {
                    *pc += 1;
                    let mut c = Vec::new();
                    rewrite(cond_b, pc, edits, &mut c);
                    let mut b = Vec::new();
                    rewrite(body, pc, edits, &mut b);
                    out.push(Stmt::While {
                        cond_b: c.into(),
                        cond: *cond,
                        body: b.into(),
                    });
                }
            }
        }
    }
    let mut out = Vec::new();
    let mut pc = 0usize;
    rewrite(kernel.program(), &mut pc, &fix.edits, &mut out);
    let program: Arc<[Stmt]> = out.into();
    Kernel::new(
        format!("{}__fixed", kernel.name()),
        program,
        kernel.params().as_slice().to_vec(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;
    use sbrp_isa::{KernelBuilder, Special};

    const PM: u64 = 1 << 40;

    fn cfg(blocks: u32, tpb: u32) -> LintConfig {
        let mut c = LintConfig::with_launch(LaunchConfig::new(blocks, tpb));
        c.pm_base = PM;
        c
    }

    /// Two blocks, each storing (uncoordinated) to the same PM word.
    fn race_kernel() -> Kernel {
        let mut b = KernelBuilder::new();
        let data = b.param(0);
        let cta = b.special(Special::CtaId);
        let t = b.special(Special::Tid);
        let lead = b.eqi(t, 0);
        b.if_then(lead, |b| {
            let v = b.addi(cta, 1);
            b.st(data, 0, v, sbrp_isa::MemWidth::W8);
            b.dfence();
        });
        b.set_params(vec![PM]);
        b.build("race")
    }

    #[test]
    fn cross_block_race_is_flagged_with_hazard() {
        let r = interthread_kernel(&race_kernel(), &cfg(2, 32));
        assert!(r.has(LintCode::CrossThreadRace), "{}", r.to_text());
        let d = r
            .diags
            .iter()
            .find(|d| d.code == LintCode::CrossThreadRace)
            .unwrap();
        assert!(d.hazard.is_some());
    }

    #[test]
    fn strided_global_addresses_are_quiet() {
        // Every thread stores to its own gtid-strided slot: no overlap.
        let mut b = KernelBuilder::new();
        let data = b.param(0);
        let t = b.special(Special::GlobalTid);
        let off = b.muli(t, 8);
        let p = b.add(data, off);
        let v = b.movi(1);
        b.st(p, 0, v, sbrp_isa::MemWidth::W8);
        b.dfence();
        b.set_params(vec![PM]);
        let k = b.build("strided");
        let r = interthread_kernel(&k, &cfg(2, 64));
        assert_eq!(r.errors(), 0, "{}", r.to_text());
    }

    #[test]
    fn device_chain_orders_cross_block_pairs() {
        let k = crate::mutants::message_pass_pm(PM, Scope::Device, Scope::Device, "mp_dev");
        let r = interthread_kernel(&k, &cfg(2, 32));
        assert_eq!(r.errors(), 0, "{}", r.to_text());
    }

    #[test]
    fn narrow_chain_is_p008_with_widening_fix_that_applies() {
        let k = crate::mutants::message_pass_pm(PM, Scope::Block, Scope::Block, "mp_blk");
        let r = interthread_kernel(&k, &cfg(2, 32));
        assert!(r.has(LintCode::PairScopeTooNarrow), "{}", r.to_text());
        let d = r
            .diags
            .iter()
            .find(|d| d.code == LintCode::PairScopeTooNarrow)
            .unwrap();
        let fix = d.fix.as_ref().expect("P008 carries a fix");
        let fixed = apply_fix(&k, fix);
        let r2 = lint_all(&fixed, &cfg(2, 32));
        assert_eq!(r2.errors(), 0, "{}", r2.to_text());
    }

    #[test]
    fn dominated_ofence_is_p011_and_fix_drops_it() {
        let mut b = KernelBuilder::new();
        let data = b.param(0);
        let v = b.movi(1);
        b.st(data, 0, v, sbrp_isa::MemWidth::W8);
        b.ofence();
        b.dfence();
        b.set_params(vec![PM]);
        let k = b.build("dom");
        let r = interthread_kernel(&k, &cfg(1, 32));
        let d = r
            .diags
            .iter()
            .find(|d| d.code == LintCode::DominatedFence)
            .expect("P011");
        let fixed = apply_fix(&k, d.fix.as_ref().unwrap());
        assert_eq!(fixed.static_len(), k.static_len() - 1);
        let r2 = interthread_kernel(&fixed, &cfg(1, 32));
        assert!(!r2.has(LintCode::DominatedFence), "{}", r2.to_text());
    }

    #[test]
    fn fence_before_a_correlated_persist_is_not_dominated() {
        // v = ld src; if tid==0 { st o0←v }; if lane==0 { oFence };
        // if tid==0 { st o1←v }; dFence. The leader runs the oFence and
        // the second store, so dropping the fence would unorder the pair.
        let mut b = KernelBuilder::new();
        let o0 = b.param(0);
        let o1 = b.param(1);
        let src = b.param(2);
        let v = b.ld(src, 0, sbrp_isa::MemWidth::W8);
        let t = b.special(Special::Tid);
        let lead = b.eqi(t, 0);
        b.if_then(lead, |b| b.st(o0, 0, v, sbrp_isa::MemWidth::W8));
        let l = b.special(Special::Lane);
        let lane0 = b.eqi(l, 0);
        b.if_then(lane0, KernelBuilder::ofence);
        b.if_then(lead, |b| b.st(o1, 0, v, sbrp_isa::MemWidth::W8));
        b.dfence();
        b.set_params(vec![PM, PM + 0x1000, 0x1000]);
        let k = b.build("correlated");
        let r = lint_all(&k, &cfg(2, 64));
        assert!(!r.has(LintCode::DominatedFence), "{}", r.to_text());
        for fix in r.diags.iter().filter_map(|d| d.fix.as_ref()) {
            let r2 = lint_all(&apply_fix(&k, fix), &cfg(2, 64));
            assert!(!r2.has(LintCode::UnorderedPersists), "{}", r2.to_text());
        }
    }

    #[test]
    fn fence_before_a_persist_under_the_same_unsampled_guard_is_not_dominated() {
        // v = ld src; if lane==5 { st o0←v; oFence; st o1←v }; dFence.
        // No representative thread is lane 5, but the lanes that run the
        // oFence also run the second store.
        let mut b = KernelBuilder::new();
        let o0 = b.param(0);
        let o1 = b.param(1);
        let src = b.param(2);
        let v = b.ld(src, 0, sbrp_isa::MemWidth::W8);
        let l = b.special(Special::Lane);
        let lane5 = b.eqi(l, 5);
        b.if_then(lane5, |b| {
            b.st(o0, 0, v, sbrp_isa::MemWidth::W8);
            b.ofence();
            b.st(o1, 0, v, sbrp_isa::MemWidth::W8);
        });
        b.dfence();
        b.set_params(vec![PM, PM + 0x1000, 0x1000]);
        let k = b.build("unsampled");
        let r = lint_all(&k, &cfg(2, 64));
        assert!(!r.has(LintCode::DominatedFence), "{}", r.to_text());
        for fix in r.diags.iter().filter_map(|d| d.fix.as_ref()) {
            let r2 = lint_all(&apply_fix(&k, fix), &cfg(2, 64));
            assert!(!r2.has(LintCode::UnorderedPersists), "{}", r2.to_text());
        }
    }

    #[test]
    fn fence_before_an_unresolved_persist_is_not_dominated() {
        // st o0←v; oFence; st [select(c, o0, src)]←v; dFence. The second
        // store's base is unknown but it is still a persist the oFence
        // orders after the first.
        let mut b = KernelBuilder::new();
        let o0 = b.param(0);
        let src = b.param(1);
        let v = b.ld(src, 0, sbrp_isa::MemWidth::W8);
        b.st(o0, 0, v, sbrp_isa::MemWidth::W8);
        b.ofence();
        let p = b.select(v, o0, src);
        b.st(p, 0, v, sbrp_isa::MemWidth::W8);
        b.dfence();
        b.set_params(vec![PM, 0x1000]);
        let k = b.build("unresolved");
        let r = lint_all(&k, &cfg(1, 32));
        assert!(!r.has(LintCode::DominatedFence), "{}", r.to_text());
    }

    #[test]
    fn ofence_before_persist_then_dfence_is_not_dominated() {
        let mut b = KernelBuilder::new();
        let data = b.param(0);
        let v = b.movi(1);
        b.st(data, 0, v, sbrp_isa::MemWidth::W8);
        b.ofence();
        b.st(data, 128, v, sbrp_isa::MemWidth::W8);
        b.dfence();
        b.set_params(vec![PM]);
        let k = b.build("useful_fence");
        let r = interthread_kernel(&k, &cfg(1, 32));
        assert!(!r.has(LintCode::DominatedFence), "{}", r.to_text());
    }

    #[test]
    fn overwide_device_scope_on_intra_block_pair_is_p012() {
        let k = crate::mutants::two_warp_handoff(PM, Scope::Device, "wide");
        let r = interthread_kernel(&k, &cfg(1, 64));
        assert!(r.has(LintCode::OverwideScope), "{}", r.to_text());
        assert_eq!(r.errors(), 0, "{}", r.to_text());
        let d = r
            .diags
            .iter()
            .find(|d| d.code == LintCode::OverwideScope)
            .unwrap();
        let fixed = apply_fix(&k, d.fix.as_ref().unwrap());
        let r2 = interthread_kernel(&fixed, &cfg(1, 64));
        assert!(!r2.has(LintCode::OverwideScope), "{}", r2.to_text());
        assert_eq!(r2.errors(), 0, "{}", r2.to_text());
    }

    #[test]
    fn multi_path_kernel_reports_each_finding_once() {
        // The same trailing persist is reachable along both branch arms;
        // without dedup the joined walk could emit it per path.
        let mut b = KernelBuilder::new();
        let data = b.param(0);
        let t = b.special(Special::Tid);
        let low = b.lti(t, 16);
        let v = b.movi(1);
        b.if_then_else(
            low,
            |b| b.st(data, 0, v, sbrp_isa::MemWidth::W8),
            |b| b.st(data, 0, v, sbrp_isa::MemWidth::W8),
        );
        b.ofence();
        b.ofence();
        b.set_params(vec![PM]);
        let k = b.build("multipath");
        let r = lint_all(&k, &cfg(1, 32));
        let p004: Vec<_> = r
            .diags
            .iter()
            .filter(|d| d.code == LintCode::RedundantFence)
            .collect();
        assert_eq!(p004.len(), 1, "{}", r.to_text());
        for w in r.diags.windows(2) {
            assert_ne!(w[0], w[1], "duplicate diagnostic survived dedup");
        }
    }

    #[test]
    fn perf_rules_never_raise_errors() {
        let k = race_kernel();
        let r = interthread_kernel(&k, &cfg(2, 32));
        for d in &r.diags {
            if matches!(d.code, LintCode::DominatedFence | LintCode::OverwideScope) {
                assert_eq!(d.severity(), Severity::Perf);
            }
        }
    }
}
