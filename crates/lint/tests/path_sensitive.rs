//! Pins the path-sensitive semantics of the intra-thread rules that no
//! mutant or corpus kernel exercises: epoch state forked and joined at
//! data-dependent branches, pairs formed across a loop back edge, and
//! branch-literal correlation (`tid == 0` implies `lane == 0`).

use sbrp_core::scope::Scope;
use sbrp_isa::{Kernel, KernelBuilder, LaunchConfig, MemWidth, Special};
use sbrp_lint::{lint_kernel, LintCode, LintConfig};

const PM_BASE: u64 = 1 << 40;
const W8: MemWidth = MemWidth::W8;

/// `(code, loc, related loc)` of every finding under a 2×64 launch, in
/// report order.
fn findings(k: &Kernel) -> Vec<(LintCode, usize, Option<usize>)> {
    findings_with(k, &LintConfig::with_launch(LaunchConfig::new(2, 64)))
}

fn findings_with(k: &Kernel, cfg: &LintConfig) -> Vec<(LintCode, usize, Option<usize>)> {
    lint_kernel(k, cfg)
        .diags
        .iter()
        .map(|d| (d.code, d.loc, d.related.as_ref().map(|r| r.0)))
        .collect()
}

/// `v = ld src; st o0←v; if (ld flag) { oFence } else { dFence? }`.
fn fenced_on_arms(both: bool) -> Kernel {
    let mut b = KernelBuilder::new();
    let o0 = b.param(0);
    let src = b.param(1);
    let v = b.ld(src, 0, W8);
    b.st(o0, 0, v, W8);
    let c = b.ld(src, 8, W8);
    if both {
        b.if_then_else(c, |b| b.ofence(), |b| b.dfence());
    } else {
        b.if_then(c, |b| b.ofence());
    }
    b.set_params(vec![PM_BASE, 0x1000]);
    b.build("fenced_on_arms")
}

#[test]
fn store_fenced_on_both_arms_of_a_data_dependent_if_is_clean() {
    assert_eq!(findings(&fenced_on_arms(true)), vec![]);
}

#[test]
fn store_fenced_on_one_arm_is_a_trailing_persist() {
    assert_eq!(
        findings(&fenced_on_arms(false)),
        vec![(LintCode::TrailingPersist, 3, None)]
    );
}

#[test]
fn dependent_pair_across_the_loop_back_edge_is_p001() {
    // #3 v = ld src; #4 while { #5 a = ld src; #6 c = a == 0 }
    // { #7 st o0←v; #8 oFence; #9 st o1←v }; #10 dFence
    let mut b = KernelBuilder::new();
    let o0 = b.param(0);
    let o1 = b.param(1);
    let src = b.param(2);
    let v = b.ld(src, 0, W8);
    b.while_loop(
        |b| {
            let a = b.ld(src, 8, W8);
            b.eqi(a, 0)
        },
        |b| {
            b.st(o0, 0, v, W8);
            b.ofence();
            b.st(o1, 0, v, W8);
        },
    );
    b.dfence();
    b.set_params(vec![PM_BASE, PM_BASE + 0x1000, 0x1000]);
    let k = b.build("back_edge");
    assert_eq!(
        findings(&k),
        vec![(LintCode::UnorderedPersists, 7, Some(9))]
    );
}

/// `v = ld src; if tid==0 { st o0←v }; if lane==0 { oFence }`, then
/// optionally `if tid==0 { st o1←v }; dFence`.
fn leader_store_lane_fence(second: bool) -> Kernel {
    let mut b = KernelBuilder::new();
    let o0 = b.param(0);
    let o1 = b.param(1);
    let src = b.param(2);
    let v = b.ld(src, 0, W8);
    let t = b.special(Special::Tid);
    let lead = b.eqi(t, 0);
    b.if_then(lead, |b| b.st(o0, 0, v, W8));
    let l = b.special(Special::Lane);
    let lane0 = b.eqi(l, 0);
    b.if_then(lane0, |b| b.ofence());
    if second {
        b.if_then(lead, |b| b.st(o1, 0, v, W8));
        b.dfence();
    }
    b.set_params(vec![PM_BASE, PM_BASE + 0x1000, 0x1000]);
    b.build("leader_lane")
}

#[test]
fn branch_literals_do_not_discharge_a_trailing_persist() {
    // The fence runs for the leader (tid == 0 ⇒ lane == 0), but literal
    // correlation only discharges P001 pairs, never P006.
    assert_eq!(
        findings(&leader_store_lane_fence(false)),
        vec![(LintCode::TrailingPersist, 7, None)]
    );
}

#[test]
fn tid_zero_implies_lane_zero_discharges_the_dependent_pair() {
    assert_eq!(findings(&leader_store_lane_fence(true)), vec![]);
}

#[test]
fn global_leader_literal_discharges_the_pair_without_a_launch() {
    // v = ld src; if gtid==0 { st o0←v }; if lane==0 { oFence };
    // if gtid==0 { st o1←v }; dFence. gtid == 0 pins lane 0 whatever
    // the geometry, so the fence orders the leader's pair.
    let mut b = KernelBuilder::new();
    let o0 = b.param(0);
    let o1 = b.param(1);
    let src = b.param(2);
    let v = b.ld(src, 0, W8);
    let g = b.special(Special::GlobalTid);
    let lead = b.eqi(g, 0);
    b.if_then(lead, |b| b.st(o0, 0, v, W8));
    let l = b.special(Special::Lane);
    let lane0 = b.eqi(l, 0);
    b.if_then(lane0, KernelBuilder::ofence);
    b.if_then(lead, |b| b.st(o1, 0, v, W8));
    b.dfence();
    b.set_params(vec![PM_BASE, PM_BASE + 0x1000, 0x1000]);
    let k = b.build("global_leader");
    assert_eq!(findings_with(&k, &LintConfig::default()), vec![]);
}

/// A block-scoped release/acquire on a flag whose address depends on
/// the block index without an affine form: loaded from a per-block
/// table, or masked from the block index.
fn per_block_flag(loaded: bool) -> Kernel {
    let mut b = KernelBuilder::new();
    let tbl = b.param(0);
    let flags = b.param(1);
    let cta = b.special(Special::CtaId);
    let flag = if loaded {
        let slot = b.muli(cta, 8);
        let at = b.add(tbl, slot);
        b.ld(at, 0, W8)
    } else {
        let bit = b.andi(cta, 1);
        let slot = b.muli(bit, 64);
        b.add(flags, slot)
    };
    let one = b.movi(1);
    b.prel(flag, one, Scope::Block);
    let _ = b.pacq(flag, Scope::Block);
    b.set_params(vec![0x1000, 0x2000]);
    b.build("per_block_flag")
}

#[test]
fn a_flag_derived_from_the_block_index_is_per_block() {
    // Block dependence survives memory reads and non-affine arithmetic,
    // so the block-scoped pair is not a cross-block P002.
    assert_eq!(findings(&per_block_flag(true)), vec![]);
    assert_eq!(findings(&per_block_flag(false)), vec![]);
}
