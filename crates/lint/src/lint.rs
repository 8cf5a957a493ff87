//! The intra-thread rules (P001–P006) and the linter configuration.
//!
//! Epoch inference runs inside the one walk ([`crate::walk`]):
//! persistent stores accumulate in a per-path *pending* set;
//! intra-thread ordering points (`oFence`, `dFence`, `pRel`, `pAcq`,
//! epoch barrier — exactly the operations [`TraceBuilder::op`] treats as
//! ordering events) clear it. P001, P004, P005 and P006 come from that
//! path state; P002/P003 match the release and acquire sites the walk
//! collects, by flag identity, across the whole kernel.
//!
//! [`TraceBuilder::op`]: sbrp_core::formal::TraceBuilder::op

use crate::diag::{Diagnostic, LintCode, LintReport};
use crate::walk::{walk, SyncSite, Walk};
use sbrp_core::scope::Scope;
use sbrp_isa::{Kernel, LaunchConfig};

/// Linter configuration.
#[derive(Clone, Copy, Debug)]
pub struct LintConfig {
    /// First byte of the persistent (NVM) address range; addresses at or
    /// above it are persists. Defaults to the simulator's PM window.
    pub pm_base: u64,
    /// Launch geometry, when known: enables the scope-insufficiency rule
    /// and the inter-thread rules, and makes `%ntid`/`%nctaid` concrete.
    pub launch: Option<LaunchConfig>,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig {
            // Matches `sbrp_gpu_sim::config::PM_BASE` (not imported to
            // keep the linter's dependencies to core + isa).
            pm_base: 1 << 40,
            launch: None,
        }
    }
}

impl LintConfig {
    /// Configuration with a known launch geometry.
    #[must_use]
    pub fn with_launch(launch: LaunchConfig) -> Self {
        LintConfig {
            launch: Some(launch),
            ..LintConfig::default()
        }
    }
}

/// Lints one kernel against `cfg` with the intra-thread rules.
///
/// The returned report's diagnostics are sorted by location, then code,
/// so output is deterministic across runs.
#[must_use]
pub fn lint_kernel(kernel: &Kernel, cfg: &LintConfig) -> LintReport {
    let mut w = walk(kernel, cfg);
    check_sync_sites(&mut w, cfg);
    LintReport::from_diags(kernel.name().to_string(), w.findings.diags)
}

/// P002/P003: match the walk's release sites against its acquire sites
/// by flag identity.
pub(crate) fn check_sync_sites(w: &mut Walk, cfg: &LintConfig) {
    let (rels, acqs, f) = (&w.rels, &w.acqs, &mut w.findings);
    let matches = |a: &SyncSite, b: &SyncSite| -> bool {
        match (a.object, b.object) {
            (Some(x), Some(y)) if x != y => false,
            (Some(_), Some(_)) => match (a.offset, b.offset) {
                (Some(p), Some(q)) => p == q,
                _ => true,
            },
            // Unknown flag identity: conservatively assume they may match.
            _ => true,
        }
    };

    let multi_block = cfg.launch.is_some_and(|l| l.blocks > 1);
    for acq in acqs {
        for rel in rels.iter().filter(|r| matches(r, acq)) {
            let effective = rel.scope.min(acq.scope);
            let shared_flag = !(rel.block_varying || acq.block_varying);
            if effective == Scope::Block && multi_block && shared_flag {
                f.push(Diagnostic::new(
                    LintCode::InsufficientScope,
                    acq.loc,
                    acq.instr.clone(),
                    Some((rel.loc, rel.instr.clone())),
                    format!(
                        "effective scope of this release/acquire pair is `block` \
                         (release: {}, acquire: {}) but the launch has \
                         multiple blocks sharing the flag; persist ordering is not \
                         guaranteed across blocks (paper §5.3) — widen to `device`",
                        rel.scope, acq.scope
                    ),
                ));
            }
        }
    }

    let unmatched_rels = rels
        .iter()
        .filter(|r| !acqs.iter().any(|a| matches(r, a)))
        .map(|r| (r, "pRel", "pAcq"));
    let unmatched_acqs = acqs
        .iter()
        .filter(|a| !rels.iter().any(|r| matches(r, a)))
        .map(|a| (a, "pAcq", "pRel"));
    for (site, this, other) in unmatched_rels.chain(unmatched_acqs) {
        f.push(Diagnostic::new(
            LintCode::UnmatchedSync,
            site.loc,
            site.instr.clone(),
            None,
            format!(
                "{this} has no matching {other} on this flag in the kernel; \
                 fine for cross-kernel handoff, a bug otherwise"
            ),
        ));
    }
}
