//! `verify`: the model checker and the linter, with no cycle simulator.
//!
//! One pass exhausts the 16 litmus shapes and a seeded range of
//! generated producer/consumer kernels with `mc::explore`, lints each
//! of them with `lint_all`, and lints every stock workload kernel.

use crate::spans::Tracer;
use crate::{ratio, Pass};
use sbrp_core::fingerprint::Fingerprint;
use sbrp_core::ModelKind;
use sbrp_isa::{Kernel, LaunchConfig};
use sbrp_lint::{lint_all, LintConfig, LintReport};
use sbrp_mc::evidence::PM_BASE;
use sbrp_mc::litmus::{self, LITMUS_PM_BASE};
use sbrp_mc::{explore, generate, McOpts, McReport, Program, Spec, ViolationKind};
use sbrp_workloads::{BuildOpts, Micro, WorkloadKind};
use std::time::Duration;

/// Generated kernels per pass; seed `s` checks generator seeds
/// `s * GENERATED .. (s + 1) * GENERATED`. With this many, the total
/// states of a pass differ by only a few percent between seeds.
pub const GENERATED: u64 = 512;
const MODELS: [ModelKind; 3] = [ModelKind::Sbrp, ModelKind::Epoch, ModelKind::Gpm];

/// What a kernel's check expects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Expect {
    /// A litmus shape: `explore` verifies it.
    Litmus,
    /// A generated kernel: lint-clean implies no model-checked violation.
    Generated,
    /// A stock workload kernel: lint reports no error.
    LintClean,
}

/// One kernel to check.
struct Case {
    name: String,
    kernel: Kernel,
    lint: LintConfig,
    mc: Option<(Program, Spec)>,
    expect: Expect,
}

/// Builds the kernels of one pass (the workload's set-up) and returns
/// them with the time it took.
fn cases(seed: u64, tr: &mut Tracer) -> (Vec<Case>, Duration) {
    let (mut out, mc_build) = tr.span("mc.build", 0, |_| {
        let mut out: Vec<Case> = litmus::all()
            .into_iter()
            .map(|l| Case {
                name: format!("litmus {}", l.name),
                kernel: l.program.kernel.clone(),
                lint: LintConfig {
                    pm_base: LITMUS_PM_BASE,
                    launch: Some(l.program.launch),
                },
                mc: Some((l.program, l.spec)),
                expect: Expect::Litmus,
            })
            .collect();
        for s in seed * GENERATED..(seed + 1) * GENERATED {
            let g = generate::generate(s, PM_BASE);
            out.push(Case {
                name: format!("generated {s}: {}", g.describe),
                lint: LintConfig {
                    pm_base: PM_BASE,
                    launch: Some(g.launch),
                },
                mc: Some(g.program_and_spec(PM_BASE)),
                kernel: g.kernel,
                expect: Expect::Generated,
            });
        }
        out
    });
    let (stock, build) = tr.span("workloads.build", 0, |_| {
        let mut stock = Vec::new();
        let mut push = |name: String, kernel: Kernel, launch: LaunchConfig| {
            stock.push(Case {
                name,
                kernel,
                lint: LintConfig::with_launch(launch),
                mc: None,
                expect: Expect::LintClean,
            });
        };
        for kind in WorkloadKind::ALL {
            let w = kind.instantiate(256, seed);
            for model in MODELS {
                let opts = BuildOpts::for_model(model);
                let l = w.kernel(opts);
                push(format!("{kind}/{model:?}/main"), l.kernel, l.launch);
                if let Some(r) = w.recovery(opts) {
                    push(format!("{kind}/{model:?}/recovery"), r.kernel, r.launch);
                }
            }
        }
        for micro in Micro::ALL {
            for model in MODELS {
                let l = micro.kernel(BuildOpts::for_model(model), 8);
                push(
                    format!("micro-{}/{model:?}", micro.label()),
                    l.kernel,
                    l.launch,
                );
            }
        }
        stock
    });
    out.extend(stock);
    (out, mc_build + build)
}

/// Builds, lints and model-checks every kernel once.
pub fn pass(seed: u64, tr: &mut Tracer) -> Pass {
    let (cases, setup) = cases(seed, tr);
    let mut p = Pass {
        setup,
        ..Pass::default()
    };
    let mut fp = Fingerprint::new();
    let (mut states, mut transitions, mut dedup, mut diagnostics) = (0u64, 0u64, 0u64, 0u64);
    let opts = McOpts {
        jobs: 1,
        ..McOpts::default()
    };
    for (i, case) in cases.iter().enumerate() {
        let group = i as u64;
        tr.span("bench.kernel", group, |tr| {
            let (lint, lint_time) = tr.span("lint.lint_all", group, |_| {
                lint_all(&case.kernel, &case.lint)
            });
            p.attempted += 1;
            diagnostics += lint.diags.len() as u64;
            fp.write_str(&case.name);
            fp.write_str(&lint.to_json());
            let (report, mc_time) = match &case.mc {
                Some((program, spec)) => {
                    let (r, t) = tr.span("mc.explore", group, |_| explore(program, spec, &opts));
                    (Some(r), t)
                }
                None => (None, Duration::ZERO),
            };
            p.items += u64::from(report.is_some());
            p.timed.push(lint_time + mc_time);
            p.work_time.push(mc_time);
            if let Some(r) = &report {
                states += r.states;
                transitions += r.transitions;
                dedup += r.dedup_hits;
                p.work += r.states as f64;
                digest_report(&mut fp, r);
            }
            if let Some(why) = check(case.expect, &lint, report.as_ref()) {
                p.fail(1, format!("{}: {why}", case.name));
            }
        });
    }
    p.digest = fp.finish();
    p.exact = vec![
        ("mc.states", states as f64),
        ("mc.transitions", transitions as f64),
        ("mc.dedup_ratio", ratio(dedup as f64, transitions as f64)),
        ("lint.diagnostics", diagnostics as f64),
    ];
    p
}

fn digest_report(fp: &mut Fingerprint, r: &McReport) {
    for v in [r.states, r.transitions, r.dedup_hits, r.complete_executions] {
        fp.write_u64(v);
    }
    for v in &r.violations {
        fp.write_str(&v.to_string());
    }
    for reached in &r.reached {
        fp.write_u64(reached.as_ref().map_or(u64::MAX, |s| s.len() as u64));
    }
    fp.write_u64(r.signatures.len() as u64);
}

/// Why a kernel's outcome differs from its expectation, if it does.
fn check(expect: Expect, lint: &LintReport, report: Option<&McReport>) -> Option<String> {
    match (expect, report) {
        (Expect::Litmus, Some(r)) => (!r.verified() || r.complete_executions == 0).then(|| {
            format!(
                "{} violations, reach {:?}",
                r.violations.len(),
                r.reached.iter().map(Option::is_some).collect::<Vec<_>>()
            )
        }),
        (Expect::Generated, Some(r)) => {
            let violated = r
                .violations
                .iter()
                .any(|v| v.kind == ViolationKind::AddrImplies);
            let other = r
                .violations
                .iter()
                .filter(|v| v.kind != ViolationKind::AddrImplies)
                .count();
            if other > 0 {
                Some(format!("{other} unexpected violations"))
            } else if violated && lint.errors() == 0 {
                Some("lint-clean but the model checker found a violation".into())
            } else {
                None
            }
        }
        (Expect::LintClean, None) => {
            (lint.errors() > 0).then(|| format!("{} lint errors", lint.errors()))
        }
        _ => Some("kernel was not checked as planned".into()),
    }
}
