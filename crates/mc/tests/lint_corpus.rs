//! Corpus goldens over the 16 litmus shapes and generator seeds
//! `0..512`, one line per kernel, for the static linter and for the
//! model checker.
//!
//! A `lint_corpus.txt` line carries the kernel name, every finding as
//! `code@loc→related`, and a fingerprint of the report's JSON, so any
//! drift in messages, fixes, hazards or `may` flags shows up without
//! committing the full reports.
//!
//! An `mc_corpus.txt` line carries the exploration counters of
//! `explore` (states, transitions, dedup hits, complete executions),
//! the violation count per kind, the length of each `reached`
//! schedule, the number of execution signatures and a fingerprint of
//! the violations' rendered text. A change to the state hash or to how
//! states are branched that moves any exploration shows up here.
//!
//! Regenerate after an intentional change with:
//! `SBRP_UPDATE_GOLDEN=1 cargo test -p sbrp-mc --test lint_corpus`

use sbrp_core::fingerprint::Fingerprint;
use sbrp_isa::Kernel;
use sbrp_lint::{lint_all, LintConfig};
use sbrp_mc::evidence::PM_BASE;
use sbrp_mc::generate::generate;
use sbrp_mc::litmus::{self, LITMUS_PM_BASE};
use sbrp_mc::{explore, McOpts, McReport, ViolationKind};
use std::fmt::Write as _;
use std::path::PathBuf;

const SEEDS: u64 = 512;

fn line(kernel: &Kernel, cfg: &LintConfig) -> String {
    let report = lint_all(kernel, cfg);
    let mut out = kernel.name().to_string();
    for d in &report.diags {
        write!(out, " {}@{}", d.code, d.loc).unwrap();
        if let Some((rel, _)) = &d.related {
            write!(out, "→{rel}").unwrap();
        }
    }
    let mut fp = Fingerprint::new();
    fp.write_str(&report.to_json());
    write!(out, " #{}", Fingerprint::hex(fp.finish())).unwrap();
    out
}

fn lint_corpus() -> String {
    let mut out = String::new();
    for l in litmus::all() {
        let cfg = LintConfig {
            pm_base: LITMUS_PM_BASE,
            launch: Some(l.program.launch),
        };
        writeln!(out, "{}", line(&l.program.kernel, &cfg)).unwrap();
    }
    for seed in 0..SEEDS {
        let g = generate(seed, PM_BASE);
        let cfg = LintConfig {
            pm_base: PM_BASE,
            launch: Some(g.launch),
        };
        writeln!(out, "{}", line(&g.kernel, &cfg)).unwrap();
    }
    out
}

const KINDS: [ViolationKind; 7] = [
    ViolationKind::CrashCut,
    ViolationKind::AddrImplies,
    ViolationKind::DurableAtExit,
    ViolationKind::NoPending,
    ViolationKind::DFenceIncomplete,
    ViolationKind::Expectation,
    ViolationKind::Deadlock,
];

fn mc_line(name: &str, r: &McReport) -> String {
    let mut out = format!(
        "{name} states={} transitions={} dedup={} complete={}",
        r.states, r.transitions, r.dedup_hits, r.complete_executions
    );
    for kind in KINDS {
        let n = r.violations.iter().filter(|v| v.kind == kind).count();
        if n > 0 {
            write!(out, " {kind}={n}").unwrap();
        }
    }
    out.push_str(" reached=[");
    for (i, reached) in r.reached.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        match reached {
            Some(s) => write!(out, "{sep}{}", s.len()).unwrap(),
            None => write!(out, "{sep}-").unwrap(),
        }
    }
    let mut fp = Fingerprint::new();
    for v in &r.violations {
        fp.write_str(&v.to_string());
    }
    write!(
        out,
        "] sigs={} #{}",
        r.signatures.len(),
        Fingerprint::hex(fp.finish())
    )
    .unwrap();
    out
}

fn mc_corpus() -> String {
    let opts = McOpts {
        jobs: 1,
        ..McOpts::default()
    };
    let mut out = String::new();
    for l in litmus::all() {
        let r = explore(&l.program, &l.spec, &opts);
        writeln!(out, "{}", mc_line(l.program.kernel.name(), &r)).unwrap();
    }
    for seed in 0..SEEDS {
        let g = generate(seed, PM_BASE);
        let (program, spec) = g.program_and_spec(PM_BASE);
        let r = explore(&program, &spec, &opts);
        writeln!(out, "{}", mc_line(g.kernel.name(), &r)).unwrap();
    }
    out
}

/// Compares `text` with the committed golden `file`, or rewrites the
/// golden when `SBRP_UPDATE_GOLDEN` is set.
fn check_golden(file: &str, text: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file);
    if std::env::var("SBRP_UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("golden dir");
        std::fs::write(&path, text).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    let drift: Vec<String> = want
        .lines()
        .zip(text.lines())
        .filter(|(w, g)| w != g)
        .map(|(w, g)| format!("expected: {w}\n  actual: {g}"))
        .collect();
    assert!(
        drift.is_empty() && want.lines().count() == text.lines().count(),
        "{file} drifted (SBRP_UPDATE_GOLDEN=1 to regenerate):\n{}",
        drift.join("\n")
    );
}

#[test]
fn lint_corpus_matches_golden() {
    check_golden("lint_corpus.txt", &lint_corpus());
}

#[test]
fn mc_corpus_matches_golden() {
    check_golden("mc_corpus.txt", &mc_corpus());
}
