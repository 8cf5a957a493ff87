//! Corpus golden for the static linter: `lint_all` over the 16 litmus
//! shapes and generator seeds `0..512`, one line per kernel.
//!
//! Each line carries the kernel name, every finding as
//! `code@loc→related`, and a fingerprint of the report's JSON, so any
//! drift in messages, fixes, hazards or `may` flags shows up without
//! committing the full reports.
//!
//! Regenerate after an intentional diagnostic change with:
//! `SBRP_UPDATE_GOLDEN=1 cargo test -p sbrp-mc --test lint_corpus`

use sbrp_core::fingerprint::Fingerprint;
use sbrp_isa::Kernel;
use sbrp_lint::{lint_all, LintConfig};
use sbrp_mc::evidence::PM_BASE;
use sbrp_mc::generate::generate;
use sbrp_mc::litmus::{self, LITMUS_PM_BASE};
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

fn corpus() -> String {
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

#[test]
fn lint_corpus_matches_golden() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/lint_corpus.txt");
    let text = corpus();
    if std::env::var("SBRP_UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("golden dir");
        std::fs::write(&path, &text).expect("write golden");
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
        "lint corpus drifted (SBRP_UPDATE_GOLDEN=1 to regenerate):\n{}",
        drift.join("\n")
    );
}
