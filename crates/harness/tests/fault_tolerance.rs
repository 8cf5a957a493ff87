//! Torture tests for the sweep engine's fault-tolerance layer:
//! injected panics and failure-classified outputs must degrade to typed
//! [`CellOutcome`]s — never kill the sweep — while succeeding cells keep
//! producing byte-identical output at any `--jobs`, and the resume
//! journal recovers a killed sweep without re-running finished cells.

use sbrp_harness::sweep::{sweep, unwrap_outcomes, CellOutcome, SweepCell, SweepOpts};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// What a torture cell does when executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    /// Return `id * 10` successfully.
    Ok,
    /// Panic.
    Panic,
    /// Return a failure-classified output.
    Err,
}

/// A fault-injection cell. `runs` counts its executions; the `Arc` lets
/// a test keep the counter after handing the cell to a sweep.
struct TortureCell {
    id: u64,
    mode: Mode,
    runs: Arc<AtomicU32>,
}

impl TortureCell {
    fn new(id: u64, mode: Mode) -> Self {
        TortureCell {
            id,
            mode,
            runs: Arc::new(AtomicU32::new(0)),
        }
    }
}

impl SweepCell for TortureCell {
    type Out = Result<u64, String>;

    fn name(&self) -> String {
        format!("torture-{}", self.id)
    }

    fn fingerprint(&self) -> u64 {
        // Intentionally ignores `mode`: a "fixed" cell (different mode,
        // same id) resumes from a journal written by a failing run,
        // mirroring a re-invocation of the same sweep.
        0xBAD_F00D ^ self.id
    }

    fn run(&self) -> Self::Out {
        self.runs.fetch_add(1, Ordering::SeqCst);
        match self.mode {
            Mode::Ok => Ok(self.id * 10),
            Mode::Panic => panic!("injected panic in cell {}", self.id),
            Mode::Err => Err(format!("injected error in cell {}", self.id)),
        }
    }

    fn failure(&self, out: &Self::Out) -> Option<String> {
        out.as_ref().err().cloned()
    }

    fn to_cache(&self, out: &Self::Out) -> Option<String> {
        let v = out.as_ref().ok()?;
        Some(format!("{{\"schema\":1,\"kind\":\"torture\",\"v\":{v}}}"))
    }

    fn parse_cached(&self, cached: &str) -> Option<Self::Out> {
        let v = sbrp_harness::json::Json::parse(cached).ok()?;
        if v.get("kind")?.as_str()? != "torture" {
            return None;
        }
        Some(Ok(v.get("v")?.as_u64()?))
    }
}

/// Opts with no cache and no journal — each test adds what it needs.
fn opts(jobs: usize) -> SweepOpts {
    SweepOpts {
        jobs,
        ..SweepOpts::serial()
    }
}

/// A unique throwaway directory; removed by the returned guard.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("sbrp-fault-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Renders outcomes to the bytes a report would carry — the comparison
/// key for determinism checks.
fn render(outcomes: &[CellOutcome<Result<u64, String>>]) -> String {
    outcomes
        .iter()
        .map(|o| match o {
            CellOutcome::Ok(v) => format!("ok={v:?}\n"),
            other => format!("err={}\n", other.error().unwrap()),
        })
        .collect()
}

#[test]
fn injected_panic_degrades_to_a_typed_outcome_not_a_dead_sweep() {
    let cells = vec![
        TortureCell::new(1, Mode::Ok),
        TortureCell::new(2, Mode::Panic),
        TortureCell::new(3, Mode::Ok),
    ];
    let (outcomes, summary) = sweep(&opts(2), &cells);
    assert!(matches!(&outcomes[0], CellOutcome::Ok(Ok(10))));
    match &outcomes[1] {
        CellOutcome::Panicked { message } => {
            assert!(message.contains("injected panic in cell 2"), "{message}");
        }
        other => panic!("expected Panicked, got {other:?}"),
    }
    assert!(matches!(&outcomes[2], CellOutcome::Ok(Ok(30))));
    assert_eq!(summary.failed(), 1);
    assert!(summary.summary_line().contains("1 FAILED"));

    // The aggregated unwrap names the failing cell and keeps the rest.
    let err = unwrap_outcomes(&cells, outcomes).unwrap_err();
    assert_eq!(err.failures.len(), 1);
    assert_eq!(err.failures[0].0, "torture-2");
    assert!(err.failures[0].1.contains("panicked: injected panic"));
    // Every cell ran exactly once: the engine never retries.
    assert!(cells.iter().all(|c| c.runs.load(Ordering::SeqCst) == 1));
}

#[test]
fn failure_classified_output_keeps_its_typed_value() {
    let cells = vec![TortureCell::new(9, Mode::Err)];
    let (outcomes, summary) = sweep(&opts(1), &cells);
    match &outcomes[0] {
        CellOutcome::Err { out, message } => {
            assert_eq!(out.as_ref().unwrap_err(), "injected error in cell 9");
            assert_eq!(message, "injected error in cell 9");
        }
        other => panic!("expected Err, got {other:?}"),
    }
    assert_eq!(summary.failed(), 1);
    assert_eq!(cells[0].runs.load(Ordering::SeqCst), 1);
}

#[test]
fn parallel_sweeps_with_injected_failures_stay_byte_identical() {
    let build = || {
        vec![
            TortureCell::new(1, Mode::Ok),
            TortureCell::new(2, Mode::Panic),
            TortureCell::new(3, Mode::Ok),
            TortureCell::new(4, Mode::Err),
            TortureCell::new(5, Mode::Ok),
            TortureCell::new(6, Mode::Panic),
            TortureCell::new(7, Mode::Ok),
            TortureCell::new(8, Mode::Err),
        ]
    };
    let serial = opts(1);
    let parallel = opts(4);
    let (a, _) = sweep(&serial, &build());
    let (b, _) = sweep(&parallel, &build());
    assert_eq!(a.iter().filter(|o| !o.is_ok()).count(), 4);
    assert_eq!(
        render(&a),
        render(&b),
        "jobs=4 with injected failures must reproduce jobs=1 byte-for-byte"
    );
    // And the hook observes identical ordered content under both modes.
    let observe = |o: &SweepOpts| {
        let mut seen = Vec::new();
        sbrp_harness::sweep::sweep_with(o, &build(), |i, out| {
            seen.push(format!("{i}:{}", out.error().unwrap_or_default()));
        });
        seen
    };
    assert_eq!(observe(&serial), observe(&parallel));
}

#[test]
fn journal_resume_skips_completed_cells_and_reproduces_clean_output() {
    let journal = TempDir::new("resume");
    let mk = |modes: &[Mode]| -> Vec<TortureCell> {
        modes
            .iter()
            .enumerate()
            .map(|(i, &m)| TortureCell::new(i as u64 + 1, m))
            .collect()
    };
    let mut o = opts(2);
    o.journal_root = Some(journal.0.clone());

    // Phase A: cells 2 and 4 fail; the other three succeed and journal.
    let crashing = [Mode::Ok, Mode::Panic, Mode::Ok, Mode::Panic, Mode::Ok];
    let (outcomes, summary) = sweep(&o, &mk(&crashing));
    assert_eq!(summary.failed(), 2);
    assert_eq!(outcomes.iter().filter(|c| c.is_ok()).count(), 3);

    // Phase B: the flake is "fixed" (same ids/fingerprints, all Ok) and
    // the sweep resumes: only the two previously-failed cells execute.
    let fixed = mk(&[Mode::Ok; 5]);
    let counters: Vec<_> = fixed.iter().map(|c| c.runs.clone()).collect();
    o.resume = true;
    let (resumed, summary) = sweep(&o, &fixed);
    assert_eq!(summary.journal_hits(), 3, "three cells come from journal");
    let executed: Vec<u32> = counters.iter().map(|c| c.load(Ordering::SeqCst)).collect();
    assert_eq!(executed, vec![0, 1, 0, 1, 0], "only missing cells re-run");

    // The resumed output is byte-identical to an uninterrupted run.
    let (clean, _) = sweep(&opts(1), &mk(&[Mode::Ok; 5]));
    assert_eq!(render(&resumed), render(&clean));
}

#[test]
fn corrupt_journal_records_fall_back_to_live_runs() {
    let journal = TempDir::new("corrupt");
    let mut o = opts(1);
    o.journal_root = Some(journal.0.clone());
    let cells = vec![TortureCell::new(1, Mode::Ok), TortureCell::new(2, Mode::Ok)];
    let (reference, _) = sweep(&o, &cells);

    // Truncate every record mid-byte, as a kill mid-write would if the
    // writes were not atomic; resume must re-run, not crash or lie.
    let sweep_dir = std::fs::read_dir(&journal.0)
        .expect("journal root")
        .next()
        .expect("one sweep dir")
        .expect("entry")
        .path();
    for entry in std::fs::read_dir(&sweep_dir).expect("records") {
        let path = entry.expect("entry").path();
        std::fs::write(&path, "{\"schema\":1,\"kind\":\"jou").unwrap();
    }
    o.resume = true;
    let fresh = vec![TortureCell::new(1, Mode::Ok), TortureCell::new(2, Mode::Ok)];
    let counters: Vec<_> = fresh.iter().map(|c| c.runs.clone()).collect();
    let (recomputed, summary) = sweep(&o, &fresh);
    assert_eq!(summary.journal_hits(), 0, "torn records must not hit");
    assert!(counters.iter().all(|c| c.load(Ordering::SeqCst) == 1));
    assert_eq!(render(&reference), render(&recomputed));
}

#[test]
fn cache_hits_are_mirrored_into_the_journal() {
    let cache = TempDir::new("cache-mirror");
    let journal = TempDir::new("journal-mirror");
    let cells = vec![TortureCell::new(1, Mode::Ok)];

    // Warm the cache without a journal.
    let mut o = opts(1);
    o.cache_dir = Some(cache.0.clone());
    let _ = sweep(&o, &cells);

    // A cache-hit sweep with a journal must still write its record, so
    // `--resume` works even if the cache is later wiped.
    o.journal_root = Some(journal.0.clone());
    let (_, summary) = sweep(&o, &cells);
    assert_eq!(summary.cache_hits(), 1);

    o.cache_dir = None;
    o.resume = true;
    let fresh = vec![TortureCell::new(1, Mode::Ok)];
    let runs = fresh[0].runs.clone();
    let (outcomes, summary) = sweep(&o, &fresh);
    assert_eq!(summary.journal_hits(), 1);
    assert_eq!(runs.load(Ordering::SeqCst), 0, "served from journal");
    assert!(matches!(&outcomes[0], CellOutcome::Ok(Ok(10))));
}
