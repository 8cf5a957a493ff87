//! End-to-end crash-and-resume test of the `campaign` binary: a sweep
//! is SIGKILLed mid-flight, resumed with `--resume`, and the resumed
//! stdout must be byte-identical to an uninterrupted run — the
//! harness-side analogue of the paper's recoverability guarantee.

#![cfg(unix)]

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// A unique throwaway directory; removed by the returned guard.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("sbrp-kill-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn campaign_cmd(journal: &Path, resume: bool) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_campaign"));
    cmd.args([
        "--quick",
        "--scale",
        "128",
        "--points",
        "3",
        "--small",
        "--no-cache",
        "--jobs",
        "2",
        "--journal-dir",
    ])
    .arg(journal);
    if resume {
        cmd.arg("--resume");
    }
    cmd.stdout(Stdio::piped()).stderr(Stdio::null());
    cmd
}

/// Counts journal record files under the (single) per-sweep directory.
fn journal_records(journal: &Path) -> usize {
    let Ok(entries) = std::fs::read_dir(journal) else {
        return 0;
    };
    entries
        .filter_map(|e| e.ok())
        .filter(|e| e.path().is_dir())
        .map(|sweep_dir| {
            std::fs::read_dir(sweep_dir.path())
                .map(|records| records.filter_map(|r| r.ok()).count())
                .unwrap_or(0)
        })
        .sum()
}

#[test]
fn sigkill_mid_sweep_then_resume_matches_uninterrupted_output() {
    // Reference: one uninterrupted run.
    let clean_journal = TempDir::new("clean");
    let clean = campaign_cmd(&clean_journal.0, false)
        .output()
        .expect("clean campaign run");
    assert!(
        clean.status.success(),
        "clean campaign must pass: {}",
        String::from_utf8_lossy(&clean.stdout)
    );
    let total_records = journal_records(&clean_journal.0);
    assert!(total_records >= 2, "quick campaign journals its cells");

    // Victim: SIGKILL as soon as some (not all) cells are journaled.
    let journal = TempDir::new("victim");
    let mut victim = campaign_cmd(&journal.0, false)
        .spawn()
        .expect("victim campaign spawns");
    let deadline = Instant::now() + Duration::from_secs(600);
    loop {
        if journal_records(&journal.0) >= 1 {
            // SIGKILL, not SIGTERM: no destructors, no atexit — the
            // journal alone must carry the recovery.
            victim.kill().expect("SIGKILL victim");
            break;
        }
        if victim.try_wait().expect("poll victim").is_some() {
            // The whole sweep finished before we saw a record — rare,
            // but the resume path below still exercises a full journal.
            break;
        }
        assert!(Instant::now() < deadline, "victim made no progress");
        std::thread::sleep(Duration::from_millis(20));
    }
    let _ = victim.wait();

    // Resume: only missing cells run; stdout must match the clean run.
    let resumed = campaign_cmd(&journal.0, true)
        .output()
        .expect("resumed campaign run");
    assert!(resumed.status.success(), "resumed campaign must pass");
    assert_eq!(
        String::from_utf8_lossy(&clean.stdout),
        String::from_utf8_lossy(&resumed.stdout),
        "resumed output must be byte-identical to the uninterrupted run"
    );
}
