//! # sbrp-bench
//!
//! The paper-evaluation harness: one binary per table/figure of §7
//! (`table1`, `table2`, `figure6` … `figure11`), plus the campaign,
//! serving, lint, model-checker and `perf` binaries. Per-layer host
//! timing lives in the standalone `perfbench/` benchmark.
//!
//! Every figure binary accepts:
//!
//! * `--scale N` — override the per-workload default size;
//! * `--small` — simulate a scaled-down 4-SM GPU instead of the paper's
//!   30-SM Table 1 machine (faster, same qualitative shapes);
//! * `--csv` — emit CSV instead of an aligned text table;
//! * `--json` — emit JSON instead of an aligned text table;
//! * `--trace-out FILE` — also write a Chrome-trace JSON timeline
//!   (load it in Perfetto / `chrome://tracing`) for a representative
//!   cell; binaries that don't trace ignore it;
//! * `--jobs N` — worker threads for the sweep (default: all hardware
//!   threads; `--jobs 1` reproduces the historical serial behaviour,
//!   byte-identically);
//! * `--no-cache` — ignore and don't write the `outputs/.cache` result
//!   cache;
//! * `--resume` — reload completed cells from the crash-safe resume
//!   journal and execute only the missing ones;
//! * `--journal-dir DIR` — resume-journal root (default
//!   `outputs/.cache/journal`; `--no-cache` also disables journaling
//!   unless this flag names a directory explicitly).
//!
//! A panicking cell becomes an explicit error row. No flag sets a
//! wall-clock deadline or a retry: every cell stops on the simulator's
//! own cycle bound, so outcomes do not depend on the host or `--jobs`.
//!
//! Run one with e.g. `cargo run -p sbrp-bench --release --bin figure6`.

use sbrp_harness::report::Table;
use sbrp_harness::sweep::SweepOpts;

/// Options shared by all figure binaries.
#[derive(Clone, Debug, Default)]
pub struct Cli {
    /// Override the per-workload default scale.
    pub scale: Option<u64>,
    /// Use the scaled-down 4-SM GPU instead of the default Table 1
    /// machine (faster, less faithful).
    pub small: bool,
    /// Emit CSV instead of text.
    pub csv: bool,
    /// Emit JSON instead of text.
    pub json: bool,
    /// Write a Chrome-trace timeline of one representative cell here.
    pub trace_out: Option<String>,
    /// Sweep worker threads; `None` (default) uses all hardware
    /// threads, `Some(1)` is serial.
    pub jobs: Option<usize>,
    /// Bypass the on-disk result cache.
    pub no_cache: bool,
    /// Reload completed cells from the resume journal.
    pub resume: bool,
    /// Resume-journal root; overrides the default and survives
    /// `--no-cache`.
    pub journal_dir: Option<String>,
}

impl Cli {
    /// Parses `std::env::args`.
    ///
    /// # Panics
    /// Panics (with usage help) on unknown flags or a malformed
    /// `--scale`.
    #[must_use]
    pub fn parse() -> Self {
        let mut cli = Cli::default();
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--scale" => {
                    let v = args.next().expect("--scale needs a value");
                    cli.scale = Some(v.parse().expect("--scale must be an integer"));
                }
                "--small" => cli.small = true,
                "--csv" => cli.csv = true,
                "--json" => cli.json = true,
                "--trace-out" => {
                    cli.trace_out = Some(args.next().expect("--trace-out needs a file path"));
                }
                "--help" | "-h" => {
                    println!(
                        "usage: <figure-bin> [--scale N] [--small] [--csv] [--json] \
                         [--trace-out FILE] [--jobs N] [--no-cache] [--resume] \
                         [--journal-dir DIR]"
                    );
                    std::process::exit(0);
                }
                other => cli.expect_sweep_flag(other, &mut args),
            }
        }
        cli
    }

    /// Parses one of the sweep flags every sweeping binary shares
    /// (`--jobs`, `--no-cache`, `--resume`, `--journal-dir`), taking its
    /// value from `args`.
    ///
    /// # Panics
    /// Panics (pointing at `--help`) on any other flag or a malformed
    /// `--jobs`.
    pub fn expect_sweep_flag(&mut self, flag: &str, args: &mut impl Iterator<Item = String>) {
        match flag {
            "--jobs" => {
                let v = args.next().expect("--jobs needs a value");
                let n: usize = v.parse().expect("--jobs must be a positive integer");
                assert!(n > 0, "--jobs must be at least 1");
                self.jobs = Some(n);
            }
            "--no-cache" => self.no_cache = true,
            "--resume" => self.resume = true,
            "--journal-dir" => {
                self.journal_dir = Some(args.next().expect("--journal-dir needs a directory"));
            }
            other => panic!("unknown flag {other}; try --help"),
        }
    }

    /// The sweep-engine configuration these flags select.
    #[must_use]
    pub fn sweep_opts(&self) -> SweepOpts {
        SweepOpts {
            jobs: self.jobs.unwrap_or(0),
            cache_dir: if self.no_cache {
                None
            } else {
                Some(SweepOpts::default_cache_dir())
            },
            progress: true,
            journal_root: match &self.journal_dir {
                Some(dir) => Some(dir.into()),
                None if self.no_cache => None,
                None => Some(SweepOpts::default_journal_root()),
            },
            resume: self.resume,
        }
    }

    /// The scale to use for a workload.
    #[must_use]
    pub fn scale_for(&self, kind: sbrp_workloads::WorkloadKind) -> u64 {
        self.scale
            .unwrap_or_else(|| sbrp_harness::default_scale(kind))
    }

    /// Prints a finished table in the selected format.
    pub fn emit(&self, table: &Table) {
        if self.csv {
            print!("{}", table.to_csv());
        } else if self.json {
            print!("{}", table.to_json());
        } else {
            print!("{}", table.to_text());
        }
    }

    /// Writes a timeline as Chrome-trace JSON to `--trace-out`, if set.
    ///
    /// # Panics
    /// Panics if the file cannot be written.
    pub fn write_trace(&self, timeline: &sbrp_gpu_sim::Timeline) {
        if let Some(path) = &self.trace_out {
            std::fs::write(path, timeline.to_chrome_json())
                .unwrap_or_else(|e| panic!("writing trace to {path}: {e}"));
            eprintln!("wrote Chrome-trace timeline to {path} (open in Perfetto)");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_cli_uses_workload_scales() {
        let cli = Cli::default();
        assert_eq!(
            cli.scale_for(sbrp_workloads::WorkloadKind::Gpkvs),
            sbrp_harness::default_scale(sbrp_workloads::WorkloadKind::Gpkvs)
        );
        let cli2 = Cli {
            scale: Some(64),
            ..Cli::default()
        };
        assert_eq!(cli2.scale_for(sbrp_workloads::WorkloadKind::Scan), 64);
    }

    #[test]
    fn shared_sweep_flags_parse_into_cli() {
        let mut cli = Cli::default();
        let mut values = ["4", "/tmp/j"].into_iter().map(String::from);
        for flag in ["--jobs", "--no-cache", "--journal-dir", "--resume"] {
            cli.expect_sweep_flag(flag, &mut values);
        }
        assert_eq!(cli.jobs, Some(4));
        assert!(cli.no_cache && cli.resume);
        assert_eq!(cli.journal_dir.as_deref(), Some("/tmp/j"));
    }

    #[test]
    fn fault_flags_map_onto_sweep_opts() {
        let cli = Cli {
            resume: true,
            journal_dir: Some("/tmp/j".into()),
            no_cache: true,
            ..Cli::default()
        };
        let opts = cli.sweep_opts();
        assert!(opts.resume);
        assert_eq!(opts.cache_dir, None, "--no-cache disables the cache");
        assert_eq!(
            opts.journal_root.as_deref(),
            Some(std::path::Path::new("/tmp/j")),
            "an explicit --journal-dir survives --no-cache"
        );
        // Without an explicit dir, --no-cache disables journaling too.
        let opts = Cli {
            no_cache: true,
            ..Cli::default()
        }
        .sweep_opts();
        assert_eq!(opts.journal_root, None);
    }
}
