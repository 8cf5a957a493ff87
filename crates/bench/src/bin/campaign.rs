//! Crash-recovery campaign driver.
//!
//! Sweeps event-triggered crash points across a (workload × model ×
//! system) matrix, recovering and verifying at every point, and fails
//! the process if any point finds a consistency violation.
//!
//! ```text
//! cargo run --release -p sbrp-bench --bin campaign -- --quick
//! ```
//!
//! * `--quick`    — acceptance sweep: gpKVS/HM/MQ × all models × both
//!   systems on the small GPU at scale 256 (minutes);
//! * `--points N` — minimum crash points per cell (default 20);
//! * `--scale N`  — override the workload scale;
//! * `--seed N`   — input seed (default 42);
//! * `--small`    — use the 4-SM GPU without the rest of `--quick`;
//! * `--csv`      — emit CSV instead of an aligned table;
//! * `--jobs N`   — sweep worker threads (default: all hardware
//!   threads; `--jobs 1` is the historical serial order);
//! * `--no-cache` — ignore and don't write `outputs/.cache`;
//! * `--resume`   — reload completed cells from the resume journal and
//!   run only the missing ones;
//! * `--journal-dir DIR` — resume-journal root (default
//!   `outputs/.cache/journal`).
//!
//! Without `--quick`, the full six-workload matrix runs at the default
//! figure scales on the Table 1 machine — an overnight-class sweep.

use sbrp_bench::Cli;
use sbrp_harness::campaign::{CampaignSpec, CellReport};
use sbrp_harness::sweep::SweepOpts;

struct Args {
    cli: Cli,
    quick: bool,
    points: Option<usize>,
    seed: Option<u64>,
}

fn parse_args() -> Args {
    let mut out = Args {
        cli: Cli::default(),
        quick: false,
        points: None,
        seed: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut num = |name: &str| -> u64 {
            args.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
                .parse()
                .unwrap_or_else(|_| panic!("{name} must be an integer"))
        };
        match a.as_str() {
            "--quick" => out.quick = true,
            "--points" => out.points = Some(num("--points") as usize),
            "--scale" => out.cli.scale = Some(num("--scale")),
            "--seed" => out.seed = Some(num("--seed")),
            "--small" => out.cli.small = true,
            "--csv" => out.cli.csv = true,
            "--help" | "-h" => {
                println!(
                    "usage: campaign [--quick] [--points N] [--scale N] [--seed N] [--small] \
                     [--csv] [--jobs N] [--no-cache] [--resume] [--journal-dir DIR]"
                );
                std::process::exit(0);
            }
            other => out.cli.expect_sweep_flag(other, &mut args),
        }
    }
    out
}

fn main() {
    let args = parse_args();
    let mut spec = if args.quick {
        CampaignSpec::quick()
    } else {
        CampaignSpec::default()
    };
    if let Some(p) = args.points {
        spec.points_per_cell = p;
    }
    if let Some(s) = args.cli.scale {
        spec.scale = Some(s);
    }
    if let Some(s) = args.seed {
        spec.seed = s;
    }
    if args.cli.small {
        spec.small_gpu = true;
    }
    let opts = SweepOpts {
        // The per-cell status lines below carry more detail than the
        // engine's generic progress output.
        progress: false,
        ..args.cli.sweep_opts()
    };

    let cells = spec.workloads.len() * spec.models.len() * spec.systems.len();
    eprintln!(
        "campaign: {cells} cells ({} workloads x {} models x {} systems), >= {} points/cell, {} jobs",
        spec.workloads.len(),
        spec.models.len(),
        spec.systems.len(),
        spec.points_per_cell,
        opts.effective_jobs()
    );

    let mut done = 0usize;
    let report = sbrp_harness::campaign::run_with_opts(&spec, &opts, |cell: &CellReport| {
        done += 1;
        let status = if let Some(e) = &cell.baseline_error {
            // Covers both baseline failures and engine-contained panics,
            // which surface through the same field.
            format!("FAILED: {e}")
        } else if cell.violations() == 0 {
            format!(
                "{} points, all pass (pmo {}/{}, recovered {}/{})",
                cell.points.len(),
                cell.pmo_clean(),
                cell.points.len(),
                cell.recovered(),
                cell.points.len()
            )
        } else {
            format!(
                "{} points, {} VIOLATIONS (pmo {}/{}, recovered {}/{})",
                cell.points.len(),
                cell.violations(),
                cell.pmo_clean(),
                cell.points.len(),
                cell.recovered(),
                cell.points.len()
            )
        };
        eprintln!(
            "[{done}/{cells}] {} {:?} {:?}: {status}",
            cell.workload, cell.model, cell.system
        );
    });

    args.cli.emit(&report.table());

    // Spell out every violation with its shrunk minimal crash point.
    for cell in &report.cells {
        for s in &cell.shrunk {
            eprintln!(
                "violation: {} {:?} {:?} {} minimal failing event k={} -> {:?}",
                cell.workload,
                cell.model,
                cell.system,
                s.family.label(),
                s.min_k,
                s.outcome
            );
        }
    }
    println!(
        "campaign: {} points, {} violations",
        report.total_points(),
        report.total_violations()
    );
    if !report.ok() {
        std::process::exit(1);
    }
}
