//! Serial stepping is the reference schedule: one cycle per step, every
//! SM ticked on every step. The default scheduler leaps over idle cycles
//! and skips SMs whose tick would change nothing, so it must reproduce
//! the reference exactly — end cycle, the full `SimStats` JSON, and the
//! per-SM stall breakdowns — on real workloads with many warps per SM
//! (more ready warps than the issue width, so the round-robin start
//! matters), on both GPU sizes, under all five Fig. 6 bars, at crash
//! points, and with PCIe link faults installed.

use sbrp_core::stall::StallBreakdown;
use sbrp_gpu_sim::fault::{FaultPlan, PcieFaultConfig};
use sbrp_gpu_sim::{Gpu, RunOutcome};
use sbrp_harness::{Fig6Bar, RunSpec, CYCLE_LIMIT};
use sbrp_workloads::{BuildOpts, WorkloadKind};

const APPS: [WorkloadKind; 4] = [
    WorkloadKind::Gpkvs,
    WorkloadKind::Hashmap,
    WorkloadKind::Reduction,
    WorkloadKind::Scan,
];

/// How a cell is driven to its end.
#[derive(Clone, Copy)]
enum Drive {
    /// `Gpu::run` to completion.
    Complete,
    /// `Gpu::run_until` the given cycle.
    CrashAt(u64),
    /// `Gpu::run_faulted` under a PCIe fault plan.
    Pcie(PcieFaultConfig),
}

/// Everything the two stepping modes must agree on.
#[derive(Debug, PartialEq)]
struct Observed {
    outcome: RunOutcome,
    end_cycle: u64,
    stats_json: String,
    pcie_backoff_cycles: u64,
    sm_stalls: Vec<StallBreakdown>,
    crash_consistent: bool,
}

fn observe(spec: &RunSpec, serial: bool, drive: Drive) -> Observed {
    let w = spec.workload.instantiate(spec.scale, spec.seed);
    let l = w.kernel(BuildOpts::for_model(spec.model));
    let mut gpu = Gpu::new(&spec.config());
    gpu.set_serial_stepping(serial);
    w.init(&mut gpu);
    gpu.launch(&l.kernel, l.launch);
    let report = match drive {
        Drive::Complete => gpu.run(CYCLE_LIMIT),
        Drive::CrashAt(c) => gpu.run_until(c),
        Drive::Pcie(pcie) => {
            gpu.set_fault_plan(FaultPlan::default().with_pcie(pcie));
            gpu.run_faulted(CYCLE_LIMIT)
        }
    }
    .unwrap_or_else(|e| panic!("{}: {e}", spec.cell_name()));
    let stats = gpu.stats();
    Observed {
        outcome: report.outcome,
        end_cycle: report.cycles,
        stats_json: stats.to_json(),
        pcie_backoff_cycles: stats.pcie_backoff_cycles,
        sm_stalls: gpu.sm_stall_breakdowns(),
        crash_consistent: w.verify_crash_consistent(&gpu.durable_image()).is_ok(),
    }
}

fn spec(workload: WorkloadKind, bar: Fig6Bar, small_gpu: bool) -> RunSpec {
    let (model, system) = bar.model_system();
    RunSpec {
        workload,
        model,
        system,
        scale: 512,
        small_gpu,
        ..RunSpec::default()
    }
}

/// Runs `spec` both ways; returns the default-stepping observation, or
/// the diverging cell's name.
fn compare(spec: &RunSpec, drive: Drive, what: &str) -> Result<Observed, String> {
    let fast = observe(spec, false, drive);
    let serial = observe(spec, true, drive);
    if fast == serial {
        Ok(fast)
    } else {
        Err(format!(
            "{} {what}: end cycle {} vs serial {}",
            spec.cell_name(),
            fast.end_cycle,
            serial.end_cycle
        ))
    }
}

fn assert_same(spec: &RunSpec, drive: Drive, what: &str) -> Observed {
    compare(spec, drive, what).unwrap_or_else(|e| panic!("diverged from serial stepping: {e}"))
}

#[test]
fn plain_runs_match_serial_stepping_on_both_gpus_and_all_bars() {
    let mut diverged = Vec::new();
    for small_gpu in [true, false] {
        for app in APPS {
            for bar in Fig6Bar::ALL {
                let s = spec(app, bar, small_gpu);
                let what = if small_gpu { "small" } else { "table1" };
                match compare(&s, Drive::Complete, what) {
                    Ok(o) => assert_eq!(o.outcome, RunOutcome::Completed),
                    Err(e) => diverged.push(e),
                }
            }
        }
    }
    assert!(
        diverged.is_empty(),
        "{} of 40 cells diverged from serial stepping:\n{}",
        diverged.len(),
        diverged.join("\n")
    );
}

#[test]
fn crash_points_match_serial_stepping() {
    for app in APPS {
        for bar in [Fig6Bar::SbrpFar, Fig6Bar::EpochNear] {
            let s = spec(app, bar, true);
            let end = observe(&s, false, Drive::Complete).end_cycle;
            for crash in [end / 3, 2 * end / 3] {
                let o = assert_same(&s, Drive::CrashAt(crash), &format!("crash@{crash}"));
                assert_eq!((o.outcome, o.end_cycle), (RunOutcome::Crashed, crash));
            }
        }
    }
}

#[test]
fn pcie_faulted_run_matches_serial_stepping() {
    let pcie = PcieFaultConfig {
        period: 5,
        burst: 2,
        max_retries: 8,
        backoff_base: 16,
    };
    let s = spec(WorkloadKind::Gpkvs, Fig6Bar::SbrpFar, true);
    let o = assert_same(&s, Drive::Pcie(pcie), "pcie faults");
    assert_eq!(o.outcome, RunOutcome::Completed);
    assert!(
        o.pcie_backoff_cycles > 0,
        "the fault plan must put the link into retry backoff"
    );
}
