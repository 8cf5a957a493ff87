//! Property test: fast-forwarding is a pure scheduling optimization.
//! Forcing serial stepping (one cycle per step, no idle-time leaps)
//! must produce *identical* results — same completion cycle, same
//! `SimStats`, same per-SM and per-warp stall breakdowns — as the
//! fast-forwarded run, across models, systems, and crash points.
//!
//! The kernel here is small: two blocks of two warps, so no SM ever
//! holds more ready warps than the issue width and the warp-issue order
//! cannot differ between the modes. Schedule-order equivalence on real
//! workloads (many warps per SM, both GPU sizes) is checked by
//! `crates/harness/tests/step_equiv.rs`.

use proptest::prelude::*;
use sbrp_core::stall::StallBreakdown;
use sbrp_core::ModelKind;
use sbrp_gpu_sim::config::{GpuConfig, SystemDesign, PM_BASE};
use sbrp_gpu_sim::stats::SimStats;
use sbrp_gpu_sim::Gpu;
use sbrp_isa::{Kernel, KernelBuilder, LaunchConfig, MemWidth, Special};

const LIMIT: u64 = 50_000_000;

/// log[gtid] = x, oFence, data[gtid] = x — a fence between persists, so
/// the run exercises stores, drains, and engine stalls.
fn wal_kernel(log: u64, data: u64) -> Kernel {
    let mut b = KernelBuilder::new();
    b.set_params(vec![log, data]);
    let log_r = b.param(0);
    let data_r = b.param(1);
    let tid = b.special(Special::GlobalTid);
    let off = b.muli(tid, 8);
    let laddr = b.add(log_r, off);
    let daddr = b.add(data_r, off);
    let v = b.addi(tid, 100);
    b.st(laddr, 0, v, MemWidth::W8);
    b.ofence();
    b.st(daddr, 0, v, MemWidth::W8);
    b.build("wal")
}

/// Everything observable we compare between the two stepping modes.
struct Observed {
    end_cycle: u64,
    stats: SimStats,
    sm_stalls: Vec<StallBreakdown>,
    warp_stalls: Vec<StallBreakdown>,
}

fn observe(cfg: &GpuConfig, serial: bool, crash_at: u64) -> Observed {
    let kernel = wal_kernel(PM_BASE, PM_BASE + (1 << 20));
    let mut gpu = Gpu::new(cfg);
    gpu.set_serial_stepping(serial);
    gpu.launch(&kernel, LaunchConfig::new(2, 64));
    let report = if crash_at == 0 {
        gpu.run(LIMIT).expect("completes")
    } else {
        gpu.run_until(crash_at).expect("no deadlock")
    };
    Observed {
        end_cycle: report.cycles,
        stats: gpu.stats(),
        sm_stalls: gpu.sm_stall_breakdowns(),
        warp_stalls: gpu.warp_stall_breakdowns(0).to_vec(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Fast-forwarded and serial-stepped runs are indistinguishable —
    /// to completion (`crash_at == 0`) or at any crash point.
    #[test]
    fn serial_and_fast_forward_runs_are_identical(
        crash_at in prop_oneof![Just(0u64), 100u64..20_000],
        model_ix in 0usize..3,
        system_ix in 0usize..2,
    ) {
        let model = ModelKind::ALL[model_ix];
        let system = [SystemDesign::PmNear, SystemDesign::PmFar][system_ix];
        if model == ModelKind::Gpm && system == SystemDesign::PmNear {
            return Ok(()); // GPM only exists on PM-far (§7).
        }
        let cfg = GpuConfig::small(model, system);
        let fast = observe(&cfg, false, crash_at);
        let serial = observe(&cfg, true, crash_at);

        prop_assert_eq!(fast.end_cycle, serial.end_cycle, "end cycle");
        prop_assert_eq!(fast.stats, serial.stats, "SimStats");
        prop_assert_eq!(fast.sm_stalls, serial.sm_stalls, "per-SM stalls");
        prop_assert_eq!(fast.warp_stalls, serial.warp_stalls, "SM0 warp stalls");
    }
}
