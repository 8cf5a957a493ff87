//! `sim-persist` and `sim-compute`: Fig. 6 cells on the Table 1 GPU.
//!
//! Each cell builds its workload and kernel, creates a fresh `Gpu`
//! (empty modelled caches, as in the paper's methodology), runs it to
//! completion and verifies the final state. Set-up is everything up to
//! and including `Gpu::launch`; the timed work is `Gpu::run` plus
//! `Workload::verify_complete`.

use crate::spans::Tracer;
use crate::{ratio, Pass};
use sbrp_core::fingerprint::Fingerprint;
use sbrp_core::stall::StallBreakdown;
use sbrp_gpu_sim::stats::SimStats;
use sbrp_gpu_sim::{Gpu, RunOutcome};
use sbrp_harness::{geomean, Fig6Bar, RunSpec, CYCLE_LIMIT};
use sbrp_workloads::{BuildOpts, WorkloadKind};

/// gpKVS + HM: few instructions per persist, so host time goes to the
/// persist-buffer drain and the flush/WPQ/PCIe path.
pub const PERSIST_APPS: [(WorkloadKind, u64); 2] =
    [(WorkloadKind::Gpkvs, 4096), (WorkloadKind::Hashmap, 4096)];

/// Reduction + Scan + SRAD: instruction-heavy, so host time goes to the
/// interpreter and the SM scheduler. Sized down from the figure
/// defaults, where Reduction alone dominates the sweep.
pub const COMPUTE_APPS: [(WorkloadKind, u64); 3] = [
    (WorkloadKind::Reduction, 8192),
    (WorkloadKind::Scan, 4096),
    (WorkloadKind::Srad, 8192),
];

/// The cells of one pass: every app under the five Fig. 6 bars.
#[must_use]
pub fn cells(apps: &[(WorkloadKind, u64)], seed: u64) -> Vec<RunSpec> {
    apps.iter()
        .flat_map(|&(workload, scale)| {
            Fig6Bar::ALL.into_iter().map(move |bar| {
                let (model, system) = bar.model_system();
                RunSpec {
                    workload,
                    model,
                    system,
                    scale,
                    seed,
                    ..RunSpec::default()
                }
            })
        })
        .collect()
}

/// Runs every cell once.
pub fn pass(specs: &[RunSpec], tr: &mut Tracer) -> Pass {
    let mut p = Pass::default();
    let mut fp = Fingerprint::new();
    let mut total = SimStats::default();
    let mut cycles = Vec::with_capacity(specs.len());
    for (i, spec) in specs.iter().enumerate() {
        let group = i as u64;
        let name = spec.cell_name();
        tr.span("bench.cell", group, |tr| {
            let ((w, l, cfg), build) = tr.span("workloads.build", group, |_| {
                let w = spec.workload.instantiate(spec.scale, spec.seed);
                let l = w.kernel(BuildOpts::for_model(spec.model));
                (w, l, spec.config())
            });
            let (mut gpu, setup) = tr.span("sim.setup", group, |_| {
                let mut gpu = Gpu::new(&cfg);
                w.init(&mut gpu);
                gpu.launch(&l.kernel, l.launch);
                gpu
            });
            let (report, run) = tr.span("sim.run", group, |_| gpu.run(CYCLE_LIMIT));
            let (verdict, verify) = tr.span("workloads.verify", group, |_| w.verify_complete(&gpu));
            p.setup += build + setup;
            p.timed.push(run + verify);
            p.work_time.push(run + verify);
            p.attempted += 1;
            p.items += 1;
            let stats = gpu.stats();
            match (report, verdict) {
                (Ok(r), Ok(())) if r.outcome == RunOutcome::Completed => {}
                (Err(e), _) => p.fail(1, format!("{name}: {e}")),
                (Ok(r), Ok(())) => p.fail(1, format!("{name}: ended {:?}", r.outcome)),
                (Ok(_), Err(e)) => p.fail(1, format!("{name}: verify_complete: {e}")),
            }
            if stats.stall.bucket_sum() != stats.stall.total {
                p.fail(1, format!("{name}: stall buckets do not sum to the total"));
            }
            fp.write_str(&name);
            fp.write_str(&stats.to_json());
            cycles.push(stats.cycles);
            merge(&mut total, &stats);
        });
    }
    p.work = total.cycles as f64;
    p.digest = fp.finish();
    p.exact = exact_metrics(&total, specs, &cycles);
    p
}

fn merge(total: &mut SimStats, s: &SimStats) {
    total.cycles += s.cycles;
    total.instructions += s.instructions;
    total.l1_hits += s.l1_hits;
    total.l1_misses += s.l1_misses;
    total.l1_pm_reads += s.l1_pm_reads;
    total.l1_pm_read_misses += s.l1_pm_read_misses;
    total.volatile_writebacks += s.volatile_writebacks;
    total.pcie_bytes += s.pcie_bytes;
    total.nvm_write_bytes += s.nvm_write_bytes;
    total.wpq_accepts += s.wpq_accepts;
    total.merge_pb(s.pb);
    total.merge_stall(s.stall);
}

/// Epoch cycles over SBRP cycles for each app on one system design.
fn speedups(specs: &[RunSpec], cycles: &[u64], epoch: Fig6Bar, sbrp: Fig6Bar) -> Vec<f64> {
    let of = |bar: Fig6Bar, kind: WorkloadKind| {
        let (model, system) = bar.model_system();
        specs
            .iter()
            .zip(cycles)
            .find(|(s, _)| s.workload == kind && s.model == model && s.system == system)
            .map(|(_, &c)| c as f64)
    };
    let mut kinds: Vec<WorkloadKind> = specs.iter().map(|s| s.workload).collect();
    kinds.dedup();
    kinds
        .into_iter()
        .filter_map(|k| Some(of(epoch, k)? / of(sbrp, k)?))
        .collect()
}

fn exact_metrics(t: &SimStats, specs: &[RunSpec], cycles: &[u64]) -> Vec<(&'static str, f64)> {
    let far = speedups(specs, cycles, Fig6Bar::EpochFar, Fig6Bar::SbrpFar);
    let near = speedups(specs, cycles, Fig6Bar::EpochNear, Fig6Bar::SbrpNear);
    let both: Vec<f64> = far.iter().chain(&near).copied().collect();
    let accesses = (t.l1_hits + t.l1_misses) as f64;
    let StallBreakdown {
        ofence,
        dfence,
        pacqrel,
        l1_miss,
        pb_full,
        pb_ordered,
        wpq_backpressure,
        pcie_backoff,
        scoreboard,
        total,
    } = t.stall;
    let pb = t.pb;
    vec![
        ("model.sim_cycles", t.cycles as f64),
        ("model.sbrp_speedup", geomean(&both)),
        ("model.sbrp_speedup_far", geomean(&far)),
        ("model.sbrp_speedup_near", geomean(&near)),
        ("isa.warp_instr", t.instructions as f64),
        ("isa.ipc", ratio(t.instructions as f64, t.cycles as f64)),
        ("core.pbuffer.stores", pb.stores as f64),
        (
            "core.pbuffer.coalesce_ratio",
            ratio(pb.coalesced as f64, pb.stores as f64),
        ),
        ("core.pbuffer.flushes", pb.flushes as f64),
        ("core.pbuffer.acks", pb.acks as f64),
        ("core.pbuffer.stall_full", pb.stall_full as f64),
        ("core.pbuffer.stall_ordered", pb.stall_ordered as f64),
        ("sim.l1.accesses", accesses),
        ("sim.l1.hit_ratio", ratio(t.l1_hits as f64, accesses)),
        (
            "sim.l1.pm_read_miss_ratio",
            ratio(t.l1_pm_read_misses as f64, t.l1_pm_reads as f64),
        ),
        ("sim.mem.wpq_accepts", t.wpq_accepts as f64),
        ("sim.mem.pcie_bytes", t.pcie_bytes as f64),
        ("sim.mem.nvm_write_bytes", t.nvm_write_bytes as f64),
        ("sim.mem.volatile_writebacks", t.volatile_writebacks as f64),
        ("sim.stall.ofence_cycles", ofence as f64),
        ("sim.stall.dfence_cycles", dfence as f64),
        ("sim.stall.pacqrel_cycles", pacqrel as f64),
        ("sim.stall.l1miss_cycles", l1_miss as f64),
        ("sim.stall.pbfull_cycles", pb_full as f64),
        ("sim.stall.pbordered_cycles", pb_ordered as f64),
        ("sim.stall.wpq_cycles", wpq_backpressure as f64),
        ("sim.stall.pcie_backoff_cycles", pcie_backoff as f64),
        ("sim.stall.scoreboard_cycles", scoreboard as f64),
        ("sim.stall.total_cycles", total as f64),
    ]
}
