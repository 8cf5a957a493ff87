//! Workspace-level integration tests through the `sbrp` facade: the
//! whole stack from kernel construction to formal checking.

use sbrp::core::ModelKind;
use sbrp::harness::sweep::{run_specs, SweepOpts};
use sbrp::harness::{geomean, run_recovery, run_workload, Fig6Bar, RunSpec};
use sbrp::mc::litmus;
use sbrp::sim::config::SystemDesign;
use sbrp::workloads::WorkloadKind;

/// Every workload × every Figure 6 bar, one small run each: verified
/// results everywhere. This is the figure harness's exact code path.
#[test]
fn figure6_matrix_smoke() {
    for kind in WorkloadKind::ALL {
        for bar in Fig6Bar::ALL {
            let (model, system) = bar.model_system();
            let out = run_workload(&RunSpec {
                workload: kind,
                model,
                system,
                scale: 512,
                small_gpu: true,
                ..RunSpec::default()
            })
            .expect("cell runs");
            assert!(out.verified, "{kind}/{}", bar.label());
            assert!(out.cycles > 0);
            assert_eq!(
                out.stats.stall.bucket_sum(),
                out.stats.stall.total,
                "{kind}/{}: stall buckets sum to total",
                bar.label()
            );
        }
    }
}

/// Crash-recovery timing measurement works for every workload.
#[test]
fn recovery_measurement_smoke() {
    for kind in [
        WorkloadKind::Gpkvs,
        WorkloadKind::Reduction,
        WorkloadKind::Scan,
    ] {
        for model in [ModelKind::Epoch, ModelKind::Sbrp] {
            let out = run_recovery(
                &RunSpec {
                    workload: kind,
                    model,
                    system: SystemDesign::PmNear,
                    scale: 512,
                    small_gpu: true,
                    ..RunSpec::default()
                },
                0.6,
            )
            .expect("recovery runs");
            assert!(out.verified, "{kind}/{model}");
            assert!(out.recovery_cycles > 0);
            assert!(out.crash_cycle < out.crash_free_cycles);
        }
    }
}

/// The litmus suite is re-exported and passes through the facade: each
/// kernel-backed shape derives a trace-level litmus that holds.
#[test]
fn litmus_suite_via_facade() {
    for shape in litmus::all() {
        shape.derive().check().unwrap();
    }
}

/// Buffering is observable end-to-end: SBRP coalesces persists where the
/// epoch baseline cannot.
#[test]
fn sbrp_reports_buffer_activity() {
    let out = run_workload(&RunSpec {
        workload: WorkloadKind::Gpkvs,
        model: ModelKind::Sbrp,
        scale: 512,
        small_gpu: true,
        ..RunSpec::default()
    })
    .expect("cell runs");
    assert!(out.stats.pb.stores > 0);
    assert!(out.stats.pb.coalesced > 0, "logging coalesces in the PB");
    assert!(out.stats.pb.acks == out.stats.pb.flushes);

    let epoch = run_workload(&RunSpec {
        workload: WorkloadKind::Gpkvs,
        model: ModelKind::Epoch,
        scale: 512,
        small_gpu: true,
        ..RunSpec::default()
    })
    .expect("cell runs");
    assert_eq!(epoch.stats.pb.stores, 0, "no PB under the epoch baseline");
    assert!(epoch.stats.epoch_rounds > 0);
}

/// The sweep engine behind every figure binary: two small cells give the
/// same cycles and stats serially and on two workers.
#[test]
fn sweep_smoke_is_jobs_independent() {
    let specs = [ModelKind::Epoch, ModelKind::Sbrp].map(|model| RunSpec {
        workload: WorkloadKind::Gpkvs,
        model,
        scale: 256,
        small_gpu: true,
        ..RunSpec::default()
    });
    let run = |jobs| {
        let (results, summary) = run_specs(
            &SweepOpts {
                jobs,
                ..SweepOpts::serial()
            },
            &specs,
        );
        assert_eq!(summary.jobs, jobs);
        results
            .into_iter()
            .map(|r| {
                let out = r.expect("cell runs");
                (out.cycles, out.stats.to_json())
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(run(1), run(2));
}

/// The geometric-mean helper used by every figure binary.
#[test]
fn geomean_is_stable_under_permutation() {
    let a = geomean(&[1.2, 0.8, 3.0, 1.0]);
    let b = geomean(&[3.0, 1.0, 1.2, 0.8]);
    assert!((a - b).abs() < 1e-12);
}
