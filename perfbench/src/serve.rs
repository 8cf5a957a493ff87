//! `serve`: open-loop gpKVS serving on the Table 1 GPU.
//!
//! Requests follow a seeded Poisson arrival schedule over a get/put/
//! delete mix with Zipf θ = 0.99 keys, and each request's latency runs
//! from its *scheduled* arrival to its durable ack, so a slow system
//! cannot slow the generator down. One pass serves a rate grid that
//! straddles both models' knees, for SBRP and GPM, plus one SBRP run
//! that crashes mid-stream and replays the un-acked requests.
//!
//! The queue bound equals the trace length, so admission control never
//! refuses a request: above a model's knee the backlog (and latency)
//! grows instead, and every request is still served and checked.

use crate::spans::Tracer;
use crate::{ratio, Pass};
use sbrp_core::fingerprint::Fingerprint;
use sbrp_harness::serve::{run_service_detailed, ServeModel, ServeOutput, ServeSpec};
use sbrp_workloads::service::{generate_trace, ServiceStore, TraceParams};

/// Requests per serving run (p99 then has 40 samples beyond it).
pub const REQUESTS: u64 = 4096;
/// Offered rates in requests per kilocycle (×1000 fixed point).
pub const RATES_MILLI: [u64; 7] = [2_000, 4_000, 8_000, 16_000, 32_000, 64_000, 128_000];
/// The fixed rate below both knees at which SBRP's p50/p99 are reported.
pub const REPORT_RATE_MILLI: u64 = 8_000;
/// The latency limit on p99, in cycles.
pub const P99_LIMIT: u64 = 16_000;
/// A rate is sustained when the achieved throughput is at least this
/// share of the offered rate (otherwise the backlog grows).
pub const SUSTAINED_SHARE: f64 = 0.9;
/// The crash run's crash point, as a share of its expected makespan.
const CRASH_AT_SHARE: f64 = 0.5;

/// The serving runs of one pass.
#[must_use]
pub fn specs(seed: u64) -> Vec<ServeSpec> {
    let base = ServeSpec {
        requests: REQUESTS,
        queue_bound: REQUESTS,
        seed,
        ..ServeSpec::default()
    };
    let mut out: Vec<ServeSpec> = [ServeModel::Sbrp, ServeModel::Gpm]
        .into_iter()
        .flat_map(|model| {
            let base = base.clone();
            RATES_MILLI.into_iter().map(move |rate_milli| ServeSpec {
                model,
                rate_milli,
                ..base.clone()
            })
        })
        .collect();
    let makespan = REQUESTS as f64 * 1e6 / REPORT_RATE_MILLI as f64;
    out.push(ServeSpec {
        rate_milli: REPORT_RATE_MILLI,
        crash_at: Some((makespan * CRASH_AT_SHARE) as u64),
        ..base
    });
    out
}

/// Serves every run once.
pub fn pass(specs: &[ServeSpec], tr: &mut Tracer) -> Pass {
    let mut p = Pass::default();
    let mut fp = Fingerprint::new();
    let mut outs: Vec<Option<ServeOutput>> = Vec::with_capacity(specs.len());
    let (mut batches, mut rejected, mut replayed, mut recovery) = (0u64, 0u64, 0u64, 0u64);
    for (i, spec) in specs.iter().enumerate() {
        let group = i as u64;
        let name = spec.cell_name();
        tr.span("bench.run", group, |tr| {
            let (trace, gen) = tr.span("harness.serve.trace_gen", group, |_| {
                let keys = ServiceStore::new(spec.scale, spec.shards, spec.batch).keys();
                generate_trace(&TraceParams {
                    arrival: spec.arrival,
                    rate_milli: spec.rate_milli,
                    zipf_milli: spec.zipf_milli,
                    requests: spec.requests,
                    keys,
                    seed: spec.seed,
                })
            });
            let (result, run) = tr.span("harness.serve.run", group, |_| run_service_detailed(spec));
            p.setup += gen;
            p.timed.push(run);
            p.work_time.push(run);
            p.attempted += spec.requests;
            p.items += 1;
            let (out, detail) = match result {
                Ok(r) => r,
                Err(e) => {
                    p.fail(spec.requests, format!("{name}: {e}"));
                    outs.push(None);
                    return;
                }
            };
            if detail.trace != trace {
                p.fail(spec.requests, format!("{name}: served a different trace"));
            } else if !out.verified {
                let why = out.verify_error.clone().unwrap_or_default();
                p.fail(spec.requests, format!("{name}: not verified: {why}"));
            } else if out.completed != spec.requests {
                let missing = spec.requests - out.completed.min(spec.requests);
                p.fail(
                    missing,
                    format!("{name}: {missing} requests refused or never acked"),
                );
            }
            if let Some(crash) = out.crash_cycle {
                // Exactly the admitted requests not durably acked at the
                // crash instant are replayed, in arrival order.
                let expected: Vec<usize> = (0..trace.len())
                    .filter(|&r| {
                        trace[r].arrival <= crash
                            && !detail.rejected[r]
                            && detail.acked[r].is_none_or(|ack| ack > crash)
                    })
                    .collect();
                if expected.is_empty() || detail.replay_set != expected || !detail.rollback_ok {
                    p.fail(
                        spec.requests,
                        format!("{name}: crash replay set is not exact"),
                    );
                }
            } else if spec.crash_at.is_some() {
                p.fail(spec.requests, format!("{name}: the crash never fired"));
            }
            fp.write_str(&name);
            for v in [
                out.completed,
                out.rejected,
                out.replayed,
                out.batches,
                out.duration,
                out.crash_cycle.unwrap_or(0),
                out.recovery_cycles,
                u64::from(out.verified),
            ] {
                fp.write_u64(v);
            }
            let h = &out.hist;
            for v in [
                h.count, h.sum, h.min, h.max, h.p50, h.p90, h.p95, h.p99, h.p999,
            ] {
                fp.write_u64(v);
            }
            h.buckets.iter().for_each(|&b| fp.write_u64(b));
            batches += out.batches;
            rejected += out.rejected;
            replayed += out.replayed;
            recovery += out.recovery_cycles;
            p.work += out.completed as f64;
            outs.push(Some(out));
        });
    }
    p.digest = fp.finish();
    let reported = specs
        .iter()
        .zip(&outs)
        .find(|(s, _)| {
            s.model == ServeModel::Sbrp && s.rate_milli == REPORT_RATE_MILLI && s.crash_at.is_none()
        })
        .and_then(|(_, o)| o.as_ref().map(|o| &o.hist));
    p.exact = vec![
        (
            "model.serve_p50_cycles",
            reported.map_or(0.0, |h| h.p50 as f64),
        ),
        (
            "model.serve_p99_cycles",
            reported.map_or(0.0, |h| h.p99 as f64),
        ),
        (
            "model.serve_samples",
            reported.map_or(0.0, |h| h.count as f64),
        ),
        (
            "model.serve_max_rate",
            max_rate(specs, &outs, ServeModel::Sbrp),
        ),
        (
            "model.serve_max_rate_gpm",
            max_rate(specs, &outs, ServeModel::Gpm),
        ),
        ("harness.serve.batches", batches as f64),
        ("harness.serve.req_per_batch", ratio(p.work, batches as f64)),
        ("harness.serve.rejected", rejected as f64),
        ("harness.serve.replayed", replayed as f64),
        ("harness.serve.recovery_cycles", recovery as f64),
    ];
    p
}

/// Highest grid rate (requests per kilocycle) that `model` serves with
/// p99 within [`P99_LIMIT`], no refusals and no growing backlog.
fn max_rate(specs: &[ServeSpec], outs: &[Option<ServeOutput>], model: ServeModel) -> f64 {
    specs
        .iter()
        .zip(outs)
        .filter_map(|(s, o)| Some((s, o.as_ref()?)))
        .filter(|(s, o)| {
            let rate = s.rate_milli as f64 / 1000.0;
            s.model == model
                && s.crash_at.is_none()
                && o.rejected == 0
                && o.hist.p99 <= P99_LIMIT
                && o.throughput_kilo() >= SUSTAINED_SHARE * rate
        })
        .map(|(s, _)| s.rate_milli as f64 / 1000.0)
        .fold(0.0, f64::max)
}
