//! One benchmark run: repeat a workload's pass for the requested time,
//! check every pass, and turn the passes into metrics.

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::spans::{self_time_by_layer, to_chrome_json, total_of, Tracer};
use crate::{host, median, probes, ratio, serve, sim, verify, Pass};
use std::time::{Duration, Instant};

/// The four workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// gpKVS + HM under the five Fig. 6 bars.
    SimPersist,
    /// Reduction + Scan + SRAD under the five Fig. 6 bars.
    SimCompute,
    /// Open-loop gpKVS serving, SBRP and GPM.
    Serve,
    /// Model checker + linter.
    Verify,
}

impl Workload {
    /// All four, in catalog order.
    pub const ALL: [Workload; 4] = [
        Workload::SimPersist,
        Workload::SimCompute,
        Workload::Serve,
        Workload::Verify,
    ];

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::SimPersist => "sim-persist",
            Workload::SimCompute => "sim-compute",
            Workload::Serve => "serve",
            Workload::Verify => "verify",
        }
    }

    /// Runs one pass (set-up included) under a `bench.pass` root span.
    pub fn pass(self, seed: u64, tr: &mut Tracer) -> (Pass, Duration) {
        tr.span("bench.pass", 0, |tr| match self {
            Workload::SimPersist => sim::pass(&sim::cells(&sim::PERSIST_APPS, seed), tr),
            Workload::SimCompute => sim::pass(&sim::cells(&sim::COMPUTE_APPS, seed), tr),
            Workload::Serve => serve::pass(&serve::specs(seed), tr),
            Workload::Verify => verify::pass(seed, tr),
        })
    }
}

/// Spans whose per-pass total is reported, and the metric reporting it.
const TIMED_SPANS: [(&str, &str); 7] = [
    ("workloads.build", "workloads.build_ms"),
    ("sim.setup", "sim.setup_ms"),
    ("sim.run", "sim.run_ms"),
    ("workloads.verify", "workloads.verify_ms"),
    ("harness.serve.trace_gen", "harness.serve.trace_gen_ms"),
    ("harness.serve.run", "harness.serve.run_ms"),
    ("mc.explore", "mc.explore_ms"),
];

/// Layers whose self time is reported, and the metric reporting it.
const LAYERS: [(&str, &str); 6] = [
    ("bench", "bench.self_ms"),
    ("workloads", "workloads.self_ms"),
    ("sim", "sim.self_ms"),
    ("harness.serve", "harness.serve.self_ms"),
    ("mc", "mc.self_ms"),
    ("lint", "lint.self_ms"),
];

/// How far the traced passes' summed self times may fall from their
/// measured wall time.
pub const SELF_TIME_TOLERANCE: f64 = 0.01;

/// Calibration rounds before the warm-up pass, and before every pass.
const CAL_START_ROUNDS: usize = 5;
const CAL_PASS_ROUNDS: usize = 2;

/// The result of a run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Passes run, including the untimed warm-up pass.
    pub passes: usize,
    /// Checked outcomes over all passes.
    pub attempted: u64,
    /// Failed checks over all passes.
    pub failed: u64,
    /// What failed (first few).
    pub failures: Vec<String>,
    /// The reported metrics, by catalog name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Simulated metrics and counters of the workload (exact for a seed).
    pub exact: Vec<(&'static str, f64)>,
    /// Digest over every simulated statistic of one pass.
    pub digest: u64,
    /// The run's fastest calibration round (`host.calib_ms`).
    pub calib_ms: f64,
    /// The run's median calibration round.
    pub calib_median_ms: f64,
    /// Calibration rounds timed in the run.
    pub calib_rounds: usize,
    /// The end-to-end host metrics before scaling to the reference host
    /// (untraced runs only).
    pub unscaled: Vec<(&'static str, f64)>,
    /// Chrome-trace JSON of the traced passes (traced runs only).
    pub trace_json: Option<String>,
    /// Work units per host second of each measured untraced pass, in run
    /// order (the spread behind the reported min-of-N rate).
    pub pass_work_per_s: Vec<f64>,
}

impl Outcome {
    /// Whether every check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    fn note_calibration(&mut self, cal: &host::Calibrator) {
        self.calib_ms = cal.fastest_ms();
        self.calib_median_ms = cal.median_ms();
        self.calib_rounds = cal.rounds();
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.note(what);
    }

    fn note(&mut self, what: String) {
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }

    /// Folds a pass's checks in and compares its simulated results with
    /// the reference pass.
    fn absorb(&mut self, p: &Pass, what: &str) {
        self.passes += 1;
        self.attempted += p.attempted;
        self.failed += p.failed;
        for f in &p.failures {
            self.note(f.clone());
        }
        if p.digest != self.digest {
            self.attempted += 1;
            self.fail(format!(
                "{what}: simulated-statistics digest differs from the first pass"
            ));
        }
        if p.exact != self.exact {
            self.attempted += 1;
            self.fail(format!(
                "{what}: simulated metrics differ from the first pass"
            ));
        }
    }
}

fn median_of(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    median(&mut passes.iter().map(f).collect::<Vec<_>>())
}

/// Seconds of the items' fastest times: each item (cell, serving run or
/// kernel) takes its minimum over the passes, and the minima are summed.
/// The work is deterministic, so host contention only ever adds time;
/// the minimum over many passes is the steadiest estimate of its cost.
fn fastest_total(passes: &[Pass], times: impl Fn(&Pass) -> &[Duration]) -> f64 {
    let items = passes.iter().map(|p| times(p).len()).min().unwrap_or(0);
    (0..items)
        .map(|i| {
            passes
                .iter()
                .map(|p| times(p)[i])
                .min()
                .unwrap_or_default()
                .as_secs_f64()
        })
        .sum()
}

/// Runs `workload` for about `seconds` of measured passes. Untraced, it
/// reports the end-to-end metrics; traced, it measures the same number
/// of passes untraced and traced, and reports the per-layer metrics and
/// the tracing overhead.
///
/// The calibration kernel runs before every pass. The end-to-end host
/// times are scaled to the reference host (see [`host::REF_CALIB_MS`]):
/// times from the items' fastest runs by the fastest calibration round,
/// median set-up time by the median round. The per-layer times are
/// reported as measured.
#[must_use]
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut cal = host::Calibrator::new();
    cal.sample(CAL_START_ROUNDS);
    // Warm-up pass: lazy allocation settles, and its simulated results
    // are the reference every later pass must reproduce exactly.
    let (first, _) = workload.pass(seed, &mut Tracer::new(false));
    out.digest = first.digest;
    out.exact.clone_from(&first.exact);
    out.absorb(&first, "warm-up pass");

    let budget = if trace { seconds / 2.0 } else { seconds };
    let min_passes = if trace { 2 } else { 3 };
    let mut untraced: Vec<Pass> = Vec::new();
    let mut untraced_wall: Vec<f64> = Vec::new();
    let start = Instant::now();
    while untraced.len() < min_passes || start.elapsed().as_secs_f64() < budget {
        cal.sample(CAL_PASS_ROUNDS);
        let (p, wall) = workload.pass(seed, &mut Tracer::new(false));
        out.absorb(&p, "untraced pass");
        untraced.push(p);
        untraced_wall.push(wall.as_secs_f64() * 1e3);
    }

    out.pass_work_per_s = untraced
        .iter()
        .map(|p| ratio(p.work, p.work_time.iter().sum::<Duration>().as_secs_f64()))
        .collect();
    if !trace {
        out.note_calibration(&cal);
        let passed = 1.0 - ratio(out.failed as f64, out.attempted as f64);
        let setup = median_of(&untraced, |p| p.setup.as_secs_f64());
        let work = ratio(first.work, fastest_total(&untraced, |p| &p.work_time));
        let items = ratio(first.items as f64, fastest_total(&untraced, |p| &p.timed));
        out.unscaled = vec![
            ("setup_s", setup),
            ("work_per_s", work),
            ("items_per_s", items),
        ];
        let fast = out.calib_ms / host::REF_CALIB_MS;
        let typical = out.calib_median_ms / host::REF_CALIB_MS;
        out.metrics = vec![
            ("setup_s", setup / typical),
            ("work_per_s", work * fast),
            ("items_per_s", items * fast),
            ("peak_rss_mb", host::peak_rss_mb()),
            ("passed_share", passed),
        ];
        debug_assert_eq!(out.metrics.len(), END_TO_END.len());
        return out;
    }

    let mut tr = Tracer::new(true);
    let mut traced_wall = Vec::new();
    let mut span_ms: Vec<Vec<f64>> = vec![Vec::new(); TIMED_SPANS.len()];
    let mut self_ms: Vec<Vec<f64>> = vec![Vec::new(); LAYERS.len()];
    let mut lint_ms_per_kernel = Vec::new();
    for _ in 0..untraced.len() {
        cal.sample(CAL_PASS_ROUNDS);
        let from = tr.spans().len();
        let (p, wall) = workload.pass(seed, &mut tr);
        out.absorb(&p, "traced pass");
        let spans = tr.spans_since(from);
        let selfs = self_time_by_layer(spans);
        let self_sum: u64 = selfs.values().sum();
        let wall_ns = wall.as_nanos() as f64;
        out.attempted += 1;
        if (self_sum as f64 - wall_ns).abs() > SELF_TIME_TOLERANCE * wall_ns {
            out.fail(format!(
                "traced pass: layer self times sum to {self_sum} ns, wall is {wall_ns} ns"
            ));
        }
        traced_wall.push(wall_ns / 1e6);
        for (acc, (name, _)) in span_ms.iter_mut().zip(TIMED_SPANS) {
            acc.push(total_of(spans, name).0 as f64 / 1e6);
        }
        for (acc, (layer, _)) in self_ms.iter_mut().zip(LAYERS) {
            acc.push(selfs.get(layer).copied().unwrap_or(0) as f64 / 1e6);
        }
        let (lint_ns, kernels) = total_of(spans, "lint.lint_all");
        lint_ms_per_kernel.push(ratio(lint_ns as f64 / 1e6, kernels as f64));
    }

    out.note_calibration(&cal);
    let mut metrics: Vec<(&'static str, f64)> = vec![
        ("host.calib_ms", out.calib_ms),
        (
            "trace.overhead_ms",
            median(&mut traced_wall) - median(&mut untraced_wall),
        ),
        ("lint.ms_per_kernel", median(&mut lint_ms_per_kernel)),
    ];
    for ((_, metric), mut v) in LAYERS.iter().zip(self_ms) {
        metrics.push((metric, median(&mut v)));
    }
    for ((_, metric), mut v) in TIMED_SPANS.iter().zip(span_ms) {
        metrics.push((metric, median(&mut v)));
    }
    metrics.extend(out.exact.iter().copied());
    let run_ms = value(&metrics, "sim.run_ms");
    let serve_ms = value(&metrics, "harness.serve.run_ms");
    metrics.push((
        "sim.ns_per_warp_instr",
        ratio(run_ms * 1e6, value(&metrics, "isa.warp_instr")),
    ));
    metrics.push((
        "sim.ns_per_pb_store",
        ratio(run_ms * 1e6, value(&metrics, "core.pbuffer.stores")),
    ));
    metrics.push((
        "harness.serve.us_per_batch",
        ratio(serve_ms * 1e3, value(&metrics, "harness.serve.batches")),
    ));
    metrics.extend(probes::all());
    out.metrics = PER_LAYER
        .iter()
        .map(|&(name, _)| (name, value(&metrics, name)))
        .collect();
    out.trace_json = Some(to_chrome_json(tr.spans(), workload.name()));
    out
}

/// The value of metric `name`, or 0 if this workload does not reach it.
fn value(metrics: &[(&str, f64)], name: &str) -> f64 {
    metrics
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |&(_, v)| v)
}
