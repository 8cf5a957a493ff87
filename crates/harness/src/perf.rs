//! Simulator-throughput measurement.
//!
//! Runs representative workload sweeps **uncached** and reports how
//! fast the simulator itself is: simulated cycles per wall-clock
//! second, total wall-clock, and peak RSS. The `perf` bench binary
//! renders the results as `BENCH_perf.json` so every PR leaves a
//! machine-readable perf trajectory behind (see DESIGN.md, "Perf
//! methodology").
//!
//! All numbers are integers — the JSON dialect in [`crate::json`]
//! refuses floats, and cycles/second at simulator speeds never needs
//! sub-integer resolution.

use crate::json::Json;
use crate::sweep::{run_specs_expect, SweepOpts};
use crate::RunSpec;

/// A named group of cells measured as one unit.
#[derive(Clone, Debug)]
pub struct PerfCase {
    /// Stable key in `BENCH_perf.json` (e.g. `figure6`).
    pub name: String,
    /// The cells to run; always executed with the cache disabled so
    /// the wall-clock is real simulation time.
    pub specs: Vec<RunSpec>,
}

/// The measured throughput of one [`PerfCase`].
#[derive(Clone, Debug)]
pub struct PerfResult {
    /// The case's name.
    pub name: String,
    /// Cells executed.
    pub cells: u64,
    /// Total simulated cycles across all cells.
    pub sim_cycles: u64,
    /// Wall-clock of the whole sweep in milliseconds.
    pub wall_millis: u64,
    /// Simulated cycles per wall-clock second
    /// (`sim_cycles * 1000 / wall_millis`).
    pub cycles_per_sec: u64,
}

/// Runs a case serially or on `jobs` workers, cache-bypassing, and
/// measures it. Cells must all succeed (a perf number from a partially
/// failed sweep would be meaningless).
///
/// # Panics
/// Panics if any cell fails, like
/// [`run_specs_expect`].
#[must_use]
pub fn measure(case: &PerfCase, jobs: usize) -> PerfResult {
    let opts = SweepOpts {
        jobs,
        ..SweepOpts::serial()
    };
    let (outs, summary) = run_specs_expect(&opts, &case.specs);
    let sim_cycles: u64 = outs.iter().map(|o| o.cycles).sum();
    let wall_millis = summary.wall_millis.max(1);
    PerfResult {
        name: case.name.clone(),
        cells: outs.len() as u64,
        sim_cycles,
        wall_millis,
        cycles_per_sec: sim_cycles.saturating_mul(1000) / wall_millis,
    }
}

/// Peak resident-set size of this process in kilobytes (`VmHWM` from
/// `/proc/self/status`); `None` where that interface does not exist.
#[must_use]
pub fn peak_rss_kb() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        line.split_whitespace().nth(1)?.parse().ok()
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Assembles the `BENCH_perf.json` document: one entry per case plus
/// run-wide metadata. Insertion order is stable, so the rendered bytes
/// are deterministic for fixed measurements.
#[must_use]
pub fn report_json(results: &[PerfResult], jobs: u64, smoke: bool) -> Json {
    let cases = results
        .iter()
        .map(|r| {
            Json::Obj(vec![
                ("name".into(), Json::Str(r.name.clone())),
                ("cells".into(), Json::U64(r.cells)),
                ("sim_cycles".into(), Json::U64(r.sim_cycles)),
                ("wall_millis".into(), Json::U64(r.wall_millis)),
                ("cycles_per_sec".into(), Json::U64(r.cycles_per_sec)),
            ])
        })
        .collect();
    let mut fields = vec![
        ("schema".into(), Json::U64(1)),
        ("jobs".into(), Json::U64(jobs)),
        ("smoke".into(), Json::Bool(smoke)),
        ("cases".into(), Json::Arr(cases)),
    ];
    match peak_rss_kb() {
        Some(kb) => fields.push(("peak_rss_kb".into(), Json::U64(kb))),
        None => fields.push(("peak_rss_kb".into(), Json::Null)),
    }
    Json::Obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbrp_workloads::WorkloadKind;

    #[test]
    fn measure_reports_consistent_totals() {
        let case = PerfCase {
            name: "smoke".into(),
            specs: vec![RunSpec {
                workload: WorkloadKind::Reduction,
                scale: 256,
                small_gpu: true,
                ..RunSpec::default()
            }],
        };
        let r = measure(&case, 1);
        assert_eq!(r.cells, 1);
        assert!(r.sim_cycles > 0);
        assert!(r.wall_millis >= 1);
        assert_eq!(
            r.cycles_per_sec,
            r.sim_cycles.saturating_mul(1000) / r.wall_millis
        );
    }

    #[test]
    fn report_is_parseable_and_integer_only() {
        let r = PerfResult {
            name: "figure6".into(),
            cells: 30,
            sim_cycles: 1_000_000,
            wall_millis: 2000,
            cycles_per_sec: 500_000,
        };
        let doc = report_json(&[r], 1, true);
        let rendered = doc.render();
        let back = Json::parse(&rendered).expect("round-trips");
        let cases = back.get("cases").and_then(Json::as_arr).expect("cases");
        assert_eq!(cases.len(), 1);
        assert_eq!(
            cases[0].get("cycles_per_sec").and_then(Json::as_u64),
            Some(500_000)
        );
        assert_eq!(back.get("schema").and_then(Json::as_u64), Some(1));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn peak_rss_is_available_on_linux() {
        assert!(peak_rss_kb().expect("VmHWM exists") > 0);
    }
}
