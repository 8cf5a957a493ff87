//! Self-tests of the benchmark: its metric names match `BENCHMARK.json`,
//! every cell's stall ledger adds up, traced self times add up to the
//! traced wall time, and tracing leaves every simulated result alone.

use sbrp_perfbench::catalog::{self, END_TO_END, PER_LAYER, WORKLOADS};
use sbrp_perfbench::run::{Workload, SELF_TIME_TOLERANCE};
use sbrp_perfbench::sim;
use sbrp_perfbench::spans::{self_time_by_layer, Tracer};
use std::collections::BTreeMap;
use std::process::Command;

/// `(name, unit)` of every entry in one array of `BENCHMARK.json`
/// (`unit` is empty for workloads). The file's objects are flat, so
/// splitting on braces is enough.
fn manifest_entries(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("array ends")];
    let field = |obj: &str, f: &str| -> String {
        let tag = format!("\"{f}\": \"");
        obj.find(&tag).map_or_else(String::new, |i| {
            let rest = &obj[i + tag.len()..];
            rest[..rest.find('"').expect("string ends")].to_string()
        })
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn catalog_entries(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn catalog_matches_benchmark_json() {
    assert_eq!(manifest_entries("end_to_end"), catalog_entries(&END_TO_END));
    assert_eq!(manifest_entries("per_layer"), catalog_entries(&PER_LAYER));
    let workloads: Vec<String> = manifest_entries("workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(workloads, WORKLOADS);
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, WORKLOADS);
}

#[test]
fn every_cell_stall_ledger_sums_to_its_total() {
    for apps in [&sim::PERSIST_APPS[..], &sim::COMPUTE_APPS[..]] {
        for spec in sim::cells(apps, 1) {
            let out = sbrp_harness::run_workload(&spec).expect("cell runs");
            assert_eq!(
                out.stats.stall.bucket_sum(),
                out.stats.stall.total,
                "{}: stall buckets must sum to the total",
                spec.cell_name()
            );
        }
    }
}

#[test]
fn traced_self_times_sum_to_the_wall_and_tracing_changes_nothing_simulated() {
    for w in Workload::ALL {
        let (plain, _) = w.pass(3, &mut Tracer::new(false));
        let mut tr = Tracer::new(true);
        let (traced, wall) = w.pass(3, &mut tr);
        assert_eq!(plain.failed, 0, "{}: {:?}", w.name(), plain.failures);
        assert_eq!(plain.digest, traced.digest, "{}: digest", w.name());
        assert_eq!(plain.exact, traced.exact, "{}: simulated metrics", w.name());

        let selfs = self_time_by_layer(tr.spans());
        let sum: u64 = selfs.values().sum();
        let wall = wall.as_nanos() as f64;
        assert!(
            (sum as f64 - wall).abs() <= SELF_TIME_TOLERANCE * wall,
            "{}: self times sum to {sum} ns, wall {wall} ns",
            w.name()
        );
        for layer in selfs.keys() {
            let metric = format!("{layer}.self_ms");
            assert!(catalog::unit(&metric).is_some(), "{metric} is not reported");
        }
    }
}

/// Runs the benchmark binary briefly and returns (exit code, stdout).
fn run_bench(workload: &str, trace: &str) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_sbrp-perfbench"))
        .args(["--workload", workload, "--seed", "2", "--seconds", "0.2"])
        .args(["--trace", trace])
        .output()
        .expect("benchmark binary runs");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8(out.stdout).expect("utf-8 output"),
    )
}

/// `metric NAME VALUE UNIT` lines of a report.
fn metric_lines(stdout: &str) -> BTreeMap<String, (String, String)> {
    stdout
        .lines()
        .filter_map(|l| l.strip_prefix("metric "))
        .map(|l| {
            let f: Vec<&str> = l.split(' ').collect();
            assert_eq!(f.len(), 3, "metric line {l:?}");
            (f[0].to_string(), (f[1].to_string(), f[2].to_string()))
        })
        .collect()
}

/// Names and units in the final JSON line, in order.
fn json_metrics(stdout: &str) -> Vec<(String, String)> {
    let last = stdout.lines().last().expect("output");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    let metrics = &last[last.find("\"metrics\": {").expect("metrics") + 12..];
    metrics
        .split("}, ")
        .map(|m| {
            let name = &m[1..m[1..].find('"').expect("name ends") + 1];
            let unit = m.rsplit("\"unit\": \"").next().expect("unit");
            (
                name.to_string(),
                unit.trim_end_matches('}').trim_end_matches('"').to_string(),
            )
        })
        .collect()
}

#[test]
fn printed_metrics_are_in_benchmark_json_and_tracing_repeats_the_simulation() {
    let manifest: BTreeMap<String, String> = manifest_entries("end_to_end")
        .into_iter()
        .chain(manifest_entries("per_layer"))
        .collect();
    for w in WORKLOADS {
        let (code0, plain) = run_bench(w, "0");
        let (code1, traced) = run_bench(w, "1");
        assert_eq!((code0, code1), (0, 0), "{w}:\n{plain}\n{traced}");
        assert_eq!(json_metrics(&plain), catalog_entries(&END_TO_END), "{w}");
        assert_eq!(json_metrics(&traced), catalog_entries(&PER_LAYER), "{w}");

        let plain_lines = metric_lines(&plain);
        let traced_lines = metric_lines(&traced);
        for (name, (_, unit)) in plain_lines.iter().chain(&traced_lines) {
            assert_eq!(manifest.get(name), Some(unit), "{w}: printed metric {name}");
        }
        // Simulated metrics print in both runs and must agree exactly.
        for (name, (value, _)) in &plain_lines {
            if let Some((traced_value, _)) = traced_lines.get(name) {
                if !name.starts_with("host.") {
                    assert_eq!(value, traced_value, "{w}: {name}");
                }
            }
        }
        let digest = |s: &str| {
            s.lines()
                .find(|l| l.starts_with("digest "))
                .map(str::to_string)
        };
        assert!(digest(&plain).is_some());
        assert_eq!(digest(&plain), digest(&traced), "{w}: digest");
    }
}
