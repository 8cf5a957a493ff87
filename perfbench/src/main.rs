//! `perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one workload of the layered benchmark, checks its outputs and
//! prints a readable report followed, as the last line of standard
//! output, by one JSON object: `correct`, `attempted`, `failed` and the
//! metrics (end-to-end with `--trace 0`, per-layer with `--trace 1`).
//! Exits 1 if any check failed, 2 on a usage error.

use sbrp_perfbench::catalog;
use sbrp_perfbench::host;
use sbrp_perfbench::median;
use sbrp_perfbench::run::{run, Outcome, Workload};
use std::fmt::Write as _;
use std::process::ExitCode;

/// The seed used when none is given.
const DEFAULT_SEED: u64 = 1;
const USAGE: &str = "usage: perfbench --workload sim-persist|sim-compute|serve|verify \
                     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} must be {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("a workload name"))?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad("a non-negative integer"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| bad("a number of seconds in (0, 3600]"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn metric_line(name: &str, value: f64) -> String {
    let unit = catalog::unit(name).expect("reported metrics are in the catalog");
    format!("metric {name} {value} {unit}")
}

fn report(args: &Args, out: &Outcome) -> String {
    let w = args.workload.name();
    let mut s = String::new();
    let _ = writeln!(
        s,
        "# perfbench {w} seed={} trace={} passes={} (serial, --jobs 1, result cache off)",
        args.seed,
        u8::from(args.trace),
        out.passes
    );
    let _ = writeln!(
        s,
        "host nproc={} cpu=\"{}\"",
        host::nproc(),
        host::cpu_model()
    );
    if args.trace {
        let _ = writeln!(
            s,
            "## per-layer (traced run; a layer this workload does not reach reads 0)"
        );
        for &(name, v) in &out.metrics {
            let _ = writeln!(s, "{}", metric_line(name, v));
        }
    } else {
        let _ = writeln!(s, "{}", metric_line("host.calib_ms", out.calib_ms));
        let _ = writeln!(
            s,
            "## end-to-end, host (wall clock, tracing off; times scaled to a host whose \
             calibration round takes {} ms)",
            host::REF_CALIB_MS
        );
        for &(name, v) in &out.metrics {
            let _ = writeln!(s, "{}", metric_line(name, v));
        }
        let unscaled: Vec<String> = out
            .unscaled
            .iter()
            .map(|(name, v)| format!("{name}={v}"))
            .collect();
        let _ = writeln!(
            s,
            "unscaled {} (calibration: fastest {} ms, median {} ms over {} rounds)",
            unscaled.join(" "),
            out.calib_ms,
            out.calib_median_ms,
            out.calib_rounds
        );
        let _ = writeln!(
            s,
            "## simulated (exact for the seed; the model is unvalidated against hardware and the inputs are laptop-scale)"
        );
        for &(name, v) in &out.exact {
            let _ = writeln!(s, "{}", metric_line(name, v));
        }
        if out.exact.iter().any(|(n, _)| *n == "model.sbrp_speedup") {
            let _ = writeln!(
                s,
                "reference: the paper reports SBRP over epoch at +14% on PM-far and +15% on PM-near (means)"
            );
        }
    }
    // Host drift within the run shows in the spread of the per-pass rates.
    let mut per_pass = out.pass_work_per_s.clone();
    let mid = median(&mut per_pass); // also sorts
    let at = |q: f64| per_pass[((per_pass.len() - 1) as f64 * q).round() as usize];
    let _ = writeln!(
        s,
        "per-pass work rate (1/s): min={} q1={} median={mid} q3={} max={} (n={})",
        at(0.0),
        at(0.25),
        at(0.75),
        at(1.0),
        per_pass.len()
    );
    let _ = writeln!(s, "digest {w} {:016x}", out.digest);
    for f in &out.failures {
        let _ = writeln!(s, "FAILED {f}");
    }
    s
}

fn result_json(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|&(name, v)| {
            let unit = catalog::unit(name).expect("reported metrics are in the catalog");
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut out = run(args.workload, args.seed, args.seconds, args.trace);
    if out.metrics.iter().any(|(_, v)| !v.is_finite()) {
        out.failed += 1;
        out.failures.push("a metric is not a finite number".into());
    }
    if let Some(json) = &out.trace_json {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!(
            "trace-{}-seed{}.json",
            args.workload.name(),
            args.seed
        ));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json)) {
            Ok(()) => eprintln!("perfbench: wrote {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }
    print!("{}", report(&args, &out));
    println!("{}", result_json(&out));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
