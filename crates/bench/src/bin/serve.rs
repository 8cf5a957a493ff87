//! `serve` — open-loop request serving against the sharded persistent
//! gpKVS: sweep offered rate × persistency model, report the
//! throughput–latency table (p50/p95/p99/p999 in simulated cycles), and
//! write `outputs/serve.txt` plus the latency-histogram JSON artifact
//! `outputs/serve_hist.json`.
//!
//! Usage: `serve [--smoke] [--arrival poisson|bursty] [--rate LIST]
//! [--zipf THETA] [--batch N] [--linger CYCLES] [--queue-bound N]
//! [--model LIST] [--requests N] [--crash-at CYCLE] [--seed N]
//! [--out-dir DIR]` plus the standard sweep flags (`--scale`, `--small`,
//! `--csv`, `--json`, `--jobs`, `--no-cache`, `--resume`,
//! `--journal-dir`).
//!
//! * `--rate` — comma list of offered rates in requests per kilocycle
//!   (decimals allowed: `--rate 0.5,2,8`).
//! * `--model` — comma list from `sbrp,epoch,gpm,eadr`.
//! * `--smoke` — the CI configuration: small GPU, reduced trace, rates
//!   bracketing the saturation knee; seconds instead of minutes.

use sbrp_bench::Cli;
use sbrp_harness::json::write_atomic;
use sbrp_harness::serve::{
    hist_json, run_serve_cells_expect, serve_table, ServeCell, ServeModel, ServeSpec,
};
use sbrp_workloads::service::ArrivalKind;
use std::path::Path;

struct Args {
    cli: Cli,
    smoke: bool,
    arrival: ArrivalKind,
    rates_milli: Option<Vec<u64>>,
    models: Option<Vec<ServeModel>>,
    zipf_milli: Option<u64>,
    batch: Option<u32>,
    linger: Option<u64>,
    queue_bound: Option<u64>,
    requests: Option<u64>,
    crash_at: Option<u64>,
    seed: u64,
    out_dir: String,
}

fn parse_milli(v: &str, flag: &str) -> u64 {
    let f: f64 = v
        .parse()
        .unwrap_or_else(|_| panic!("{flag} must be a number, got {v:?}"));
    assert!(f.is_finite() && f >= 0.0, "{flag} must be non-negative");
    (f * 1000.0).round() as u64
}

#[allow(clippy::too_many_lines)]
fn parse_args() -> Args {
    let mut parsed = Args {
        cli: Cli::default(),
        smoke: false,
        arrival: ArrivalKind::Poisson,
        rates_milli: None,
        models: None,
        zipf_milli: None,
        batch: None,
        linger: None,
        queue_bound: None,
        requests: None,
        crash_at: None,
        seed: 42,
        out_dir: "outputs".into(),
    };
    let mut args = std::env::args().skip(1);
    let need = |flag: &str, v: Option<String>| v.unwrap_or_else(|| panic!("{flag} needs a value"));
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => parsed.smoke = true,
            "--arrival" => {
                parsed.arrival = match need("--arrival", args.next()).as_str() {
                    "poisson" => ArrivalKind::Poisson,
                    "bursty" => ArrivalKind::Bursty,
                    other => panic!("--arrival must be poisson or bursty, got {other:?}"),
                };
            }
            "--rate" => {
                let list = need("--rate", args.next());
                let rates: Vec<u64> = list
                    .split(',')
                    .map(|v| {
                        let r = parse_milli(v, "--rate");
                        assert!(r > 0, "--rate entries must be positive");
                        r
                    })
                    .collect();
                assert!(!rates.is_empty(), "--rate needs at least one rate");
                parsed.rates_milli = Some(rates);
            }
            "--model" => {
                let list = need("--model", args.next());
                let models: Vec<ServeModel> = list
                    .split(',')
                    .map(|v| {
                        ServeModel::parse(v)
                            .unwrap_or_else(|| panic!("unknown model {v:?} (sbrp,epoch,gpm,eadr)"))
                    })
                    .collect();
                assert!(!models.is_empty(), "--model needs at least one model");
                parsed.models = Some(models);
            }
            "--zipf" => {
                parsed.zipf_milli = Some(parse_milli(&need("--zipf", args.next()), "--zipf"))
            }
            "--batch" => {
                let n: u32 = need("--batch", args.next())
                    .parse()
                    .expect("--batch must be an integer");
                assert!(n > 0, "--batch must be at least 1");
                parsed.batch = Some(n);
            }
            "--linger" => {
                parsed.linger = Some(
                    need("--linger", args.next())
                        .parse()
                        .expect("--linger must be an integer cycle count"),
                );
            }
            "--queue-bound" => {
                let n: u64 = need("--queue-bound", args.next())
                    .parse()
                    .expect("--queue-bound must be an integer");
                assert!(n > 0, "--queue-bound must be at least 1");
                parsed.queue_bound = Some(n);
            }
            "--requests" => {
                let n: u64 = need("--requests", args.next())
                    .parse()
                    .expect("--requests must be an integer");
                assert!(n > 0, "--requests must be at least 1");
                parsed.requests = Some(n);
            }
            "--crash-at" => {
                parsed.crash_at = Some(
                    need("--crash-at", args.next())
                        .parse()
                        .expect("--crash-at must be a cycle number"),
                );
            }
            "--seed" => {
                parsed.seed = need("--seed", args.next())
                    .parse()
                    .expect("--seed must be an integer");
            }
            "--out-dir" => parsed.out_dir = need("--out-dir", args.next()),
            // Output flags mirrored from `Cli::parse`; the shared sweep
            // flags fall through to `Cli::expect_sweep_flag`.
            "--scale" => {
                parsed.cli.scale = Some(
                    need("--scale", args.next())
                        .parse()
                        .expect("--scale must be an integer"),
                );
            }
            "--small" => parsed.cli.small = true,
            "--csv" => parsed.cli.csv = true,
            "--json" => parsed.cli.json = true,
            "--help" | "-h" => {
                println!(
                    "usage: serve [--smoke] [--arrival poisson|bursty] [--rate LIST] \
                     [--zipf THETA] [--batch N] [--linger CYCLES] [--queue-bound N] \
                     [--model sbrp,epoch,gpm,eadr] [--requests N] [--crash-at CYCLE] \
                     [--seed N] [--out-dir DIR] [--scale N] [--small] [--csv] [--json] \
                     [--jobs N] [--no-cache] [--resume] [--journal-dir DIR]"
                );
                std::process::exit(0);
            }
            other => parsed.cli.expect_sweep_flag(other, &mut args),
        }
    }
    parsed
}

fn main() {
    let args = parse_args();
    // The smoke preset is the CI configuration: small GPU, short trace,
    // offered rates bracketing the measured saturation knee so the
    // table shows both the latency floor and the overload regime.
    let small = args.cli.small || args.smoke;
    let scale = args
        .cli
        .scale
        .unwrap_or(if args.smoke { 512 } else { 2048 });
    let requests = args.requests.unwrap_or(if args.smoke { 384 } else { 2048 });
    let batch = args.batch.unwrap_or(if args.smoke { 32 } else { 64 });
    let models = args.models.clone().unwrap_or_else(|| {
        if args.smoke {
            vec![ServeModel::Sbrp, ServeModel::Gpm, ServeModel::Epoch]
        } else {
            ServeModel::ALL.to_vec()
        }
    });
    let rates = args.rates_milli.clone().unwrap_or_else(|| {
        if args.smoke {
            vec![2_000, 8_000, 32_000, 128_000]
        } else {
            vec![2_000, 8_000, 16_000, 32_000, 64_000, 128_000]
        }
    });

    let cells: Vec<ServeCell> = models
        .iter()
        .flat_map(|&model| {
            rates.iter().map(move |&rate_milli| ServeCell {
                spec: ServeSpec {
                    model,
                    arrival: args.arrival,
                    rate_milli,
                    zipf_milli: args.zipf_milli.unwrap_or(990),
                    requests,
                    scale,
                    batch,
                    linger: args.linger.unwrap_or(if args.smoke { 1000 } else { 2000 }),
                    queue_bound: args
                        .queue_bound
                        .unwrap_or(if args.smoke { 256 } else { 512 }),
                    seed: args.seed,
                    small_gpu: small,
                    crash_at: args.crash_at,
                    ..ServeSpec::default()
                },
            })
        })
        .collect();

    let (outs, summary) = run_serve_cells_expect(&args.cli.sweep_opts(), &cells);
    let table = serve_table(&cells, &outs);
    args.cli.emit(&table);

    std::fs::create_dir_all(&args.out_dir)
        .unwrap_or_else(|e| panic!("creating {}: {e}", args.out_dir));
    let txt_path = Path::new(&args.out_dir).join("serve.txt");
    write_atomic(&txt_path, &table.to_text())
        .unwrap_or_else(|e| panic!("writing {}: {e}", txt_path.display()));
    let hist_path = Path::new(&args.out_dir).join("serve_hist.json");
    write_atomic(&hist_path, &hist_json(&cells, &outs))
        .unwrap_or_else(|e| panic!("writing {}: {e}", hist_path.display()));
    eprintln!(
        "serve: wrote {} and {}",
        txt_path.display(),
        hist_path.display()
    );
    eprintln!("{}", summary.summary_line());
}
