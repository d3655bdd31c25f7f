//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, prints a provenance line, then, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed`
//! and the metrics (end-to-end with `--trace 0`, per-layer with
//! `--trace 1`). Exits 1 when the correctness gate fails, 2 on bad usage
//! or a refused environment.

use perfbench::inputs::Size;
use perfbench::{Opts, Workload, END_TO_END, PER_LAYER, REFUSED_ENV};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <fig6-grid|short-distinct|serve-mixed> \
--seed <n> --seconds <s> --trace <0|1> [--size full|tiny] [--out <dir>]";

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = perfbench::inputs::DEFAULT_SEED;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut size = Size::Full;
    let mut out_dir = PathBuf::from("perfbench/out");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("expected a positive number"))?
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--size" => {
                size = match value {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(bad("expected full or tiny")),
                }
            }
            "--out" => out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        size,
        jobs: replay_sim::parallel::available_jobs(),
        out_dir,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!(
            "error: refusing to run with {var} set: it changes which layers the program \
             runs; unset it (the benchmark configures the store and jobs itself)"
        );
        return ExitCode::from(2);
    }
    let out = perfbench::run(&opts);
    for e in out.errors.iter().take(10) {
        eprintln!("gate: {e}");
    }
    let declared = if opts.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    println!("{}", out.provenance_json());
    println!("{}", out.result_json(declared));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
