//! `mmds-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for about `--seconds` and prints, as the last line
//! of standard output, one JSON object with the gated checks and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). See `README.md`.

use std::process::ExitCode;

use mmds_perfbench::report::{peak_rss_mib, Report, END_TO_END, PER_LAYER};
use mmds_perfbench::{coupled, kmc, md_host};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds}: expected a value in (0, 60]"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mmds-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The program's own telemetry is off in every run, whatever the
    // environment says; the traced runs time from the benchmark's side.
    mmds_telemetry::set_mode(mmds_telemetry::Mode::Off);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut rep = Report::default();
    type Run = fn(u64, f64, &mut Report);
    let (untraced, traced, workers): (Run, Run, usize) = match args.workload.as_str() {
        "md_host" => (md_host::run_untraced, md_host::run_traced, md_host::WORKERS),
        "kmc_2rank" => (kmc::run_untraced, kmc::run_traced, 1),
        "coupled_sunway_2rank" => (coupled::run_untraced, coupled::run_traced, 1),
        w => {
            eprintln!("mmds-perfbench: unknown workload {w}");
            return ExitCode::from(2);
        }
    };
    // Every workload loads the host with at most `nproc` threads: one
    // process, 2 host workers on md_host, 2 rank threads of 1 worker on
    // the 2-rank workloads.
    md_host::set_workers(workers);
    println!(
        "workload {} seed {} seconds {} trace {} nproc {nproc}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    if args.trace {
        traced(args.seed, args.seconds, &mut rep);
        println!("{}", rep.json_line(PER_LAYER));
    } else {
        untraced(args.seed, args.seconds, &mut rep);
        rep.metric("peak_rss_mib", peak_rss_mib());
        println!("{}", rep.json_line(END_TO_END));
    }
    ExitCode::SUCCESS
}
