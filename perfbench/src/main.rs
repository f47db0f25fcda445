//! The end-to-end serving benchmark.
//!
//! ```text
//! perfbench --workload <screen-er|point-tm|ingest-er|pair-bx> --seed <n>
//!           --seconds <s> --trace <0|1> [--run-dir <dir>]
//! ```
//!
//! One run builds the workload's catalog graph from `--seed`, sets the
//! system up several times, drives the workload through its front door
//! for `--seconds`, checks the served estimates, and prints one JSON
//! object as its last line of output: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of a traced replay with `--trace 1`.
//! `perfbench/run.py` builds this binary and is the command to use; see
//! `BENCHMARK.json` for the workloads and metrics.
//!
//! The binary doubles as the cluster's shard worker: spawned with the
//! worker environment it serves a shard instead.

mod cluster_bench;
mod harness;
mod pair_bench;
mod procfs;
mod report;
mod schedule;
mod stats;
mod trace;
mod workload;

use harness::RunDir;
use std::path::PathBuf;
use workload::Workload;

/// Where each run's result record and traced spans are kept.
const RESULTS_DIR: &str = ".perfbench/results";

const USAGE: &str = "usage: perfbench --workload <screen-er|point-tm|ingest-er|pair-bx> \
                     --seed <n> --seconds <s> --trace <0|1> [--run-dir <dir>]";

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    run_dir: PathBuf,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut it = args.into_iter();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut run_dir = PathBuf::from(format!(".perfbench/run-{}", std::process::id()));
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("seconds"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(bad("seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                })
            }
            "--run-dir" => run_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        run_dir,
    })
}

/// Variables that make the binary a different program from the one being
/// measured: fault injection, forced portable kernels, retry overrides.
fn env_guard(vars: impl IntoIterator<Item = (String, String)>) -> Result<(), String> {
    for (key, _) in vars {
        if key == cluster::FAULT_PLAN_ENV
            || key == "CNE_FORCE_PORTABLE_KERNELS"
            || key.starts_with("CNE_CLUSTER_")
        {
            return Err(format!(
                "{key} is set; it changes the program under test, so no numbers are produced"
            ));
        }
    }
    Ok(())
}

/// `key=value` provenance pairs for the result header.
fn provenance(args: &Args) -> Vec<(&'static str, String)> {
    let from_env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    vec![
        ("workload", args.workload.name().to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        (
            "popcount_kernel",
            bigraph::bitset::active_popcount_kernel().to_string(),
        ),
        ("rayon_threads", from_env("RAYON_NUM_THREADS")),
        ("rustc", from_env("PERFBENCH_RUSTC")),
        ("commit", from_env("PERFBENCH_COMMIT")),
    ]
}

fn json_object(pairs: &[(&str, String)]) -> String {
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| {
            format!(
                "\"{k}\": \"{}\"",
                v.replace('\\', "\\\\").replace('"', "\\\"")
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    if cluster::maybe_run_worker_from_env() {
        return;
    }
    std::process::exit(real_main());
}

fn real_main() -> i32 {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return 2;
        }
    };
    if let Err(e) = env_guard(std::env::vars()) {
        eprintln!("perfbench: {e}");
        return 3;
    }
    // One thread per parallel section, inherited by the workers: the
    // numbers measure the program, not the scheduler.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let mut header = provenance(&args);
    println!("provenance: {}", json_object(&header));

    let result = std::panic::catch_unwind(|| -> harness::Res<report::Outcome> {
        let run = RunDir::create(&args.run_dir)?;
        match args.workload {
            Workload::PairBx => pair_bench::run(args.seed, args.seconds, args.trace, &run),
            w => cluster_bench::run(w, args.seed, args.seconds, args.trace, &run),
        }
    });
    let outcome = match result {
        Ok(Ok(o)) => o,
        Ok(Err(e)) => {
            eprintln!("perfbench: {e}");
            return 1;
        }
        Err(_) => {
            eprintln!("perfbench: the run panicked");
            return 1;
        }
    };

    let t = outcome.tally;
    for line in &outcome.notes {
        println!("{line}");
    }
    println!(
        "ops: sent {} succeeded {} failed {} (failed_ratio {})",
        t.attempted,
        t.attempted - t.failed,
        t.failed,
        t.ratio()
    );
    for &(name, value, unit) in outcome.metrics.entries() {
        println!("metric {name} = {value} {unit}");
    }
    for &(name, value, unit) in outcome.ungated.entries() {
        println!("metric {name} = {value} {unit} (not gated)");
        header.push((name, format!("{value} {unit}")));
    }
    header.push(("sent", t.attempted.to_string()));
    header.push(("succeeded", (t.attempted - t.failed).to_string()));
    header.push(("failed", t.failed.to_string()));
    header.push(("failed_ratio", t.ratio().to_string()));
    let line = outcome.json_line();
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let out_dir = std::path::Path::new(RESULTS_DIR);
    let written = std::fs::create_dir_all(out_dir).and_then(|()| {
        let record = format!(
            "{{\"provenance\": {}, \"result\": {line}}}\n",
            json_object(&header)
        );
        std::fs::write(out_dir.join(format!("{stem}.json")), record)?;
        if let Some(tr) = &outcome.trace {
            std::fs::write(
                out_dir.join(format!("{stem}.spans.jsonl")),
                tr.to_json_lines(),
            )?;
        }
        Ok(())
    });
    if let Err(e) = written {
        eprintln!("perfbench: could not write results: {e}");
        return 1;
    }
    println!("{line}");
    if line.starts_with("{\"correct\": true") {
        0
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(strings(&[
            "--workload",
            "ingest-er",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workload, Workload::IngestEr);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(parse_args(strings(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ]))
        .is_err());
        assert!(parse_args(strings(&[
            "--workload",
            "pair-bx",
            "--seed",
            "1",
            "--seconds",
            "1"
        ]))
        .is_err());
        assert!(parse_args(strings(&[
            "--workload",
            "pair-bx",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0"
        ]))
        .is_err());
    }

    #[test]
    fn env_guard_refuses_overrides() {
        let var = |k: &str| vec![(k.to_string(), "1".to_string())];
        assert!(env_guard(var("PATH")).is_ok());
        assert!(env_guard(var("CNE_FAULT_PLAN")).is_err());
        assert!(env_guard(var("CNE_FORCE_PORTABLE_KERNELS")).is_err());
        assert!(env_guard(var("CNE_CLUSTER_IO_TIMEOUT_MS")).is_err());
    }
}
