//! `m3perf` — the Manthan3 end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path m3perf/Cargo.toml -- \
//!     --workload cegis_repair|sample_learn|certified|all \
//!     [--seed N] [--seconds N] [--trace 0|1]
//! ```
//!
//! Generates the workload's instances from `--seed`, serializes them to
//! DQDIMACS, and runs them back to back (one client, closed loop) through
//! `parse_dqdimacs` → `Manthan3::synthesize` for `--seconds` of measuring
//! time, checking every verdict. It prints the provenance block, every
//! metric with its unit, and as the last line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. The traced run
//! also writes its spans to `m3perf/out/trace_<workload>_s<seed>.json`.
//! `--workload all` runs the three workloads one after another, each in its
//! own process.
//!
//! Exit status: 0 on a checked run, 1 when the correctness gate or the
//! determinism check fails, 2 on a usage error.

mod cpu;
mod heap;
mod report;
mod run;
mod workloads;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

use report::{Metric, Provenance};
use run::Runner;
use std::process::{exit, Command};
use std::time::Instant;
use workloads::Workload;

const USAGE: &str = "usage: m3perf --workload cegis_repair|sample_learn|certified|all \
                     [--seed N] [--seconds N] [--trace 0|1]";

/// Seconds for which set-up is repeated, once before measuring and once
/// after; `setup_s` is the fastest repetition. A slow spell of the host can
/// last seconds, so it must cover both windows to show in `setup_s`.
const SETUP_SECONDS: f64 = 0.5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 40.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload != "all" && Workload::parse(&args.workload).is_none() {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("m3perf: {e}\n{USAGE}");
        exit(2)
    });
    let code = match Workload::parse(&args.workload) {
        Some(workload) => run_workload(workload, &args),
        None => run_all(&args),
    };
    exit(code)
}

/// Runs every workload in a child process of its own (so each reports its
/// own peak memory) and forwards their output.
fn run_all(args: &Args) -> i32 {
    let exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("m3perf: cannot locate own executable: {e}");
        exit(2)
    });
    let mut code = 0;
    for workload in Workload::ALL {
        let status = Command::new(&exe)
            .args(["--workload", workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => code = s.code().unwrap_or(1).max(1),
            Err(e) => {
                eprintln!("m3perf: cannot run {}: {e}", workload.name());
                code = 1;
            }
        }
    }
    code
}

fn run_workload(workload: Workload, args: &Args) -> i32 {
    // Set-up: generation and serialization. Every repetition must produce the
    // same inputs, so the work is identical and `setup_s` is the fastest
    // repetition, as an instance's latency is its fastest pass.
    // Read before anything is pinned: the CPUs the timed work takes turns on.
    let cpus = cpu::allowed();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let (inputs, mut setup_s) = set_up(workload, args.seed);
    let mut runner = Runner::new(workload, &inputs, &cpus);
    let min_passes = if args.trace { 4 } else { 3 };
    let measured = repeat_set_up(workload, args.seed, &inputs, &cpus, &mut setup_s)
        .and_then(|()| runner.measure(args.seconds, min_passes, args.trace));
    let checked = measured
        .and_then(|()| runner.gate())
        .and_then(|()| repeat_set_up(workload, args.seed, &inputs, &cpus, &mut setup_s));
    let (attempted, failed) = report::attempted_failed(&runner);
    if let Err(e) = checked {
        return fail(workload, &e, attempted.max(1), failed);
    }

    let latencies = report::latencies(&runner);
    let (_, tail_percentile) = report::tail(&latencies);
    let provenance = Provenance {
        workload: workload.name(),
        seed: args.seed,
        seconds: args.seconds,
        instances: inputs.len(),
        passes: runner.passes,
        tail_percentile,
        nproc,
    }
    .json();
    let metrics: Vec<Metric> = if args.trace {
        let names: Vec<String> = inputs.iter().map(|i| i.name.clone()).collect();
        if let Err(e) = write_trace(
            workload,
            args.seed,
            &report::trace_json(&runner, &names, &provenance),
        ) {
            return fail(
                workload,
                &format!("cannot write the trace: {e}"),
                attempted,
                failed,
            );
        }
        report::per_layer(&runner)
    } else {
        report::end_to_end(&runner, setup_s)
    };

    println!("provenance {provenance}");
    println!("pass_wall_s {:?}", report::pass_walls(&runner));
    println!(
        "{}: {} instances x {} passes; instance_tail_s is p{tail_percentile:.1} (10 instances beyond it)",
        workload.name(),
        inputs.len(),
        runner.passes
    );
    for m in &metrics {
        println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", report::result_line(true, attempted, failed, &metrics));
    0
}

/// Generates and serializes the workload's inputs; returns them with the
/// seconds it took.
fn set_up(workload: Workload, seed: u64) -> (Vec<workloads::Input>, f64) {
    let start = Instant::now();
    let inputs = workload.inputs(seed);
    (inputs, start.elapsed().as_secs_f64())
}

/// Repeats set-up for `SETUP_SECONDS`, the repetitions taking turns on
/// `cpus`, lowering `fastest` to the fastest repetition; fails when a
/// repetition differs from `inputs`.
fn repeat_set_up(
    workload: Workload,
    seed: u64,
    inputs: &[workloads::Input],
    cpus: &[usize],
    fastest: &mut f64,
) -> Result<(), String> {
    let start = Instant::now();
    let mut turn = 0;
    while start.elapsed().as_secs_f64() < SETUP_SECONDS {
        cpu::pin(cpus, turn);
        turn += 1;
        let (again, seconds) = set_up(workload, seed);
        *fastest = fastest.min(seconds);
        if again
            .iter()
            .zip(inputs)
            .any(|(a, b)| a.dqdimacs != b.dqdimacs)
        {
            return Err("instance generation is not deterministic".to_string());
        }
    }
    Ok(())
}

fn write_trace(workload: Workload, seed: u64, json: &str) -> std::io::Result<()> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace_{}_s{seed}.json", workload.name()));
    std::fs::write(&path, json)?;
    eprintln!("m3perf: trace written to {}", path.display());
    Ok(())
}

/// Reports a failed correctness gate or determinism check and returns the
/// exit status.
fn fail(workload: Workload, error: &str, attempted: usize, failed: usize) -> i32 {
    eprintln!("m3perf: {}: {error}", workload.name());
    println!("{}", report::result_line(false, attempted, failed, &[]));
    1
}
