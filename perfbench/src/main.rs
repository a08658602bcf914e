//! The benchmark's measuring program. `run.py` drives it; each
//! subcommand prints one JSON object as its last line of output.
//!
//! ```text
//! perfbench fixture --workload <w> --seed <n> --dir <d>
//! perfbench run     --workload <w> --seed <n> --dir <d> [--scores-out <f>] [--reference <f>]
//! perfbench trace   --workload <w> --seed <n> --dir <d> [--reference <f>]
//! perfbench stamp
//! perfbench worker  <endpoint>
//! ```
//!
//! `run` makes one untraced call into the program; `trace` replays the same
//! input layer by layer. Both exit with code 1 when an output check fails.
//! `run --workload fabric-uds` is the fabric round of `flow-stream`'s traced
//! run: `flow-stream`'s input through `run_fabric` to one worker process.

mod capture;
mod checks;
mod stats;
mod sys;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use stats::JsonObject;
use workloads::{read_scores, write_scores, Workload};

struct Args {
    workload: Option<Workload>,
    seed: u64,
    dir: PathBuf,
    scores_out: Option<PathBuf>,
    reference: Option<PathBuf>,
}

fn parse_args(rest: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 0,
        dir: PathBuf::from("."),
        scores_out: None,
        reference: None,
    };
    let mut i = 0;
    while i < rest.len() {
        let value = rest.get(i + 1).ok_or_else(|| format!("{} needs a value", rest[i]))?;
        match rest[i].as_str() {
            "--workload" => {
                args.workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--dir" => args.dir = PathBuf::from(value),
            "--scores-out" => args.scores_out = Some(PathBuf::from(value)),
            "--reference" => args.reference = Some(PathBuf::from(value)),
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    Ok(args)
}

fn finish(output: workloads::RoundOutput) -> ExitCode {
    let mut json = output.json;
    json.int("check_failures", output.failures.len() as u64);
    for failure in &output.failures {
        eprintln!("CHECK FAILED: {failure}");
    }
    println!("{}", json.render());
    if output.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::from(2)
        }
    }
}

fn dispatch(argv: &[String]) -> Result<ExitCode, String> {
    let command = argv.first().ok_or("missing subcommand")?;
    match command.as_str() {
        "worker" => {
            let endpoint = argv.get(1).ok_or("worker needs an endpoint")?;
            workloads::worker_main(endpoint)?;
            Ok(ExitCode::SUCCESS)
        }
        "stamp" => {
            let mut json = JsonObject::default();
            json.int("nproc", sys::nproc() as u64)
                .text("cpu_model", &sys::cpu_model())
                .num("nn.matmul_gflops", sys::matmul_gflops());
            println!("{}", json.render());
            Ok(ExitCode::SUCCESS)
        }
        "fixture" => {
            let args = parse_args(&argv[1..])?;
            let workload = args.workload.ok_or("--workload is required")?;
            let spec = workload.capture().ok_or("this workload replays no capture")?;
            let (meta, reused) = capture::make(&args.dir, spec, args.seed)?;
            let mut json = JsonObject::default();
            json.text("capture", spec.scenario)
                .int("captures", spec.captures)
                .int("fixed_captures", spec.fixed)
                .int("packets", meta.packets)
                .int("warmup", meta.warmup)
                .int("eval_packets", meta.eval_packets)
                .int("eval_attacks", meta.eval_attacks)
                .int("eval_tuples", meta.eval_tuples)
                .text("digest", &format!("{:016x}", meta.digest))
                .int("reused", u64::from(reused));
            println!("{}", json.render());
            Ok(ExitCode::SUCCESS)
        }
        "run" => {
            let args = parse_args(&argv[1..])?;
            let workload = args.workload.ok_or("--workload is required")?;
            let mut output = match workload {
                Workload::Grid => workloads::grid_round(args.seed)?,
                _ => workloads::stream_round(workload, &args.dir, args.seed)?,
            };
            if let Some(path) = &args.scores_out {
                write_scores(path, &output.scores)?;
            }
            if let Some(path) = &args.reference {
                // The fabric spreads flows over its shards and merges them
                // back, so only the score multiset must match.
                workloads::compare_scores(
                    "fabric-uds vs flow-stream",
                    &output.scores,
                    &read_scores(path)?,
                    true,
                    &mut output.failures,
                );
            }
            Ok(finish(output))
        }
        "trace" => {
            let args = parse_args(&argv[1..])?;
            let workload = args.workload.ok_or("--workload is required")?;
            let output = match workload {
                Workload::Grid => trace::grid_trace(args.seed)?,
                _ => {
                    let reference = args.reference.ok_or("--reference is required")?;
                    trace::stream_trace(workload, &args.dir, args.seed, &reference)?
                }
            };
            Ok(finish(output))
        }
        other => Err(format!("unknown subcommand {other}")),
    }
}
