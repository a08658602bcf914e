#!/usr/bin/env python3
"""Benchmark entry point: builds the measuring program, writes the capture
fixtures, runs the workload in fresh processes and prints one JSON result
as the last line of standard output.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --repeat <N> --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]

Run it from the repository root. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
TMP = Path(".bench_tmp")  # relative to ROOT, which keeps socket paths short

WORKLOADS = ("grid", "packet-stream", "flow-stream")
STREAM = ("packet-stream", "flow-stream")


def log(message):
    print(message, file=sys.stderr, flush=True)


def spec():
    with open(BENCH.parent / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Builds the measuring program; returns its path, or None."""
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    manifest = BENCH / "Cargo.toml"
    proc = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(manifest)],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        return None
    binary = Path(env["CARGO_TARGET_DIR"])
    if not binary.is_absolute():
        binary = ROOT / binary
    return binary / "release" / "perfbench"


def call(binary, *args):
    """Runs one subcommand in a fresh process; returns (exit code, JSON of
    its last stdout line or None)."""
    proc = subprocess.run([str(binary), *args], cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def rustc_version():
    try:
        out = subprocess.run(["rustc", "--version"], cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True)
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def clear_stale_fixtures(seed):
    """Keeps the fixtures of this seed only, so disk use stays bounded."""
    if not TMP.exists():
        return
    for path in TMP.iterdir():
        if path.suffix in (".pcap", ".labels", ".meta", ".scores", ".sock") \
                and f"-s{seed}." not in path.name:
            path.unlink()


class Run:
    def __init__(self, binary, workload, seed):
        self.binary = binary
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def sub(self, command, workload, *extra):
        code, result = call(self.binary, command, "--workload", workload, "--seed",
                            str(self.seed), "--dir", str(TMP), *extra)
        if result is None:
            raise SystemExit(f"perfbench {command} {workload} failed (exit {code})")
        if code != 0 or result.get("check_failures", 0) != 0:
            self.correct = False
        if command in ("run", "trace"):
            ops = result.get("cells") if workload == "grid" else result.get("offered")
            if command == "trace":
                ops = 20 if workload == "grid" else result["eval_packets"]
            self.attempted += int(ops)
            self.failed += int(result.get("failed", 0))
        return result

    def scores(self, workload):
        return str(TMP / f"{workload}-s{self.seed}.scores")


def end_to_end(rounds):
    """Each end-to-end metric as the median over the run's rounds."""
    values = {}
    for name in ("setup_s", "wall_s", "cpu_s", "packets_per_sec", "rss_peak_mb", "f1", "auc",
                 "score_p50_us", "score_p99_us"):
        values[name] = statistics.median(r[name] for r in rounds)
    return values


def per_layer(trace, untraced, fabric, gflops, workload):
    layers = {m["name"]: 0.0 for m in spec()["per_layer"]}
    for name in layers:
        if name in trace:
            layers[name] = trace[name]
    layers["nn.matmul_gflops"] = gflops
    if workload in STREAM:
        scoring_ns = 1e9 / untraced["packets_per_sec"]
        layers["stream.hop_ns_per_pkt"] = scoring_ns - trace["traced_path_ns_per_pkt"]
        layers["stream.stalls"] = untraced["stalls"]
        layers["stream.finish_s"] = untraced["finish_s"]
        layers["net.payloads_minted"] = untraced["payloads_minted"]
    if fabric is not None:
        layers["fabric.hop_ns_per_pkt"] = 1e9 / fabric["packets_per_sec"] \
            - 1e9 / untraced["packets_per_sec"]
    return layers


def measure(args, binary):
    TMP.mkdir(exist_ok=True)
    clear_stale_fixtures(args.seed)
    _, stamp = call(binary, "stamp")
    if stamp is None:
        raise SystemExit("perfbench stamp failed")
    run = Run(binary, args.workload, args.seed)
    if args.workload in STREAM:
        capture = run.sub("fixture", args.workload)
        log(f"capture {capture['capture']} x{capture['captures']} seed {args.seed}: "
            f"{capture['packets']} packets, digest {capture['digest']}, "
            f"reused {bool(capture['reused'])}")
        print(f"capture: {json.dumps(capture)}")

    rounds = []
    started = time.monotonic()
    if args.trace:
        untraced = fabric = None
        if args.workload == "grid":
            trace = run.sub("trace", "grid")
        else:
            scores = run.scores(args.workload)
            untraced = run.sub("run", args.workload, "--scores-out", scores)
            rounds.append(untraced)
            if args.workload == "flow-stream":
                # The fabric round: the same input through run_fabric to one
                # worker process, which must score the same multiset.
                fabric = run.sub("run", "fabric-uds", "--reference", scores)
                rounds.append(fabric)
            trace = run.sub("trace", args.workload, "--reference", scores)
        print(f"trace: {json.dumps(trace)}")
        log(f"traced wall {trace['wall_s']:.3f} s, timed layers cover "
            f"{100 * trace['coverage']:.1f}% of it")
        values = per_layer(trace, untraced, fabric, stamp["nn.matmul_gflops"], args.workload)
        kind = "per_layer"
    else:
        # Whole rounds only: another round starts while the rounds so far
        # predict it ends within the run's seconds.
        while True:
            rounds.append(run.sub("run", args.workload))
            elapsed = time.monotonic() - started
            if elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
                break
        values = end_to_end(rounds)
        kind = "end_to_end"
    for r in rounds:
        print(f"round: {json.dumps(r)}")

    units = {m["name"]: m["unit"] for m in spec()[kind]}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    scored = [r.get("scored", r.get("cells")) for r in rounds]
    print("stamp: " + json.dumps({
        "seed": args.seed, "workload": args.workload, "trace": int(args.trace),
        "nproc": stamp["nproc"], "cpu_model": stamp["cpu_model"], "rustc": rustc_version(),
        "nn.matmul_gflops": stamp["nn.matmul_gflops"], "rounds": len(rounds),
        "scored_events_per_round": scored, "attempted": run.attempted, "failed": run.failed}))
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({"correct": run.correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0 if run.correct else 1


def repeat(args):
    """Runs the workload N times in fresh processes, seeds seed..seed+N-1,
    and prints each metric's median, quartiles, minimum and maximum."""
    values = {}
    units = {}
    for i in range(args.repeat):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed + i), "--seconds", str(args.seconds),
               "--trace", str(int(args.trace))]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            raise SystemExit(f"run with seed {args.seed + i} failed")
        log(f"seed {args.seed + i}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    bounds = {m["name"]: m.get("bound") for m in spec()["end_to_end"]}
    summary = {}
    print(f"{'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'min':>12s} {'max':>12s}"
          f" {'iqr/med':>8s} {'bound':>6s}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / abs(med) if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "min": min(vals), "max": max(vals),
                         "spread": spread, "unit": units[name]}
        bound = bounds.get(name)
        print(f"{name:34s} {med:12.6g} {q1:12.6g} {q3:12.6g} {min(vals):12.6g} {max(vals):12.6g}"
              f" {spread:8.4f} {bound if bound is not None else '':>6}")
    print(json.dumps({"workload": args.workload, "runs": args.repeat, "seed": args.seed,
                      "metrics": summary}))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0)
    args = parser.parse_args()
    os.chdir(ROOT)
    if args.seconds is None:
        args.seconds = spec()["run_seconds"]
    if args.repeat:
        return repeat(args)
    binary = build()
    if binary is None or not binary.exists():
        log("build failed")
        return 3
    return measure(args, binary)


if __name__ == "__main__":
    sys.exit(main())
