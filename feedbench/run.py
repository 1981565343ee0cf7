#!/usr/bin/env python3
"""End-to-end feed ingestion benchmark.

Builds the library sources (../src) together with the benchmark program
(feedbench.cc) from the checkout this script lives in, runs one workload
and prints a report: a host block, every end-to-end metric and, with
--trace 1, every per-layer metric, each with its unit. The last line of
stdout is a JSON object with the keys correct, attempted, failed and
metrics; the metric set is the end_to_end list of BENCHMARK.json with
--trace 0 and its per_layer list with --trace 1.

    python3 feedbench/run.py --workload firehose --seed 1 --seconds 30 --trace 0
    python3 feedbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Build outputs, run directories and result files go under .bench_build/ (or
$CARGO_TARGET_DIR when set) at the root of the checkout; each run's
storage directory is deleted when the run ends. WORKLOADS.md describes
the workloads and what each metric should respond to.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ["firehose", "steady_mixed", "durable_ack"]
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_TYPE = "RelWithDebInfo"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def out_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = Path(target)
    return path if path.is_absolute() else ROOT / path


def child_env():
    """The environment for the build and the benchmark: temporary files
    (the compiler's included) stay under the output directory."""
    tmp = out_dir() / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp))


def build():
    """Configures and builds feedbench; returns the binary's path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"library sources not found under {ROOT / 'src'}")
    build_dir = out_dir() / "feedbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                 f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
    if shutil.which("ninja") and not (build_dir / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja"]
    for cmd in (configure,
                ["cmake", "--build", str(build_dir), "--target", "feedbench",
                 "-j", jobs]):
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              env=child_env(), timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            raise RuntimeError(f"build step failed: {' '.join(cmd)}")
    return build_dir / "feedbench"


def source_digest():
    """sha256 over the library and benchmark sources (the checkout may not
    be a git repository, so this identifies the code measured)."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            if "__pycache__" in path.parts:
                continue
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=30)
        return done.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_workload(binary, workload, seed, seconds, trace):
    """Runs feedbench once; returns its RESULT object."""
    run_dir = out_dir() / "run" / f"{workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--storage-dir", str(run_dir)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              env=child_env(), timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    result = None
    for line in done.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if done.stderr:
        log(done.stderr[-4000:])
    if result is None:
        raise RuntimeError(f"feedbench exited with {done.returncode} "
                           "without a result")
    return result


def report(result, host, trace):
    print(f"host: {json.dumps(host, sort_keys=True)}")
    print(f"workload {result['workload']}: {result['trials']} untraced + "
          f"{result['traced_trials']} traced trials of "
          f"{result['records_per_trial']} records; freshness samples "
          f"{result['freshness_samples']} (poll interval "
          f"{result['poll_interval_us']:.1f} us); lookup samples "
          f"{result['lookup_samples']}")
    sections = [("end-to-end", result["end_to_end"])]
    if trace:
        sections.append(("per-layer", result["per_layer"]))
    for title, metrics in sections:
        print(f"  {title}:")
        for name, m in metrics.items():
            print(f"    {name:30s} {m['value']:>14.6g} {m['unit']}")
    print(f"  correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")


def contract_line(result, spec, trace):
    """The final stdout line: the metric set BENCHMARK.json names. The
    per_layer list also carries the end-to-end figures too noisy for a
    relative bound (see WORKLOADS.md)."""
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    available = dict(result["end_to_end"])
    available.update(result["per_layer"])
    missing = [n for n in names if n not in available]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {"correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": {n: available[n] for n in names}}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        started = time.monotonic()
        binary = build()
        log(f"feedbench: build ready in {time.monotonic() - started:.1f}s")
        host = {"nproc": os.cpu_count(), "build_type": BUILD_TYPE,
                "commit": git_commit(), "source_sha256": source_digest()}
        results_dir = out_dir() / "results"
        results_dir.mkdir(parents=True, exist_ok=True)
        workloads = WORKLOADS if args.workload == "all" else [args.workload]
        lines = {}
        for workload in workloads:
            result = run_workload(binary, workload, args.seed, args.seconds,
                                  args.trace)
            host["compiler"] = result["compiler"]
            report(result, host, args.trace)
            path = results_dir / (f"{workload}-seed{args.seed}-"
                                  f"trace{args.trace}.json")
            path.write_text(json.dumps({"host": host, "result": result},
                                       indent=2, sort_keys=True) + "\n")
            lines[workload] = contract_line(result, spec, args.trace)
    except (OSError, ValueError, KeyError, RuntimeError,
            subprocess.SubprocessError) as err:
        log(f"feedbench: {err}")
        return 2
    final = (lines[args.workload] if args.workload != "all" else
             {"correct": all(l["correct"] for l in lines.values()),
              "attempted": sum(l["attempted"] for l in lines.values()),
              "failed": sum(l["failed"] for l in lines.values()),
              "metrics": {f"{w}.{n}": v for w, l in lines.items()
                          for n, v in l["metrics"].items()}})
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
