#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds `perfbench/` (its own Cargo
workspace, path dependencies on `crates/`) in release mode into
$CARGO_TARGET_DIR (default `.bench_build`), runs it, and prints its
report, a run manifest line, and as the last line the result object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The manifest and result are also written to
`.bench_out/result-NAME-seedN-traceT.json`; a traced run writes its
span tree next to it. Exits 0 only when every output check passed.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def capture(cmd):
    """First line of a command's output, or None if it cannot run."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.strip().splitlines()
    return lines[0] if done.returncode == 0 and lines else None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def manifest(args):
    why = None
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    except (OSError, ValueError, KeyError, StopIteration):
        pass
    commit = None
    if (ROOT / ".git").exists():
        commit = capture(["git", "-C", str(ROOT), "rev-parse", "HEAD"])
    return {
        "workload": args.workload,
        "why": why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "command": ["python3", "perfbench/run.py"] + sys.argv[1:],
        "commit": commit or "unknown (not a git checkout)",
        "profile": "release (lto = fat, codegen-units = 1; perfbench/Cargo.toml)",
        "rustc": capture(["rustc", "--version"]) or "unknown",
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper_sweep", "datacenter_day", "gang_faults"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be >= 0")

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", str(ROOT / "perfbench" / "Cargo.toml")]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1

    out_dir = ROOT / ".bench_out"
    binary = target / "release" / "nds-perfbench"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(out_dir)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: benchmark did not finish: {e}", file=sys.stderr)
        return 1
    lines = done.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(done.stdout)
        print("run.py: no result line", file=sys.stderr)
        return 1

    info = manifest(args)
    for line in lines[:-1]:
        print(line)
    print("manifest " + json.dumps(info))
    out_dir.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps({"manifest": info, "result": result}, indent=2) + "\n",
                                encoding="utf-8")
    print(json.dumps(result))
    return 0 if done.returncode == 0 and result.get("correct") is True else 1


if __name__ == "__main__":
    sys.exit(main())
