#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload pipeline|climate|solver --seed N \
        --seconds S --trace 0|1 [--out results.jsonl]

Run from the root of a checkout.  The library and the perfbench program are
built (Release) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench.  The program's output is passed through; its last
line is the result object.  With --out, one JSON record (workload, seed,
configuration, result) is appended to the file for compare.py.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# A run of the largest --seconds (60) with its set-ups ends well within this.
RUN_TIMEOUT_S = 170


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures (once) and builds the program; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"library sources not found under {ROOT / 'src'}")
    out = build_dir()
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, **quiet)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", str(out), "--target", "perfbench",
                    "-j", jobs], check=True, **quiet)
    return out / "perfbench"


def source_id():
    """The git commit when there is one, and a digest of the sources."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR / "src"):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "nogit"
    return f"{commit}+src:{digest.hexdigest()[:12]}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["pipeline", "climate", "solver"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--out", help="append the result record to this file")
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        ap.error("--seed must be >= 0 and --seconds in [1, 60]")

    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--commit", source_id()]
    if args.trace == "1":
        traces = build_dir() / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}-{args.seed}.jsonl")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    sys.stdout.write(stdout)
    sys.stdout.flush()

    if args.out and proc.returncode in (0, 1):
        lines = stdout.splitlines()
        config = next(json.loads(l[len("config "):]) for l in lines
                      if l.startswith("config "))
        record = {"workload": args.workload, "seed": args.seed,
                  "trace": int(args.trace), "config": config,
                  "result": json.loads(lines[-1])}
        with open(args.out, "a") as f:
            f.write(json.dumps(record) + "\n")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
