"""Write one point of the benchmark trajectory: BENCH_<n>.json.

    python3 tools/bench_snapshot.py 12
    python3 tools/bench_snapshot.py 11 --root ../parent-checkout

Runs ``perfbench/run.py`` of the checkout at ``--root`` (default: this
repository) on every workload with seed 1 for 10 seconds, once with
``--trace 0`` and once with ``--trace 1``, and writes ``BENCH_<n>.json`` at
that root. Per workload the file holds the end-to-end metrics (seconds
rescaled to the reference host speed), the per-layer work counts and the
per-layer seconds (measured seconds, not rescaled), the host speed of the
untraced run, and whether every job was correct. The file also records the commit checked out at the
root, whether its tree had uncommitted changes, and the run settings, so
snapshots of different commits can be compared.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("nu-dense", "roots-tree", "lift-descent")
SEED = 1
SECONDS = 10
HOST_SPEED = re.compile(r"^host speed: ([0-9.]+) of the reference")


def run_bench(root, workload, trace):
    """(report lines, JSON result) of one ``perfbench/run.py`` run."""
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace),
    ]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def git(root, *args):
    return subprocess.run(
        ["git", *args], cwd=root, capture_output=True, text=True, check=True
    ).stdout.strip()


def snapshot(root):
    doc = {
        "commit": git(root, "rev-parse", "HEAD"),
        "uncommitted_changes": bool(git(root, "status", "--porcelain", "--", "src")),
        "seed": SEED,
        "seconds": SECONDS,
        "workloads": {},
    }
    for workload in WORKLOADS:
        lines, timed = run_bench(root, workload, 0)
        _, traced = run_bench(root, workload, 1)
        speeds = [float(m.group(1)) for m in map(HOST_SPEED.match, lines) if m]
        layers = traced["metrics"]
        doc["workloads"][workload] = {
            "correct": timed["correct"] and traced["correct"],
            "failed": timed["failed"] + traced["failed"],
            "host_speed": speeds[0] if speeds else None,
            "end_to_end": {k: v["value"] for k, v in timed["metrics"].items()},
            "work_counts": {
                k: v["value"] for k, v in layers.items() if v["unit"] != "s"
            },
            "layer_seconds": {
                k: v["value"] for k, v in layers.items() if v["unit"] == "s"
            },
        }
    return doc


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("n", type=int, help="the number in BENCH_<n>.json")
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1])
    args = ap.parse_args(argv)
    doc = snapshot(args.root)
    out = args.root / f"BENCH_{args.n}.json"
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(out)
    return 0 if all(w["correct"] for w in doc["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
