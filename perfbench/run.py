"""bsroots benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload nu-dense --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the engine is imported from ``src`` with
``PYTHONPATH=src`` and no install step. The seed makes the job list
(``workloads.py``); the program sees only argv lists, passed one at a time
to ``bsroots.cli.run(argv)`` in a fresh worker interpreter (``worker.py``).

``--trace 0`` measures the end-to-end metrics with tracing off. Their
seconds are rescaled to a reference host speed by probes timed 100 times a
second inside the measured process (``speed.py``), because a shared host's
speed can move by tens of percent within a run; the report also prints
them as measured:

  setup_s      median time from spawning a fresh interpreter until
               ``import bsroots.cli`` is done (9 interpreters, spread over the run)
  wall_s       median time of one pass over the job list (time inside run)
  job_s_p50    median time of one job, over every job of every pass
  peak_rss_mb  peak resident memory of the worker

``--trace 1`` alternates two untraced and two traced passes (``tracing.py``)
and reports the per-layer metrics: calls, seconds and self seconds of the
public functions of each layer, deterministic work counts (identical in
both traced passes, or the run is not correct), the tracing overhead and
numpy's share of set-up.

Every output is checked: exit code 0, the digest recorded on the reference
commit (``expected.json``), closed forms (``checks.py``) and byte-identical
output across passes. A job that fails any check counts in ``failed``. The
last stdout line is the JSON result; the lines before it are the report.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 8
NUMPY_SAMPLES = 3
WORKER_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_s_p50": "s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> unit; "s" metrics are means of the two traced passes
PER_LAYER = {
    "groebner.strong_groebner.calls": "count",
    "groebner.strong_groebner.s": "s",
    "groebner.strong_groebner.self_s": "s",
    "groebner.basis_elems": "count",
    "groebner.basis_max": "count",
    "groebner.normal_form.calls": "count",
    "groebner.normal_form.s": "s",
    "groebner.normal_form.self_s": "s",
    "groebner.normal_form.zero_frac": "ratio",
    "groebner.min_p_power_in.calls": "count",
    "groebner.min_p_power_in.s": "s",
    "groebner.self_s": "s",
    "nu.nu_set.calls": "count",
    "nu.nu_set.s": "s",
    "nu.nu_set.self_s": "s",
    "nu.jump_tests": "count",
    "nu.members": "count",
    "bsr.candidate_residues.s": "s",
    "bsr.strength.calls": "count",
    "bsr.strength.s": "s",
    "bsr.self_s": "s",
    "bsr.survivor_ratio": "ratio",
    "padic.reconstruct.calls": "count",
    "padic.reconstruct.s": "s",
    "cartier.cartier_generators.calls": "count",
    "cartier.cartier_generators.s": "s",
    "cartier.cartier_generators.self_s": "s",
    "cartier.gens_out": "count",
    "cartier.gens_max": "count",
    "poly.phi_decompose.calls": "count",
    "poly.phi_decompose.s": "s",
    "poly.phi_decompose.self_s": "s",
    "poly.frobenius_apply.calls": "count",
    "poly.frobenius_apply.s": "s",
    "poly.mul.calls": "count",
    "poly.mul.s": "s",
    "poly.mul.terms_max": "count",
    "poly.pow.calls": "count",
    "poly.pow.s": "s",
    "poly.self_s": "s",
    "cli.run.s": "s",
    "cli.run.self_s": "s",
    "cli.parse_poly.calls": "count",
    "linalg.calls": "count",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
    "setup.numpy_s": "s",
    "setup.numpy_frac": "ratio",
}

class BenchError(Exception):
    pass


def child_env():
    env = {k: v for k, v in os.environ.items() if k != "BSROOTS_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    # importing numpy starts an OpenBLAS thread per core; no CLI path calls
    # BLAS, and on a 2-vCPU host that pool's start-up made set-up time follow
    # the scheduler (it took 60-75 ms of a 140-170 ms numpy import)
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def spawn():
    """Start a worker and wait for ``ready``.

    Return the process and the set-up time, less the worker's probes, as
    measured and rescaled to the reference speed (``speed.py``).
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER)],
        cwd=ROOT,
        env=child_env(),
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    word, *numbers = line.split() or [""]
    if word != "ready" or len(numbers) != 2:
        proc.kill()
        proc.communicate()
        raise BenchError("worker did not start: cannot import bsroots.cli from src/")
    busy, median_probe = map(float, numbers)
    raw = ready - busy
    return proc, (raw, speed.scale(raw, median_probe))


def finish(proc, data, timeout):
    """Send ``data``, wait for exit and return stdout and stderr; kill on timeout."""
    try:
        return proc.communicate(data, timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker exceeded {timeout} s") from None


def setup_sample():
    proc, ready = spawn()
    finish(proc, "", 60)
    return ready


def numpy_import_share():
    """numpy's share of all import time under ``-X importtime``; 0 if unused."""
    proc = subprocess.Popen(
        [sys.executable, "-X", "importtime", str(WORKER)],
        cwd=ROOT,
        env=child_env(),
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    _, err = finish(proc, "", 60)
    total = numpy = 0
    for line in err.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2]
        if len(name) - len(name.lstrip()) == 1:  # top-level: sums to the total
            total += int(parts[1])
        if name.strip() == "numpy":  # nested under bsroots.linalg today
            numpy = int(parts[1])
    return numpy / total if total else 0.0


def run_worker(spec):
    proc, ready = spawn()
    out, _ = finish(proc, json.dumps(spec), WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return ready, json.loads(out.splitlines()[-1])


def check_jobs(jobs, expected, result):
    """Return (attempted, failed, messages) over every executed job."""
    first = result["passes"][0]
    others = result["passes"][1:] + result.get("traced", [])
    attempted = len(jobs) * (1 + len(others))
    failed = 0
    messages = []
    for i, argv in enumerate(jobs):
        k = workloads.key(argv)
        code, text = first["codes"][i], first["texts"][i]
        want = expected["jobs"].get(k, {}).get("digest")
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        else:
            try:
                if checks.digest(workloads.mode_of(argv), text) != want:
                    problems.append("output differs from the reference commit")
                problems += checks.closed_form_errors(argv, text)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                problems.append(f"unreadable output: {exc!r}")
        if problems:
            failed += 1
            messages.append(f"FAIL {k}: {'; '.join(problems)}")
        for other in others:
            if problems or other["codes"][i] != code or other["sha"][i] != first["sha"][i]:
                failed += 1
                if not problems:
                    messages.append(f"FAIL {k}: output changed between passes")
    return attempted, failed, messages


def tail(samples):
    """Highest percentile with at least 10 samples beyond it, or None."""
    n = len(samples)
    if n < 20:
        return None
    return 100 * (n - 10) / n, sorted(samples)[n - 11]


def timed_metrics(jobs, result, setup):
    """End-to-end metrics, in seconds rescaled to the reference host speed."""
    passes = result["passes"]
    measured = [t for p in passes for t in p["times"]]
    for p in passes:
        p["times"] = [speed.scale(t, m) for t, m in zip(p["times"], p["probe"])]
    times = [t for p in passes for t in p["times"]]
    metrics = {
        "setup_s": statistics.median(scaled for _, scaled in setup),
        "wall_s": statistics.median(sum(p["times"]) for p in passes),
        "job_s_p50": statistics.median(times),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    probes = [m for p in passes for m in p["probe"]]
    lines = [
        f"passes: {len(passes)} of {len(jobs)} jobs; set-up samples: {len(setup)}",
        f"host speed: {speed.REF_S / statistics.median(probes):.3f} of the reference "
        f"(median probe {1000 * statistics.median(probes):.4f} ms); as measured: "
        f"setup_s {statistics.median(raw for raw, _ in setup):.4f} s, "
        f"wall_s {statistics.median(p['wall_s'] for p in passes):.4f} s, "
        f"job_s_p50 {statistics.median(measured):.4f} s",
    ]
    for name, unit in END_TO_END.items():
        lines.append(f"{name}: {metrics[name]:.4f} {unit}")
    t = tail(times)
    if t is None:
        lines.append(f"job_s_tail: not reported ({len(times)} samples, need 20)")
    else:
        lines.append(f"job_s_tail: {t[1]:.4f} s (p{t[0]:.1f} of {len(times)} samples)")
    modes = sorted({workloads.mode_of(argv) for argv in jobs})
    for mode in modes:
        per_pass = [
            sum(t for t, argv in zip(p["times"], jobs) if workloads.mode_of(argv) == mode)
            for p in passes
        ]
        lines.append(f"mode.{mode}_s: {statistics.median(per_pass):.4f} s")
    for name, (argv, history) in workloads.ANCHORS.items():
        if argv in jobs:
            i = jobs.index(argv)
            measured = statistics.median(p["times"][i] for p in passes)
            lines.append(f"anchor {name}: {measured:.3f} s (ROADMAP: {history})")
    return metrics, lines


def traced_metrics(result, setup):
    traced = result["traced"]
    a, b = (p["summary"] for p in traced)
    counts = {k for k in a if not (k.endswith(".s") or k.endswith("self_s"))}
    unstable = sorted(k for k in counts if a[k] != b[k])
    metrics = {}
    for name in PER_LAYER:
        if name in counts:
            metrics[name] = a[name]
        elif name in a:
            metrics[name] = (a[name] + b[name]) / 2
    nf_calls = a.get("groebner.normal_form.calls", 0)
    metrics["groebner.normal_form.zero_frac"] = (
        a["groebner.normal_form.zeros"] / nf_calls if nf_calls else 0.0
    )
    tested = a["bsr.residues_tested"]
    metrics["bsr.survivor_ratio"] = a["bsr.survivors"] / tested if tested else 0.0
    metrics["linalg.calls"] = sum(
        a.get(f"linalg.{n}.calls", 0) for n in tracing.FUNCTIONS["linalg"]
    )
    traced_wall = statistics.mean(p["wall_s"] for p in traced)
    metrics["trace.wall_s"] = traced_wall
    untraced_wall = statistics.mean(p["wall_s"] for p in result["passes"])
    metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1
    metrics["trace.spans"] = traced[0]["spans"]
    share = statistics.median(numpy_import_share() for _ in range(NUMPY_SAMPLES))
    metrics["setup.numpy_frac"] = share
    metrics["setup.numpy_s"] = share * statistics.median(scaled for _, scaled in setup)
    for name in PER_LAYER:
        metrics.setdefault(name, 0)
    lines = [f"{name}: {metrics[name]:.6g} {unit}" for name, unit in PER_LAYER.items()]
    if unstable:
        lines.append("FAIL work counts differ between traced passes: " + ", ".join(unstable))
    return metrics, lines, not unstable


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "bsroots" / "cli.py").is_file():
        print("error: no bsroots sources under src/ next to perfbench/", file=sys.stderr)
        return 2
    expected = workloads.load_expected()
    jobs = workloads.jobs(args.workload, args.seed, expected)
    try:
        setup_sample()  # unmeasured: compiles bytecode and warms the file cache
        # set-up samples before and after the worker span the whole run
        setup = [setup_sample() for _ in range(SETUP_SAMPLES // 2)]
        ready, result = run_worker(
            {"jobs": jobs, "seconds": args.seconds, "trace": bool(args.trace)}
        )
        setup.append(ready)
        setup += [setup_sample() for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
        attempted, failed, messages = check_jobs(jobs, expected, result)
        if args.trace:
            metrics, lines, stable = traced_metrics(result, setup)
            units = PER_LAYER
        else:
            metrics, lines = timed_metrics(jobs, result, setup)
            stable = True
            units = END_TO_END
    except (BenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload} seed {args.seed}: {workloads.WORKLOADS[args.workload]['why']}")
    for line in messages + lines:
        print(line)
    print(f"fail_frac: {failed / attempted:.4f} ({failed} of {attempted} jobs)")
    print(
        json.dumps(
            {
                "correct": failed == 0 and stable,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
