"""One fresh interpreter that feeds a job list to ``bsroots.cli.run``.

Protocol with ``run.py``: after ``import bsroots.cli`` the worker prints
``ready <probe seconds> <median probe>``. The time from its spawn to that
line, less the probe seconds, is one set-up sample, and the median probe
time over the import rescales it (``speed.py``). It then reads one JSON
spec from stdin (EOF alone means a set-up sample: exit) and prints one JSON
result line. Jobs run one at a time, in order, each waiting
for the previous one (closed loop, one client, no threads).

Timed spec (trace false): whole passes over the list until one more pass
would exceed ``seconds``; at least one pass. The speed sampler runs through
all of them, and each job reports its median probe time. Traced spec (no
sampler): untraced and traced passes alternate, two of each.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import sys
import time
import traceback

import speed


def run_pass(cli, jobs, tracer=None, keep_text=False, sampler=None):
    clock = time.perf_counter
    times, spans, codes, digests, texts = [], [], [], [], []
    for i, argv in enumerate(jobs):
        if tracer is not None:
            tracer.job_id = i
        # every job starts from a collected heap, as in a fresh CLI process;
        # otherwise a collection triggered by earlier jobs lands on this one
        gc.collect()
        busy = sampler.busy if sampler else 0.0
        t0 = clock()
        try:
            code, text = cli.run(argv)
        except Exception:  # a crash fails this job, not the whole run
            traceback.print_exc()
            code, text = "uncaught exception", ""
        t1 = clock()
        times.append(t1 - t0 - ((sampler.busy if sampler else 0.0) - busy))
        spans.append((t0, t1))
        codes.append(code)
        digests.append(hashlib.sha256(text.encode()).hexdigest())
        if keep_text:
            texts.append(text)
    # the pass time is the time spent inside run(argv), without the
    # collections and digests between jobs and without probes
    out = {"wall_s": sum(times), "times": times, "codes": codes, "sha": digests}
    if sampler:
        out["at"] = spans
    if keep_text:
        out["texts"] = texts
    return out


def main():
    sampler = speed.Sampler()
    sampler.start()
    from bsroots import cli

    sampler.stop()
    sys.stdout.write(f"ready {sampler.busy!r} {sampler.median_probe()!r}\n")
    sys.stdout.flush()
    raw = sys.stdin.read()
    if not raw.strip():
        return
    spec = json.loads(raw)
    jobs = spec["jobs"]
    start = time.perf_counter()
    sampler = None if spec["trace"] else speed.Sampler()
    if sampler:
        sampler.start()
    passes = [run_pass(cli, jobs, keep_text=True, sampler=sampler)]
    result = {"passes": passes}
    if spec["trace"]:
        import tracing

        # untraced and traced passes alternate, so a drift in machine speed
        # during the run does not land on one side of trace.overhead_frac
        tracer = tracing.Tracer()
        traced = []
        for i in range(2):
            if i:
                passes.append(run_pass(cli, jobs))
            tracer.clear()
            uninstall = tracing.install(tracer)
            traced_pass = run_pass(cli, jobs, tracer)
            uninstall()
            traced_pass["summary"] = tracer.summary()
            traced_pass["spans"] = len(tracer.start)
            traced.append(traced_pass)
        tracer.clear()
        result["traced"] = traced
    else:
        while time.perf_counter() - start + passes[-1]["wall_s"] <= spec["seconds"]:
            passes.append(run_pass(cli, jobs, sampler=sampler))
        sampler.stop()
        for p in passes:
            p["probe"] = [sampler.median_probe(t0, t1) for t0, t1 in p.pop("at")]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
