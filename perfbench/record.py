"""Record the reference outputs and costs of every job a seed can produce.

    PYTHONPATH=src python3 perfbench/record.py

Run once, on the commit whose outputs are the reference, from the root of a
checkout. It writes ``perfbench/expected.json``: for each core job and each
draw candidate that exits 0 within its workload's cap, the digest of its
structured output and its seconds on that commit. The seconds only sort
candidates into cost strata, so re-recording, even on the same commit,
changes which candidates each seed draws. Re-recording on a later commit
would also bless whatever that commit prints; do it only in a change that
alters the workloads and nothing else.
"""

from __future__ import annotations

import json
import platform
import signal
import sys
import time

import checks
import workloads


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def main():
    from bsroots import cli

    signal.signal(signal.SIGALRM, _alarm)
    out = {}
    families = workloads.families()
    todo = []
    for name, spec in workloads.WORKLOADS.items():
        todo += [(argv, None) for argv in workloads.core(name)]
        todo += [(argv, spec["draw_cap_s"]) for argv in families[name]]
    for i, (argv, cap) in enumerate(todo):
        k = workloads.key(argv)
        if k in out:
            continue
        signal.setitimer(signal.ITIMER_REAL, 3 * cap if cap else 600)
        start = time.perf_counter()
        try:
            code, text = cli.run(argv)
        except _Timeout:
            code = None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - start
        if code != 0 or (cap is not None and seconds > cap):
            if cap is None:
                sys.exit(f"core job failed or timed out: {k}")
            continue
        errors = checks.closed_form_errors(argv, text)
        if errors:
            sys.exit(f"closed form violated by {k}: {errors}")
        out[k] = {
            "digest": checks.digest(workloads.mode_of(argv), text),
            "seconds": round(seconds, 4),
        }
        print(f"{i + 1}/{len(todo)} {seconds:7.3f}s {k}", file=sys.stderr)
    doc = {
        "recorded_on": f"Python {platform.python_version()}, "
        f"{platform.machine()}, single process",
        "jobs": out,
    }
    with open(workloads.EXPECTED, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
