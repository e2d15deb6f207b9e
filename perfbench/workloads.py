"""Job lists of the three workloads, generated from a seed.

A job is the argv list handed to ``bsroots.cli.run``; ``--format=structured``
is always appended. Each workload is a fixed core plus seeded draws:

* the core carries the ROADMAP anchors verbatim and a few fixed cases, and
  holds the median job, so ``job_s_p50`` does not depend on the seed. In
  nu-dense and lift-descent the median job is a core job of about a second
  or more that runs five (nu-dense) or three times per pass, far in cost
  from the draws below it and the anchors above it;
* the draws come from a finite family (``families``), enumerated without
  the seed. ``record.py`` ran every candidate once on the reference commit
  and stored its output digest and seconds in ``expected.json``. The seed
  picks one candidate per cost stratum of that pool, so every seed gets the
  same mix of cheap and expensive draws and the pass time stays steady.

Default seed 1 is the one used while the benchmark was built; seed 8191 is
held out, to re-check a later claim on inputs its author did not tune on.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

DEFAULT_SEED = 1
HELDOUT_SEED = 8191

EXPECTED = Path(__file__).with_name("expected.json")


def job(p, m, names, poly, mode, level, lifts=(), bounds=None, alpha=None):
    argv = [f"--p={p}", f"--m={m}", f"--vars={names}", f"--poly={poly}"]
    argv += [f"--lift={h}" for h in lifts]
    argv += [f"--mode={mode}", f"--max-level={level}"]
    if bounds is not None:
        argv += [f"--den-bound={bounds[0]}", f"--num-bound={bounds[1]}"]
    if alpha is not None:
        argv.append(f"--alpha={alpha}")
    return argv + ["--format=structured"]


def key(argv):
    return " ".join(argv)


def mode_of(argv):
    return next(a.split("=", 1)[1] for a in argv if a.startswith("--mode="))


# ROADMAP anchors: argv, and the seconds the ROADMAP recorded for them (its
# timing covered nu_set at the top level only, on 2 cores with Python 3.11.7).
# The seconds are history printed beside the measured time, never a bound.
ANCHORS = {
    "groebner-p3": (
        job(3, 2, "x,y", "x^2+y^3", "nu", 3),
        "nu_set e=3: 5.4 s",
    ),
    "groebner-p2": (
        job(2, 2, "x,y", "x^3+y^2+x*y", "nu", 4),
        "nu_set e=4: 5.5 s",
    ),
    "nonstandard-lift": (
        job(2, 2, "x,y", "x^3+y^2", "nu", 3, lifts=("x:x*y+y^2", "y:x")),
        "nu_set e=4: 8.3 s (run here at level 3 to fit the run budget)",
    ),
    "three-vars": (
        job(3, 1, "x,y,z", "x*y+y*z+z*x", "nu", 3),
        "nu_set e=3: 1.0 s",
    ),
    "readme-bfunction": (
        job(3, 1, "x,y", "x^2+3*y", "bfunction", 4, bounds=(10, 10)),
        "CLI bfunction: 0.36 s",
    ),
}

# Bounds 4/4 need p^(level+m) > 32 for unambiguous reconstruction.
ROOT_BOUNDS = (4, 4)
ROOT_LEVEL = {(2, 0): 6, (2, 1): 5, (3, 0): 4, (3, 1): 3, (5, 0): 3, (5, 1): 2}
README_LEVEL2 = job(3, 1, "x,y", "x^2+3*y", "nu", 2)


def core(name):
    """Fixed jobs of a workload: anchors first, then the other fixed cases."""
    if name == "nu-dense":
        # one pass fills a run, so the median job runs five times per pass
        # and job_s_p50 is the median of five measurements, not of one;
        # they are spread over the pass, so one slow spell of the host
        # cannot land on most of them
        mid = job(2, 2, "x,y", "x^3+y^2+x*y", "nu", 3)
        p3, p2 = ANCHORS["groebner-p3"][0], ANCHORS["groebner-p2"][0]
        return [mid, mid, p3, mid, p2, mid, mid]
    if name == "lift-descent":
        # the three-vars anchor runs three times and is the median job: the
        # two draws cost less, the nonstandard-lift anchor more
        return [ANCHORS["nonstandard-lift"][0]] + 3 * [ANCHORS["three-vars"][0]]
    # roots-tree: the README example, monomials x^a whose roots follow
    # floor arithmetic, and str(-1) = m+1 for x and x*y
    out = [ANCHORS["readme-bfunction"][0], README_LEVEL2]
    for (p, m), level in sorted(ROOT_LEVEL.items()):
        for a in (1, 2, 3):
            mono = "x" if a == 1 else f"x^{a}"
            out.append(job(p, m, "x", mono, "roots", level, bounds=ROOT_BOUNDS))
    for p, m in ((2, 0), (2, 1), (3, 1), (5, 0)):
        for poly in ("x", "x*y"):
            names = "x" if poly == "x" else "x,y"
            out.append(job(p, m, names, poly, "strength", 4, alpha="-1"))
    return out


def _monomials(names, max_deg):
    n = len(names)
    out = []
    for exps in itertools.product(range(max_deg + 1), repeat=n):
        if 0 < sum(exps) <= max_deg:
            parts = [
                v if e == 1 else f"{v}^{e}" for v, e in zip(names, exps) if e
            ]
            out.append("*".join(parts))
    return out


def _polys(names, max_deg, terms):
    monos = _monomials(names, max_deg)
    return [
        "+".join(c) for k in terms for c in itertools.combinations(monos, k)
    ]


def families():
    """Every draw candidate of each workload, in a fixed order.

    nu-dense: 2 variables, coefficient 1, degree <= 3, 1 to 3 terms, standard
    lift, p^(e+m) up to 16 (p=2) and 27 (p=3), m=2.
    roots-tree: 1 or 2 variables, coefficient 1, degree <= 3, 1 or 2 terms,
    p in {2,3,5}, m in {0,1}, modes roots/bfunction/crosscheck/strength.
    lift-descent: 2 variables, 2 or 3 terms, with one or two lift
    corrections, or 3 variables, degree <= 2, 2 or 3 terms, standard lift.
    """
    xy = _polys("xy", 3, (1, 2, 3))
    nu_dense = [job(2, 2, "x,y", f, "nu", 2) for f in xy]
    nu_dense += [job(3, 2, "x,y", f, "nu", 1) for f in xy]

    rng = random.Random("roots-tree")
    small = _polys("x", 3, (2,)) + _polys("xy", 3, (1, 2))
    roots = []
    for (p, m), level in sorted(ROOT_LEVEL.items()):
        for mode in ("roots", "bfunction", "crosscheck"):
            for f in rng.sample(small, 8):
                names = "x" if "y" not in f else "x,y"
                roots.append(job(p, m, names, f, mode, level, bounds=ROOT_BOUNDS))
        for f in rng.sample(small, 8):
            names = "x" if "y" not in f else "x,y"
            for alpha in ("-1", "-1/2"):
                if alpha.endswith(f"/{p}"):
                    continue
                roots.append(job(p, m, names, f, "strength", 3, alpha=alpha))

    rng = random.Random("lift-descent")
    corrections = ("x:y", "x:x*y", "y:x", "y:x^2", "x:x*y+y^2", "y:x+y")
    lifts = [(c,) for c in corrections] + [
        (a, b)
        for a, b in itertools.combinations(corrections, 2)
        if a[0] != b[0]
    ]
    rings = ((2, 1, 3), (2, 2, 2), (3, 1, 2))
    lift_pool = []
    for f in rng.sample(_polys("xy", 3, (2, 3)), 40):
        p, m, level = rng.choice(rings)
        lift_pool.append(job(p, m, "x,y", f, "nu", level, lifts=rng.choice(lifts)))
    for f in rng.sample(_polys("xyz", 2, (2, 3)), 40):
        p, m, level = rng.choice(rings)
        lift_pool.append(job(p, m, "x,y,z", f, "nu", level))
    return {"nu-dense": nu_dense, "roots-tree": roots, "lift-descent": lift_pool}


# Why each workload exists, how many seeded draws a pass takes, and the most
# a draw cost on the reference commit. In nu-dense and lift-descent the cap
# keeps every draw cheaper than the core jobs that hold the median.
WORKLOADS = {
    "nu-dense": {
        "why": "strong Groebner completion on few large bases (standard lift, "
        "m=2); the residue tree is bypassed",
        "draws": 2,
        "draw_cap_s": 0.4,
    },
    "roots-tree": {
        "why": "many small roots/bfunction/crosscheck/strength jobs: residue "
        "tree, membership queries, reconstruction and CLI overhead",
        "draws": 80,
        "draw_cap_s": 0.8,
    },
    "lift-descent": {
        "why": "nonstandard lifts and 3 variables: phi_decompose, "
        "frobenius_apply and Cartier descent carry much of the work",
        "draws": 2,
        "draw_cap_s": 0.25,
    },
}


def load_expected():
    with open(EXPECTED) as fh:
        return json.load(fh)


def draw_pool(name, expected):
    """Recorded candidates of a workload under its cost cap, cheapest first."""
    cap = WORKLOADS[name]["draw_cap_s"]
    pool = [
        (expected["jobs"][key(argv)]["seconds"], key(argv), argv)
        for argv in families()[name]
        if key(argv) in expected["jobs"]
        and expected["jobs"][key(argv)]["seconds"] <= cap
    ]
    pool.sort(key=lambda t: (t[0], t[1]))
    return [argv for _, _, argv in pool]


def jobs(name, seed, expected):
    """The job list of one pass: the core, then one draw per cost stratum."""
    pool = draw_pool(name, expected)
    k = WORKLOADS[name]["draws"]
    rng = random.Random(f"{name}:{seed}")
    draws = []
    for i in range(k):
        stratum = pool[i * len(pool) // k : (i + 1) * len(pool) // k]
        draws.append(rng.choice(stratum))
    return core(name) + draws
