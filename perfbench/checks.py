"""Output checks: recorded digests and closed forms known without the engine.

``digest`` hashes a job's structured output without its ``counters`` block,
which the ROADMAP plans to extend, and, for roots and bfunction jobs,
without ``nu_windows``, which the ROADMAP allows to shrink to the tested
residues. Everything else must match the reference commit byte for byte
after canonical JSON encoding. Level windows are still checked in nu mode.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

README_ROOTS = {Fraction(-1): 2, Fraction(-1, 2): 1, Fraction(1, 2): 1}
README_LEVEL2 = [4, 5, 8, 13, 14, 17, 22, 23, 26]


def digest(mode, text):
    doc = json.loads(text)
    doc.pop("counters", None)
    if mode in ("roots", "bfunction"):
        doc.pop("nu_windows", None)
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:24]


def _options(argv):
    out = {}
    for arg in argv:
        name, _, value = arg.partition("=")
        out.setdefault(name.lstrip("-"), []).append(value)
    return {k: v[0] if len(v) == 1 else v for k, v in out.items()}


def monomial_member(a, p, e, n):
    """n is a level-e invariant of x^a iff a*n and a*(n+1) straddle p^e*Z."""
    q = p**e
    return (a * n) // q < (a * (n + 1)) // q


def monomial_roots(a, p, m, level, den_bound, num_bound):
    """Bounded u/v whose truncations mod p^(e+m) are level-e invariants of
    x^a for every e <= level: the root set detect_roots must report."""
    roots = set()
    for v in range(1, den_bound + 1):
        if v % p == 0:
            continue
        for u in range(-num_bound, num_bound + 1):
            if math.gcd(u, v) != 1:
                continue
            if all(
                monomial_member(a, p, e, u * pow(v, -1, p ** (e + m)) % p ** (e + m))
                for e in range(1, level + 1)
            ):
                roots.add(Fraction(u, v))
    return roots


def closed_form_errors(argv, text):
    """Mismatches against facts derived without the engine; [] if none."""
    opt = _options(argv)
    doc = json.loads(text)
    mode, poly = opt["mode"], opt["poly"]
    p, m, level = int(opt["p"]), int(opt["m"]), int(opt["max-level"])
    errors = []
    if mode == "crosscheck" and doc.get("ok") is not True:
        errors.append("crosscheck reported mismatches")
    readme = (p, m, poly, opt.get("lift")) == (3, 1, "x^2+3*y", None)
    if readme and mode == "bfunction" and opt.get("den-bound") == "10":
        got = {Fraction(r["fraction"]): r["strength"] for r in doc["roots"]}
        if got != README_ROOTS:
            errors.append(f"README roots/strengths {got}")
    if readme and mode == "nu" and level >= 2:
        level2 = [w["members"] for w in doc["nu_windows"] if w["e"] == 2]
        if level2 != [README_LEVEL2]:
            errors.append(f"README level-2 window {level2}")
    if mode == "roots" and opt["vars"] == "x" and set(poly) <= set("x^0123456789"):
        a = int(poly[2:]) if poly.startswith("x^") else 1
        want = monomial_roots(
            a, p, m, level, int(opt["den-bound"]), int(opt["num-bound"])
        )
        got = {Fraction(r["fraction"]) for r in doc["roots"]}
        if got != want:
            errors.append(f"x^{a} roots {sorted(got)} != floor oracle {sorted(want)}")
    if mode == "strength" and poly in ("x", "x*y") and opt.get("alpha") == "-1":
        value = doc["strengths"][0]["value"]
        if value != m + 1:
            errors.append(f"strength of -1 for {poly} is {value}, not m+1={m + 1}")
    return errors
