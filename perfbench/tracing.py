"""Spans around the calls into each bsroots layer, installed from outside.

Nothing under ``src/`` is edited. ``install`` replaces each traced public
function by a wrapper in every ``bsroots`` module that holds it, because
``nu``, ``bsr`` and ``cli`` bind names with ``from .x import y``; a module's
own binding is replaced too, so calls inside it (``normal_form`` from
``strong_groebner`` and ``GroebnerBasis.contains``) are caught. ``Poly``
multiplication and powering are wrapped on the class.

A span is (job id, name, parent span, start, end). Spans stay in memory,
in flat arrays, until ``summary`` derives calls, total and self time per
function and per layer; self time is a span's duration minus the durations
of its direct child spans. Work counts are taken from arguments and return
values at the same boundaries. ``chainring`` gets no span: its functions run
millions of times inside ``poly`` and ``groebner`` and show in their self
time. ``cfun`` is on no CLI path.
"""

from __future__ import annotations

import sys
import time
from array import array

# layer -> public functions wrapped in that module
FUNCTIONS = {
    "cli": ("run", "parse_poly"),
    "bsr": (
        "candidate_residues",
        "detect_roots",
        "strength",
        "bfunction_report",
        "crosscheck_mod_p",
    ),
    "padic": ("reconstruct",),
    "nu": ("nu_set",),
    "cartier": ("cartier_generators",),
    "groebner": ("strong_groebner", "normal_form", "min_p_power_in"),
    "poly": ("phi_decompose", "frobenius_apply"),
    "linalg": ("howell_form", "span_contains", "spans_equal"),
}
# (layer, span name, Poly attribute)
POLY_METHODS = (("poly", "mul", "__mul__"), ("poly", "pow", "__pow__"))

COUNTS = (
    "groebner.basis_elems",
    "groebner.basis_max",
    "groebner.normal_form.zeros",
    "nu.jump_tests",
    "nu.members",
    "bsr.residues_tested",
    "bsr.survivors",
    "cartier.gens_out",
    "cartier.gens_max",
    "poly.mul.terms_max",
)


class Tracer:
    """Span store and work counters for one traced pass."""

    def __init__(self):
        self.names = []
        self.layers = []
        self.clear()

    def clear(self):
        """Drop the recorded spans and counts; wrappers stay registered."""
        self.job = array("i")
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.job_id = -1
        self.counts = dict.fromkeys(COUNTS, 0)
        self._marks = []

    def wrap(self, layer, name, fn, after=None, before=None):
        full = f"{layer}.{name}"
        if full not in self.names:
            self.names.append(full)
            self.layers.append(layer)
        nid = self.names.index(full)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            t = self
            sid = len(t.start)
            stack = t.stack
            t.job.append(t.job_id)
            t.name.append(nid)
            t.parent.append(stack[-1] if stack else -1)
            t.end.append(0.0)
            if before is not None:
                before(t)
            stack.append(sid)
            t.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t.end[sid] = clock()
                stack.pop()
            if after is not None:
                after(t, args, result)
            return result

        return traced

    def summary(self):
        """Per-function and per-layer calls, seconds and self seconds."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {}
        for full in self.names:
            out[f"{full}.calls"] = 0
            out[f"{full}.s"] = 0.0
            out[f"{full}.self_s"] = 0.0
        for layer in set(self.layers):
            out[f"{layer}.self_s"] = 0.0
        names, layers = self.names, self.layers
        # spans are stored in start order, so a span lies inside an earlier
        # span of the same function exactly when it starts before that one
        # ends; .s counts outermost spans only
        outer_end = [float("-inf")] * len(names)
        for i in range(n):
            nid = self.name[i]
            full = names[nid]
            own = dur[i] - child[i]
            out[f"{full}.calls"] += 1
            out[f"{full}.self_s"] += own
            out[f"{layers[nid]}.self_s"] += own
            if self.start[i] >= outer_end[nid]:
                outer_end[nid] = self.end[i]
                out[f"{full}.s"] += dur[i]
        out.update(self.counts)
        return out


def _after_strong_groebner(t, args, result):
    # a GroebnerBasis argument is returned as is; only completions count
    if type(args[0]).__name__ != "GroebnerBasis":
        size = len(result.elements)
        t.counts["groebner.basis_elems"] += size
        if size > t.counts["groebner.basis_max"]:
            t.counts["groebner.basis_max"] = size


def _after_normal_form(t, args, result):
    if result.is_zero():
        t.counts["groebner.normal_form.zeros"] += 1


def _after_nu_set(t, args, result):
    t.counts["nu.jump_tests"] += result.window
    t.counts["nu.members"] += len(result.members)


def _before_candidate_residues(t):
    t._marks.append(t.counts["nu.jump_tests"])


def _after_candidate_residues(t, args, result):
    t.counts["bsr.residues_tested"] += t.counts["nu.jump_tests"] - t._marks.pop()
    t.counts["bsr.survivors"] += sum(len(s) for s in result.survivors[1:])


def _after_cartier_generators(t, args, result):
    size = len(result.gens)
    t.counts["cartier.gens_out"] += size
    if size > t.counts["cartier.gens_max"]:
        t.counts["cartier.gens_max"] = size


def _after_mul(t, args, result):
    size = len(result.terms)
    if size > t.counts["poly.mul.terms_max"]:
        t.counts["poly.mul.terms_max"] = size


HOOKS = {
    "groebner.strong_groebner": (None, _after_strong_groebner),
    "groebner.normal_form": (None, _after_normal_form),
    "nu.nu_set": (None, _after_nu_set),
    "bsr.candidate_residues": (_before_candidate_residues, _after_candidate_residues),
    "cartier.cartier_generators": (None, _after_cartier_generators),
    "poly.mul": (None, _after_mul),
}


def install(tracer):
    """Wrap every traced function that bsroots still has; return an undo."""
    import importlib

    modules = [
        mod
        for key, mod in list(sys.modules.items())
        if mod is not None and (key == "bsroots" or key.startswith("bsroots."))
    ]
    undo = []
    for layer, fnames in FUNCTIONS.items():
        try:
            home = importlib.import_module(f"bsroots.{layer}")
        except ModuleNotFoundError:
            continue
        for fname in fnames:
            orig = getattr(home, fname, None)
            if orig is None:
                continue
            before, after = HOOKS.get(f"{layer}.{fname}", (None, None))
            wrapped = tracer.wrap(layer, fname, orig, after=after, before=before)
            for mod in modules:
                if getattr(mod, fname, None) is orig:
                    setattr(mod, fname, wrapped)
                    undo.append((mod, fname, orig))
    poly_cls = importlib.import_module("bsroots.poly").Poly
    for layer, name, attr in POLY_METHODS:
        orig = poly_cls.__dict__[attr]
        before, after = HOOKS.get(f"{layer}.{name}", (None, None))
        setattr(poly_cls, attr, tracer.wrap(layer, name, orig, after=after, before=before))
        undo.append((poly_cls, attr, orig))

    def uninstall():
        for owner, attr, orig in undo:
            setattr(owner, attr, orig)

    return uninstall
