"""Locally constant V-valued functions on p-adic integers, at finite level.

A level-e function assigns a ring element to each residue class mod p^e;
pointwise addition and multiplication make each level a ring, and pulling
back along the projection mod p^(e') -> mod p^e (``refine``) is a ring
homomorphism, so the levels assemble into a directed system. ``chi`` gives
the indicator of a single class, the additive building block.

``bfunction_contains`` answers whether a level function vanishes to the
required order at every detected root: phi belongs to the reported
structured data when val(phi(truncation of alpha_i)) >= t_i for all i. The
chosen level must separate the roots, otherwise one class would conflate
two constraints and the query is refused.
"""

from __future__ import annotations

from collections import namedtuple

from .bsr import RootReport
from .chainring import ChainRingCtx
from .padic import PAdicRational


class LevelFunction:
    """Function on residues mod p^e with values in V, stored as a tuple."""

    __slots__ = ("ctx", "e", "values")

    def __init__(self, ctx: ChainRingCtx, e: int, values):
        if e < 0:
            raise ValueError("level must be >= 0")
        values = tuple(int(v) % ctx.modulus for v in values)
        if len(values) != ctx.p**e:
            raise ValueError("value table must have length p^e")
        self.ctx = ctx
        self.e = e
        self.values = values

    def __call__(self, residue: int) -> int:
        return self.values[residue % (self.ctx.p**self.e)]

    def __eq__(self, other):
        return (
            isinstance(other, LevelFunction)
            and other.ctx == self.ctx
            and other.e == self.e
            and other.values == self.values
        )

    def __hash__(self):
        return hash((self.ctx, self.e, self.values))

    def __add__(self, other):
        self._check(other)
        return LevelFunction(
            self.ctx, self.e, [a + b for a, b in zip(self.values, other.values)]
        )

    def __mul__(self, other):
        if isinstance(other, int):
            return LevelFunction(self.ctx, self.e, [other * a for a in self.values])
        self._check(other)
        return LevelFunction(
            self.ctx, self.e, [a * b for a, b in zip(self.values, other.values)]
        )

    def __rmul__(self, other):
        return self.__mul__(other)

    def _check(self, other):
        if not isinstance(other, LevelFunction):
            raise TypeError("expected a LevelFunction")
        if other.ctx != self.ctx or other.e != self.e:
            raise ValueError("mixed levels; refine to a common level first")

    def __repr__(self):
        return f"LevelFunction(e={self.e}, values={list(self.values)})"


def chi(ctx: ChainRingCtx, e: int, a: int) -> LevelFunction:
    """Indicator of the residue class a mod p^e."""
    size = ctx.p**e
    if not 0 <= a < size:
        raise ValueError("class representative out of range")
    return LevelFunction(ctx, e, [1 if r == a else 0 for r in range(size)])


def refine(phi: LevelFunction, to_level: int) -> LevelFunction:
    """Pull back to a finer level; each class splits into p^(e'-e) copies."""
    if to_level < phi.e:
        raise ValueError("can only refine to a finer level")
    step = phi.ctx.p**phi.e
    size = phi.ctx.p**to_level
    return LevelFunction(phi.ctx, to_level, [phi.values[r % step] for r in range(size)])


class FiniteSupportModule(namedtuple("FiniteSupportModule", "ctx points")):
    """Support points alpha_i with vanishing orders t_i in [0, m+1]."""

    __slots__ = ()

    # points: (PAdicRational, int) pairs, distinct alphas
    def __new__(cls, ctx: ChainRingCtx, points: tuple):
        seen = set()
        for alpha, t in points:
            if alpha.frac in seen:
                raise ValueError("support points must be distinct")
            seen.add(alpha.frac)
            if not 0 <= t <= ctx.m + 1:
                raise ValueError("order out of range [0, m+1]")
        return super().__new__(cls, ctx, points)


def support_module(ctx: ChainRingCtx, report: RootReport) -> FiniteSupportModule:
    points = tuple((entry.alpha, entry.strength) for entry in report.roots)
    return FiniteSupportModule(ctx=ctx, points=points)


def stalk(module: FiniteSupportModule, beta) -> int:
    """Vanishing order attached at beta; 0 off the support."""
    if not isinstance(beta, PAdicRational):
        beta = PAdicRational(module.ctx.p, beta)
    for alpha, t in module.points:
        if alpha.frac == beta.frac:
            return t
    return 0


def bfunction_contains(report: RootReport, phi: LevelFunction) -> bool:
    """Whether phi meets every root's vanishing order in the report.

    Requires strengths on the report (see ``bfunction_report``) and a level
    fine enough that distinct roots land in distinct residue classes.
    """
    ctx = phi.ctx
    if ctx.p != report.p or ctx.m != report.m:
        raise ValueError("level function over the wrong ring")
    residues = []
    for entry in report.roots:
        if entry.strength is None:
            raise ValueError("report carries no strengths; grade it first")
        residues.append(entry.alpha.truncate_below(phi.e))
    if len(set(residues)) != len(residues):
        raise ValueError("level does not separate roots")
    return all(
        ctx.val(phi(res)) >= entry.strength
        for res, entry in zip(residues, report.roots)
    )
