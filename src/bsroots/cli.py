"""Command line front end.

Subcommand-free interface driven by --mode:

  nu          level sets for e = 1..max_level
  roots       level walk plus bounded reconstruction
  strength    the graded value at one alpha
  bfunction   roots with strengths attached
  crosscheck  compare against the reduction mod p

Expression grammar (no implicit multiplication):

  expr   := ['+'|'-'] term (('+'|'-') term)*
  term   := factor ('*' factor)*
  factor := base ('^' uint)?
  base   := int | var | '(' expr ')'
  int    := one or more of the ASCII digits 0-9

--alpha takes ['+'|'-'] int ('/' int)?, surrounding space stripped, and
nothing else: no decimals or exponents, and no zero denominator.

Parentheses nest at most NESTING_LIMIT deep; the first '(' past it is a
parse error at its offset. So is an int longer than Python converts
(sys.get_int_max_str_digits()), at its first digit, in --alpha too.

Exit codes: 0 success, 2 configuration or parse error (a p that is not a
prime, a modulus p^(m+1) above 2^63, an f that is a zerodivisor, a degree of
2^31 or more in the input, and a top level at which max(deg f, 1)*p^(top+m)
reaches 2^31, in every mode, included), 3 engine error (running out of
memory included) or crosscheck mismatch.
Structured output is byte-for-byte deterministic per configuration: work
counters come from the computed data, never from the clock.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction

from .bsr import (
    STRENGTH_LEVELS,
    _default_top_level,
    bfunction_report,
    crosscheck_mod_p,
    detect_roots,
    require_reconstruction_bound,
    strength,
)
from .chainring import ChainRingCtx
from .errors import InvariantError
from .nu import nu_levels, require_nonzerodivisor
from .padic import PAdicRational
from .poly import EXPONENT_LIMIT, FrobeniusLift, Poly


# at four parser frames a level, well inside the interpreter's recursion limit
NESTING_LIMIT = 100


class ExprError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class ConfigError(ValueError):
    pass


# sign, numerator and denominator of --alpha, [+|-]int[/int] amid space;
# the match always succeeds and ends where the value leaves the grammar
_FRACTION = re.compile(r"\s*(?:([+-]?)([0-9]+)(?:/([0-9]+))?\s*)?")


def _tokenize(src: str):
    out = []
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= src[j] <= "9":
                j += 1
            try:
                value = int(src[i:j])
            except ValueError:  # longer than sys.get_int_max_str_digits()
                message = f"integer literal too long ({j - i} digits)"
                raise ExprError(message, i) from None
            out.append(("int", value, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            out.append(("name", src[i:j], i))
            i = j
            continue
        if ch in "+-*^()":
            out.append((ch, ch, i))
            i += 1
            continue
        raise ExprError(f"unexpected character {ch!r}", i)
    out.append(("end", None, n))
    return out


class _ExprParser:
    def __init__(self, src: str, ctx: ChainRingCtx, names):
        self.tokens = _tokenize(src)
        self.pos = 0
        self.depth = 0  # parentheses open at the current token
        self.ctx = ctx
        self.names = list(names)

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ExprError("syntax error", tok[2])
        self.pos += 1
        return tok

    def parse(self) -> Poly:
        result = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExprError("syntax error", tok[2])
        return result

    def expr(self) -> Poly:
        sign = 1
        if self.peek()[0] in ("+", "-"):
            sign = -1 if self.take()[0] == "-" else 1
        acc = self.term() * sign
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            acc = acc + rhs if op == "+" else acc - rhs
        return acc

    def term(self) -> Poly:
        acc = self.factor()
        while self.peek()[0] == "*":
            self.take()
            acc = acc * self.factor()
        return acc

    def factor(self) -> Poly:
        base = self.base()
        if self.peek()[0] == "^":
            self.take()
            tok = self.take("int")
            base = base**tok[1]
        return base

    def base(self) -> Poly:
        kind, value, offset = self.peek()
        nvars = len(self.names)
        if kind == "int":
            self.take()
            return Poly.const(self.ctx, nvars, value)
        if kind == "name":
            self.take()
            if value not in self.names:
                raise ExprError(f"unknown variable '{value}'", offset)
            return Poly.variable(self.ctx, nvars, self.names.index(value))
        if kind == "(":
            if self.depth == NESTING_LIMIT:
                raise ExprError(
                    f"parentheses nested deeper than {NESTING_LIMIT}", offset
                )
            self.take()
            self.depth += 1
            inner = self.expr()
            self.take(")")
            self.depth -= 1
            return inner
        raise ExprError("syntax error", offset)


def parse_poly(src: str, ctx: ChainRingCtx, names) -> Poly:
    return _ExprParser(src, ctx, names).parse()


def parse_fraction(src: str) -> Fraction:
    """The --alpha value, [+|-]int[/int] with surrounding space stripped.

    Refusals name an offset into ``src`` and never quote the value: the end
    of its longest prefix in the grammar, or the first digit of an int
    longer than Python converts, as the tokenizer does. A zero denominator
    is named as such.
    """
    match = _FRACTION.match(src)
    if match[2] is None or match.end() < len(src):
        raise ConfigError(f"--alpha is not [+|-]int[/int] at offset {match.end()}")
    parts = []
    for group in (2, 3):
        try:
            parts.append(int(match[group] or 1))
        except ValueError:  # longer than sys.get_int_max_str_digits()
            message = f"--alpha integer too long ({len(match[group])} digits)"
            raise ConfigError(f"{message} at offset {match.start(group)}") from None
    num, den = parts
    if den == 0:
        raise ConfigError("--alpha has denominator zero")
    return Fraction(-num if match[1] == "-" else num, den)


def _parse_var_names(raw: str):
    names = [s.strip() for s in raw.split(",")]
    for name in names:
        if not name or not (name[0].isalpha() or name[0] == "_"):
            raise ConfigError(f"bad variable name {name!r}")
        if not all(c.isalnum() or c == "_" for c in name):
            raise ConfigError(f"bad variable name {name!r}")
    if len(set(names)) != len(names):
        raise ConfigError("duplicate variable names")
    return names


def _parse_lift(entries, ctx, names) -> FrobeniusLift:
    corrections = [None] * len(names)
    seen = set()
    for entry in entries:
        var, sep, expr = entry.partition(":")
        var = var.strip()
        if not sep:
            raise ConfigError(f"lift entry {entry!r} must look like 'x:expr'")
        if var not in names:
            raise ConfigError(f"lift entry for unknown variable {var!r}")
        if var in seen:
            raise ConfigError(f"duplicate lift entry for {var!r}")
        seen.add(var)
        corrections[names.index(var)] = parse_poly(expr, ctx, names)
    return FrobeniusLift(ctx, len(names), corrections)


@functools.cache
def build_arg_parser() -> argparse.ArgumentParser:
    """The parser of every ``run``, built once on first use; parsing leaves
    it unchanged, the default list of ``--lift`` included."""
    ap = argparse.ArgumentParser(
        prog="bsroots",
        description="Exact root, level-set and strength computations over Z/p^(m+1).",
    )
    ap.add_argument("--p", type=int, required=True, help="prime base")
    ap.add_argument("--m", type=int, required=True, help="nilpotency degree")
    ap.add_argument("--vars", required=True, help="comma separated variable names")
    ap.add_argument("--poly", required=True, help="the polynomial f")
    ap.add_argument(
        "--lift",
        action="append",
        default=[],
        metavar="VAR:EXPR",
        help="lift correction h with F(var) = var^p + p*h; repeatable",
    )
    ap.add_argument(
        "--mode",
        required=True,
        choices=["nu", "roots", "strength", "bfunction", "crosscheck"],
    )
    ap.add_argument("--max-level", type=int, default=None)
    ap.add_argument("--den-bound", type=int, default=50)
    ap.add_argument("--num-bound", type=int, default=100)
    ap.add_argument(
        "--alpha", default=None, help="rational [+|-]int[/int] (strength mode)"
    )
    ap.add_argument("--format", choices=["text", "structured"], default="text")
    return ap


def _root_entry_doc(entry):
    return {
        "fraction": str(entry.alpha.frac),
        "numerator": entry.alpha.numerator,
        "denominator": entry.alpha.denominator,
        "digits": entry.alpha.digits(8),
        "residue": entry.residue,
        "strength": entry.strength,
        "stabilized": entry.stabilized,
    }


def _windows(levels):
    """``nu_windows`` from the ``nu.NuLevelSet`` of each level, in every mode."""
    return [
        {"e": s.e, "window": s.window, "members": list(s.members)} for s in levels
    ]


def _counters(levels):
    """The level count and the chain steps, the sum of the windows."""
    return {"levels": len(levels), "chain_steps": sum(s.window for s in levels)}


def _text_roots(doc, lines):
    for r in doc["roots"]:
        extra = ""
        if r["strength"] is not None:
            extra = f"  strength={r['strength']} stabilized={r['stabilized']}"
        digits = ",".join(str(d) for d in r["digits"])
        lines.append(
            f"root {r['fraction']}  (residue {r['residue']})  digits {digits}{extra}"
        )
    if doc["unresolved"]:
        lines.append(
            "unresolved residues: " + ", ".join(str(r) for r in doc["unresolved"])
        )
    if not doc["roots"] and not doc["unresolved"]:
        lines.append("no surviving residues")


def _require_top_level(ctx, top, f, mode):
    """Refuse a top level at which max(deg f, 1)*p^(top+m) reaches 2^31.

    The top level describes f^(p^(top+m)); the walks build smaller powers,
    f^a for a <= p^m and f^(p^m*k) for k < p, and the crosscheck's mod-p run
    goes to level top+m over m=0. A constant f counts as degree 1, so every
    count a run prints (at most the chain steps, below twice the window
    p^(top+m)) stays below 2^32. As p^k >= 2^k, p^k is formed only below
    k = 31."""
    deg, k = max(f.degree(), 1), top + ctx.m
    if k >= 31 or deg * ctx.p**k >= EXPONENT_LIMIT:
        raise ConfigError(
            f"--mode={mode} to level {top} has max(deg f, 1)*p^(top+m) = "
            f"{deg}*{ctx.p}^{k}, which reaches 2^31, the limit of packed monomials"
        )


def run(argv=None):
    """Parse arguments, run the requested mode, return (exit_code, text)."""
    args = build_arg_parser().parse_args(argv)
    try:
        ctx = ChainRingCtx(args.p, args.m)
        names = _parse_var_names(args.vars)
        f = parse_poly(args.poly, ctx, names)
        require_nonzerodivisor(f)
        lift = _parse_lift(args.lift, ctx, names)
        alpha = None
        if args.alpha is not None:
            frac = parse_fraction(args.alpha)
            if frac.denominator % ctx.p == 0:
                raise ConfigError("--alpha denominator must be prime to p")
            alpha = PAdicRational(ctx.p, frac)
        if args.mode == "strength" and alpha is None:
            raise ConfigError("strength mode requires --alpha")
        if args.den_bound < 1 or args.num_bound < 1:
            raise ConfigError("bounds must be positive")
        if args.max_level is not None and args.max_level < 1:
            raise ConfigError("--max-level must be >= 1")
        if args.max_level is not None:
            top = args.max_level
        elif args.mode == "nu":
            top = 2
        elif args.mode == "strength":
            top = STRENGTH_LEVELS
        else:
            top = _default_top_level(ctx.p, ctx.m, args.den_bound, args.num_bound)
        if args.mode in ("roots", "bfunction", "crosscheck"):
            require_reconstruction_bound(ctx, top, args.den_bound, args.num_bound)
        _require_top_level(ctx, top, f, args.mode)
    except (ConfigError, ExprError, ValueError) as exc:
        return 2, _render_error(args, exc)

    config = {
        "p": args.p,
        "m": args.m,
        "vars": names,
        "poly": f.to_string(names),
        "lift": {
            names[i]: h.to_string(names)
            for i, h in enumerate(lift.corrections)
            if h is not None
        },
        "mode": args.mode,
        "max_level": top,
        "den_bound": args.den_bound,
        "num_bound": args.num_bound,
        "alpha": str(alpha.frac) if alpha is not None else None,
    }
    try:
        code, doc, lines = _dispatch(args, f, lift, alpha, config, top)
    except (ValueError, InvariantError, MemoryError) as exc:
        return 3, _render_error(args, exc)
    if args.format == "structured":
        return code, json.dumps(doc, indent=2)
    return code, "\n".join(lines)


def _render_error(args, exc):
    # a MemoryError usually carries no message; its type name then stands in
    message = str(exc) or type(exc).__name__
    if args.format == "structured":
        return json.dumps(
            {"error": {"type": type(exc).__name__, "message": message}}, indent=2
        )
    return f"error: {message}"


def _dispatch(args, f, lift, alpha, config, top):
    header = f"p={args.p} m={args.m} f={config['poly']}"
    if args.mode == "nu":
        levels = nu_levels(f, lift, top)
        windows = _windows(levels)
        doc = {"config": config, "nu_windows": windows, "counters": _counters(levels)}
        lines = [header]
        for w in windows:
            members = ", ".join(str(n) for n in w["members"])
            lines.append(f"level {w['e']} (mod {w['window']}): {{{members}}}")
        return 0, doc, lines

    if args.mode == "strength":
        res = strength(f, lift, alpha, e_stop=top)
        row = {
            "alpha": str(res.alpha.frac),
            "value": res.value,
            "stabilized": res.stabilized,
            "per_level": [list(t) for t in res.per_level],
        }
        doc = {
            "config": config,
            "strengths": [row],
            "counters": {"strength_levels": len(res.per_level)},
        }
        lines = [
            header,
            f"strength(alpha={row['alpha']}) = {res.value} "
            f"(stabilized={res.stabilized}, levels={row['per_level']})",
        ]
        return 0, doc, lines

    if args.mode in ("roots", "bfunction"):
        if args.mode == "roots":
            report = detect_roots(f, lift, top, args.den_bound, args.num_bound)
        else:
            report = bfunction_report(f, lift, top, args.den_bound, args.num_bound)
        doc = {
            "config": config,
            "verified_to_level": report.verified_to_level,
            "nu_windows": _windows(report.levels),
            "roots": [_root_entry_doc(e) for e in report.roots],
            "unresolved": list(report.unresolved),
            "counters": _counters(report.levels),
        }
        if args.mode == "bfunction":
            doc["strengths"] = [
                {
                    "alpha": r["fraction"],
                    "value": r["strength"],
                    "stabilized": r["stabilized"],
                }
                for r in doc["roots"]
            ]
        lines = [header, f"verified to level {report.verified_to_level}"]
        _text_roots(doc, lines)
        return 0, doc, lines

    # crosscheck
    result = crosscheck_mod_p(f, lift, top, args.den_bound, args.num_bound)
    doc = {
        "config": config,
        "verified_to_level": result.report.verified_to_level,
        "roots": [_root_entry_doc(e) for e in result.report.roots],
        "unresolved": list(result.report.unresolved),
        "roots_mod_p": [_root_entry_doc(e) for e in result.report_mod_p.roots],
        "unresolved_mod_p": list(result.report_mod_p.unresolved),
        "mismatches": list(result.mismatches),
        "ok": result.ok,
    }
    lines = [header, f"verified to level {result.report.verified_to_level}"]
    _text_roots({"roots": doc["roots"], "unresolved": doc["unresolved"]}, lines)
    lines.append("mod-p roots: " + ", ".join(r["fraction"] for r in doc["roots_mod_p"]))
    if result.ok:
        lines.append("crosscheck ok")
    else:
        lines.extend(f"mismatch: {msg}" for msg in result.mismatches)
    return (0 if result.ok else 3), doc, lines


def main(argv=None):
    code, text = run(argv)
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
