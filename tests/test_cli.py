"""Expression grammar, exit codes, output schema, and determinism."""

import json
import os
import pathlib
import random
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import bsroots
from bsroots import ChainRingCtx, Poly, detect_roots, FrobeniusLift
from bsroots.bsr import CrosscheckResult
from bsroots.cli import NESTING_LIMIT, ExprError, parse_fraction, parse_poly, run
from bsroots.nu import NuLevelSet

from _oracles import random_poly

Z9 = ChainRingCtx(3, 1)
Z4 = ChainRingCtx(2, 1)

BASE = ["--p=3", "--m=1", "--vars=x,y", "--poly=x^2 + 3*y"]

# a hung child fails its test instead of stalling the suite
SUBPROCESS_TIMEOUT_S = 120


def test_parse_frozen_examples():
    f = parse_poly("x^2 + 3*y", Z9, ["x", "y"])
    assert f.exponent_terms() == {(2, 0): 1, (0, 1): 3}
    assert parse_poly("-(x)", Z9, ["x"]).exponent_terms() == {(1,): 8}
    assert parse_poly("(x+y)^2", Z4, ["x", "y"]).exponent_terms() == {
        (2, 0): 1,
        (1, 1): 2,
        (0, 2): 1,
    }
    assert parse_poly("2 - 2", Z4, ["x"]).is_zero()


def test_parse_error_offsets():
    with pytest.raises(ExprError, match=r"syntax error at offset 4"):
        parse_poly("x + * y", Z9, ["x", "y"])
    with pytest.raises(ExprError, match=r"at offset 1"):
        # implicit multiplication is not part of the grammar
        parse_poly("2x", Z9, ["x"])
    with pytest.raises(ExprError, match=r"unknown variable 'z' at offset 4"):
        parse_poly("x + z", Z9, ["x", "y"])
    with pytest.raises(ExprError, match=r"unexpected character '\$' at offset 1"):
        parse_poly("x$y", Z9, ["x", "y"])
    with pytest.raises(ExprError, match=r"at offset 2"):
        parse_poly("x^-2", Z9, ["x"])
    with pytest.raises(ExprError, match=r"at offset 4"):
        parse_poly("(x+y", Z9, ["x", "y"])
    # integers are ASCII digits only: no Arabic-Indic three, no superscript two
    with pytest.raises(ExprError, match=r"unexpected character '٣' at offset 2"):
        parse_poly("x^٣", Z9, ["x"])
    with pytest.raises(ExprError, match=r"unexpected character '²' at offset 2"):
        parse_poly("x^²", Z9, ["x"])


def test_parse_roundtrip_random():
    rng = random.Random(91)
    names = ["x", "y"]
    for _ in range(40):
        f = random_poly(rng, Z9, 2, 4, 5)
        assert parse_poly(f.to_string(names), Z9, names) == f


def run_ok(argv):
    code, text = run(argv)
    assert code == 0, text
    return text


def test_nu_mode_structured():
    text = run_ok(
        ["--p=2", "--m=1", "--vars=x", "--poly=x", "--mode=nu",
         "--max-level=2", "--format=structured"]
    )
    doc = json.loads(text)
    assert doc["config"]["p"] == 2 and doc["config"]["mode"] == "nu"
    assert doc["config"]["poly"] == "x"
    assert doc["nu_windows"] == [
        {"e": 1, "window": 4, "members": [1, 3]},
        {"e": 2, "window": 8, "members": [3, 7]},
    ]
    assert doc["counters"] == {"levels": 2, "chain_steps": 12}


def test_lift_flag_changes_levels():
    base = ["--p=2", "--m=1", "--vars=x,y", "--poly=x", "--mode=nu", "--max-level=1",
            "--format=structured"]
    plain = json.loads(run_ok(base))
    bent = json.loads(run_ok(base + ["--lift", "x:x*y+y^2"]))
    assert plain["nu_windows"][0]["members"] == [1, 3]
    assert bent["nu_windows"][0]["members"] == [1, 2, 3]
    assert bent["config"]["lift"] == {"x": "x*y + y^2"}


def test_parser_is_unchanged_by_a_run():
    """``run`` reuses one parser; ``--lift`` flags of one run do not leak
    into the default of the next."""
    base = ["--p=2", "--m=1", "--vars=x,y", "--poly=x", "--mode=nu", "--max-level=1",
            "--format=structured"]
    bent = json.loads(run_ok(base + ["--lift=x:y", "--lift=y:x*y"]))
    assert bent["config"]["lift"] == {"x": "y", "y": "x*y"}
    assert json.loads(run_ok(base))["config"]["lift"] == {}
    code, text = run(base + ["--lift=x:٣*y"])
    assert code == 2
    assert "unexpected character '٣' at offset 0" in json.loads(text)["error"]["message"]


def test_bfunction_mode_structured():
    text = run_ok(
        BASE + ["--mode=bfunction", "--max-level=4", "--den-bound=10",
                "--num-bound=10", "--format=structured"]
    )
    doc = json.loads(text)
    assert doc["verified_to_level"] == 4
    assert [r["fraction"] for r in doc["roots"]] == ["-1", "-1/2", "1/2"]
    assert [r["residue"] for r in doc["roots"]] == [242, 121, 122]
    assert [r["strength"] for r in doc["roots"]] == [2, 1, 1]
    assert all(r["stabilized"] for r in doc["roots"])
    assert doc["roots"][0]["digits"] == [2] * 8
    assert doc["roots"][1]["digits"] == [1] * 8
    assert doc["unresolved"] == [40, 41, 80, 161, 202, 203]
    assert doc["strengths"] == [
        {"alpha": "-1", "value": 2, "stabilized": True},
        {"alpha": "-1/2", "value": 1, "stabilized": True},
        {"alpha": "1/2", "value": 1, "stabilized": True},
    ]
    assert doc["counters"]["chain_steps"] == 9 + 27 + 81 + 243


def test_roots_mode_text():
    code, text = run(
        BASE + ["--mode=roots", "--max-level=4", "--den-bound=10", "--num-bound=10"]
    )
    assert code == 0
    assert "root -1  (residue 242)" in text
    assert "unresolved residues: 40, 41, 80, 161, 202, 203" in text


def test_strength_mode():
    code, text = run(
        ["--p=3", "--m=1", "--vars=x", "--poly=x", "--mode=strength",
         "--alpha=-1", "--format=structured"]
    )
    assert code == 0
    doc = json.loads(text)
    assert doc["strengths"] == [
        {"alpha": "-1", "value": 2, "stabilized": True, "per_level": [[1, 2], [2, 2]]}
    ]


def test_crosscheck_mode_ok():
    code, text = run(
        BASE + ["--mode=crosscheck", "--max-level=4", "--den-bound=10",
                "--num-bound=10", "--format=structured"]
    )
    assert code == 0
    doc = json.loads(text)
    assert doc["ok"] is True and doc["mismatches"] == []
    assert [r["fraction"] for r in doc["roots_mod_p"]] == ["-1", "-1/2"]


def test_crosscheck_mismatch_exits_3(monkeypatch):
    ctx = ChainRingCtx(2, 1)
    x = Poly.variable(ctx, 1, 0)
    lift = FrobeniusLift.standard(ctx, 1)
    rep = detect_roots(x, lift, top_level=7, den_bound=10, num_bound=10)
    fake = CrosscheckResult(report=rep, report_mod_p=rep, mismatches=("engineered",))
    monkeypatch.setattr("bsroots.cli.crosscheck_mod_p", lambda *a, **k: fake)
    code, text = run(["--p=2", "--m=1", "--vars=x", "--poly=x", "--mode=crosscheck"])
    assert code == 3
    assert "mismatch: engineered" in text


CONFIG_ERRORS = [
    ["--p=4", "--m=1", "--vars=x", "--poly=x", "--mode=nu"],
    ["--p=2", "--m=-1", "--vars=x", "--poly=x", "--mode=nu"],
    ["--p=2", "--m=1", "--vars=x,x", "--poly=x", "--mode=nu"],
    ["--p=2", "--m=1", "--vars=x", "--poly=x+*1", "--mode=nu"],
    ["--p=2", "--m=1", "--vars=x", "--poly=x", "--mode=strength"],
    ["--p=3", "--m=1", "--vars=x", "--poly=x", "--mode=strength", "--alpha=1/3"],
    ["--p=2", "--m=1", "--vars=x", "--poly=x", "--mode=strength", "--alpha=zz"],
    ["--p=2", "--m=1", "--vars=x", "--poly=x", "--mode=nu", "--max-level=0"],
    ["--p=2", "--m=1", "--vars=x", "--poly=x", "--mode=roots", "--den-bound=0"],
    ["--p=2", "--m=1", "--vars=x", "--poly=x", "--mode=nu", "--lift", "y:x"],
    ["--p=2", "--m=1", "--vars=x", "--poly=x", "--mode=nu", "--lift", "x"],
]
# argvs whose message is pinned, each also a case of CONFIG_ERRORS
CONFIG_MESSAGES = [
    (["--p=2", "--m=1", "--vars=1x", "--poly=1", "--mode=nu"],
     "bad variable name '1x'"),
    (["--p=2", "--m=1", "--vars=x-y", "--poly=1", "--mode=nu"],
     "bad variable name 'x-y'"),
    (["--p=2", "--m=1", "--vars=x", "--poly=x", "--mode=nu", "--lift=x:x",
      "--lift=x:1"], "duplicate lift entry for 'x'"),
]
CONFIG_ERRORS += [argv for argv, _ in CONFIG_MESSAGES]


@pytest.mark.parametrize("argv", CONFIG_ERRORS)
def test_config_errors_exit_2(argv):
    code, text = run(argv)
    assert code == 2
    assert "error" in text


@pytest.mark.parametrize("argv, message", CONFIG_MESSAGES)
def test_config_error_messages(argv, message):
    assert run(argv) == (2, f"error: {message}")


def test_roots_text_without_survivors():
    """f = 1 has no jump at any level, so no residue survives."""
    code, text = run(["--p=3", "--m=1", "--vars=x", "--poly=1", "--mode=roots",
                      "--max-level=4", "--den-bound=5", "--num-bound=5"])
    assert code == 0
    assert text.splitlines() == [
        "p=3 m=1 f=1", "verified to level 4", "no surviving residues",
    ]


def test_config_error_structured_shape():
    code, text = run(
        ["--p=2", "--m=1", "--vars=x", "--poly=x + * 1", "--mode=nu",
         "--format=structured"]
    )
    assert code == 2
    doc = json.loads(text)
    assert doc["error"]["type"] == "ExprError"
    assert "at offset 4" in doc["error"]["message"]


def _nested(depth):
    return "(" * depth + "x" + ")" * depth


@pytest.mark.parametrize("fmt", ["text", "structured"])
@pytest.mark.parametrize("flag", ["--poly", "--lift"])
def test_nesting_past_the_limit_exits_2(flag, fmt):
    """NESTING_LIMIT parentheses parse, in --poly and in a --lift
    correction; one more is a parse error at the offset of the first '('
    past the limit, exit 2 and no traceback, where the recursive parser
    once raised RecursionError at 250."""
    def argv(depth):
        if flag == "--poly":
            exprs = [f"--poly={_nested(depth)}"]
        else:
            exprs = ["--poly=x", f"--lift=x:{_nested(depth)}"]
        return ["--p=2", "--m=1", "--vars=x", *exprs, "--mode=nu", "--max-level=1",
                f"--format={fmt}"]

    code, _ = run(argv(NESTING_LIMIT))
    assert code == 0
    code, text = run(argv(NESTING_LIMIT + 1))
    assert code == 2
    limit = NESTING_LIMIT
    message = f"parentheses nested deeper than {limit} at offset {limit}"
    if fmt == "structured":
        assert json.loads(text)["error"] == {"type": "ExprError", "message": message}
    else:
        assert text == f"error: {message}"


# 0 where the interpreter has no limit on int() of a digit string, or it is off
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not INT_DIGITS, reason="int() takes digit strings of any length")
@pytest.mark.parametrize("fmt", ["text", "structured"])
@pytest.mark.parametrize("where", ["poly", "lift", "exponent"])
def test_overlong_integer_literal_is_a_parse_error(where, fmt):
    """A literal of sys.get_int_max_str_digits() digits parses; one digit
    more is a parse error at its first digit, exit 2, in --poly, in a --lift
    correction and as an exponent, where int() once raised a ValueError
    that named no offset."""
    def argv(digits):
        exprs = {
            "poly": [f"--poly=x+{digits}"],
            "lift": ["--poly=x", f"--lift=x:x+{digits}"],
            "exponent": [f"--poly=x^{digits}"],
        }[where]
        return ["--p=2", "--m=1", "--vars=x", *exprs, "--mode=nu", "--max-level=1",
                f"--format={fmt}"]

    if where != "exponent":  # as an exponent it is a degree of 2^31 or more
        code, _ = run(argv("1" * INT_DIGITS))
        assert code == 0
    code, text = run(argv("1" * (INT_DIGITS + 1)))
    assert code == 2
    message = f"integer literal too long ({INT_DIGITS + 1} digits) at offset 2"
    if fmt == "structured":
        assert json.loads(text)["error"] == {"type": "ExprError", "message": message}
    else:
        assert text == f"error: {message}"


ALPHA_SYNTAX = "--alpha is not [+|-]int[/int] at offset"


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_bad_alpha_is_a_configuration_error(fmt):
    """--alpha takes [+|-]int[/int] only, exit 2 and no traceback otherwise.
    Exponent notation is refused before any power is built, a zero
    denominator is named as such, and an int one digit past
    sys.get_int_max_str_digits() is refused as the tokenizer refuses one:
    its digit count and the offset of its first digit, the value never
    quoted. Fraction() once quoted every digit with Python's hint to call
    sys.set_int_max_str_digits(), and said only "Fraction(1, 0)"."""
    cases = [
        ("1e999999999", f"{ALPHA_SYNTAX} 1"),
        ("0.5", f"{ALPHA_SYNTAX} 1"),
        (" 1/", f"{ALPHA_SYNTAX} 2"),
        ("1 / 3", f"{ALPHA_SYNTAX} 2"),
        ("", f"{ALPHA_SYNTAX} 0"),
        ("1/0", "--alpha has denominator zero"),
    ]
    if INT_DIGITS:
        digits = "1" * (INT_DIGITS + 1)
        too_long = f"--alpha integer too long ({INT_DIGITS + 1} digits) at offset"
        cases += [(digits, f"{too_long} 0"), (f" -3/{digits}", f"{too_long} 4")]
    for alpha, message in cases:
        code, text = run(["--p=3", "--m=1", "--vars=x", "--poly=x", "--mode=strength",
                          f"--alpha={alpha}", f"--format={fmt}"])
        assert code == 2, alpha
        if fmt == "structured":
            error = json.loads(text)["error"]
            assert error == {"type": "ConfigError", "message": message}, alpha
        else:
            assert text == f"error: {message}", alpha


def test_alpha_in_its_grammar_is_the_fraction_it_was():
    values = ["-1/2", " +3/6 ", "007/21", "-0", "2", "-1"]
    if INT_DIGITS:
        values.append("-" + "7" * INT_DIGITS + "/" + "3" * INT_DIGITS)
    for value in values:
        assert parse_fraction(value) == Fraction(value.strip()), value


@pytest.mark.parametrize("mode", ["roots", "bfunction", "crosscheck"])
def test_reconstruction_bound_exits_2_before_work(monkeypatch, mode):
    # 3^(1+1) = 9 cannot separate fractions with |num| <= 100, den <= 50
    def no_work(*args, **kwargs):
        raise AssertionError("engine work started")

    for name in ("detect_roots", "bfunction_report", "crosscheck_mod_p"):
        monkeypatch.setattr(f"bsroots.cli.{name}", no_work)
    code, text = run(
        ["--p=3", "--m=1", "--vars=x", "--poly=x", f"--mode={mode}",
         "--max-level=1", "--den-bound=50", "--format=structured"]
    )
    assert code == 2
    assert json.loads(text)["error"] == {
        "type": "ValueError",
        "message": "p^(top_level+m) must exceed 2 * num_bound * den_bound "
                   "for unambiguous reconstruction",
    }


def test_reconstruction_cost_does_not_grow_with_the_bounds():
    # 2 * (2^29 - 1) < 2^30 accepts level 30; a scan over every denominator
    # up to the bound would take minutes, one Euclidean pass per residue
    # takes a fraction of a second
    argv = [sys.executable, "-m", "bsroots", "--p=2", "--m=0", "--vars=x",
            "--poly=x", "--mode=roots", "--max-level=30",
            "--den-bound=536870911", "--num-bound=1"]
    out = subprocess.run(argv, capture_output=True, text=True,
                         env=_child_env(), timeout=10)
    assert out.returncode == 0, out.stderr
    assert "root -1  (residue 1073741823)" in out.stdout


def test_degrees_from_2_to_the_31_exit_2_before_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("engine work started")

    for name in ("nu_levels", "detect_roots"):
        monkeypatch.setattr(f"bsroots.cli.{name}", no_work)
    base = ["--p=2", "--m=1", "--format=structured"]
    for argv in (
        ["--vars=x", "--poly=x^4294967296", "--mode=nu"],
        ["--vars=x", "--poly=x^2147483648", "--mode=roots"],
        ["--vars=x,y", "--poly=(x+y)^4294967296", "--mode=nu"],
        ["--vars=x,y", "--poly=x^1073741824*y^1073741824", "--mode=nu"],
        ["--vars=x", "--poly=x", "--lift", "x:x^2147483648", "--mode=nu"],
    ):
        code, text = run(base + argv)
        assert code == 2, argv
        error = json.loads(text)["error"]
        assert error["type"] == "DegreeLimitError", argv
        assert "2^31" in error["message"], argv


def test_degree_limit_in_an_engine_product_exits_3():
    """A lift correction x^(2^30) parses, but the run's products reach
    degree 2^31: the engine raises ``DegreeLimitError``, and as the input
    was accepted the run exits 3, not 2."""
    code, text = run(["--p=2", "--m=1", "--vars=x,y", "--poly=x^3+y",
                      "--lift=x:x^1073741824", "--mode=nu", "--max-level=1",
                      "--format=structured"])
    assert code == 3
    error = json.loads(text)["error"]
    assert error["type"] == "DegreeLimitError"
    assert "2^31" in error["message"]


def test_nu_mode_past_degree_2_to_the_31_exits_2_before_work(monkeypatch):
    # p=2, m=1: level L describes f^(2^(L+1)); the stub level sets keep the
    # accepted run free
    calls = []

    def stub(f, lift, top):
        calls.append(top)
        return tuple(
            NuLevelSet(e=e, window=2 ** (e + 1), members=())
            for e in range(1, top + 1)
        )

    monkeypatch.setattr("bsroots.cli.nu_levels", stub)
    argv = ["--p=2", "--m=1", "--vars=x", "--mode=nu", "--format=structured"]
    for poly, level in (("x^5000", 18), ("x^2147483647", 1), ("x^1073741824 + 1", 1)):
        code, text = run(argv + [f"--poly={poly}", f"--max-level={level}"])
        assert code == 2, poly
        error = json.loads(text)["error"]
        assert error["type"] == "ConfigError"
        assert "reaches 2^31, the limit of packed monomials" in error["message"]
    assert calls == []
    # 4000 * 2^19 = 2 097 152 000 < 2^31: accepted
    code, text = run(argv + ["--poly=x^4000", "--max-level=18"])
    assert code == 0
    assert calls == [18]
    assert len(json.loads(text)["nu_windows"]) == 18


class EngineStarted(Exception):
    pass


@pytest.mark.parametrize("mode", ["roots", "bfunction", "crosscheck", "strength"])
def test_every_mode_past_degree_2_to_the_31_exits_2_before_work(monkeypatch, mode):
    """deg(f) * p^(top+m) >= 2^31 is refused up front; just below, work starts.

    The engine is stubbed, so no run reaches a power of f.
    """

    def stub(*args, **kwargs):
        raise EngineStarted(mode)

    for name in ("detect_roots", "bfunction_report", "crosscheck_mod_p", "strength"):
        monkeypatch.setattr(f"bsroots.cli.{name}", stub)
    # p=2, m=0: the top level is 8 as given, 6 by default for bounds 3/3,
    # and 4 by default for strength
    argv = ["--p=2", "--m=0", "--vars=x", f"--mode={mode}", "--den-bound=3",
            "--num-bound=3", "--alpha=1/3", "--format=structured"]
    default_top = 4 if mode == "strength" else 6
    for poly, level, top in (
        ("x^2147483647", ["--max-level=8"], 8),
        ("x^8388608", ["--max-level=8"], 8),  # 2^23 * 2^8 = 2^31
        ("x^2147483647", [], default_top),
        (f"x^{2 ** (31 - default_top)}", [], default_top),
    ):
        code, text = run(argv + [f"--poly={poly}"] + level)
        assert code == 2, (poly, level)
        error = json.loads(text)["error"]
        assert error["type"] == "ConfigError"
        assert f"--mode={mode} to level {top} has max(deg f, 1)" in error["message"]
        assert "reaches 2^31, the limit of packed monomials" in error["message"]
    for poly, level in (
        ("x^8388607", ["--max-level=8"]),
        (f"x^{2 ** (31 - default_top) - 1}", []),
    ):
        with pytest.raises(EngineStarted):
            run(argv + [f"--poly={poly}"] + level)


@pytest.mark.parametrize("mode", ["roots", "bfunction", "crosscheck", "strength"])
def test_every_mode_far_past_degree_2_to_the_31_gives_the_refusal(monkeypatch, mode):
    """A top level whose power of p has thousands of digits is refused by
    the degree message, which names max(deg f, 1)*p^(top+m) and not its
    value; from top+m = 31 on every f is refused without forming
    p^(top+m)."""

    def stub(*args, **kwargs):
        raise EngineStarted(mode)

    for name in ("detect_roots", "bfunction_report", "crosscheck_mod_p", "strength"):
        monkeypatch.setattr(f"bsroots.cli.{name}", stub)
    argv = ["--vars=x", "--poly=x", f"--mode={mode}", "--alpha=-1",
            "--format=structured"]
    for p, m, level in ((3, 1, 10_000), (3, 1, 10**9), (2, 0, 31), (2, 1, 30)):
        code, text = run(argv + [f"--p={p}", f"--m={m}", f"--max-level={level}"])
        assert code == 2, (p, m, level)
        assert json.loads(text)["error"] == {
            "type": "ConfigError",
            "message": f"--mode={mode} to level {level} has max(deg f, 1)*"
                       f"p^(top+m) = 1*{p}^{level + m}, which reaches 2^31, the "
                       "limit of packed monomials",
        }
    # 1 * 2^30 < 2^31: accepted
    with pytest.raises(EngineStarted):
        run(argv + ["--p=2", "--m=0", "--max-level=30"])


@pytest.mark.parametrize(
    "mode", ["nu", "roots", "bfunction", "crosscheck", "strength"]
)
@pytest.mark.parametrize("fmt", ["structured", "text"])
def test_every_mode_refuses_from_the_same_level(monkeypatch, mode, fmt):
    """One rule for every mode: max(deg f, 1)*p^(top+m) >= 2^31 exits 2 before
    any engine call. At m=0 both x and the constant 1 are accepted at level
    30 and refused at 31 for p=2, and accepted at 19 and refused at 20 for
    p=3. A constant f at level 10000 gets the same message, naming 3^10001
    without forming it, also under the lowest non-zero int-to-str digit
    limit."""

    def stub(*args, **kwargs):
        raise EngineStarted(mode)

    for name in ("nu_levels", "detect_roots", "bfunction_report",
                 "crosscheck_mod_p", "strength"):
        monkeypatch.setattr(f"bsroots.cli.{name}", stub)
    argv = ["--vars=x", f"--mode={mode}", "--alpha=-1", f"--format={fmt}"]

    def refused(extra, message):
        code, text = run(argv + extra)
        assert code == 2, extra
        if fmt == "structured":
            error = {"type": "ConfigError", "message": message}
            assert json.loads(text)["error"] == error
        else:
            assert text == f"error: {message}"

    tail = "which reaches 2^31, the limit of packed monomials"
    # 2^30 < 2^31 and 3^19 < 2^31 < 3^20; at p=3, level 20 is below the
    # bit-length shortcut, so only counting a constant as degree 1 refuses it
    for poly, p, last in (("x", 2, 30), ("1", 2, 30), ("x", 3, 19), ("1", 3, 19)):
        ring = [f"--p={p}", "--m=0", f"--poly={poly}"]
        with pytest.raises(EngineStarted):
            run(argv + ring + [f"--max-level={last}"])
        refused(
            ring + [f"--max-level={last + 1}"],
            f"--mode={mode} to level {last + 1} has max(deg f, 1)*p^(top+m) = "
            f"1*{p}^{last + 1}, {tail}",
        )
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        refused(
            ["--p=3", "--m=1", "--poly=1", "--max-level=10000"],
            f"--mode={mode} to level 10000 has max(deg f, 1)*p^(top+m) = "
            f"1*3^10001, {tail}",
        )
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "anchor, top",
    [
        (["--p=2", "--vars=x,y", "--poly=x^3+y^2+x*y"], 27),
        (["--p=3", "--vars=x,y", "--poly=x^2+y^3"], 16),
        (["--p=2", "--vars=x,y", "--poly=x^3+y^2", "--lift", "x:x*y+y^2",
          "--lift", "y:x"], 27),
    ],
    ids=["p2", "p3", "nonstandard-lift"],
)
def test_nu_mode_reaches_the_deepest_level_of_roots_mode(anchor, top):
    """The anchors at m=2 and the last level the rule accepts (3*2^29 and
    3*3^18 are below 2^31): ``--mode=nu`` runs the same level walk as
    ``--mode=roots`` and prints the same level sets."""
    argv = anchor + ["--m=2", f"--max-level={top}", "--format=structured"]
    code, nu_text = run(argv + ["--mode=nu"])
    assert code == 0
    code, roots_text = run(argv + ["--mode=roots"])
    assert code == 0
    windows = json.loads(nu_text)["nu_windows"]
    assert len(windows) == top
    assert windows == json.loads(roots_text)["nu_windows"]


def test_engine_error_exits_3(monkeypatch):
    # a stub in place of the level walk, failing as the engine would
    def engine_error(*args, **kwargs):
        raise ValueError("engine failure")

    monkeypatch.setattr("bsroots.cli.nu_levels", engine_error)
    code, text = run(["--p=2", "--m=1", "--vars=x", "--poly=x", "--mode=nu"])
    assert code == 3
    assert text == "error: engine failure"


@pytest.mark.parametrize("poly", ["3*x", "0"])
@pytest.mark.parametrize("mode", ["nu", "roots", "bfunction", "crosscheck", "strength"])
@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_zerodivisor_exits_2_before_work(monkeypatch, poly, mode, fmt):
    # over Z/9 an f with no unit coefficient is a zerodivisor; every mode
    # builds a descent context first, so none may be built
    def no_work(self, f, lift):
        raise AssertionError("engine work started")

    monkeypatch.setattr("bsroots.nu.DescentContext.__init__", no_work)
    code, text = run(["--p=3", "--m=1", "--vars=x", f"--poly={poly}", f"--mode={mode}",
                      "--alpha=-1", "--max-level=4", "--den-bound=1", "--num-bound=1",
                      f"--format={fmt}"])
    assert code == 2
    message = "f must be a nonzerodivisor (some unit coefficient)"
    if fmt == "text":
        assert text == f"error: {message}"
    else:
        assert json.loads(text) == {"error": {"type": "ValueError", "message": message}}


@pytest.mark.parametrize("mode", ["nu", "roots", "bfunction", "crosscheck", "strength"])
@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_out_of_memory_exits_3_with_the_usual_error(monkeypatch, mode, fmt):
    # a stub in place of the context every mode builds first stands in for a
    # run that exhausts memory
    def out_of_memory(self, f, lift):
        raise MemoryError

    monkeypatch.setattr("bsroots.nu.DescentContext.__init__", out_of_memory)
    code, text = run(["--p=2", "--m=1", "--vars=x", "--poly=x", f"--mode={mode}",
                      "--alpha=-1", "--max-level=4", "--den-bound=1", "--num-bound=1",
                      f"--format={fmt}"])
    assert code == 3
    if fmt == "text":
        assert text == "error: MemoryError"
    else:
        assert json.loads(text) == {
            "error": {"type": "MemoryError", "message": "MemoryError"}
        }


def test_missing_required_flag_raises_system_exit():
    with pytest.raises(SystemExit):
        run(["--p=2", "--m=1", "--vars=x", "--mode=nu"])


def test_repeat_runs_are_byte_identical():
    argv = BASE + ["--mode=bfunction", "--max-level=4", "--den-bound=10",
                   "--num-bound=10", "--format=structured"]
    assert run(argv) == run(argv)
    nu_argv = ["--p=2", "--m=1", "--vars=x", "--poly=x", "--mode=nu",
               "--max-level=3", "--format=structured"]
    assert run(nu_argv) == run(nu_argv)


def _project_scripts():
    """The ``[project.scripts]`` table of the repository's ``pyproject.toml``."""
    text = (pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: a plain read of one flat table
        scripts, inside = {}, False
        for line in text.splitlines():
            line = line.strip()
            if line.startswith("["):
                inside = line == "[project.scripts]"
            elif inside and "=" in line:
                key, value = (part.strip().strip('"') for part in line.split("=", 1))
                scripts[key] = value
        return scripts
    return tomllib.loads(text)["project"]["scripts"]


def _child_env(**extra):
    """Environment under which a child interpreter imports this ``bsroots``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(bsroots.__file__)))
    inherited = os.environ.get("PYTHONPATH")
    path = src + os.pathsep + inherited if inherited else src
    return dict(os.environ, PYTHONPATH=path, **extra)


def test_console_script_subprocess():
    target = _project_scripts()["bsroots"]
    assert target == "bsroots.cli:main"
    module, attr = target.split(":")
    # what the generated console-script wrapper does
    wrapper = (f"import sys; from {module} import {attr}; "
               f"sys.argv[0] = 'bsroots'; sys.exit({attr}())")
    out = subprocess.run([sys.executable, "-c", wrapper, "--help"], capture_output=True,
                         text=True, env=_child_env(), timeout=SUBPROCESS_TIMEOUT_S)
    assert out.returncode == 0, out.stderr
    assert "--mode" in out.stdout

    bfunction = BASE + [
        "--mode=bfunction", "--max-level=4", "--den-bound=10", "--num-bound=10",
    ]
    # generators that tie on the leading term keep their input order, which
    # must not follow the hash seed; 12 of the 52 generator lists of this
    # nonstandard-lift job hold such ties
    lifted = ["--p=2", "--m=2", "--vars=x,y", "--poly=x^3+y^2", "--lift=x:x*y+y^2",
              "--lift=y:x", "--mode=nu", "--max-level=2"]
    docs = []
    for job in (bfunction, lifted):
        argv = [sys.executable, "-m", "bsroots.cli"] + job + ["--format=structured"]
        runs = []
        for seed in ("1", "2"):
            env = _child_env(PYTHONHASHSEED=seed)
            out = subprocess.run(argv, capture_output=True, env=env,
                                 timeout=SUBPROCESS_TIMEOUT_S)
            assert out.returncode == 0, out.stderr
            runs.append(out.stdout)
        assert runs[0] == runs[1], job
        docs.append(json.loads(runs[0]))
    assert [r["fraction"] for r in docs[0]["roots"]] == ["-1", "-1/2", "1/2"]
    assert [w["members"] for w in docs[1]["nu_windows"]] == [
        list(range(8)), list(range(1, 16))
    ]


def test_runs_without_numpy_or_a_thread_pool():
    # the child refuses any import of numpy and records the attempt, so a
    # guarded ``try: import numpy`` is caught as well as a plain one
    child = """
import json, sys
attempts = []
class Block:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            attempts.append(name)
            raise ImportError(f"{name} is blocked")
        return None
sys.meta_path.insert(0, Block())
from bsroots.cli import run
code, text = run(sys.argv[1:])
print(json.dumps({"code": code, "doc": json.loads(text), "numpy_attempts": attempts,
                  "loaded": sorted(m for m in ("numpy", "concurrent.futures")
                                   if m in sys.modules)}))
"""
    argv = BASE + ["--mode=bfunction", "--max-level=4", "--den-bound=10",
                   "--num-bound=10", "--format=structured"]
    out = subprocess.run([sys.executable, "-c", child] + argv, capture_output=True,
                         text=True, env=_child_env(), timeout=SUBPROCESS_TIMEOUT_S)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout)
    assert result["code"] == 0
    assert [r["fraction"] for r in result["doc"]["roots"]] == ["-1", "-1/2", "1/2"]
    assert result["numpy_attempts"] == []
    assert result["loaded"] == []


def test_import_loads_only_what_a_run_uses():
    """``import bsroots.cli`` loads none of these beyond a bare interpreter;
    the bare run counts what ``site`` preloads here (a ``.pth`` file can)."""
    unused = {"dataclasses", "inspect", "ast", "dis", "tokenize", "bsroots.cfun"}
    report = "import json, sys; print(json.dumps(sorted(sys.modules)))"
    loaded = []
    for prelude in ("", "import bsroots.cli; "):
        out = subprocess.run([sys.executable, "-c", prelude + report],
                             capture_output=True, text=True, env=_child_env(),
                             timeout=SUBPROCESS_TIMEOUT_S)
        assert out.returncode == 0, out.stderr
        loaded.append(set(json.loads(out.stdout)))
    bare, cli = loaded
    assert "bsroots.cli" in cli
    assert sorted((cli - bare) & unused) == []


@pytest.mark.skipif(shutil.which("bsroots") is None,
                    reason="bsroots console script not on PATH")
def test_installed_console_script():
    out = subprocess.run([shutil.which("bsroots"), "--help"], capture_output=True,
                         text=True, env=_child_env(), timeout=SUBPROCESS_TIMEOUT_S)
    assert out.returncode == 0, out.stderr
    assert "--mode" in out.stdout


@pytest.mark.parametrize("module", ["bsroots", "bsroots.cli"])
def test_module_entry_points(module):
    out = subprocess.run([sys.executable, "-m", module, "--help"], capture_output=True,
                         text=True, env=_child_env(), timeout=SUBPROCESS_TIMEOUT_S)
    assert out.returncode == 0, out.stderr
    assert "--mode" in out.stdout
    assert "RuntimeWarning" not in out.stderr, out.stderr


def _run_under_optimize(stub, mode):
    """The finished child running ``--mode=<mode>`` on x over Z/4 to level 3
    under -O, after the ``stub`` source replaced an engine seam; under -O a
    bare assert would be stripped and the run would pass."""
    child = f"""
import sys
if not sys.flags.optimize:
    sys.exit("not running under -O")
{stub}
from bsroots.cli import run
code, text = run(sys.argv[1:])
print(text)
sys.exit(code)
"""
    argv = ["--p=2", "--m=1", "--vars=x", "--poly=x", f"--mode={mode}", "--max-level=3",
            "--den-bound=1", "--num-bound=1", "--format=structured"]
    out = subprocess.run([sys.executable, "-O", "-c", child] + argv,
                         capture_output=True, text=True, env=_child_env(),
                         timeout=SUBPROCESS_TIMEOUT_S)
    return out


def test_invariant_failure_exits_3_under_optimize():
    # the child replaces every descent basis by a fresh power of the first
    # variable, unequal to every other, so nearly every candidate jumps:
    # level 1 is (0, 1, 2) and level 2 is 0..5, whose 3 does not truncate
    # to a member of level 1, so the nesting check fires, in nu mode too
    stub = """
import itertools
from types import SimpleNamespace
from bsroots import Poly, nu
fresh = itertools.count(1)
def fresh_basis(coords, inside=None):
    x = Poly.variable(coords[0].ctx, coords[0].nvars, 0)
    return SimpleNamespace(elements=(x ** next(fresh),))
nu.descent_basis = fresh_basis
"""
    for mode in ("roots", "nu"):
        out = _run_under_optimize(stub, mode)
        assert out.returncode == 3, (mode, out.stderr)
        error = json.loads(out.stdout)["error"]
        assert error == {"type": "InvariantError",
                         "message": "level set not nested in the level below"}, mode


def test_cardinality_bound_exits_3_under_optimize():
    # the child replaces the runs of each level by one run per n, so every
    # level set is its full window, nested but above the bound
    # (m+1)*C(deg(f)*p^m + 1, 1) = 6 of x over Z/4 from level 2 on, in nu
    # mode too
    stub = """
from bsroots import nu
def full_windows(descent, top):
    p, m = descent.f.ctx.p, descent.f.ctx.m
    for e in range(1, top + 1):
        yield e, [(n, None) for n in range(p ** (e + m) + 1)]
nu.descent_runs = full_windows
"""
    for mode in ("roots", "nu"):
        out = _run_under_optimize(stub, mode)
        assert out.returncode == 3, (mode, out.stderr)
        error = json.loads(out.stdout)["error"]
        assert error == {"type": "InvariantError",
                         "message": "level set exceeded cardinality bound"}, mode
