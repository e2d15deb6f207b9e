"""The demos and the README quick start print what they are frozen to print.

Each demo runs in a fresh interpreter that imports the package under test;
its stdout must match the text below exactly. The quick start must print
the root lines its own comments show.
"""

import pathlib
import subprocess
import sys

import pytest

from test_cli import SUBPROCESS_TIMEOUT_S, _child_env

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"

EXPECTED = {
    "01_level_sets": (
        "level 1 (mod 9): [1, 2, 4, 5, 7, 8]\n"
        "level 2 (mod 27): [4, 5, 8, 13, 14, 17, 22, 23, 26]\n"
        "level 3 (mod 81): [13, 14, 26, 40, 41, 53, 67, 68, 80]\n"
        "\n"
        "31 mod 27 = 4 -> True\n"
        "is_nu agrees: True\n"
        "\n"
        "reductions of level-3 members into level 2:\n"
        "[13, 14, 26]\n"
        "subset of level 2: True\n"
    ),
    "02_root_detection": (
        "level 1 survivors (mod 9): (1, 2, 4, 5, 7, 8)\n"
        "level 2 survivors (mod 27): (4, 5, 8, 13, 14, 17, 22, 23, 26)\n"
        "level 3 survivors (mod 81): (13, 14, 26, 40, 41, 53, 67, 68, 80)\n"
        "level 4 survivors (mod 243): (40, 41, 80, 121, 122, 161, 202, 203, 242)\n"
        "\n"
        "roots found:\n"
        "  alpha = -1   residue 242   digits [2, 2, 2, 2, 2, 2]\n"
        "  alpha = -1/2   residue 121   digits [1, 1, 1, 1, 1, 1]\n"
        "  alpha = 1/2   residue 122   digits [2, 1, 1, 1, 1, 1]\n"
        "unresolved residues: (40, 41, 80, 161, 202, 203)\n"
        "\n"
        "f = x over Z/4:\n"
        "  roots: ['-1']\n"
        "  unresolved: (127,)\n"
    ),
    "03_strengths": (
        "alpha = -1: levels ((1, 2), (2, 2)) -> strength 2 (stabilized=True)\n"
        "alpha = -1/2: levels ((1, 1), (2, 1)) -> strength 1 (stabilized=True)\n"
        "alpha = 1/2: levels ((1, 2), (2, 1), (3, 1)) -> strength 1 (stabilized=True)\n"
        "alpha = -2: 0\n"
        "\n"
        "structured data:\n"
        "  (-1, strength 2)\n"
        "  (-1/2, strength 1)\n"
        "  (1/2, strength 1)\n"
        "\n"
        "stalk at -1: 2\n"
        "stalk at 7 (off support): 0\n"
    ),
    "04_lift_dependence": (
        "F2 images: x^2 + 2*x*y + 2*y^2 | y^2\n"
        "\n"
        "level-1 window of x under F1: (1, 3)\n"
        "level-1 window of x under F2: (1, 2, 3)\n"
        "level-1 window of x + y under F1: (1, 2, 3)\n"
        "\n"
        "roots under F1: ['-1']\n"
        "roots under F2: ['-1']\n"
    ),
    "05_level_functions": (
        "chi(1, 2) values: (0, 0, 1)\n"
        "refined to level 2: (0, 0, 1, 0, 0, 1, 0, 0, 1)\n"
        "(phi + psi): (3, 1, 1)  (phi * psi): (0, 0, 0)\n"
        "\n"
        "roots: [('-1', 2), ('-1/2', 1), ('1/2', 1)]\n"
        "level 1 refused: level does not separate roots\n"
        "member: True\n"
        "after weakening at -1: False\n"
    ),
}


def test_every_demo_is_covered():
    assert sorted(p.stem for p in DEMOS.glob("*.py")) == sorted(EXPECTED)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_demo_output_is_unchanged(name):
    out = subprocess.run(
        [sys.executable, str(DEMOS / f"{name}.py")],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=SUBPROCESS_TIMEOUT_S,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == EXPECTED[name]


def test_readme_quick_start():
    text = (ROOT / "README.md").read_text()
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    expected = [line[2:] for line in block.splitlines() if line.startswith("# ")]
    assert expected == ["-1 242 2", "-1/2 121 1", "1/2 122 1"]
    out = subprocess.run(
        [sys.executable, "-c", block],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=SUBPROCESS_TIMEOUT_S,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[: len(expected)] == expected
