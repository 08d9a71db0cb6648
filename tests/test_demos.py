"""Smoke tests: the demos run and print their headline results."""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

EXPECTED = {
    "01_refinement_basics.py": [
        "closed edges: [(0, 2)]",
        "patterns: ('bisec1', 'bisec1')",
        "marking {0} bisects exactly its chain: [0, 1]",
        "bisec(5) : 6 -> 15 elements, generation counts "
        "{0: 2, 1: 5, 2: 4, 3: 4}, red sons 0",
        "exact on all 16 elements: True",
    ],
    "02_closure_accounting.py": [
        "  25    1036      5780        4589   1.258",
        "lower bound (sum of marked <= growth) holds: True",
    ],
    "03_projection_stability.py": [
        "final mesh: 1782 elements, generations 4..19, weight exponents -19..-4",
        "every element passes ratio <= 2, S_T < 25, lambda_min > 0: True",
    ],
    "04_red_correspondence.py": [
        "   6       667          667                101  True",
        "final state: 202 red sons",
    ],
    "05_overlay_and_restriction.py": [
        "overlay: 37 elements <= 31 + 25 - 6 = 50",
        "restriction to 2 initial elements: 8 elements, area 1.0 "
        "(one quadrant), conforming: True",
        "read back, same overlay and restriction: True",
        "bisec(5) refinement: 22 elements; overlay with a: 34 elements, "
        "conforming: True, refines both inputs: True",
    ],
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    out = capsys.readouterr().out
    for line in EXPECTED[name]:
        assert line in out, line
