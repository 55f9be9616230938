"""The library tour in README.md runs as written and says what it computes."""
import re
from pathlib import Path

import pytest

from putget.structures import _DERIVED

README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_library_tour_runs():
    (tour,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    names: dict = {}
    exec(compile(tour, str(README), "exec"), names)
    assert names["classify"](names["U"]).kind == "strong"
    getput = names["check_law"](names["M"], "GetPut").residual
    assert getput == pytest.approx(2 ** 0.5, rel=1e-15)
    assert getput == pytest.approx(names["getput_defect_formula"](names["pvs"]), rel=1e-15)
    assert names["check_algebra"](names["alg"], "counit").residual == pytest.approx(1.5)


def test_the_derived_table_lists_each_implications_premises():
    rows = re.findall(r"^\| `(\w+)` \| ([^|]*) \|", README.read_text(encoding="utf-8"), re.M)
    premises = {name: tuple(cell.split(", ")) for name, cell in rows if name in _DERIVED}
    assert premises == {name: entry[0] for name, entry in _DERIVED.items()}
