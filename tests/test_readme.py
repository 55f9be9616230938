"""The library tour in README.md runs as written and says what it computes."""
import re
from pathlib import Path

import pytest

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
