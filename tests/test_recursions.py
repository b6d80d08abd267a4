"""The triangle builder's protocol: coefficient injection and dependency checks."""

from fractions import Fraction as F

import pytest

from seriaccel._recursions import NumericOps, run_recursion
from seriaccel.field import BreakdownError, RationalField
from seriaccel.transforms import FAMILIES

RAT = RationalField()


@pytest.mark.parametrize("name", list(FAMILIES))
def test_coefficients_are_injected_only_into_cells_that_run(name):
    family = FAMILIES[name]
    step, levels = family.step, 3
    top = step * levels + 2
    broken = (0, 1)  # the step into cell (1, 1) breaks down
    requested, ran = [], []

    def coeff(i):
        requested.append(i)
        return F(i)

    def recursion(ops, g, k, n, cur, prev):
        ran.append((k, n, g))
        if (k, n) == broken:
            raise BreakdownError("chosen breakdown")
        return cur[n] + sum(g)

    table = run_recursion(family, NumericOps(RAT, RAT.zero), levels, top, [RAT.zero] * (top + 1),
                          coeff, recursion=recursion)

    for k, n, g in ran:
        assert g == [F(n + step * k + i) for i in range(1, step + 1)], (k, n)
    assert requested == [n + step * k + i for k, n, _ in ran for i in range(1, step + 1)]
    ran_cells = {(k, n) for k, n, _ in ran}
    skipped = 0
    for k in range(levels):
        for n in range(top - step * (k + 1) + 1):
            deps_hold = all(table.valid[dep] for dep in family.deps(k, n))
            assert ((k, n) in ran_cells) == deps_hold, (k, n)
            skipped += not deps_hold
    assert skipped > 0
