import math

import pytest

from caforge import GroupKind, Parameters
from caforge.bounds import _dep_degree
from caforge.pipeline import group_rho


class TestParameters:
    @pytest.mark.parametrize("t,k,v", [(1, 5, 2), (3, 2, 2), (2, 5, 1)])
    def test_invalid(self, t, k, v):
        with pytest.raises(ValueError):
            Parameters(t, k, v)

    def test_rho_between_vt_minus_one_and_vt(self):
        for t in range(2, 7):
            for v in range(2, 7):
                rho = group_rho(Parameters(t, 2 * t, v), GroupKind.TRIVIAL)
                assert v**t - 1 < rho < v**t

    def test_dep_degree_below_classical_bound(self):
        for t in range(2, 6):
            for k in range(2 * t, 30, 3):
                p = Parameters(t, k, 3)
                assert _dep_degree(p) < t * math.comb(k, t - 1)
