"""Seeded defects: the iso campaign must reject a wrong rescaling scalar.

Each defect is monkeypatched into the code the campaign calls, and the
campaign on a2 over weights_box(1) must fail exactly the instances the
defect touches, each with the exact-multiple witness.  The clean control
shows the same window passes, so the failures come from the defect.
"""

import pytest

from qtwist import presentations, rootdata, twistmap
from qtwist.params import ParameterSet, _weight_monomial, twist_c
from qtwist.presentations import _serre_ratios
from qtwist.twistmap import verify_twist_isomorphism

WITNESS = "image is not an exact multiple of the target instance"


def _transposed_twist_e(rd, params, i, lam):
    """prod_j s_ji^{lam(j)}: the rescaling scalar with s transposed."""
    return _weight_monomial(rd, params, lam, lambda j: params.s(j, i))


def _inverted_twist_c(rd, params, i, lam):
    return twist_c(rd, params, i, lam).inv_unit()


def _flipped_serre_ratios(params, i, j, twisted):
    """s_ij/s_ji and t_ij/t_ji in the twisted Serre sums: each ratio inverted."""
    ratios = _serre_ratios(params, i, j, twisted)
    return tuple(r.inv() for r in ratios) if twisted else ratios


def _run_a2():
    rd = rootdata.builtin("a2")
    params = ParameterSet.v_tied(rd.cartan)
    return verify_twist_isomorphism(rd, params, rd.weights_box(1))


def test_clean_control():
    rep = _run_a2()
    assert len(rep.checks) == 459
    assert rep.summary == {"pass": 459, "fail": 0, "warn": 0}


@pytest.mark.parametrize(
    "module, name, defect, failures",
    [
        (twistmap, "twist_e", _transposed_twist_e, 132),
        (presentations, "twist_c", _inverted_twist_c, 34),
        (presentations, "_serre_ratios", _flipped_serre_ratios, 108),
    ],
    ids=["twist_e-s-transposed", "twist_c-inverted", "serre-ratio-flipped"],
)
def test_seeded_defect_is_rejected(monkeypatch, module, name, defect, failures):
    monkeypatch.setattr(module, name, defect)
    rep = _run_a2()
    assert len(rep.checks) == 459
    assert rep.summary == {"pass": 459 - failures, "fail": failures, "warn": 0}
    assert {c.witness for c in rep.failures()} == {WITNESS}
