"""Laurent polynomials everywhere but the LinComb coefficient.

Divided powers, Serre ratios and module matrices all live over the Laurent
ring, so a campaign with no seeded defect builds no fraction: every RatExpr
it makes has denominator 1.  A RatExpr is built through ``__init__`` or,
for products and shifted numerators, through ``_normalised``, so both are
watched.  The campaigns are the four the benchmark contract traces.
"""

import pytest
from oracles import corrupt, qfact
from test_bench_contract import CAMPAIGNS

from qtwist import cli, rootdata, specializations
from qtwist.coeffring import LaurentPoly, RatExpr
from qtwist.params import ParameterSet
from qtwist.repcheck import sl2_string_module, sl3_natural_module, transport
from qtwist.twistmap import TwistScalars


@pytest.fixture()
def fractions(monkeypatch):
    """Spy on every RatExpr built: (count built, the non-polynomial ones)."""
    seen = {"built": 0, "fractions": []}
    init, normalised = RatExpr.__init__, RatExpr._normalised

    def record(x):
        seen["built"] += 1
        if not x.den.is_one():
            seen["fractions"].append(str(x))
        return x

    def spy_init(self, num, den):
        init(self, num, den)
        record(self)

    monkeypatch.setattr(RatExpr, "__init__", spy_init)
    monkeypatch.setattr(RatExpr, "_normalised",
                        staticmethod(lambda num, den: record(normalised(num, den))))
    return seen


def test_clean_campaigns_build_no_fraction(fractions, tmp_path):
    out = str(tmp_path / "report.json")
    for argv in CAMPAIGNS:
        assert cli.main([*argv, "--format", "json", "--stable", "--out", out]) == 0, argv
    assert fractions["built"] > 1000
    assert fractions["fractions"] == []
    # the spies see a fraction when one is built, as 1/[2]! was before
    p = ParameterSet.v_tied(rootdata.builtin("a1").cartan)
    p.rat(1) / p.rat(qfact(2, p.q(0)))
    assert fractions["fractions"] == ["(v) / (v^2 + 1)"]


@pytest.mark.parametrize("case", ("generic", *specializations.CASES))
def test_module_entries_are_laurent_polynomials(case):
    """string_module, transport and corrupt write Laurent polynomials, in
    every ring the modules campaign runs in."""
    for name in ("a1", "a2"):
        rd = rootdata.builtin(name)
        p = (ParameterSet.v_tied(rd.cartan) if case == "generic"
             else specializations.make(case, rd).params)
        base = sl2_string_module(3, rd, p) if name == "a1" else sl3_natural_module(rd, p)
        tmod = transport(base, TwistScalars(rd, p))
        mods = [base, tmod] + [corrupt(tmod, kind, 0, factor)
                               for kind in ("E", "Kp") for factor in (2, p.q(0))]
        for mod in mods:
            bad = [(sym, x) for sym, cols in mod.cols.items() for col in cols for _, x in col
                   if type(x) is not LaurentPoly]
            assert bad == [], mod.label
