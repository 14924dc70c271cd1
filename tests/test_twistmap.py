"""Rescaling scalars, the twist map, and the isomorphism verification."""

import random

import pytest

from qtwist import rootdata
from qtwist.params import ParameterSet
from qtwist.presentations import PathExpr, PathWord, divided_power, idempotent, relations_of
from qtwist.twistmap import (
    TwistMap,
    TwistScalars,
    _serre_l,
    _serre_term_factorization,
    check_scalar_identities,
    verify_integrality,
    verify_twist_isomorphism,
)


@pytest.fixture()
def a1():
    rd = rootdata.builtin("a1")
    return rd, ParameterSet.v_tied(rd.cartan)


@pytest.fixture()
def a2():
    rd = rootdata.builtin("a2")
    return rd, ParameterSet.v_tied(rd.cartan)


def test_scalar_values(a1):
    rd, p = a1
    sc = TwistScalars(rd, p)
    zero = rd.zero_weight()
    assert sc.e(0, zero) == p.ctx.one
    assert sc.f(0, zero) == p.ctx.one
    # alpha_1 has lambda-paren profile (1, 0) on the gl2 lattice
    assert sc.e(0, rd.alpha[0]) == p.s(0, 0)
    assert sc.c(0, rd.alpha[0]) == (p.s(0, 0) * p.t(0, 0)).inv_unit()


def test_scalar_identities_a2():
    rd = rootdata.builtin("a2")
    p = ParameterSet.v_tied(rd.cartan)
    rep = check_scalar_identities(rd, p, rd.weights_box(1))
    assert rep.ok
    # spot check the crossing identity at lam = 0, (i, j) = (1, 2)
    sc = TwistScalars(rd, p)
    lam = rd.zero_weight()
    mu = rd.add_root(lam, 1, +1)
    lhs = sc.f(1, mu) * sc.e(0, mu)
    rhs = sc.e(0, lam) * sc.f(1, rd.add_root(mu, 0, -1)) * p.s(0, 1) * p.t(1, 0)
    assert lhs == rhs


def test_map_fixes_idempotents_and_scales_arrows(a1):
    rd, p = a1
    tw = TwistMap(rd, p)
    lam = (1, -1)
    u = idempotent(rd, p, lam)
    assert tw.forward(u) == u
    e = PathExpr.of(rd, p, PathWord(rd, lam, (("E", 0),)))
    img = tw.forward(e)
    ((w, c),) = img.terms.items()
    assert w.steps == (("E", 0),)
    assert c == p.rat(tw.scalars.e(0, lam))
    f = PathExpr.of(rd, p, PathWord(rd, rd.add_root(lam, 0, -1), (("F", 0),)))
    img = tw.backward(f)
    ((w, c),) = img.terms.items()
    assert c == p.rat(tw.scalars.f(0, lam).inv_unit())


def test_map_requires_tied_parameters():
    rd = rootdata.builtin("a1")
    with pytest.raises(ValueError):
        TwistMap(rd, ParameterSet.generic(rd.cartan))


def test_divided_power_closed_form(a1):
    rd, p = a1
    tw = TwistMap(rd, p)
    lam = (0, 0)
    for l in range(5):
        dp_u = divided_power("E", 0, l, lam, rd, p, base="v")
        img = tw.forward(dp_u)
        dp_s = divided_power("E", 0, l, lam, rd, p, base="q")
        expected = dp_s.scale(
            tw.scalars.e(0, lam) ** l * p.s(0, 0) ** (l * (l + 1) // 2)
        )
        assert img == expected


def test_roundtrip_and_multiplicativity(a2):
    rd, p = a2
    tw = TwistMap(rd, p)
    rng = random.Random(11)

    def random_word(lam, maxlen=4):
        steps = tuple(
            (rng.choice(("E", "F")), rng.randrange(rd.n))
            for _ in range(rng.randint(0, maxlen))
        )
        return PathWord(rd, lam, steps)

    for _ in range(500):
        lam = tuple(rng.randint(-2, 2) for _ in range(rd.x_rank))
        w1 = random_word(lam)
        w2 = random_word(w1.source)
        x = PathExpr.of(rd, p, w1)
        y = PathExpr.of(rd, p, w2)
        assert tw.forward(x * y) == tw.forward(x) * tw.forward(y)
        assert tw.backward(tw.forward(x)) == x
        assert tw.forward(tw.backward(y)) == y


def test_forward_preserves_weights_and_degree(a2):
    rd, p = a2
    tw = TwistMap(rd, p)
    w = PathWord(rd, (1, 0, -1), (("E", 0), ("F", 1), ("E", 0)))
    img = tw.forward(PathExpr.of(rd, p, w))
    ((w2, _),) = img.terms.items()
    assert w2.target == w.target and w2.source == w.source
    assert w2.degree(rd.n) == w.degree(rd.n)


def test_isomorphism_campaign_a1(a1):
    rd, p = a1
    rep = verify_twist_isomorphism(rd, p, rd.weights_box(2))
    assert rep.ok
    sc = TwistScalars(rd, p)
    for c in rep.checks:
        if c.family == "c":
            lam = tuple(c.lam)
            expected = sc.e(0, lam) * sc.f(0, lam)
            assert c.scalar == str(p.rat(expected).simplified())
            assert p.rat(expected) == p.rat(sc.c(0, lam).inv_unit())


def test_isomorphism_campaign_a2_serre_ratio(a2):
    rd, p = a2
    rep = verify_twist_isomorphism(rd, p, [rd.zero_weight()])
    assert rep.ok
    # derived per-term ratio at lam = 0, (i, j) = (1, 2): N1(l)/N1(0) = (s21/s12)^l
    tw = TwistMap(rd, p)
    sc = tw.scalars
    lam = rd.zero_weight()
    r = rd.cartan.serre_exponent(0, 1)
    n1 = []
    for l in range(r + 1):
        mid = lam
        for _ in range(l):
            mid = rd.add_root(mid, 0, +1)
        val = (
            sc.e(0, rd.add_root(mid, 1, +1)) ** (r - l)
            * sc.e(1, mid)
            * sc.e(0, lam) ** l
            * p.s(0, 0) ** (l * (l + 1) // 2 + (r - l) * (r - l + 1) // 2)
        )
        n1.append(val)
    ratio = p.rat(p.s(1, 0)) / p.rat(p.s(0, 1))
    for l in range(r + 1):
        assert p.rat(n1[l]) / p.rat(n1[0]) == ratio**l


def test_identity_specialization_fixes_relations():
    rd = rootdata.builtin("a2")
    p = ParameterSet.one_param(rd.cartan)
    tw = TwistMap(rd, p)
    from qtwist.presentations import relations_of

    window = [rd.zero_weight(), (1, 0, -1)]
    for inst in relations_of("Udot", rd, p, window):
        assert tw.forward(inst.expr) == inst.expr


def test_integrality_report(a2):
    rd, p = a2
    rep = verify_integrality(rd, p, [rd.zero_weight(), (1, -1, 0)], lmax=3)
    assert rep.ok
    units = [c for c in rep.checks if c.family == "dp"]
    assert units and all(c.status == "pass" for c in units)


def test_serre_factorization_witness_shows_both_units(a2):
    rd, p = a2
    lam = rd.zero_weight()
    src = relations_of("Udot", rd, p, window=[lam])
    dst = relations_of("scrUdot", rd, p, window=[lam])
    su = next(r for r in src if r.family == "d-E" and (r.i, r.j) == (0, 1))
    tgt = next(r for r in dst if r.family == "d-E" and (r.i, r.j) == (0, 1))
    tw = TwistMap(rd, p)
    ratio = p.rat(p.s(1, 0)) / p.rat(p.s(0, 1))
    assert _serre_term_factorization(su, tgt, tw, ratio) == (True, "")

    inverted = ratio.inv()
    units = {
        _serre_l(su, w): p.rat(tw._word_scalar(w, invert=False)) / inverted ** _serre_l(su, w)
        for w in su.expr.terms
    }
    ok, witness = _serre_term_factorization(su, tgt, tw, inverted)
    assert not ok
    # with ratio inverted the unit at l is the true unit times ratio^(2l),
    # so the first difference is at l=1
    assert "at l=0" in witness and "at l=1" in witness
    assert str(units[0].simplified()) in witness
    assert str(units[1].simplified()) in witness
    assert str(units[0].simplified()) != str(units[1].simplified())
