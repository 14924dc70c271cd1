"""Path-word model, divided powers, relation enumeration, Serre forms."""

import random

import pytest

from qtwist import rootdata, specializations
from qtwist.coeffring import qfact, qint
from qtwist.ncalg import NCExpr, StraightenRules, straighten
from qtwist.params import ParameterSet, twist_c
from qtwist.presentations import (
    PathExpr,
    PathWord,
    divided_power,
    e_arrow,
    f_arrow,
    idempotent,
    relations_of,
    serre_binomial,
)


@pytest.fixture()
def a1():
    rd = rootdata.builtin("a1")
    return rd, ParameterSet.v_tied(rd.cartan)


@pytest.fixture()
def a2():
    rd = rootdata.builtin("a2")
    return rd, ParameterSet.generic(rd.cartan)


def test_idempotents_orthogonal(a1):
    rd, p = a1
    lam = rd.zero_weight()
    mu = rd.add_root(lam, 0, +1)
    u, u2 = idempotent(rd, p, lam), idempotent(rd, p, mu)
    assert u * u == u
    assert (u * u2).is_zero()
    assert (u2 * u).is_zero()


def test_idempotents_absorb_arrows(a1):
    rd, p = a1
    lam = rd.zero_weight()
    e = e_arrow(rd, p, 0, lam)
    f = f_arrow(rd, p, 0, lam)
    u = idempotent(rd, p, lam)
    assert e * u == e
    assert u * f_arrow(rd, p, 0, rd.add_root(lam, 0, +1)) == f_arrow(
        rd, p, 0, rd.add_root(lam, 0, +1)
    )
    assert (u * e).is_zero()  # weight mismatch on the left
    assert f * u == f


def test_path_mul_associative_random(a2):
    rd, p = a2
    rng = random.Random(3)

    def random_path(lam):
        steps = []
        cur = lam
        for _ in range(rng.randint(0, 3)):
            kind = rng.choice(("E", "F"))
            i = rng.randrange(rd.n)
            steps.append((kind, i))
        return PathExpr.of(rd, p, PathWord(rd, lam, tuple(steps)))

    for _ in range(40):
        lam = tuple(rng.randint(-2, 2) for _ in range(rd.x_rank))
        a = random_path(lam)
        b = random_path(list(a.terms)[0].source if a.terms else lam)
        c = random_path(list(b.terms)[0].source if b.terms else lam)
        assert (a * b) * c == a * (b * c)


def test_divided_power_small(a1):
    rd, p = a1
    lam = rd.zero_weight()
    assert divided_power("E", 0, 0, lam, rd, p) == idempotent(rd, p, lam)
    assert divided_power("E", 0, 1, lam, rd, p) == e_arrow(rd, p, 0, lam)
    dp2 = divided_power("E", 0, 2, lam, rd, p)
    ((w, c),) = dp2.terms.items()
    assert w.steps == (("E", 0), ("E", 0))
    assert w.source == lam and w.target == rd.add_root(rd.add_root(lam, 0, 1), 0, 1)
    assert c == p.rat(1) / p.rat(qint(2, p.q(0)))


def test_divided_power_f_direction(a1):
    rd, p = a1
    lam = rd.zero_weight()
    dp = divided_power("F", 0, 2, lam, rd, p)
    ((w, _),) = dp.terms.items()
    assert w.target == lam
    assert w.source == rd.add_root(rd.add_root(lam, 0, 1), 0, 1)


def test_modified_c_family_instance(a1):
    rd, p = a1
    lam = (2, 0)  # lambda_1 = 2
    rels = relations_of("scrUdot", rd, p, window=[lam])
    (c_inst,) = [r for r in rels if r.family == "c"]
    terms = {w.steps: c for w, c in c_inst.expr.terms.items()}
    assert terms[(("E", 0), ("F", 0))] == p.rat(1)
    assert terms[(("F", 0), ("E", 0))] == -p.rat(p.s(0, 0) * p.t(0, 0))
    cc = twist_c(rd, p, 0, lam)
    assert terms[()] == -p.rat(cc * qint(2, p.q(0)))


def test_modified_c_weights_chain(a1):
    rd, p = a1
    lam = (1, 1)
    rels = relations_of("scrUdot", rd, p, window=[lam])
    (c_inst,) = [r for r in rels if r.family == "c"]
    for w in c_inst.expr.terms:
        assert w.target == lam and w.source == lam


def test_modified_families_are_homogeneous(a2):
    rd, p = a2
    window = [rd.zero_weight(), (1, -1, 0)]
    for inst in relations_of("scrUdot", rd, p, window=window):
        degs = {w.degree(rd.n) for w in inst.expr.terms}
        srcs = {w.source for w in inst.expr.terms}
        tgts = {w.target for w in inst.expr.terms}
        assert len(degs) <= 1 and len(srcs) <= 1 and len(tgts) <= 1
        if inst.family == "d-E":
            r = rd.cartan.serre_exponent(inst.i, inst.j)
            deg = [0] * rd.n
            deg[inst.i] += r
            deg[inst.j] += 1
            assert degs == {tuple(deg)}


def test_modified_serre_term_count(a2):
    rd, p = a2
    lam = rd.zero_weight()
    rels = relations_of("scrUdot", rd, p, window=[lam])
    inst = [r for r in rels if r.family == "d-E" and r.i == 0 and r.j == 1][0]
    # r = 2: three distinct words, scalars 1, -(s21/s12)[..], (s21/s12)^2 [..]
    assert len(inst.expr.terms) == 3
    by_l = {}
    for w, c in inst.expr.terms.items():
        idx = [i for _, i in w.steps]
        by_l[len(idx) - 1 - idx.index(1)] = c
    ratio = p.rat(p.s(1, 0)) / p.rat(p.s(0, 1))
    fact = p.rat(qfact(2, p.q(0)))
    assert by_l[0] * fact == p.rat(1)
    assert by_l[1] * fact == -ratio * qint(2, p.q(0))
    assert by_l[2] * fact == ratio * ratio


def test_ordinary_c_family(a1):
    rd, p = a1
    rels = relations_of("U", rd, p)
    (c_inst,) = [r for r in rels if r.family == "c"]
    terms = {w: c for w, c in c_inst.expr.terms.items()}
    v = p.v()
    denom = p.rat(v - v.inv_unit())
    assert terms[(("E", 0), ("F", 0))] == p.rat(1)
    assert terms[(("F", 0), ("E", 0))] == -p.rat(1)
    assert terms[(("K", 0),)] == -p.rat(1) / denom
    assert terms[(("Kinv", 0),)] == p.rat(1) / denom


def test_untwisted_needs_v(a2):
    rd, p = a2
    with pytest.raises(ValueError):
        relations_of("U", rd, p)
    with pytest.raises(ValueError):
        relations_of("Udot", rd, p, window=[rd.zero_weight()])


def test_window_required(a1):
    rd, p = a1
    with pytest.raises(ValueError):
        relations_of("scrUdot", rd, p, window=[])


def test_serre_binomial_example(a2):
    rd, p = a2
    R = serre_binomial(0, 1, rd, p)
    words = {w: c for w, c in R.terms.items()}
    E, F = ("E", 0), ("E", 1)
    ratio = p.rat(p.s(1, 0)) / p.rat(p.s(0, 1))
    assert words[(E, E, F)] == p.rat(1)
    assert words[(E, F, E)] == -ratio * qint(2, p.q(0))
    assert words[(F, E, E)] == ratio * ratio
    with pytest.raises(ValueError):
        serre_binomial(0, 0, rd, p)


def test_serre_binomial_is_factorial_times_divided_form(a2):
    rd, p = a2
    for (i, j) in ((0, 1), (1, 0)):
        r = rd.cartan.serre_exponent(i, j)
        inst = [
            x for x in relations_of("scrU", rd, p) if x.family == "d-E" and x.i == i and x.j == j
        ][0]
        assert inst.expr.scale(qfact(r, p.q(i))) == serre_binomial(i, j, rd, p)


def test_serre_binomial_untwisted_limit():
    rd = rootdata.builtin("a2")
    p = ParameterSet.one_param(rd.cartan)
    R = serre_binomial(0, 1, rd, p)
    words = {w: c for w, c in R.terms.items()}
    E, F = ("E", 0), ("E", 1)
    assert words[(E, E, F)] == p.rat(1)
    assert words[(E, F, E)] == -p.rat(qint(2, p.vi(0)))
    assert words[(F, E, E)] == p.rat(1)


def test_untwisted_presentation_is_trivial_twist_image():
    """The single-parameter relations equal the twisted ones under s = t = 1,
    q_i = v^{d_i}, with the second K-family folded onto the inverses."""
    rd = rootdata.builtin("a2")
    p = ParameterSet.one_param(rd.cartan)
    rules = StraightenRules(rd, p)
    fold = {"K": "K", "Kinv": "Kinv", "Kp": "Kinv", "Kpinv": "K", "E": "E", "F": "F"}

    def folded(expr):
        out = NCExpr.zero(p)
        for w, c in expr.terms.items():
            out = out + NCExpr.word(p, tuple((fold[k], i) for k, i in w), c)
        return straighten(out, rules)

    twisted = {
        (r.family, r.i, r.j, r.part): folded(r.expr)
        for r in relations_of("scrU", rd, p)
    }
    for r in relations_of("U", rd, p):
        key = (r.family, r.i, r.j, r.part)
        if key in twisted:
            assert straighten(r.expr, rules) == twisted[key], key
    # every untwisted c/d instance has a folded twisted counterpart
    for fam in ("c", "d-E", "d-F"):
        for r in relations_of("U", rd, p):
            if r.family == fam:
                assert (fam, r.i, r.j, r.part) in twisted


def _literal_serre(inst, rd, p, twisted):
    """The Serre sum at inst's weight, built term by term from divided powers
    and arrows, each term scaled by (-1)^l ratio^l."""
    base = "q" if twisted else "v"
    i, j, lam = inst.i, inst.j, inst.lam
    r = rd.cartan.serre_exponent(i, j)
    fam = p.s if inst.family == "d-E" else p.t
    ratio = p.rat(fam(j, i)) / p.rat(fam(i, j)) if twisted else p.rat(1)
    acc = PathExpr.zero(rd, p)
    for l in range(r + 1):
        mid = lam
        for _ in range(l):
            mid = rd.add_root(mid, i, +1)
        top = rd.add_root(mid, j, +1)
        if inst.family == "d-E":
            term = (
                divided_power("E", i, r - l, top, rd, p, base)
                * e_arrow(rd, p, j, mid)
                * divided_power("E", i, l, lam, rd, p, base)
            )
        else:
            term = (
                divided_power("F", i, l, lam, rd, p, base)
                * f_arrow(rd, p, j, top)
                * divided_power("F", i, r - l, top, rd, p, base)
            )
        acc = acc + term.scale(ratio**l * (-1) ** l)
    return acc


def _serre_cases():
    for name in ("a2", "g2"):
        rd = rootdata.builtin(name)
        yield name, rd, ParameterSet.v_tied(rd.cartan)
    spec = specializations.make("super1", rootdata.builtin("a2"))
    yield "super1-a2", spec.rd, spec.params


@pytest.mark.parametrize("case", list(_serre_cases()), ids=lambda c: c[0])
def test_modified_relations_match_literal_construction(case):
    _, rd, p = case
    for algebra in ("Udot", "scrUdot"):
        serre = 0
        for inst in relations_of(algebra, rd, p, window=rd.weights_box(1)):
            for w in inst.expr.terms:
                assert w.source == PathWord(rd, w.target, w.steps).source, (inst.id, w)
            if inst.family in ("d-E", "d-F"):
                literal = _literal_serre(inst, rd, p, algebra == "scrUdot")
                assert inst.expr == literal, inst.id
                # same representation, hence the same printed scalars
                assert str(inst.expr) == str(literal), inst.id
                serre += 1
        assert serre == 2 * rd.n * (rd.n - 1) * len(rd.weights_box(1))
