"""Constraint resolution, closed-form tables, and specialized campaigns."""

import random
from fractions import Fraction

import pytest
from oracles import substitute

from qtwist import rootdata
from qtwist import specializations as sp
from qtwist.params import ParameterSet
from qtwist.presentations import relations_of
from qtwist.twistmap import TwistMap, TwistScalars, verify_twist_isomorphism


@pytest.fixture()
def a2():
    return rootdata.builtin("a2")


# -- grading matrix ------------------------------------------------------------


def test_omega_example_passes(a2):
    assert sp.validate_omega(a2, [[1, -1], [0, 1]]) == []


def test_default_omega_matches_example(a2):
    assert sp.default_omega(a2) == [[1, -1], [0, 1]]


@pytest.mark.parametrize("name", ("a1", "a1xa1", "a2", "b2", "g2"))
def test_default_omega_valid_everywhere(name):
    rd = rootdata.builtin(name)
    assert sp.validate_omega(rd, sp.default_omega(rd)) == []


def test_omega_violations_reported(a2):
    errs = sp.validate_omega(a2, [[0, -1], [0, 1]])
    assert any("(a)" in e for e in errs)
    errs = sp.validate_omega(a2, [[1, 0], [0, 1]])
    assert any("(c)" in e for e in errs)
    errs = sp.validate_omega(a2, [[2, -1], [0, 2]])   # (c) ok only if sums match
    assert errs
    with pytest.raises(sp.SpecializationError):
        sp.two_parameter(a2, [[1, 0], [0, 1]])


# -- constraint sets -------------------------------------------------------------


@pytest.mark.parametrize("name", ("a1", "a2", "b2"))
@pytest.mark.parametrize("case", ("two-param", "multi-param", "super1", "super2"))
def test_constraints_vanish(name, case):
    rd = rootdata.builtin(name)
    spec = sp.make(case, rd)
    assert all(ok for _, ok in spec.constraints), [
        d for d, ok in spec.constraints if not ok
    ]


def test_two_param_images(a2):
    spec = sp.two_parameter(a2, [[1, -1], [0, 1]])
    p = spec.params
    t = p.ctx["t"]
    assert p.s(0, 1) == t ** 1        # -omega_12
    assert p.t(0, 1) == t ** 0        # omega_21
    assert p.s(0, 1) * p.t(0, 1) == t ** (0 - (-1))
    assert p.q(0) == p.v() ** a2.cartan.d(0)


def test_multi_param_resolution(a2):
    spec = sp.multi_parameter(a2)
    p = spec.params
    qm = spec.meta["qmat"]
    a01 = a2.cartan.a(0, 1)
    assert qm[0][1] * qm[1][0] == qm[0][0] ** a01
    assert p.s(0, 1) == qm[1][0].unit_pow(Fraction(1, 2))
    assert p.t(0, 1) == qm[0][1].unit_pow(Fraction(-1, 2))
    # s_ij t_ij = (q_ji / q_ij)^{1/2}
    assert p.s(0, 1) * p.t(0, 1) == (qm[1][0] * qm[0][1].inv_unit()).unit_pow(
        Fraction(1, 2)
    )


def test_multi_param_c_at_simple_root(a2):
    spec = sp.multi_parameter(a2)
    p = spec.params
    qm = spec.meta["qmat"]
    for i in a2.index_set:
        for k in a2.index_set:
            got = TwistScalars(a2, p).c(i, a2.alpha[k])
            want = (qm[i][k] * qm[k][i].inv_unit()).unit_pow(Fraction(1, 2))
            assert got == want


def test_super1_tau_and_signs(a2):
    spec = sp.super_first(a2, eps={(0, 1): -1})
    p = spec.params
    assert spec.meta["tau"][0][1] == p.ctx.poly(-1)
    # p_ij^2 == p_i^{2 a_ij} holds regardless of the sign choice
    assert all(ok for _, ok in spec.constraints)


def test_super1_c_squares_to_one(a2):
    for order in ([0, 1], [1, 0]):
        spec = sp.super_first(a2, order=order)
        p = spec.params
        for i in a2.index_set:
            for lam in a2.weights_box(1):
                c = TwistScalars(a2, p).c(i, lam)
                assert c * c == p.ctx.one
                # sign/eps data only: the Laurent part of c is trivial
                _, mono = c.unit_mono()
                for idx, _e in p.ctx.mono_exps(mono):
                    assert p.ctx.vars[idx].kind == "sign"


def test_super1_trivial_choice_degenerates(a2):
    spec = sp.super_first(a2)
    p = spec.params
    # with all eps = +1 and the gammas still free, s_ij t_ij is a pure sign
    for i in a2.index_set:
        for j in a2.index_set:
            st = p.s(i, j) * p.t(i, j)
            assert st * st == p.ctx.one


def test_super1_collapses_to_trivial_twist(a2):
    """Sending every sign and free parameter to 1 kills the twist entirely."""
    from qtwist.coeffring import Context

    spec = sp.super_first(a2)
    p = spec.params
    out = Context()
    v2 = out.laurent("v", denom=2)
    images = {}
    for var in p.ctx.vars:
        images[var.name] = v2 if var.name == "v" else out.one
    for i in a2.index_set:
        assert substitute(p.q(i), images, out) == v2 ** a2.cartan.d(i)
        for j in a2.index_set:
            assert substitute(p.s(i, j), images, out) == out.one
            assert substitute(p.t(i, j), images, out) == out.one


def test_super2_images(a2):
    spec = sp.super_second(a2)
    p = spec.params
    v = p.ctx["v"]
    for i in a2.index_set:
        d = a2.cartan.d(i)
        assert p.s(i, i) * p.t(i, i) == v ** (-2 * d)
        for j in a2.index_set:
            if i < j:
                assert p.t(i, j) == p.ctx.one
                assert p.s(i, j) == (p.v() ** a2.cartan.d(i)) ** (-a2.cartan.a(i, j))


def test_super2_table_on_root_lattice_data():
    for name in ("a1xa1", "b2", "g2"):
        rd = rootdata.builtin(name)
        spec = sp.super_second(rd)
        rep = sp.verify_specialization(spec, rd.weights_box(1))
        assert rep.ok
        assert rep.summary["warn"] == 0, name


def test_super2_discrepancy_reported_off_root_span(a2):
    spec = sp.super_second(a2)
    rep = sp.verify_specialization(spec, a2.weights_box(1))
    assert rep.ok  # warnings, not failures
    warns = [c for c in rep.checks if c.status == "warn"]
    assert warns and all("off the root span" in c.witness for c in warns)
    # on the root span the table form holds
    on_span = [c for c in rep.checks if c.family == "ctable" and c.status == "pass"]
    assert on_span


# -- substitution maps --------------------------------------------------------------


@pytest.mark.parametrize("case", ("two-param", "multi-param", "super1", "super2"))
def test_sigma_is_ring_homomorphism(case, a2):
    spec = sp.make(case, a2)
    src = ParameterSet.v_tied(a2.cartan)
    rng = random.Random(5)
    names = list(spec.sigma)

    def rand_poly():
        acc = src.ctx.zero
        for _ in range(rng.randint(1, 4)):
            mono = [(name, rng.randint(-2, 2))
                    for name in rng.sample(names, k=rng.randint(0, 3))]
            term = src.ctx.poly(rng.randint(-3, 3))
            for name, e in mono:
                term = term * src.ctx[name] ** e
            acc = acc + term
        return acc

    for _ in range(20):
        a, b = rand_poly(), rand_poly()
        sa = substitute(a, spec.sigma, spec.params.ctx)
        sb = substitute(b, spec.sigma, spec.params.ctx)
        assert substitute(a * b, spec.sigma, spec.params.ctx) == sa * sb
        assert substitute(a + b, spec.sigma, spec.params.ctx) == sa + sb


def test_sigma_sends_st_to_collapsed_monomial(a2):
    spec = sp.two_parameter(a2, [[1, -1], [0, 1]])
    src = ParameterSet.v_tied(a2.cartan)
    t = spec.params.ctx["t"]
    prod = src.ctx["s12"] * src.ctx["t12"]
    assert substitute(prod, spec.sigma, spec.params.ctx) == t ** (0 - (-1))


def _v_tied_multiples(rd, window):
    """Record id -> the multiple of the iso correspondence over one fresh
    v-tied ring of rd."""
    src = ParameterSet.v_tied(rd.cartan)
    tw = TwistMap(rd, src)
    dst = {(r.family, r.i, r.j, r.lam, r.part): r for r in relations_of("scrUdot", rd, src, window)}
    out = {}
    for u in relations_of("Udot", rd, src, window):
        tgt = dst[(u.family, u.i, u.j, u.lam, u.part)]
        out["iso:" + u.id] = tw.forward(u.expr).multiple_of(tgt.expr).simplified()
    return out


def _pushed_multiples(multiples, spec, sigma):
    """Record id -> the v-tied multiple pushed through sigma, as printed."""
    ctx = spec.params.ctx
    return {k: str(substitute(n, sigma, ctx).simplified()) for k, n in multiples.items()}


@pytest.mark.parametrize(
    "case, kwargs",
    [("two-param", {}), ("multi-param", {}), ("super1", {}), ("super2", {}),
     ("super1", {"order": [1, 0], "eps": {(0, 1): -1}})],
    ids=["two-param", "multi-param", "super1", "super2", "super1-order21-eps12"],
)
def test_sigma_carries_the_v_tied_proof(case, kwargs, a2):
    """Every multiple of the v-tied correspondence, pushed through sigma,
    prints exactly the scalar the campaign recomputes in the target ring;
    with the images of s12 and s21 swapped, 120 of the 459 differ."""
    spec = sp.make(case, a2, **kwargs)
    assert set(spec.sigma) == {x.name for x in ParameterSet.v_tied(a2.cartan).ctx.vars}
    window = a2.weights_box(1)
    rep = verify_twist_isomorphism(spec.rd, spec.params, window)
    assert rep.summary == {"pass": 459, "fail": 0, "warn": 0}
    want = {c.id: c.scalar for c in rep.checks}
    multiples = _v_tied_multiples(a2, window)
    assert _pushed_multiples(multiples, spec, spec.sigma) == want
    swapped = dict(spec.sigma)
    swapped["s12"], swapped["s21"] = spec.sigma["s21"], spec.sigma["s12"]
    got = _pushed_multiples(multiples, spec, swapped)
    assert sum(got[k] != want[k] for k in want) == 120


def test_one_v_tied_proof_specializes_to_every_case(a2):
    """sigma is keyed by parameter name, so the multiples of one v-tied ring,
    built once, push through each case's sigma to the 459 scalars that
    case's campaign recomputes in its target ring."""
    window = a2.weights_box(1)
    multiples = _v_tied_multiples(a2, window)
    assert len(multiples) == 459
    for case in sp.CASES:
        spec = sp.make(case, a2)
        rep = verify_twist_isomorphism(spec.rd, spec.params, window)
        want = {c.id: c.scalar for c in rep.checks}
        assert _pushed_multiples(multiples, spec, spec.sigma) == want, case


# -- specialized campaigns ------------------------------------------------------------


@pytest.mark.parametrize("case", ("two-param", "multi-param", "super1", "super2"))
def test_specialized_isomorphism_a1(case):
    rd = rootdata.builtin("a1")
    spec = sp.make(case, rd)
    rep = verify_twist_isomorphism(rd, spec.params, rd.weights_box(2))
    assert rep.ok, rep.failures()[:3]


def test_super1_nondefault_order_and_signs_campaign(a2):
    spec = sp.super_first(a2, order=[1, 0], eps={(0, 1): -1, (1, 0): -1})
    assert all(ok for _, ok in spec.constraints)
    rep = verify_twist_isomorphism(a2, spec.params, [a2.zero_weight(), (1, 0, -1), (-1, 2, 0)])
    assert rep.ok, rep.failures()[:3]


def test_make_rejects_unknown_case(a2):
    with pytest.raises(sp.SpecializationError):
        sp.make("three-param", a2)


def test_super1_rejects_bad_inputs(a2):
    with pytest.raises(sp.SpecializationError):
        sp.super_first(a2, order=[0, 0])
    with pytest.raises(sp.SpecializationError):
        sp.super_first(a2, eps={(0, 1): 2})
    for pair in ((4, 6), (-1, 0), (0, 2)):
        with pytest.raises(sp.SpecializationError, match="outside the index set"):
            sp.super_first(a2, eps={pair: -1})
