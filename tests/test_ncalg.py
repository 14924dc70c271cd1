"""Graded words, bicharacters, K-straightening, twisted tensor products."""

import itertools
import random

import pytest
from oracles import qfact

from qtwist import rootdata, specializations
from qtwist.ncalg import (
    NCExpr,
    StraightenRules,
    TensorExpr,
    bichar,
    grade,
    pair_twist,
    straighten,
    tmul,
)
from qtwist.params import ParameterSet
from qtwist.presentations import PathExpr, PathWord


@pytest.fixture()
def setup():
    rd = rootdata.builtin("a2")
    p = ParameterSet.generic(rd.cartan)
    return rd, p, StraightenRules(rd, p)


def test_grade(setup):
    rd, p, _ = setup
    assert grade((("E", 0), ("F", 0)), 2) == (0, 0)
    assert grade((("E", 0), ("E", 0), ("E", 1)), 2) == (2, 1)
    assert grade((("K", 0), ("E", 1)), 2) == (0, 1)


def test_bichar_values(setup):
    rd, p, _ = setup
    assert bichar(p, "t", (0, 0), (1, 1)) == p.ctx.one
    assert bichar(p, "t", (1, 0), (0, 1)) == p.t(0, 1)
    assert bichar(p, "s", (1, 0), (0, 1)) == p.s(0, 1)


def test_bichar_law(setup):
    rd, p, _ = setup
    rng = random.Random(1)
    for _ in range(30):
        mu = tuple(rng.randint(-2, 2) for _ in range(2))
        mu2 = tuple(rng.randint(-2, 2) for _ in range(2))
        nu = tuple(rng.randint(-2, 2) for _ in range(2))
        for fam in ("s", "t"):
            lhs = bichar(p, fam, tuple(a + b for a, b in zip(mu, mu2)), nu)
            assert lhs == bichar(p, fam, mu, nu) * bichar(p, fam, mu2, nu)
            lhs = bichar(p, fam, nu, tuple(a + b for a, b in zip(mu, mu2)))
            assert lhs == bichar(p, fam, nu, mu) * bichar(p, fam, nu, mu2)


def test_straighten_basic_moves(setup):
    rd, p, rules = setup
    # E2 K1 picks up s12 t12 q1^{-a12}
    nf = straighten(NCExpr.word(p, (("E", 1), ("K", 0))), rules)
    ((w, c),) = nf.terms.items()
    assert w == (("K", 0), ("E", 1))
    assert c == p.rat(p.s(0, 1) * p.t(0, 1) * p.q(0) ** (-rd.cartan.a(0, 1)))

    # inverses cancel
    nf = straighten(NCExpr.word(p, (("K", 0), ("Kinv", 0), ("E", 0))), rules)
    assert nf == NCExpr.word(p, (("E", 0),))

    # two hops across E1 E1
    nf = straighten(NCExpr.word(p, (("E", 0), ("E", 0), ("K", 0))), rules)
    ((w, c),) = nf.terms.items()
    assert w == (("K", 0), ("E", 0), ("E", 0))
    assert c == p.rat((p.s(0, 0) * p.t(0, 0)) ** 2 * p.q(0) ** -4)

    # an already-straight word is fixed
    word = NCExpr.word(p, (("K", 0), ("E", 0), ("E", 0)))
    assert straighten(word, rules) == word


def _random_word(rng, n_idx, maxlen):
    kinds = ("E", "F", "K", "Kinv", "Kp", "Kpinv")
    return tuple(
        (rng.choice(kinds), rng.randrange(n_idx)) for _ in range(rng.randint(0, maxlen))
    )


def test_straighten_idempotent_and_multiplicative(setup):
    rd, p, rules = setup
    rng = random.Random(7)
    for _ in range(25):
        w1 = _random_word(rng, 2, 3)
        w2 = _random_word(rng, 2, 3)
        x = NCExpr.word(p, w1)
        y = NCExpr.word(p, w2)
        nf_xy = straighten(x * y, rules)
        assert straighten(nf_xy, rules) == nf_xy
        assert straighten(straighten(x, rules) * straighten(y, rules), rules) == nf_xy


_INVERSE = {"K": "Kinv", "Kinv": "K", "Kp": "Kpinv", "Kpinv": "Kp"}


def _split_word_pair(rng, n_idx):
    """Two random words with a K-type symbol in the first whose inverse sits
    in the second, so the pair cancels only across the factor boundary."""
    w1 = list(_random_word(rng, n_idx, 3))
    w2 = list(_random_word(rng, n_idx, 3))
    sym = (rng.choice(tuple(_INVERSE)), rng.randrange(n_idx))
    w1.insert(rng.randint(0, len(w1)), sym)
    w2.insert(rng.randint(0, len(w2)), (_INVERSE[sym[0]], sym[1]))
    return tuple(w1), tuple(w2)


def _random_coeff(rng, p):
    return p.rat(p.s(rng.randrange(p.cartan.n), rng.randrange(p.cartan.n)) ** rng.randint(-2, 2)
                 * rng.choice((1, -2, 3)))


@pytest.mark.parametrize("name", ["a2", "g2"])
@pytest.mark.parametrize("make", [ParameterSet.v_tied, ParameterSet.generic], ids=["v-tied", "generic"])
def test_straightening_factors_first_is_exact(name, make):
    """nf(nf(x) nf(y)) == nf(x y), and its tensor form, which is what lets a
    product of many factors be straightened as it grows."""
    rd = rootdata.builtin(name)
    p = make(rd.cartan)
    rules = StraightenRules(rd, p)
    nf = lambda x: straighten(x, rules)
    tnf = lambda x: x.straighten(rules)
    n = rd.cartan.n
    rng = random.Random(11)
    for _ in range(20):
        x, y = NCExpr.zero(p), NCExpr.zero(p)
        for _ in range(3):
            w1, w2 = _split_word_pair(rng, n)
            x = x + NCExpr.word(p, w1, _random_coeff(rng, p))
            y = y + NCExpr.word(p, w2, _random_coeff(rng, p))
        assert nf(nf(x) * nf(y)) == nf(x * y)
    for arity in (2, 3):
        for _ in range(15):
            xt, yt = {}, {}
            for _ in range(3):
                pairs = [_split_word_pair(rng, n) for _ in range(arity)]
                xt[tuple(a for a, _ in pairs)] = _random_coeff(rng, p)
                yt[tuple(b for _, b in pairs)] = _random_coeff(rng, p)
            x, y = TensorExpr(p, xt), TensorExpr(p, yt)
            assert tnf(tmul(tnf(x), tnf(y))) == tnf(tmul(x, y))


def _twist_rings():
    """(label, a2 parameter set) for the generic, v-tied and untied rings
    (q_i = v^2, not v^{d_i}) and each specializations case's ring; super1's
    holds sign variables."""
    rd = rootdata.builtin("a2")
    tied = ParameterSet.v_tied(rd.cartan)
    v, idx = tied.v(), rd.index_set
    untied = ParameterSet(rd.cartan, tied.ctx, [v**2 for _ in idx],
                          [[tied.s(i, j) for j in idx] for i in idx],
                          [[tied.t(i, j) for j in idx] for i in idx], v=v, label="untied")
    rings = [("generic", ParameterSet.generic(rd.cartan)), ("v-tied", tied), ("untied", untied)]
    return rings + [(case, specializations.make(case, rd).params) for case in specializations.CASES]


_TWIST_RINGS = _twist_rings()


@pytest.mark.parametrize("label, p", _TWIST_RINGS, ids=[label for label, _ in _TWIST_RINGS])
def test_memoised_pair_twist_is_the_bichar_product(label, p):
    """pair_twist's unit is t(l, r) s(r, l) for every degree pair in
    [-3, 3]^n, both when it fills the memo and when it reads it back."""
    degrees = list(itertools.product(range(-3, 4), repeat=p.cartan.n))
    want = {(l, r): bichar(p, "t", l, r) * bichar(p, "s", r, l) for l in degrees for r in degrees}
    for _ in range(2):
        for (l, r), twist in want.items():
            assert p.ctx.one.times_unit(*pair_twist(p, l, r)) == twist, (label, l, r)


@pytest.mark.parametrize("name, case", [("a2", "generic"), ("g2", "v-tied"), ("a2", "super1")])
def test_memoised_straightened_word_is_a_fresh_walk(name, case):
    """A word straightened through rules that have already straightened many
    others, including its own letters in other orders, gets the normal form
    and scalar of a walk through fresh rules."""
    rd = rootdata.builtin(name)
    makers = {"generic": ParameterSet.generic, "v-tied": ParameterSet.v_tied}
    p = makers[case](rd.cartan) if case in makers else specializations.make(case, rd).params
    rules = StraightenRules(rd, p)
    rng = random.Random(5)
    words = [_random_word(rng, rd.cartan.n, 6) for _ in range(100)]
    words += [tuple(rng.sample(w, len(w))) for w in words]
    for _ in range(2):
        for w in words:
            x = NCExpr.word(p, w)
            assert straighten(x, rules) == straighten(x, StraightenRules(rd, p)), w
    pairs = [TensorExpr(p, {(w1, w2): p.one()}) for w1, w2 in zip(words, reversed(words))]
    for t in pairs:
        assert t.straighten(rules) == t.straighten(StraightenRules(rd, p))


def test_straighten_preserves_grade(setup):
    rd, p, rules = setup
    rng = random.Random(8)
    for _ in range(25):
        w = _random_word(rng, 2, 5)
        nf = straighten(NCExpr.word(p, w), rules)
        for w2 in nf.terms:
            assert grade(w2, 2) == grade(w, 2)


def test_tmul_unit_twists(setup):
    rd, p, _ = setup
    x = TensorExpr.of(NCExpr.word(p, (("E", 0), ("F", 1))), NCExpr.unit(p))
    y = TensorExpr.of(NCExpr.word(p, (("K", 1),)), NCExpr.unit(p))
    prod = tmul(x, y)
    ((key, c),) = prod.terms.items()
    assert key == ((("E", 0), ("F", 1), ("K", 1)), ())
    assert c == p.rat(1)


def test_tmul_lowering_twist(setup):
    rd, p, _ = setup
    a = TensorExpr.of(NCExpr.unit(p), NCExpr.word(p, (("F", 0),)))
    b = TensorExpr.of(NCExpr.word(p, (("F", 1),)), NCExpr.unit(p))
    prod = tmul(a, b)
    ((key, c),) = prod.terms.items()
    assert key == ((("F", 1),), (("F", 0),))
    assert c == p.rat(p.t(0, 1) * p.s(1, 0))


def test_tmul_ke_commutation(setup):
    rd, p, rules = setup
    KE = TensorExpr.of(NCExpr.word(p, (("K", 0),)), NCExpr.word(p, (("E", 0),)))
    E1 = TensorExpr.of(NCExpr.word(p, (("E", 0),)), NCExpr.unit(p))
    lhs = tmul(KE, E1).straighten(rules)
    rhs = tmul(E1, KE).scale(p.q(0) ** 2).straighten(rules)
    assert lhs == rhs


def test_tmul_associative_on_random_tensors(setup):
    rd, p, rules = setup
    rng = random.Random(9)
    for _ in range(15):
        xs = [
            TensorExpr.of(
                NCExpr.word(p, _random_word(rng, 2, 2)),
                NCExpr.word(p, _random_word(rng, 2, 2)),
            )
            for _ in range(3)
        ]
        a, b, c = xs
        assert tmul(tmul(a, b), c) == tmul(a, tmul(b, c))


def test_tmul_threefold_rule(setup):
    rd, p, _ = setup
    E = lambda i: NCExpr.word(p, (("E", i),))
    one = NCExpr.unit(p)
    x = TensorExpr.of(one, E(0), E(1))
    y = TensorExpr.of(E(1), E(0), one)
    prod = tmul(x, y)
    ((key, c),) = prod.terms.items()
    assert key == ((("E", 1),), (("E", 0), ("E", 0)), (("E", 1),))
    x23 = (1, 1)  # degree of slots 2+3 of x
    expected = (
        bichar(p, "t", x23, (0, 1))
        * bichar(p, "s", (0, 1), x23)
        * bichar(p, "t", (0, 1), (1, 0))
        * bichar(p, "s", (1, 0), (0, 1))
    )
    assert c == p.rat(expected)


def test_tmul_arity_mismatch(setup):
    rd, p, _ = setup
    with pytest.raises(ValueError):
        tmul(TensorExpr.unit(p, 2), TensorExpr.unit(p, 3))


def _two_basis_elements(kind, rd, p):
    """Two distinct basis elements of one LinComb kind, and its zero."""
    if kind == "NCExpr":
        return NCExpr.word(p, (("E", 0),)), NCExpr.word(p, (("F", 1), ("K", 0))), NCExpr.zero(p)
    if kind == "TensorExpr":
        a = TensorExpr(p, {((("E", 0),), ()): p.one()})
        b = TensorExpr(p, {((("K", 0),), (("E", 0),)): p.one()})
        return a, b, TensorExpr.zero(p)
    lam = rd.zero_weight()
    a = PathExpr.word(p, PathWord(rd, lam, (("E", 0),)))
    b = PathExpr.word(p, PathWord(rd, lam, (("F", 1), ("E", 0))))
    return a, b, PathExpr.zero(p)


def _generic_multiple(x, target):
    """multiple_of by its definition: one fraction division at target's
    largest key, and every other key compared as fractions."""
    if target.is_zero():
        return x.params.rat(1) if x.is_zero() else None
    if x.terms.keys() != target.terms.keys():
        return None
    ref = max(target.terms, key=target._order)
    n = x.terms[ref] / target.terms[ref]
    return n if all(x.terms[k] == n * c for k, c in target.terms.items()) else None


def _multiple_cases(p, a, b):
    """(x, target) pairs for multiple_of: a unit and a non-unit coefficient
    at target's largest key, a unit over 1/[2]! on both
    keys, and denominators that differ between the keys or between x and
    target; each multiple is a unit (with coefficients -1 and 2), a
    polynomial, 1/[2]! or a fraction, and each x is also perturbed at the
    smaller key so that it is no multiple."""
    hi, lo = sorted((a, b), key=lambda e: e._order(next(iter(e.terms))), reverse=True)
    unit = p.t(1, 0) * p.q(0)
    poly = p.q(0) + 1
    inv_fact = p.rat(1) / p.rat(qfact(2, p.q(0)))
    targets = [
        hi.scale(unit) + lo.scale(poly),
        hi.scale(poly) + lo.scale(unit),
        hi.scale(inv_fact * unit) + lo.scale(inv_fact),
        hi.scale(unit) + lo.scale(inv_fact),
    ]
    multiples = [p.rat(unit), p.rat(-unit), p.rat(2 * unit), p.rat(poly), inv_fact,
                 p.rat(unit) / p.rat(p.q(1) + 2)]
    for target in targets:
        for n in multiples:
            x = target.scale(n)
            yield x, target
            yield x + lo.scale(p.q(1)), target


@pytest.mark.parametrize("kind", ["NCExpr", "TensorExpr", "PathExpr"])
def test_multiple_of(setup, kind):
    rd, p, _ = setup
    a, b, zero = _two_basis_elements(kind, rd, p)
    assert zero.multiple_of(zero) == p.rat(1)
    assert a.multiple_of(zero) is None
    assert a.multiple_of(b) is None
    assert (a + b).multiple_of(a) is None
    assert (a.scale(2) + b.scale(3)).multiple_of(a + b) is None
    target = a.scale(p.s(0, 1)) + b.scale(p.rat(p.q(0) + 1))
    n = p.rat(p.t(1, 0)) / p.rat(p.q(1) + 2)
    got = target.scale(n).multiple_of(target)
    assert got == n
    assert target.scale(n) == target.scale(got)
    # N has the num and den terms of its definition, in the generic ring and
    # in super1, whose units carry sign variables
    super1 = specializations.make("super1", rd).params
    ((mono, _),) = (super1.t(1, 0) * super1.q(0)).terms.items()
    assert any(idx in super1.ctx.sign_indices for idx, _ in super1.ctx.mono_exps(mono))
    for ring in (p, super1):
        a, b, _ = _two_basis_elements(kind, rd, ring)
        found = 0
        for x, target in _multiple_cases(ring, a, b):
            want, got = _generic_multiple(x, target), x.multiple_of(target)
            if want is None:
                assert got is None, (x, target)
            else:
                found += 1
                assert got is not None, (x, target)
                assert (got.num.terms, got.den.terms) == (want.num.terms, want.den.terms), (
                    x, target)
        assert found == 24


@pytest.mark.parametrize("cls", [NCExpr, TensorExpr, PathExpr], ids=lambda c: c.__name__)
def test_expression_kinds_differ_only_in_their_basis(cls):
    """Each expression kind inherits its state, constructors, sum and
    equality from LinComb and adds only its basis."""
    assert cls.__slots__ == ()
    own = {"__init__", "_new", "__add__", "__eq__", "zero"} & set(vars(cls))
    assert not own, own
