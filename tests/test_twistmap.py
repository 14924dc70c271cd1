"""Rescaling scalars, the twist map, and the isomorphism verification."""

import collections
import random
import weakref

import pytest

from qtwist import rootdata, specializations, twistmap
from qtwist.coeffring import LaurentPoly, RatExpr, RingError
from qtwist.ncalg import grade
from qtwist.params import ParameterSet, twist_character
from qtwist.presentations import (PathExpr, PathWord, divided_power, idempotent, modified_relations,
                                  relations_of)
from qtwist.twistmap import (
    TwistMap,
    TwistScalars,
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
    """The shift laws of e and f, the crossing law, and e f = c^-1, for every
    index pair and every weight of the a2 box 1."""
    rd = rootdata.builtin("a2")
    p = ParameterSet.v_tied(rd.cartan)
    sc = TwistScalars(rd, p)
    for i in rd.index_set:
        for j in rd.index_set:
            for lam in rd.weights_box(1):
                mu = rd.add_root(lam, j, +1)
                tag = (i, j, lam)
                assert sc.e(i, mu) == sc.e(i, lam) * p.s(i, j), ("shift-e",) + tag
                assert sc.f(i, mu) == sc.f(i, lam) * p.t(i, j), ("shift-f",) + tag
                cross = sc.e(i, lam) * sc.f(j, rd.add_root(mu, i, -1)) * p.s(i, j) * p.t(j, i)
                assert sc.f(j, mu) * sc.e(i, mu) == cross, ("cross",) + tag
                if i == j:
                    assert sc.e(i, lam) * sc.f(i, lam) == sc.c(i, lam).inv_unit(), ("ef-c",) + tag


def test_map_fixes_idempotents_and_scales_arrows(a1):
    rd, p = a1
    tw = TwistMap(rd, p)
    lam = (1, -1)
    u = idempotent(rd, p, lam)
    assert tw.forward(u) == u
    e = PathExpr.word(p, PathWord(rd, lam, (("E", 0),)))
    img = tw.forward(e)
    ((w, c),) = img.terms.items()
    assert w.steps == (("E", 0),)
    assert c == p.rat(tw.scalars.e(0, lam))
    f = PathExpr.word(p, PathWord(rd, rd.add_root(lam, 0, -1), (("F", 0),)))
    img = tw.backward(f)
    ((w, c),) = img.terms.items()
    assert c == p.rat(tw.scalars.f(0, lam).inv_unit())


def _walk_scalar(tw, word, invert):
    """The word scalar by walking every step from the target: e at the step
    target for raising steps, f at the step source for lowering steps."""
    out = tw.params.ctx.one
    lam = word.target
    for kind, i in word.steps:
        if kind == "E":
            out = out * tw.scalars.e(i, lam)
            lam = tw.rd.add_root(lam, i, -1)
        else:
            lam = tw.rd.add_root(lam, i, +1)
            out = out * tw.scalars.f(i, lam)
    return out.inv_unit() if invert and not out.is_one() else out


def _ring(case, rd):
    if case == "v-tied":
        return ParameterSet.v_tied(rd.cartan)
    # super1 as --order 2,1 --signs 1,2,-1 where the index set has two elements
    kwargs = dict(order=[1, 0], eps={(0, 1): -1}) if case == "super1" and rd.n == 2 else {}
    return specializations.make(case, rd, **kwargs).params


def _assert_map_matches_walk(rd, p):
    """forward and backward of every Udot instance over the box 1 equal, term
    by term and structurally, the coefficient times the step walk's scalar
    through the generic LaurentPoly.__mul__, over the same denominator.
    Returns the walk scalars' coefficients and the largest coefficient's
    term count."""
    tw = TwistMap(rd, p)
    instances = relations_of("Udot", rd, p, rd.weights_box(1))
    assert any(w.steps for inst in instances for w in inst.expr.terms)
    coefficients, widest = set(), 0
    for inst in instances:
        for invert, image in ((False, tw.forward(inst.expr)), (True, tw.backward(inst.expr))):
            assert image.terms.keys() == inst.expr.terms.keys()
            for w, c in inst.expr.terms.items():
                scalar = _walk_scalar(tw, w, invert)
                got = image.terms[w]
                assert got.num.terms == (c.num * scalar).terms, (inst.id, str(w), invert)
                assert got.den.terms == c.den.terms, (inst.id, str(w), invert)
                coefficients.add(scalar.unit_mono()[0])
                widest = max(widest, len(c.num.terms))
    return coefficients, widest


@pytest.mark.parametrize("case", ["v-tied", "two-param", "multi-param", "super1", "super2"])
@pytest.mark.parametrize("name", ["a1", "a1xa1", "a2", "b2", "g2"])
def test_word_scalar_matches_step_walk(name, case):
    """The character rule (the steps' scalar at target 0 times
    prod e^{#E_i} f^{#F_i} at the target), applied as an exponent shift,
    equals the step walk on every Udot instance over the box 1, both ways,
    in rings with sign variables (super1) and half exponents, and
    on the multi-term coefficients of the Serre instances."""
    rd = rootdata.builtin(name)
    p = _ring(case, rd)
    _, widest = _assert_map_matches_walk(rd, p)
    assert widest > 1
    assert bool(p.ctx.sign_indices) == (case == "super1")
    if case != "v-tied":
        assert any(v.denom == 2 for v in p.ctx.vars)


def _relabelled(name, sigma, pi):
    """The built-in datum with root a renamed sigma[a] and lattice coordinate k
    read from pi[k]; the pairing stays the identity, so permuting X and Y
    together keeps every pairing."""
    rd = rootdata.builtin(name)

    def rows(m):
        return [[m[sigma[a]][pi[k]] for k in range(rd.x_rank)] for a in range(rd.n)]

    return rootdata.from_dict({
        "I_size": rd.n,
        "dot": [[rd.cartan.dot[sigma[a]][sigma[b]] for b in range(rd.n)] for a in range(rd.n)],
        "X_rank": rd.x_rank,
        "alpha": rows(rd.alpha),
        "coroot": rows(rd.coroot),
        "coweight": rows(rd.coweight),
    }, name=name + "-relabelled")


def _a3_gl4():
    a3 = [[1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1]]
    return rootdata.from_dict({
        "I_size": 3,
        "dot": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
        "X_rank": 4,
        "alpha": a3,
        "coroot": a3,
        "coweight": [[1, 0, 0, 0], [1, 1, 0, 0], [1, 1, 1, 0]],
    }, name="a3-gl4")


def _with_coefficients(rd, c):
    """The v-tied parameters with s_12 and t_21 times the rational c, q still
    tied to v: e(1, .) and f(2, .) then carry a coefficient character."""
    p = ParameterSet.v_tied(rd.cartan)
    idx = rd.index_set
    s = [[p.s(i, j) * (c if (i, j) == (0, 1) else 1) for j in idx] for i in idx]
    t = [[p.t(i, j) * (c if (i, j) == (1, 0) else 1) for j in idx] for i in idx]
    return ParameterSet(rd.cartan, p.ctx, [p.q(i) for i in idx], s, t, v=p.v(),
                        label="coefficient %s" % c)


# a rank-3 datum, permuted lattices with relabelled roots, and the a2
# parameters with coefficients other than 1 on s_12 and t_21, as (datum,
# coefficient or None)
_LATTICES = [
    lambda: (_a3_gl4(), None),
    lambda: (_relabelled("a2", (1, 0), (2, 0, 1)), None),
    lambda: (_relabelled("g2", (1, 0), (1, 0)), None),
    lambda: (rootdata.builtin("a2"), -1),
    lambda: (rootdata.builtin("a2"), 2),
]
_LATTICE_IDS = ["a3-gl4", "a2-relabelled", "g2-relabelled", "a2-coefficient-minus-one",
                "a2-coefficient-two"]


def _lattice_params(build):
    rd, c = build()
    return rd, c, ParameterSet.v_tied(rd.cartan) if c is None else _with_coefficients(rd, c)


@pytest.mark.parametrize("build", _LATTICES, ids=_LATTICE_IDS)
def test_characters_match_step_walk(build):
    """The letters' characters, built from the parameters, give the step
    walk's scalar, both ways, on every Udot instance over the box 1 of a
    rank-3 datum, of permuted lattices with relabelled roots, and with
    coefficients other than 1 on s_12 and t_21."""
    rd, c, p = _lattice_params(build)
    coefficients, _ = _assert_map_matches_walk(rd, p)
    assert coefficients == {1} if c is None else c in coefficients


def _assert_scalars_match_parameter_powers(rd, p):
    """TwistScalars e, f and c equal, structurally at every weight of the
    box 1, prod_j base(i, j)^{lam(j)} with base s for e, t for f and
    (s t)^-1 for c, each power taken in the ring and multiplied by
    LaurentPoly.__mul__."""
    sc = TwistScalars(rd, p)
    bases = {"e": p.s, "f": p.t, "c": lambda i, j: (p.s(i, j) * p.t(i, j)).inv_unit()}
    for kind, base in bases.items():
        for i in rd.index_set:
            for lam in rd.weights_box(1):
                want = p.ctx.one
                for j in rd.index_set:
                    want = want * base(i, j) ** rd.lambda_paren(lam, j)
                assert getattr(sc, kind)(i, lam).terms == want.terms, (p.label, kind, i, lam)


@pytest.mark.parametrize("name", ["a1", "a1xa1", "a2", "b2", "g2"])
def test_scalars_match_parameter_powers(name):
    """The one definition of e, f and c, a character built once from the
    parameters, in the v-tied, sign-variable and half-exponent rings."""
    rd = rootdata.builtin(name)
    for case in ["v-tied", "two-param", "multi-param", "super1", "super2"]:
        _assert_scalars_match_parameter_powers(rd, _ring(case, rd))


@pytest.mark.parametrize("build", _LATTICES, ids=_LATTICE_IDS)
def test_lattice_scalars_match_parameter_powers(build):
    """The same on a rank-3 datum, permuted lattices and coefficients other than 1."""
    rd, _, p = _lattice_params(build)
    _assert_scalars_match_parameter_powers(rd, p)


def test_character_out_of_range_is_refused_when_built():
    """A character is built through Context.mono, so the range guard holds
    when it is made: a datum built without validation whose coweight form
    gives s a scaled exponent of 2^32 or more is a RingError at
    twist_character, for every kind, not at some later evaluation."""
    a1 = rootdata.builtin("a1")
    p = ParameterSet.v_tied(a1.cartan)
    for coweight in (((2**31, 2**31 - 1),), ((-2**31 + 1, -2**31),)):
        rd = rootdata.RootDatum(a1.cartan, a1.x_rank, a1.alpha, a1.coroot, coweight)
        for kind in "efc":
            with pytest.raises(RingError, match="out of range"):
                twist_character(rd, p, kind, 0)
    ok = ((2**30, 2**30 - 1),)
    rd = rootdata.RootDatum(a1.cartan, a1.x_rank, a1.alpha, a1.coroot, ok)
    for kind in "efc":
        twist_character(rd, p, kind, 0)


def _spy(monkeypatch, calls, cls, name):
    """Count the calls of cls.name in calls, under the key "cls.name"."""
    original = getattr(cls, name)
    key = "%s.%s" % (cls.__name__, name)

    def counted(*args, **kwargs):
        calls[key] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(cls, name, counted)


def test_word_scalars_read_no_scalar_per_letter(monkeypatch):
    """Building the map and forwarding every a2 box-2 Udot instance reads no
    TwistScalars value: the letters are the characters, and each step
    tuple's scalar at target 0 is their forms at the steps' offsets."""
    calls = collections.Counter()
    for cls, name in [(TwistScalars, "e"), (TwistScalars, "f"), (TwistScalars, "c")]:
        _spy(monkeypatch, calls, cls, name)
    rd = rootdata.builtin("a2")
    p = ParameterSet.v_tied(rd.cartan)
    instances = relations_of("Udot", rd, p, rd.weights_box(2))
    calls.clear()
    tw = TwistMap(rd, p)
    words = 0
    for inst in instances:
        words += len(inst.expr.terms)
        tw.forward(inst.expr)
    assert words > 10 * len(tw._steps) > 10
    assert sum(calls.values()) == 0, calls


def _record_pairs(rd, p, window):
    """(untwisted instance, matching twisted instance) for every record."""
    targets = {(r.family, r.i, r.j, r.lam, r.part): r for r in relations_of("scrUdot", rd, p, window)}
    return [(r, targets[r.family, r.i, r.j, r.lam, r.part])
            for r in relations_of("Udot", rd, p, window)]


def test_map_and_unit_multiples_shift_exponents(monkeypatch):
    """The rescaling map and the exact multiple of a passing iso record only
    shift exponents.  Forwarding every a2 box-2 Udot instance takes no
    polynomial or fraction product.  A passing iso or
    dp-unit record (TwistMap.multiple) applies no map, builds no PathExpr
    and divides or multiplies no fraction."""
    rd = rootdata.builtin("a2")
    p = ParameterSet.v_tied(rd.cartan)
    calls = collections.Counter()
    spied = [(LaurentPoly, "__mul__"), (RatExpr, "__mul__"), (RatExpr, "__truediv__")]
    instances = relations_of("Udot", rd, p, rd.weights_box(2))
    tw = TwistMap(rd, p)
    for cls, name in spied:
        _spy(monkeypatch, calls, cls, name)
    words = 0
    for inst in instances:
        words += len(inst.expr.terms)
        tw.forward(inst.expr)
    assert words > 10 * len(tw._steps) > 10
    assert sum(calls.values()) == 0, calls
    monkeypatch.undo()

    # a passing record: the a2 box-1 iso campaign, given its instance pairs,
    # and the divided powers at l = 0..4, in integral form [l]! E^(l)
    window = rd.weights_box(1)
    built = list(modified_relations(rd, (p.untwisted(), p), window))
    dps = [(divided_power(kind, i, l, lam, rd, p.untwisted()), divided_power(kind, i, l, lam, rd, p))
           for kind in ("E", "F") for i in rd.index_set for l in range(5) for lam in window]
    assert all(c.is_poly() for dp in dps for x in dp for c in x.terms.values())
    monkeypatch.setattr(twistmap, "modified_relations", lambda *args: built)
    calls.clear()
    for cls, name in [(TwistMap, "_apply"), (PathExpr, "__init__"), (RatExpr, "__truediv__"),
                      (RatExpr, "__mul__")]:
        _spy(monkeypatch, calls, cls, name)
    rep = verify_twist_isomorphism(rd, p, window)
    assert rep.ok and len(rep.checks) > 400
    for dp_u, dp_s in dps:
        n = tw.multiple(dp_u, dp_s)
        assert n.is_poly() and n.num.unit_mono() is not None
    assert sum(calls.values()) == 0, calls
    # the integrality campaign maps only in its round trips, four maps per
    # generator, and takes each dp-unit record's coefficient from multiple
    _spy(monkeypatch, calls, TwistMap, "multiple")
    rep = verify_integrality(rd, p, window)
    units = [c for c in rep.checks if c.family == "dp"]
    assert rep.ok and len(units) == len(dps) == calls["TwistMap.multiple"]
    assert calls["TwistMap._apply"] == 4 * (len(rep.checks) - len(units))
    assert calls["RatExpr.__truediv__"] == calls["RatExpr.__mul__"] == 0


def test_clean_iso_records_take_no_polynomial_product(monkeypatch):
    """A passing iso or dp-unit record compares its unit multiple N with its
    closed form as packed units and prints N by the one-term rule: with the
    a2 box-1 instances built, the iso and integrality campaigns make no
    polynomial product or power."""
    rd = rootdata.builtin("a2")
    p = ParameterSet.v_tied(rd.cartan)
    window = rd.weights_box(1)
    built = list(modified_relations(rd, (p.untwisted(), p), window))
    monkeypatch.setattr(twistmap, "modified_relations", lambda *args: built)
    calls = collections.Counter()
    for name in ("__mul__", "__pow__", "unit_pow"):
        _spy(monkeypatch, calls, LaurentPoly, name)
    iso, integrality = (verify_twist_isomorphism(rd, p, window),
                        verify_integrality(rd, p, window))
    assert iso.summary == {"pass": 459, "fail": 0, "warn": 0}
    assert integrality.summary == {"pass": 702, "fail": 0, "warn": 0}
    assert sum(calls.values()) == 0, calls


def _assert_same_multiple(tw, x, target):
    """TwistMap.multiple(x, target) is forward(x).multiple_of(target),
    structurally: the same num and den terms, or both None.  Returns it."""
    want, got = tw.forward(x).multiple_of(target), tw.multiple(x, target)
    if want is None:
        assert got is None
    else:
        assert got is not None
        assert (got.num.terms, got.den.terms) == (want.num.terms, want.den.terms)
    return got


def _perturbed(target, v):
    """target with the coefficient of its largest or of its smallest word
    times 1 + v or over 1 + v, with one word dropped, scaled by the non-unit
    1 + v, and zero."""
    words = sorted(target.terms, key=target._order)
    out = [target.scale(1 + v), target._new({})]
    for factor in (target.params.rat(1 + v), target.params.rat(1 + v).inv()):
        for w in (words[0], words[-1]):
            out.append(target._new({k: c * factor if k is w else c for k, c in target.terms.items()}))
    if len(words) > 1:
        out.append(target._new({k: c for k, c in target.terms.items() if k is not words[0]}))
    return out


@pytest.mark.parametrize(
    "name, case",
    [("a1", "v-tied"), ("a2", "v-tied"), ("b2", "v-tied"), ("g2", "v-tied"),
     ("a2", "two-param"), ("a2", "multi-param"), ("a2", "super1"), ("a2", "super2"),
     ("a2", "coefficient-two")],
)
def test_multiple_matches_forward_then_multiple_of(name, case):
    """TwistMap.multiple against forward then multiple_of, on every nonzero
    record over the box 1 (v-tied, sign-variable and half-exponent rings,
    and a coefficient character), and on each record's target perturbed so
    that it is no multiple or not by a unit."""
    rd = rootdata.builtin(name)
    if case == "v-tied":
        p = ParameterSet.v_tied(rd.cartan)
    elif case == "coefficient-two":
        p = _with_coefficients(rd, 2)
    else:
        p = specializations.make(case, rd).params
    tw = TwistMap(rd, p)
    v = p.v()
    found = missing = 0
    for su, tgt in _record_pairs(rd, p, rd.weights_box(1)):
        if su.expr.is_zero():
            continue
        assert _assert_same_multiple(tw, su.expr, tgt.expr) is not None, su.id
        found += 1
        for target in _perturbed(tgt.expr, v):
            missing += _assert_same_multiple(tw, su.expr, target) is None
    assert found >= 9 and missing > 2 * found


def test_multiple_reads_the_largest_word_when_the_first_is_a_unit(a2):
    """A target whose first word's coefficient is a unit and whose largest
    word's is not: multiple_of divides at the largest word and keeps the
    fraction (v^2 + v)/(v + 1), and TwistMap.multiple gives that same
    fraction, not the simplified v a first-word reference would give."""
    rd, p = a2
    tw = TwistMap(rd, p)
    v = p.v()
    lam = rd.zero_weight()
    small, large = sorted((PathWord(rd, lam, (("E", i),)) for i in rd.index_set),
                          key=PathExpr._order)
    target = PathExpr(p, {small: p.rat(1), large: p.rat(1 + v)})
    assert next(iter(target.terms)) is small
    n = _assert_same_multiple(tw, tw.backward(target.scale(v)), target)
    assert n.den.terms == (1 + v).terms and n.simplified() == p.rat(v)


@pytest.mark.parametrize("name", ["a1", "a2", "g2"])
def test_divided_power_multiple_matches_forward_then_multiple_of(name):
    """The divided powers l = 0..4, in integral form with polynomial
    coefficients, give the same multiple either way, and it is the one their
    closed form names."""
    rd = rootdata.builtin(name)
    p = ParameterSet.v_tied(rd.cartan)
    tw = TwistMap(rd, p)
    lam = rd.zero_weight()
    for kind, scalar, twist in (("E", tw.scalars.e, p.s), ("F", tw.scalars.f, p.t)):
        for i in rd.index_set:
            for l in range(5):
                dp_u = divided_power(kind, i, l, lam, rd, p.untwisted())
                dp_s = divided_power(kind, i, l, lam, rd, p)
                assert all(c.is_poly() for dp in (dp_u, dp_s) for c in dp.terms.values())
                n = _assert_same_multiple(tw, dp_u, dp_s)
                assert n == p.rat(scalar(i, lam) ** l * twist(i, i) ** (l * (l + 1) // 2))


def test_map_requires_tied_parameters():
    rd = rootdata.builtin("a1")
    with pytest.raises(ValueError):
        TwistMap(rd, ParameterSet.generic(rd.cartan))


def test_divided_power_closed_form(a1):
    rd, p = a1
    tw = TwistMap(rd, p)
    lam = (0, 0)
    for l in range(5):
        dp_u = divided_power("E", 0, l, lam, rd, p.untwisted())
        img = tw.forward(dp_u)
        dp_s = divided_power("E", 0, l, lam, rd, p)
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
        x = PathExpr.word(p, w1)
        y = PathExpr.word(p, w2)
        assert tw.forward(x * y) == tw.forward(x) * tw.forward(y)
        assert tw.backward(tw.forward(x)) == x
        assert tw.forward(tw.backward(y)) == y


def test_forward_preserves_weights_and_degree(a2):
    rd, p = a2
    tw = TwistMap(rd, p)
    w = PathWord(rd, (1, 0, -1), (("E", 0), ("F", 1), ("E", 0)))
    img = tw.forward(PathExpr.word(p, w))
    ((w2, _),) = img.terms.items()
    assert w2.target == w.target and w2.source == w.source
    assert grade(w2.steps, rd.n) == grade(w.steps, rd.n)


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


@pytest.mark.parametrize(
    "name, case",
    [("a2", "v-tied"), ("b2", "v-tied"), ("g2", "v-tied"), ("a2", "two-param"), ("a2", "super1")],
    ids=["a2", "b2", "g2", "a2-two-param", "a2-super1"],
)
def test_iso_multiple_needs_no_cancellation(name, case):
    """Image and target coefficients share their denominators, so the
    multiple of every clean record is a unit monomial before simplified():
    no exact division is left for the report to do."""
    rd = rootdata.builtin(name)
    p = ParameterSet.v_tied(rd.cartan) if case == "v-tied" else specializations.make(case, rd).params
    tw = TwistMap(rd, p)
    families = set()
    for su, tgt in _record_pairs(rd, p, rd.weights_box(1)):
        n = tw.multiple(su.expr, tgt.expr)
        assert n.is_poly() and n.num.unit_mono() is not None, (su.id, str(n))
        families.add(su.family)
    assert families == {"a", "b", "c", "d-E", "d-F"}


def test_identity_specialization_fixes_relations():
    rd = rootdata.builtin("a2")
    p = ParameterSet.v_tied(rd.cartan).untwisted()
    tw = TwistMap(rd, p)
    window = [rd.zero_weight(), (1, 0, -1)]
    for inst in relations_of("Udot", rd, p, window):
        assert tw.forward(inst.expr) == inst.expr


def test_integrality_report(a2):
    rd, p = a2
    rep = verify_integrality(rd, p, [rd.zero_weight(), (1, -1, 0)], lmax=3)
    assert rep.ok
    units = [c for c in rep.checks if c.family == "dp"]
    assert units and all(c.status == "pass" for c in units)


def test_iso_campaign_streams_its_instances(monkeypatch, a2):
    """The iso campaign keeps no relation instance once its record is made:
    each instance the builder yields is dead before it yields the next, and
    the a2 box-1 campaign still passes every record."""
    rd, p = a2
    build = twistmap.modified_relations
    seen = []

    def watched(*args):
        previous = None
        for rel in build(*args):
            assert previous is None or previous() is None, "instance kept: %s" % seen[-1]
            previous = weakref.ref(rel)
            seen.append(rel.id)
            yield rel

    monkeypatch.setattr(twistmap, "modified_relations", watched)
    rep = verify_twist_isomorphism(rd, p, rd.weights_box(1))
    assert rep.summary == {"pass": 459, "fail": 0, "warn": 0}
    assert len(seen) == 459
