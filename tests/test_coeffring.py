"""Exact arithmetic: canonical forms, q-combinatorics, fractions, substitution."""

import collections
import functools
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import qfact, substitute

from qtwist.coeffring import (
    LAURENT,
    Context,
    LaurentPoly,
    NotDivisible,
    RatExpr,
    RingError,
    gauss_vanish,
    qbinom,
    qint,
    qint_signed,
)


@pytest.fixture()
def ctx():
    c = Context()
    c.laurent("v", denom=2)
    c.laurent("w")
    c.sign("g")
    return c


def test_add_cancellation(ctx):
    v = ctx["v"]
    assert (v + v.inv_unit()) + (-v.inv_unit()) == v


def test_difference_of_squares(ctx):
    v = ctx["v"]
    assert (v - v.inv_unit()) * (v + v.inv_unit()) == v**2 - v**-2


def test_sign_variable_square_is_one(ctx):
    g = ctx["g"]
    assert g * g == ctx.one
    assert g**4 == ctx.one
    assert g**5 == g
    assert g**-1 == g


def test_mixed_context_rejected(ctx):
    other = Context()
    other.laurent("v")
    with pytest.raises(RingError):
        ctx["v"] + other["v"]


def test_poly_rejects_variable_from_other_context(ctx):
    other = Context()
    b = other.laurent("b")
    with pytest.raises(RingError):
        ctx.poly(b)


def test_fractional_exponent_bounds(ctx):
    v, w = ctx["v"], ctx["w"]
    assert not (v ** Fraction(1, 2)).is_zero()
    with pytest.raises(RingError):
        w ** Fraction(1, 2)
    with pytest.raises(RingError):
        ctx["g"] ** Fraction(1, 2)


# -- the coefficient invariant: int when integral, else a proper Fraction ------


def assert_canonical_coefficients(p):
    for c in p.terms.values():
        assert (type(c) is int and c != 0) or (type(c) is Fraction and c.denominator > 1), c


def only_coefficient(p):
    ((_, c),) = p.terms.items()
    return c


def test_inv_unit_coefficient_is_exact(ctx):
    v = ctx["v"]
    inv = (2 * v).inv_unit()
    c = only_coefficient(inv)
    assert type(c) is Fraction and c == Fraction(1, 2)
    assert inv == Fraction(1, 2) * v**-1
    back = only_coefficient(inv.inv_unit())
    assert type(back) is int and back == 2
    assert only_coefficient((-v).inv_unit()) == -1
    assert type(only_coefficient((-v).inv_unit())) is int


def test_unit_pow_negative_integer_power(ctx):
    v = ctx["v"]
    p = (2 * v).unit_pow(-3)
    c = only_coefficient(p)
    assert type(c) is Fraction and c == Fraction(1, 8)
    assert p == Fraction(1, 8) * v**-3
    assert (2 * v) ** -3 == p
    c0 = only_coefficient((2 * v).unit_pow(0))
    assert type(c0) is int and c0 == 1
    half = Fraction(1, 2) * v
    c2 = only_coefficient(half.unit_pow(-2))
    assert type(c2) is int and c2 == 4


@pytest.mark.parametrize("lc", [2, 3])
def test_ratexpr_normalises_leading_coefficient(ctx, lc):
    v = ctx["v"]
    r = RatExpr(v + lc, lc * v**2 + 2 * lc)
    # leading coefficient of the denominator becomes 1, all of it integral
    assert r.den == v**2 + 2
    assert all(type(c) is int for c in r.den.terms.values())
    # num = (v + lc) / lc: the v term is 1/lc, the constant lc/lc is the int 1
    assert r.num == Fraction(1, lc) * v + 1
    assert_canonical_coefficients(r.num)
    one = ctx.mono(())
    assert type(r.num.terms[one]) is int and r.num.terms[one] == 1
    assert r == RatExpr(v + lc, lc * v**2 + 2 * lc)
    assert r * RatExpr(lc * v**2 + 2 * lc, ctx.one) == ctx.rat(v + lc)


def test_exact_div_non_monic_divisor(ctx):
    v = ctx["v"]
    d = 2 * v + 4
    q = (d * (v - 3)).exact_div(d)
    assert q == v - 3
    assert all(type(c) is int for c in q.terms.values())
    half = (v + 2).exact_div(d)
    assert type(only_coefficient(half)) is Fraction and half == ctx.poly(Fraction(1, 2))
    three_halves = (3 * v + 6).exact_div(d)
    assert three_halves == ctx.poly(Fraction(3, 2))
    assert_canonical_coefficients(three_halves)


def test_constructors_store_integral_fractions_as_int(ctx):
    v = ctx["v"]
    for p in (ctx.poly(Fraction(4, 2)), Fraction(4, 2) * v, ctx.one):
        assert type(only_coefficient(p)) is int
    assert only_coefficient(ctx.poly(Fraction(4, 2))) == 2


# -- q-combinatorics against independent oracles ------------------------------


def geometric_qint(n, q):
    """Oracle: expand (q^n - q^-n) / (q - q^-1) by exact division."""
    return (q**n - q**-n).exact_div(q - q.inv_unit())


def pascal_qbinom(n, p, q):
    """Oracle: the balanced Pascal recurrence."""
    if p in (0, n):
        return q.ctx.one
    return q**p * pascal_qbinom(n - 1, p, q) + q ** (p - n) * pascal_qbinom(n - 1, p - 1, q)


def test_qint_small(ctx):
    v = ctx["v"]
    assert qint(0, v).is_zero()
    assert qint(1, v) == ctx.one
    # frozen from the geometric-sum oracle
    assert geometric_qint(3, v) == v**2 + 1 + v**-2
    assert qint(3, v) == v**2 + 1 + v**-2


def test_qint_rescaled_base(ctx):
    # substituting v_i = v^2 into [2] gives v^2 + v^-2
    v = ctx["v"]
    assert qint(2, v**2) == v**2 + v**-2
    assert qint(2, v**2) == geometric_qint(2, v**2)


def test_qint_rejects_negative(ctx):
    with pytest.raises(ValueError):
        qint(-1, ctx["v"])
    assert qint_signed(-3, ctx["v"]) == -qint(3, ctx["v"])


def test_qint_defining_property(ctx):
    v = ctx["v"]
    for n in range(9):
        assert qint(n, v) * (v - v.inv_unit()) == v**n - v**-n


def test_qint_addition_rule(ctx):
    v = ctx["v"]
    for m in range(9):
        for n in range(9):
            assert qint(m + n, v) == v**n * qint(m, v) + v**-m * qint(n, v)


def test_qfact(ctx):
    v = ctx["v"]
    assert qfact(0, v) == ctx.one
    assert qfact(3, v) == qint(1, v) * qint(2, v) * qint(3, v)


def test_qbinom_matches_both_oracles(ctx):
    v = ctx["v"]
    assert qbinom(2, 1, v) == qint(2, v)
    for n in range(11):
        for p in range(n + 1):
            val = qbinom(n, p, v)
            assert val == pascal_qbinom(n, p, v)
            assert val == qbinom(n, n - p, v)


def test_qbinom_matches_factorial_quotient():
    """Independent of the q-Pascal construction: [n]! / ([l]! [n-l]!) by
    exact division, for q = v, the g2 long-root q = v^3, and the
    half-exponent base of ``qcalc`` (v of denominator 2, and its square root)."""
    whole, half = Context(), Context()
    v = whole.laurent("v")
    h = half.laurent("v", denom=2)
    for q in (v, v**3, h, h ** Fraction(1, 2)):
        for n in range(13):
            for l in range(n + 1):
                quotient = qfact(n, q).exact_div(qfact(l, q) * qfact(n - l, q))
                assert qbinom(n, l, q) == quotient, (q, n, l)


def test_qbinom_is_cached_per_context(ctx):
    v = ctx["v"]
    first = qbinom(9, 4, v)
    assert qbinom(9, 4, v) is first
    assert ("qbinom", v.unit_mono(), 9, 4) in ctx._qint_cache
    assert qbinom(9, 4, Context().laurent("v", denom=2)) is not first


def test_qbinom_counts_at_one(ctx):
    from math import comb

    v = ctx["v"]
    assert qbinom(4, 2, v).coefficient_sum() == 6
    for n in range(9):
        for p in range(n + 1):
            assert qbinom(n, p, v).coefficient_sum() == comb(n, p)


def test_qbinom_range_errors(ctx):
    v = ctx["v"]
    with pytest.raises(ValueError):
        qbinom(3, 4, v)
    with pytest.raises(ValueError):
        qbinom(3, -1, v)


def test_gauss_vanish(ctx):
    v = ctx["v"]
    # n = 2 by hand: 1 - q^-1 [2] + q^-2 = 1 - (1 + q^-2) + q^-2 = 0
    hand = ctx.one - v**-1 * qint(2, v) + v**-2
    assert hand.is_zero()
    for n in range(1, 9):
        assert gauss_vanish(n, v).is_zero()
    with pytest.raises(ValueError):
        gauss_vanish(0, v)


# -- exact division ------------------------------------------------------------


def test_exact_div_with_shift(ctx):
    v = ctx["v"]
    assert (v**2 - v**-2).exact_div(v - v.inv_unit()) == v + v.inv_unit()


def test_exact_div_remainder_raises(ctx):
    v = ctx["v"]
    with pytest.raises(NotDivisible):
        (v**2 + 1 + v**-1).exact_div(v + 1)


def test_exact_div_multivariate(ctx):
    v, w = ctx["v"], ctx["w"]
    a = (v + w) * (v * w - 1) * (v**-3)
    assert a.exact_div(v + w) == (v * w - 1) * v**-3


def test_exact_div_orders_by_the_packed_monomial(ctx, monkeypatch):
    """(v+w+1)^6 (v-2w)^3 / (v+w+1)^3 is (v+w+1)^3 (v-2w)^3, and the
    division orders its terms by the packed monomials themselves: it decodes
    no term-order key."""
    v, w = ctx["v"], ctx["w"]
    s, d = v + w + 1, v - 2 * w
    dividend, divisor, want = s**6 * d**3, s**3, s**3 * d**3
    calls = []
    mono_key = Context.mono_key

    def counted(self, m):
        calls.append(m)
        return mono_key(self, m)

    monkeypatch.setattr(Context, "mono_key", counted)
    q = dividend.exact_div(divisor)
    monkeypatch.undo()
    assert q == want
    assert calls == []


def test_exact_div_sign_unit(ctx):
    g, v = ctx["g"], ctx["v"]
    assert (g * v).exact_div(g) == v
    with pytest.raises(RingError):
        (v + 1).exact_div(g + 1)


# -- fractions ---------------------------------------------------------------------


def test_ratexpr_unit_denominator_absorbed(ctx):
    v = ctx["v"]
    r = RatExpr(v + 1, v)
    assert r.is_poly()
    assert r == RatExpr(ctx.one + v.inv_unit(), ctx.one)


def test_ratexpr_cancellation_detection(ctx):
    v = ctx["v"]
    two = qint(2, v)
    r = RatExpr(v * two, two)
    assert r.unit_mono() is not None
    assert r.simplified() == ctx.rat(v)


def test_ratexpr_cross_multiplication(ctx):
    v = ctx["v"]
    a = RatExpr(ctx.one, v - v.inv_unit())
    b = RatExpr(v, v**2 - 1)
    assert a == b
    assert not (a == RatExpr(v, v**2 + 1))


def test_ratexpr_field_ops(ctx):
    v = ctx["v"]
    a = RatExpr(ctx.one, v + 1)
    assert a * (v + 1) == ctx.rat(1)
    assert (a + a) == RatExpr(ctx.poly(2), v + 1)
    assert (a - a).is_zero()
    assert a.inv() == ctx.rat(v + 1)
    assert a**-2 == ctx.rat((v + 1) * (v + 1))


# -- fast paths against the general path -------------------------------------------


def _general_pow(p, n):
    """p**n by repeated LaurentPoly products (of the inverse when n < 0)."""
    base = p if n >= 0 else p.inv_unit()
    return functools.reduce(operator.mul, [base] * abs(n), p.ctx.one)


def _same(fast, general):
    assert fast == general
    assert str(fast) == str(general)


def _units(ctx):
    v, w, g = ctx["v"], ctx["w"], ctx["g"]
    return [
        v ** Fraction(1, 2),
        g,
        Fraction(-2, 3) * v ** Fraction(-3, 2) * w**2 * g,
        -(w**-1),
        ctx.poly(3),
        ctx.one,
    ]


def _index(ctx, name):
    """The declaration index of the variable named name, from ctx.vars."""
    return next(x.index for x in ctx.vars if x.name == name)


def only_monomial(p):
    ((m, _),) = p.terms.items()
    return m


@pytest.mark.parametrize("n", [-3, -2, -1, 0, 1, 2, 3, 6])
def test_unit_monomial_power_scales_exponents(ctx, n):
    for u in _units(ctx):
        got = u**n
        _same(got, _general_pow(u, n))
        assert_canonical_coefficients(got)
        if n % 2 == 0:
            assert _index(ctx, "g") not in dict(ctx.mono_exps(only_monomial(got)))


def test_times_unit_shifts_by_any_exponent_map(ctx):
    """times_unit by a sum of scaled generator monomials, zero and unreduced
    sign-variable exponents included, equals the product with that unit
    monomial, checked on dense exponent vectors (sign exponents mod 2)."""
    v, w, g = ctx["v"], ctx["w"], ctx["g"]
    polys = [ctx.one, v**Fraction(1, 2) * g + 1, w**-2 - 3 * v + g,
             Fraction(-2, 3) * v**-1 * g]
    iv, iw, ig = (_index(ctx, name) for name in "vwg")
    maps = [{}, {iv: 0, iw: 0}, {ig: 3, iw: -2}, {ig: -1, iv: -3}, {iv: 1, iw: 4, ig: 2}]

    def dense(m):
        e = dict(ctx.mono_exps(m))
        return tuple(e.get(i, 0) for i in (iv, iw, ig))

    for p in polys:
        for exps in maps:
            unit = sum(s * ctx.mono({i: 1}) for i, s in exps.items())
            for coeff in (1, -1, 2, Fraction(3, 2), Fraction(2, 3)):
                got = p.times_unit(unit, coeff)
                assert_canonical_coefficients(got)
                shift = [exps.get(i, 0) for i in (iv, iw, ig)]
                want = {}
                for m, c in p.terms.items():
                    ev, ew, eg = (a + b for a, b in zip(dense(m), shift))
                    want[(ev, ew, eg % 2)] = c * coeff
                assert {dense(m): c for m, c in got.terms.items()} == want
                assert all(m == ctx.mono(ctx.mono_exps(m)) for m in got.terms)
                _same(got, p * LaurentPoly(ctx, {ctx.mono(exps): coeff}))


def _fractions(ctx):
    v, w, g = ctx["v"], ctx["w"], ctx["g"]
    den = v**2 + 3 * w - Fraction(2, 3)
    nums = [
        v**Fraction(1, 2) * g + 1,
        Fraction(-2, 3) * v**-1 * g,
        w**-2 - v,
        ctx.zero,
    ]
    return den, [RatExpr(num, den) for num in nums]


def test_product_with_polynomial_keeps_denominator(ctx):
    v, g = ctx["v"], ctx["g"]
    den, fracs = _fractions(ctx)
    polys = [Fraction(-2, 3) * v ** Fraction(-1, 2) * g, v - g, ctx.zero, ctx.one]
    for a in fracs:
        for p in polys:
            general = RatExpr(a.num * p, a.den * ctx.one)
            for got in (a * p, a * ctx.rat(p), ctx.rat(p) * a):
                _same(got, general)
                assert got.den == general.den
            if p.is_zero():
                assert (a * p).den.is_one() and str(a * p) == "0"


def test_shared_denominator_quotient(ctx):
    v, w, g = ctx["v"], ctx["w"], ctx["g"]
    den, fracs = _fractions(ctx)
    exact = 0
    for a in fracs:
        for b in fracs[:-1]:
            got, general = a / b, a * b.inv()
            assert got == general
            # printed values go through simplified(): equal bytes when exact
            if got.simplified().is_poly():
                _same(got.simplified(), general.simplified())
                exact += 1
    # every a over the unit numerator (4), 0 over the other two (2), and the
    # sign-free non-unit numerator over itself (exact division refuses g)
    assert exact == 7
    # the iso shape: over the shared denominator, a unit multiple of a
    # unit-numerator fraction divides to that unit with no denominator left
    target = fracs[1]
    for u in _units(ctx):
        image = RatExpr(target.num * u, den)
        got = image / target
        assert got.is_poly()
        _same(got, (image * target.inv()).simplified())
        _same(got, ctx.rat(u))
    # over the denominator 1 both paths build the same fraction
    for x, y in ((v**Fraction(1, 2) - g, w + 1), (ctx.poly(Fraction(-2, 3)), v - w), (ctx.zero, v + 1)):
        _same(ctx.rat(x) / ctx.rat(y), ctx.rat(x) * ctx.rat(y).inv())
    assert str(ctx.rat(0) / ctx.rat(v + 1)) == "0"
    for a in fracs + [ctx.rat(v + 1)]:
        with pytest.raises(ZeroDivisionError):
            a / ctx.rat(0)
        with pytest.raises(ZeroDivisionError):
            a / RatExpr(ctx.zero, den)


# -- substitution -------------------------------------------------------------------


def test_substitute_is_ring_hom(ctx):
    v, w, g = ctx["v"], ctx["w"], ctx["g"]
    out = Context()
    x = out.laurent("x", denom=4)
    y = out.sign("y")
    images = {"v": x**2, "w": x**-1, "g": y}
    a = v**2 + w * g
    b = v * w - 3
    assert substitute(a * b, images, out) == substitute(a, images, out) * substitute(
        b, images, out
    )
    assert substitute(a + b, images, out) == substitute(a, images, out) + substitute(
        b, images, out
    )


def test_substitute_identity(ctx):
    v, w, g = ctx["v"], ctx["w"], ctx["g"]
    images = {"v": v, "w": w, "g": g}
    a = v**2 * g - w
    assert substitute(a, images, ctx) == a


def test_substitute_commutes_with_qint(ctx):
    out = Context()
    x = out.laurent("x", denom=2)
    v = ctx["v"]
    images = {"v": x**2, "w": out.one, "g": out.one}
    assert substitute(qint(3, v), images, ctx_out=out) == qint(3, x**2)


def test_substitute_errors(ctx):
    out = Context()
    x = out.laurent("x")
    with pytest.raises(RingError):  # unbound variable
        substitute(ctx["v"] + ctx["w"], {"v": x}, out)
    with pytest.raises(RingError):  # non-invertible image
        substitute(ctx["v"], {"v": x + 1}, out)


def test_substitute_signed_image_fractional_power_rejected(ctx):
    out = Context()
    x = out.laurent("x", denom=2)
    images = {"v": -x}
    with pytest.raises(RingError):
        substitute(ctx["v"] ** Fraction(1, 2), images, out)


# -- randomized structure tests ---------------------------------------------------


def _merged(m, pairs, signs=()):
    """The reference shift: exponents summed per variable, sign variables
    reduced mod 2, zeros dropped, sorted."""
    acc = collections.Counter(dict(m))
    for idx, s in pairs:
        acc[idx] += s
    return tuple(sorted((idx, s % 2 if idx in signs else s) for idx, s in acc.items()
                        if (s % 2 if idx in signs else s)))


def _random_shift(rng, m, n):
    """A random exponent map over n variables with zero entries, entries
    that cancel m's and negative entries."""
    out = {idx: rng.randint(-3, 3) for idx in rng.sample(range(n), rng.randint(0, n))}
    for idx, s in m:
        if rng.random() < 0.5:
            out[idx] = -s
    return out


def test_mono_mul_matches_the_reference_merge():
    """Context.mono_mul in a ring without sign variables (its sign-free
    branch) and with one, against a reference merge, for shifts given as
    monomials and as unreduced sums of scaled generator monomials."""
    rng = random.Random(29)
    free, signed = Context(), Context()
    signed.sign("g")
    for k in range(6):
        free.laurent("x%d" % k, denom=2)
    for k in range(1, 6):
        signed.laurent("x%d" % k, denom=2)
    assert not free.sign_indices and signed.sign_indices == {0}
    for _ in range(400):
        m = _merged((), _random_shift(rng, (), 6).items())
        shift = _random_shift(rng, m, 6)
        for ctx, signs in ((free, ()), (signed, (0,))):
            m_ctx = _merged((), m, signs)
            tup = _merged((), shift.items(), signs)
            summed = sum(s * ctx.mono({idx: 1}) for idx, s in shift.items())
            got = ctx.mono_mul(ctx.mono(m_ctx), summed)
            assert ctx.mono_exps(got) == _merged(m_ctx, shift.items(), signs)
            got = ctx.mono_mul(ctx.mono(m_ctx), ctx.mono(tup))
            assert ctx.mono_exps(got) == _merged(m_ctx, tup, signs)
    # the sign variable's exponent lives mod 2: g * g^3 = 1, g * g^2 = g
    g, g3 = signed.mono({0: 1}), 3 * signed.mono({0: 1})
    assert signed.mono_mul(g, g3) == signed.mono(())
    assert signed.mono_mul(signed.mono(((0, 1), (2, 4))), 2 * g + signed.mono({2: -4})) == g
    assert free.mono_exps(free.mono_mul(free.mono({0: 1}), 3 * free.mono({0: 1}))) == ((0, 4),)


# -- the packed monomial encoding ----------------------------------------------
#
# A ring with sign variables below and above a Laurent variable, so a sign
# digit is read past negative digits and has negative digits above it.


def _packed_ring():
    """g (sign), v (denominator 2), h (sign), w, in that order."""
    ctx = Context()
    ctx.sign("g")
    ctx.laurent("v", denom=2)
    ctx.sign("h")
    ctx.laurent("w")
    return ctx


_SIGN_SLOTS = (0, 2)
_exponents = st.tuples(*[st.integers(-9, 9)] * 4)


def _dense(e):
    """The canonical dense exponent vector of scaled exponents e: sign slots mod 2."""
    return tuple(s % 2 if i in _SIGN_SLOTS else s for i, s in enumerate(e))


@settings(max_examples=80, deadline=None)
@given(_exponents)
def test_mono_round_trips_negative_half_and_sign_exponents(e):
    """mono and mono_exps are inverse on canonical exponents; a negative,
    half (v's odd scaled exponents) or unreduced sign exponent comes back
    canonical, and the generator powers build the same monomial."""
    ctx = _packed_ring()
    m = ctx.mono(enumerate(e))
    assert ctx.mono_exps(m) == tuple((i, s) for i, s in enumerate(_dense(e)) if s)
    assert ctx.mono(ctx.mono_exps(m)) == m
    assert ctx.mono_key(m) == _dense(e)
    g, v, h, w = (ctx[name] for name in "gvhw")
    power = g ** e[0] * v ** Fraction(e[1], 2) * h ** e[2] * w ** e[3]
    assert power.terms == {m: 1}


def test_variable_declared_after_monomials_exist():
    """Declaring a variable gives it a zero digit in every monomial made
    before: values, keys and text are unchanged, and the new variable
    multiplies in like any other."""
    ctx = Context()
    v, g = ctx.laurent("v", denom=2), ctx.sign("g")
    p = v ** Fraction(-3, 2) * g + 2 * v**2 - 1
    terms, text, keys = dict(p.terms), str(p), [ctx.mono_key(m) for m in p.terms]
    x = ctx.laurent("x", denom=3)
    assert p.terms == terms and str(p) == text
    assert [ctx.mono_key(m) for m in p.terms] == [k + (0,) for k in keys]
    q = p * x ** Fraction(-2, 3)
    assert str(q) == "2*v^2*x^(-2/3) - x^(-2/3) + v^(-3/2)*g*x^(-2/3)"
    assert q * x ** Fraction(2, 3) == p
    assert {ctx.mono_exps(m)[-1] for m in q.terms} == {(2, -2)}


@settings(max_examples=80, deadline=None)
@given(_exponents, _exponents)
def test_product_is_the_digitwise_sum(a, b):
    """A product of monomials adds them digit by digit, sign digits mod 2;
    in a ring without sign variables it is the plain int sum."""
    ctx = _packed_ring()
    ma, mb = ctx.mono(enumerate(a)), ctx.mono(enumerate(b))
    want = _dense([x + y for x, y in zip(_dense(a), _dense(b))])
    assert ctx.mono_key(ctx.mono_mul(ma, mb)) == want
    product = LaurentPoly(ctx, {ma: 1}) * LaurentPoly(ctx, {mb: 1})
    assert product.terms == {ctx.mono(enumerate(want)): 1}
    free = Context()
    for name in "abcd":
        free.laurent(name)
    fa, fb = free.mono(enumerate(a)), free.mono(enumerate(b))
    summed = free.mono([(i, x + y) for i, (x, y) in enumerate(zip(a, b))])
    assert free.mono_mul(fa, fb) == fa + fb == summed


@settings(max_examples=60, deadline=None)
@given(st.lists(_exponents, min_size=1, max_size=4), _exponents, st.integers(-3, 3))
def test_sign_digits_stay_zero_or_one(es, shift, k):
    """Every monomial the ring makes has sign digits in {0, 1}: products,
    inverses, powers and shifts by an unreduced sum."""
    ctx = _packed_ring()
    units = [LaurentPoly(ctx, {ctx.mono(enumerate(e)): 1}) for e in es]
    p = sum(units, ctx.zero)
    unreduced = sum(s * ctx.mono({i: 1}) for i, s in enumerate(shift))
    made = [p * p, p.times_unit(unreduced, -1)]
    made += [u.inv_unit() for u in units] + [u**k for u in units]
    for q in made:
        for m in q.terms:
            assert all(ctx.mono_key(m)[i] in (0, 1) for i in _SIGN_SLOTS), (q, m)
            assert ctx.mono(ctx.mono_exps(m)) == m


@settings(max_examples=60, deadline=None)
@given(st.lists(_exponents, min_size=1, max_size=12))
def test_mono_key_order_is_the_dense_lex_order(es):
    """Sorting by mono_key, the leading term and the printed term order are
    the lex order of the dense exponent vectors, as when a monomial was
    its sorted (index, exponent) pairs."""
    ctx = _packed_ring()
    dense = sorted({_dense(e) for e in es})
    monos = [ctx.mono(enumerate(d)) for d in reversed(dense)]
    assert [ctx.mono_key(m) for m in sorted(monos, key=ctx.mono_key)] == dense
    p = LaurentPoly(ctx, {m: 1 for m in monos})
    assert [ctx.mono_key(m) for m, _ in p.sorted_terms()] == dense[::-1]
    assert ctx.mono_key(p.leading()[0]) == dense[-1]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3), st.integers(2**32 - 3, 2**32 + 3) | st.integers(2**32, 2**80),
       st.sampled_from([1, -1]))
def test_range_guard_rejects_and_never_wraps(idx, size, sign):
    """A scaled exponent of magnitude 2^32 or more is a RingError wherever a
    monomial is built (mono, exponent maps, powers); anything below is the
    exact monomial, so no digit ever carries into its neighbour."""
    ctx = _packed_ring()
    s = sign * size
    w = ctx["w"]
    builders = [lambda: ctx.mono({idx: s}), lambda: (w**s).terms]
    for build in builders:
        if size < 2**32:
            build()
            want = _dense([s if i == idx else 0 for i in range(4)])
            assert ctx.mono_key(ctx.mono({idx: s})) == want
            assert (w**s).terms == {ctx.mono({3: s}): 1}
        else:
            with pytest.raises(RingError):
                build()
    big = w ** (2**31)
    with pytest.raises(RingError):
        big**2
    inverse_times_w = ctx.mono_mul(big.inv_unit().leading()[0], ctx.mono({3: 1}))
    assert ctx.mono_key(inverse_times_w) == (0, 0, 0, 1 - 2**31)


def _polys(signed=True):
    terms = st.lists(
        st.tuples(
            st.integers(-4, 4), st.integers(-3, 3), st.integers(0, 1 if signed else 0),
            st.integers(-5, 5),
        ),
        min_size=0,
        max_size=5,
    )

    def build(term_list):
        ctx = Context()
        v = ctx.laurent("v", denom=2)
        w = ctx.laurent("w")
        g = ctx.sign("g")
        acc = ctx.zero
        for ev, ew, eg, c in term_list:
            acc = acc + c * v ** Fraction(ev, 2) * w**ew * g**eg
        return acc

    return terms.map(build)


@settings(max_examples=60, deadline=None)
@given(_polys())
def test_canonical_form_self_difference(p):
    assert (p - p).is_zero()
    assert (p + p) == 2 * p


@settings(max_examples=60, deadline=None)
@given(_polys(), _polys())
def test_product_commutes(a, b):
    # rebuild b in a's context so the random contexts line up
    b2 = a.ctx.zero
    for m, c in b.terms.items():
        b2 = b2 + type(a)(a.ctx, {m: c})
    assert a * b2 == b2 * a


@settings(max_examples=60, deadline=None)
@given(_polys(), _polys(signed=False), st.integers(-4, 4), st.integers(-3, 3),
       st.integers(0, 1), st.integers(1, 5))
def test_exact_div_by_a_sign_free_non_unit(a, b, ev, ew, eg, c):
    """b sign-free and not a unit, a with half exponents and the sign
    variable: (a*b)/b is a, and a*b + u leaves a remainder for a unit u."""
    ctx = a.ctx
    b = sum((type(a)(ctx, {m: cb}) for m, cb in b.terms.items()), ctx.zero)
    assume(len(b.terms) > 1)
    assert (a * b).exact_div(b) == a
    u = c * ctx["v"] ** Fraction(ev, 2) * ctx["w"] ** ew * ctx["g"] ** eg
    with pytest.raises(NotDivisible):
        (a * b + u).exact_div(b)


@settings(max_examples=40, deadline=None)
@given(st.integers(-3, 3), st.integers(1, 3), st.integers(-3, 3), st.integers(1, 3))
def test_fraction_equivalence_consistent(a_num, a_den_pow, b_num, b_den_pow):
    ctx = Context()
    v = ctx.laurent("v")
    a = RatExpr(ctx.poly(a_num), (v + 1) ** a_den_pow)
    b = RatExpr(ctx.poly(b_num), (v + 1) ** b_den_pow)
    c = a * b
    # equivalence respected by arithmetic: (a*b)*inv(b) == a when b != 0
    if not b.is_zero():
        assert c / b == a
    assert a == a
    if a == b:
        assert b == a


@settings(max_examples=40, deadline=None)
@given(st.integers(-4, 4), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
def test_fraction_equivalence_transitive(num, p1, p2, p3):
    # the same fraction dressed with three unrelated non-unit cofactors
    ctx = Context()
    v = ctx.laurent("v")
    w = ctx.laurent("w")
    n = ctx.poly(num) * w - 1
    d = v + w + 1
    cof = [(v + 1) ** p1 * (w + 2), (v + w) ** p2 + 1, (v - 1) ** p3 + w]
    a = RatExpr(n * cof[0], d * cof[0])
    b = RatExpr(n * cof[1], d * cof[1])
    c = RatExpr(n * cof[2], d * cof[2])
    assert a == b and b == c and a == c
    assert not (a == RatExpr(n * cof[0] + 1, d * cof[0]))


# A term is (2*exponent of v, exponent of w, exponent of the sign variable g,
# coefficient).  The strategy mixes general sums with the factors that take
# the product's fast paths: the constant 1, single terms and sign monomials.
_coefficients = st.one_of(
    st.integers(-5, 5).filter(bool),
    st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(2, 4)),
)
_term = st.tuples(st.integers(-4, 4), st.integers(-3, 3), st.integers(0, 1), _coefficients)
_term_lists = st.one_of(
    st.just([(0, 0, 0, 1)]),
    st.lists(_term, min_size=1, max_size=1),
    st.tuples(st.integers(0, 1), st.sampled_from([1, -1])).map(lambda gc: [(0, 0, gc[0], gc[1])]),
    st.lists(_term, min_size=0, max_size=5),
)


def _schoolbook(term_list):
    """Canonical term dict over Fraction, keyed by (2*e_v, e_w, e_g)."""
    out = {}
    for ev, ew, eg, c in term_list:
        key = (ev, ew, eg % 2)
        out[key] = out.get(key, Fraction(0)) + Fraction(c)
    return {k: c for k, c in out.items() if c != 0}


def _schoolbook_product(a_terms, b_terms):
    pairs = [
        (ea + eb, wa + wb, ga + gb, ca * cb)
        for (ea, wa, ga), ca in _schoolbook(a_terms).items()
        for (eb, wb, gb), cb in _schoolbook(b_terms).items()
    ]
    return _schoolbook(pairs)


@settings(max_examples=120, deadline=None)
@given(_term_lists, _term_lists)
def test_product_matches_schoolbook(a_terms, b_terms):
    ctx = Context()
    v = ctx.laurent("v", denom=2)
    w = ctx.laurent("w")
    g = ctx.sign("g")

    def build(term_list):
        acc = ctx.zero
        for ev, ew, eg, c in term_list:
            acc = acc + c * v ** Fraction(ev, 2) * w**ew * g**eg
        return acc

    def as_schoolbook(p):
        out = {}
        for m, c in p.terms.items():
            exps = dict(ctx.mono_exps(m))
            out[tuple(exps.get(x.index, 0) for x in ctx.vars)] = c
        return out

    a, b = build(a_terms), build(b_terms)
    assert as_schoolbook(a) == _schoolbook(a_terms)
    for prod in (a * b, b * a):
        assert_canonical_coefficients(prod)
        assert as_schoolbook(prod) == _schoolbook_product(a_terms, b_terms)


def _mono_str_by_fraction(ctx, m):
    """The display rule before the per-context piece memo: one Fraction per
    exponent per call."""
    if not m:
        return "1"
    parts = []
    for idx, s in m:
        var = ctx.vars[idx]
        e = Fraction(s, var.denom) if var.kind == LAURENT else Fraction(s)
        if e == 1:
            parts.append(var.name)
        elif e.denominator == 1:
            parts.append("%s^%d" % (var.name, e.numerator))
        else:
            parts.append("%s^(%s)" % (var.name, e))
    return "*".join(parts)


def test_mono_str_matches_fraction_rule():
    """Every monomial in scaled exponents [-6, 6] over Laurent variables with
    denominators 1, 2 and 4 and a sign variable, rendered in two orders by
    two fresh contexts, so no output can depend on what the memo saw first."""
    monos = []
    for a in range(-6, 7):
        for b in range(-6, 7):
            for c in range(-6, 7):
                for g in (0, 1):
                    monos.append(tuple((idx, s) for idx, s in enumerate((a, b, c, g)) if s))
    for order in (monos, monos[::-1]):
        ctx = Context()
        ctx.laurent("a")
        ctx.laurent("b", denom=2)
        ctx.laurent("c", denom=4)
        ctx.sign("g")
        for m in order:
            assert ctx.mono_str(ctx.mono(m)) == _mono_str_by_fraction(ctx, m)
        for m in order:  # the second pass reads each text from the memo
            assert ctx.mono_str(ctx.mono(m)) == _mono_str_by_fraction(ctx, m)


def _term_by_rule(coeff, mono_text):
    """The display rule of one term: the coefficient alone on the monomial
    1, the monomial alone or negated for 1 or -1, else coeff*monomial."""
    if mono_text == "1":
        return str(coeff)
    if coeff == 1:
        return mono_text
    if coeff == -1:
        return "-" + mono_text
    return "%s*%s" % (coeff, mono_text)


def test_unit_text_matches_the_term_rule():
    """str of a one-term polynomial is the term rule on its first render
    and when its monomial's text is read from mono_str's memo: coefficients
    1, -1, 2 and -1/2 on the monomial 1, v^(1/2), a sign variable and a
    product, rendered in two orders by two fresh contexts."""
    units = [(c, m, text) for c in (1, -1, 2, Fraction(-1, 2))
             for m, text in (((), "1"), (((0, 1),), "v^(1/2)"), (((2, 1),), "g"),
                             (((0, 3), (1, -2), (2, 1)), "v^(3/2)*w^-2*g"))]
    for order in (units, units[::-1]):
        ctx = Context()
        ctx.laurent("v", denom=2)
        ctx.laurent("w")
        ctx.sign("g")
        polys = [(LaurentPoly(ctx, {ctx.mono(m): c}), _term_by_rule(c, text))
                 for c, m, text in order]
        for poly, want in polys + polys:  # the second pass reads mono_str's memo
            assert str(poly) == want
    assert [_term_by_rule(c, "v^(1/2)") for c in (1, -1, 2, Fraction(-1, 2))] == [
        "v^(1/2)", "-v^(1/2)", "2*v^(1/2)", "-1/2*v^(1/2)"]
    assert str(LaurentPoly(ctx, {ctx.mono({0: 1}): 2, ctx.mono({2: 1}): Fraction(-1, 2)})) == (
        "2*v^(1/2) - 1/2*g")
