"""Path-word model, divided powers, relation enumeration, Serre forms."""

import random

import pytest

import qtwist
from qtwist import presentations, rootdata, specializations
from qtwist.coeffring import qbinom, qfact, qint
from qtwist.ncalg import NCExpr, StraightenRules, straighten
from qtwist.params import ParameterSet
from qtwist.presentations import (
    PathExpr,
    PathWord,
    divided_power,
    idempotent,
    modified_relations,
    relations_of,
)
from qtwist.twistmap import TwistScalars


def _arrow(rd, p, kind, i, source):
    """The raising ('E') or lowering ('F') arrow out of source."""
    target = rd.add_root(source, i, +1 if kind == "E" else -1)
    return PathExpr.of(rd, p, PathWord(rd, target, ((kind, i),)))


@pytest.mark.parametrize("module", [qtwist, presentations], ids=lambda m: m.__name__)
def test_every_export_resolves(module):
    """A stale __all__ entry cannot outlive the deletion of its name."""
    assert len(set(module.__all__)) == len(module.__all__)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


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
    e = _arrow(rd, p, "E", 0, lam)
    f = _arrow(rd, p, "F", 0, lam)
    u = idempotent(rd, p, lam)
    assert e * u == e
    down = _arrow(rd, p, "F", 0, rd.add_root(lam, 0, +1))
    assert u * down == down
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
    assert divided_power("E", 0, 1, lam, rd, p) == _arrow(rd, p, "E", 0, lam)
    dp2 = divided_power("E", 0, 2, lam, rd, p)
    ((w, c),) = dp2.terms.items()
    assert w.steps == (("E", 0), ("E", 0))
    assert w.source == lam and w.target == rd.add_root(rd.add_root(lam, 0, 1), 0, 1)
    assert c == p.rat(1)  # the integral form [2]! E^(2)


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
    cc = TwistScalars(rd, p).c(0, lam)
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
    # r = 2: three distinct words, scalars 1, -(s21/s12)[2, 1], (s21/s12)^2
    assert len(inst.expr.terms) == 3
    by_l = {}
    for w, c in inst.expr.terms.items():
        idx = [i for _, i in w.steps]
        by_l[len(idx) - 1 - idx.index(1)] = c
    ratio = p.rat(p.s(1, 0)) / p.rat(p.s(0, 1))
    assert by_l[0] == p.rat(1)
    assert by_l[1] == -ratio * qbinom(2, 1, p.q(0))
    assert by_l[2] == ratio * ratio


def test_ordinary_c_family(a1):
    rd, p = a1
    rels = relations_of("U", rd, p)
    (c_inst,) = [r for r in rels if r.family == "c"]
    terms = {w: c for w, c in c_inst.expr.terms.items()}
    # (v - v^-1)(E F - F E) - (K - K^-1): the integral form, with no denominator
    v = p.v()
    qdiff = p.rat(v - v.inv_unit())
    assert terms[(("E", 0), ("F", 0))] == qdiff
    assert terms[(("F", 0), ("E", 0))] == -qdiff
    assert terms[(("K", 0),)] == -p.rat(1)
    assert terms[(("Kinv", 0),)] == p.rat(1)


def test_untwisted_needs_v(a2):
    rd, p = a2
    with pytest.raises(ValueError):
        relations_of("U", rd, p)
    with pytest.raises(ValueError):
        relations_of("Udot", rd, p, window=[rd.zero_weight()])


def test_untwisted_parameters_are_lusztigs():
    """untwisted() has s = t = 1 and q_i = v^{d_i} in the same ring context;
    it is built once, is its own untwisted set, and carries the U instances,
    so straightening rules built for it apply to them."""
    for name in ("a2", "b2", "g2"):
        rd = rootdata.builtin(name)
        p = ParameterSet.v_tied(rd.cartan)
        u = p.untwisted()
        assert u is not p and u.ctx is p.ctx and u.v() == p.v()
        assert p.untwisted() is u and u.untwisted() is u
        for i in rd.index_set:
            assert u.q(i) == p.v() ** rd.cartan.d(i)
            assert all(u.s(i, j) == 1 and u.t(i, j) == 1 for j in rd.index_set)
        assert all(r.expr.params is u for r in relations_of("U", rd, p))
        assert all(r.expr.params is u for r in relations_of("Udot", rd, p, [rd.zero_weight()]))
        with pytest.raises(ValueError):
            ParameterSet.generic(rd.cartan).untwisted()


def test_untied_serre_sums_keep_their_own_q():
    """a2 with q_i = v^2, not v: the scrU Serre sums are in q_i = v^2 and the
    U ones in v^{d_i} = v, and both sets share one ring context, so the
    q-binomial cache must tell them apart by q_i.  Each coefficient is
    (-1)^l ratio^l binom(r, l) in the sum's own parameter."""
    rd = rootdata.builtin("a2")
    tied = ParameterSet.v_tied(rd.cartan)
    v, idx = tied.v(), rd.index_set
    p = ParameterSet(rd.cartan, tied.ctx, [v**2 for _ in idx],
                     [[tied.s(i, j) for j in idx] for i in idx],
                     [[tied.t(i, j) for j in idx] for i in idx], v=v, label="untied")
    assert not p.q_tied_to_v()
    seen = 0
    for algebra, q in (("scrU", v**2), ("U", v), ("scrU", v**2)):
        for inst in relations_of(algebra, rd, p):
            if inst.family not in ("d-E", "d-F"):
                continue
            i, j = inst.i, inst.j
            r = rd.cartan.serre_exponent(i, j)
            fam = p.s if inst.family == "d-E" else p.t
            ratio = p.rat(fam(j, i)) / p.rat(fam(i, j)) if algebra == "scrU" else p.rat(1)
            for word, c in inst.expr.terms.items():
                at = [k for _, k in word].index(j)
                l = r - at if inst.family == "d-E" else at
                expected = p.rat(qbinom(r, l, q)) * ratio**l * (-1) ** l
                assert c == expected, (algebra, inst.id, word)
                seen += 1
    assert seen == 3 * 4 * 3


def test_window_required(a1):
    rd, p = a1
    with pytest.raises(ValueError):
        relations_of("scrUdot", rd, p, window=[])


def _a2_raising_serre(p):
    """The a2 raising Serre sum d-E:i1:j2 of scrU, word -> coefficient."""
    rd = rootdata.builtin("a2")
    (inst,) = [x for x in relations_of("scrU", rd, p) if x.id == "d-E:i1:j2"]
    return dict(inst.expr.terms)


def test_serre_binomial_example(a2):
    """The a2 raising Serre sum of scrU is the Gaussian binomial form
    E1E1E2 - ratio [2, 1] E1E2E1 + ratio^2 E2E1E1."""
    rd, p = a2
    words = _a2_raising_serre(p)
    E, F = ("E", 0), ("E", 1)
    ratio = p.rat(p.s(1, 0)) / p.rat(p.s(0, 1))
    assert words == {(E, E, F): p.rat(1), (E, F, E): -ratio * qbinom(2, 1, p.q(0)),
                     (F, E, E): ratio * ratio}
    # a Serre relation joins two distinct indices
    serre = [x for x in relations_of("scrU", rd, p) if x.family in ("d-E", "d-F")]
    assert serre and all(x.i != x.j for x in serre)


def test_serre_binomial_is_integral_form():
    """Each coefficient of each scrU Serre sum, raising and lowering, for
    both index orders and r = 1 (a1xa1), 2 (a2), 3 (b2) and 4 (g2), is
    (-1)^l ratio^l binom(r, l)_{q_i}, built from coeffring alone,
    with l read off the word: the E_i right of E_j, or the F_i left of F_j.
    The parameters are generic and, for the one-parameter limit, s = t = 1."""
    seen = set()
    for name in ("a1xa1", "a2", "b2", "g2"):
        rd = rootdata.builtin(name)
        for p in (ParameterSet.generic(rd.cartan), ParameterSet.v_tied(rd.cartan).untwisted()):
            for inst in relations_of("scrU", rd, p):
                if inst.family not in ("d-E", "d-F"):
                    continue
                i, j = inst.i, inst.j
                r = rd.cartan.serre_exponent(i, j)
                fam = p.s if inst.family == "d-E" else p.t
                ratio = p.rat(fam(j, i)) / p.rat(fam(i, j))
                ls = []
                for word, c in inst.expr.terms.items():
                    at = [k for _, k in word].index(j)
                    l = r - at if inst.family == "d-E" else at
                    ls.append(l)
                    expected = p.rat(qbinom(r, l, p.q(i))) * ratio**l * (-1) ** l
                    assert c == expected, (name, p.label, inst.id, word)
                assert sorted(ls) == list(range(r + 1)), (name, inst.id)
                seen.add((name, p.label, inst.family, i, j, r))
    assert len(seen) == 4 * 2 * 2 * 2
    assert {r for *_, r in seen} == {1, 2, 3, 4}


def test_serre_binomial_untwisted_limit():
    """In the one-parameter limit the a2 raising Serre sum is the classical
    E1E1E2 - [2, 1]_v E1E2E1 + E2E1E1."""
    rd = rootdata.builtin("a2")
    p = ParameterSet.v_tied(rd.cartan).untwisted()
    words = _a2_raising_serre(p)
    E, F = ("E", 0), ("E", 1)
    assert words[(E, E, F)] == p.rat(1)
    assert words[(E, F, E)] == -p.rat(qbinom(2, 1, p.v() ** rd.cartan.d(0)))
    assert words[(F, E, E)] == p.rat(1)


def test_untwisted_presentation_is_trivial_twist_image():
    """The single-parameter relations equal the twisted ones under s = t = 1,
    q_i = v^{d_i}, with the second K-family folded onto the inverses."""
    rd = rootdata.builtin("a2")
    p = ParameterSet.v_tied(rd.cartan).untwisted()
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


def _times_factorial(expr, r, qi):
    """expr times [r]!_{q_i}, each coefficient cancelled to its polynomial."""
    fact = qfact(r, qi)
    return expr._new({w: (c * fact).simplified() for w, c in expr.terms.items()})


def _literal_serre(inst, rd, p, twisted):
    """The Serre sum at inst's weight, built term by term from divided powers
    and arrows, each term scaled by (-1)^l ratio^l, then times [r]!: the
    integral form.  A divided power is its word times 1/[m]! in q_i, or in
    v^{d_i} for the untwisted sum."""
    i, j, lam = inst.i, inst.j, inst.lam
    r = rd.cartan.serre_exponent(i, j)
    fam = p.s if inst.family == "d-E" else p.t
    ratio = p.rat(fam(j, i)) / p.rat(fam(i, j)) if twisted else p.rat(1)
    qi = p.q(i) if twisted else p.v() ** rd.cartan.d(i)

    def dp(kind, m, at):
        (word,) = divided_power(kind, i, m, at, rd, p).terms
        return PathExpr.of(rd, p, word, p.rat(1) / p.rat(qfact(m, qi)))

    acc = PathExpr.zero(rd, p)
    for l in range(r + 1):
        mid = lam
        for _ in range(l):
            mid = rd.add_root(mid, i, +1)
        top = rd.add_root(mid, j, +1)
        if inst.family == "d-E":
            term = dp("E", r - l, top) * _arrow(rd, p, "E", j, mid) * dp("E", l, lam)
        else:
            term = dp("F", l, lam) * _arrow(rd, p, "F", j, top) * dp("F", r - l, top)
        acc = acc + term.scale(ratio**l * (-1) ** l)
    return _times_factorial(acc, r, qi)


def _literal_zero_family(inst, rd, p):
    """The idempotent or weight-absorption instance at inst's weight as the
    literal path product minus the expected generator."""
    lam, i = inst.lam, inst.i
    unit = idempotent(rd, p, lam)
    if inst.family == "a":
        return unit * unit - unit
    kind, side = inst.part.split("-")
    if side == "right":
        # the arrow out of lam, absorbing 1_lam on its right
        arrow = _arrow(rd, p, kind, i, lam)
        return arrow * unit - arrow
    # the arrow into lam, absorbing 1_lam on its left
    arrow = PathExpr.of(rd, p, PathWord(rd, lam, ((kind, i),)))
    return unit * arrow - arrow


def _literal_nc_serre(inst, p, twisted):
    """The free-word Serre sum of inst, built term by term as the product of
    a divided power, the j-th generator and a divided power, each term
    scaled by (-1)^l ratio^l, then times [r]!: the integral form."""
    i, j, kind = inst.i, inst.j, inst.family[-1]
    r = p.cartan.serre_exponent(i, j)
    fam = p.s if kind == "E" else p.t
    ratio = p.rat(fam(j, i)) / p.rat(fam(i, j)) if twisted else p.rat(1)

    qi = p.q(i) if twisted else p.v() ** p.cartan.d(i)

    def dp(m):
        return NCExpr.word(p, ((kind, i),) * m, p.rat(1) / p.rat(qfact(m, qi)))

    acc = NCExpr.zero(p)
    for l in range(r + 1):
        arrow = NCExpr.word(p, ((kind, j),))
        term = dp(r - l) * arrow * dp(l) if kind == "E" else dp(l) * arrow * dp(r - l)
        acc = acc + term.scale(ratio**l * (-1) ** l)
    return _times_factorial(acc, r, qi)


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
        serre = zero = 0
        for inst in relations_of(algebra, rd, p, window=rd.weights_box(1)):
            for w in inst.expr.terms:
                assert w.source == PathWord(rd, w.target, w.steps).source, (inst.id, w)
            if inst.family in ("a", "b"):
                literal = _literal_zero_family(inst, rd, p)
                assert inst.expr == literal, inst.id
                assert str(inst.expr) == str(literal), inst.id
                zero += 1
            if inst.family in ("d-E", "d-F"):
                literal = _literal_serre(inst, rd, p, algebra == "scrUdot")
                assert inst.expr == literal, inst.id
                # same representation, hence the same printed scalars
                assert str(inst.expr) == str(literal), inst.id
                serre += 1
        assert serre == 2 * rd.n * (rd.n - 1) * len(rd.weights_box(1))
        assert zero == (1 + 4 * rd.n) * len(rd.weights_box(1))
    # the unital presentations place the same weight-free terms as free words
    for algebra in ("U", "scrU"):
        serre = [r for r in relations_of(algebra, rd, p) if r.family in ("d-E", "d-F")]
        for inst in serre:
            literal = _literal_nc_serre(inst, p, algebra == "scrU")
            assert inst.expr == literal, inst.id
            assert str(inst.expr) == str(literal), inst.id
        assert len(serre) == 2 * rd.n * (rd.n - 1)


def _pair_cases():
    """(label, root datum, parameters) for the paired builder: five built-ins
    v-tied, and the super2 and two-param rings on a2."""
    for name in ("a1", "a1xa1", "a2", "b2", "g2"):
        rd = rootdata.builtin(name)
        yield name, rd, ParameterSet.v_tied(rd.cartan)
    for case in ("super2", "two-param"):
        spec = specializations.make(case, rootdata.builtin("a2"))
        yield "a2-" + case, spec.rd, spec.params


@pytest.mark.parametrize("case", list(_pair_cases()), ids=lambda c: c[0])
def test_untwisted_side_is_lusztigs_presentation(case):
    """The untwisted side of each (untwisted, twisted) pair is the twisted
    side of the pairs built over params.untwisted(), term for term; the
    family-c and d sides share their PathWord objects, families a and b are
    zero on both sides, and the pairs come out in sort_key order."""
    _, rd, p = case
    u, window = p.untwisted(), rd.weights_box(1)
    pairs = modified_relations(rd, (u, p), window)
    lusztig = modified_relations(rd, (u, u), window)
    assert [r.id for r in pairs] == [r.id for r in lusztig]
    keys = [r.sort_key() for r in pairs]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    shared = paired = 0
    for rel, ref in zip(pairs, lusztig):
        x, target = rel.expr(0), rel.expr(1)
        assert x.params is u and target.params is p
        assert x == ref.expr(1) and str(x) == str(ref.expr(1)), rel.id
        if rel.family in ("a", "b"):
            assert rel.exprs is None and x.is_zero() and target.is_zero(), rel.id
            continue
        assert {id(w) for w in x.terms} == {id(w) for w in target.terms}, rel.id
        shared, paired = shared + len(x.terms), paired + 1
    assert paired > 0 and shared >= 2 * paired


def _integral_cases():
    """(label, root datum, parameters, algebras) for the integral-form guard:
    the five built-ins v-tied and generic (no U without a base v), and each
    a2 specialization, sign variables included."""
    for name in sorted(rootdata.BUILTINS):
        rd = rootdata.builtin(name)
        yield name + "-v-tied", rd, ParameterSet.v_tied(rd.cartan), ("U", "scrU", "Udot", "scrUdot")
        yield name + "-generic", rd, ParameterSet.generic(rd.cartan), ("scrU", "scrUdot")
    for case in sorted(specializations.CASES):
        spec = specializations.make(case, rootdata.builtin("a2"))
        yield "a2-" + case, spec.rd, spec.params, ("U", "scrU", "Udot", "scrUdot")


@pytest.mark.parametrize("case", list(_integral_cases()), ids=lambda c: c[0])
def test_every_relation_coefficient_is_a_laurent_polynomial(case):
    """Every relation instance of every presentation is built in integral
    form: the Serre sums times [r]!_{q_i} and the mixed relation c_ii times
    q_i - q_i^{-1}, so no coefficient carries a denominator."""
    _, rd, p, algebras = case
    for algebra in algebras:
        window = rd.weights_box(1) if algebra.endswith("dot") else None
        instances = relations_of(algebra, rd, p, window)
        assert instances, algebra
        bad = [(inst.id, str(c)) for inst in instances for c in inst.expr.terms.values()
               if not c.den.is_one()]
        assert bad == [], algebra
