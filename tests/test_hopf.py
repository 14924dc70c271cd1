"""Coproduct, counit, antipode, and the bialgebra axiom campaign."""

import hashlib
import json
import random

import pytest
from oracles import star_mul

from qtwist import hopf, rootdata, specializations
from qtwist.coeffring import LaurentPoly, qint
from qtwist.hopf import (
    GENERATORS,
    HopfContext,
    _delta_symbol,
    antipode,
    counit,
    delta,
    verify_antipode,
    verify_bialgebra,
    verify_coproduct_powers,
    verify_coproduct_serre,
    verify_hopf,
)
from qtwist.ncalg import _KIND_RANK, NCExpr, TensorExpr, tmul, word_key
from qtwist.params import ParameterSet
from qtwist.presentations import relations_of


@pytest.fixture()
def a1ctx():
    rd = rootdata.builtin("a1")
    return HopfContext(rd, ParameterSet.v_tied(rd.cartan))


@pytest.fixture()
def a2ctx():
    rd = rootdata.builtin("a2")
    return HopfContext(rd, ParameterSet.v_tied(rd.cartan))


def test_delta_generators(a1ctx):
    ctx = a1ctx
    p = ctx.params
    dK = delta(ctx, NCExpr.word(p, (("K", 0),)))
    assert dK == TensorExpr(p, {((("K", 0),), (("K", 0),)): p.one()})
    d1 = delta(ctx, NCExpr.unit(p))
    assert d1 == TensorExpr.unit(p, 2)
    dE = delta(ctx, NCExpr.word(p, (("E", 0),)))
    assert dE.terms[((("E", 0),), ())] == p.rat(1)
    assert dE.terms[((("K", 0),), (("E", 0),))] == p.rat(1)
    dF = delta(ctx, NCExpr.word(p, (("F", 0),)))
    assert dF.terms[((), (("F", 0),))] == p.rat(1)
    assert dF.terms[((("F", 0),), (("Kp", 0),))] == p.rat(1)


@pytest.mark.parametrize("name", ["a1", "a1xa1", "a2", "b2", "g2"])
def test_delta_and_antipode_of_every_generator(name):
    """Delta and S of all six generator kinds at every index, written out:
    K-types are grouplike and S inverts them, Delta(E) = E x 1 + K x E,
    Delta(F) = 1 x F + F x Kp, S(E) = -Kinv E and S(F) = -F Kpinv."""
    rd = rootdata.builtin(name)
    ctx = HopfContext(rd, ParameterSet.v_tied(rd.cartan))
    p = ctx.params
    inverse = {"K": "Kinv", "Kinv": "K", "Kp": "Kpinv", "Kpinv": "Kp"}
    for i in rd.index_set:
        for kind, inv in inverse.items():
            w = ((kind, i),)
            assert delta(ctx, NCExpr.word(p, w)) == TensorExpr.word(p, (w, w))
            assert antipode(ctx, NCExpr.word(p, w)) == NCExpr.word(p, ((inv, i),))
        e, f = (("E", i),), (("F", i),)
        k, kp = (("K", i),), (("Kp", i),)
        assert delta(ctx, NCExpr.word(p, e)) == TensorExpr(p, {(e, ()): p.one(), (k, e): p.one()})
        assert delta(ctx, NCExpr.word(p, f)) == TensorExpr(p, {((), f): p.one(), (f, kp): p.one()})
        assert antipode(ctx, NCExpr.word(p, e)) == NCExpr.word(p, (("Kinv", i), ("E", i)), -1)
        assert antipode(ctx, NCExpr.word(p, f)) == NCExpr.word(p, (("F", i), ("Kpinv", i)), -1)


def test_generator_table_has_every_letter_kind():
    """A new letter kind cannot arrive without a coproduct and an antipode."""
    assert set(GENERATORS) == set(_KIND_RANK)


def test_delta_square_coefficient(a1ctx):
    """Expanding (E x 1 + K x E)^2 with the q^2-commutation gives coefficient
    q [2] on the (E x 1)(K x E) product; in K-left normal form that word is
    s t q^-2 (KE x E), so the normal-form coefficient is s t q^-1 [2]."""
    ctx = a1ctx
    p = ctx.params
    q = p.q(0)
    dE = delta(ctx, NCExpr.word(p, (("E", 0),)))
    sq = ctx.tnf(tmul(dE, dE))
    nf_word = ((("K", 0), ("E", 0)), (("E", 0),))
    expected = p.rat(p.s(0, 0) * p.t(0, 0) * q.inv_unit() * qint(2, q))
    assert sq.terms[nf_word] == expected
    # and the oracle route: coefficient q[2] against the product form
    prod = tmul(
        TensorExpr(p, {((("E", 0),), ()): p.one()}),
        TensorExpr(p, {((("K", 0),), (("E", 0),)): p.one()}),
    )
    oracle = ctx.tnf(prod.scale(q * qint(2, q)))
    assert oracle.terms[nf_word] == expected


def test_coproduct_powers(a2ctx):
    for i in a2ctx.rd.index_set:
        recs = verify_coproduct_powers(a2ctx, i, nmax=4)
        assert all(r.status == "pass" for r in recs)


def test_delta_preserves_total_degree(a2ctx):
    from qtwist.ncalg import grade

    ctx = a2ctx
    p = ctx.params
    word = (("E", 0), ("F", 1), ("E", 1), ("K", 0))
    img = delta(ctx, NCExpr.word(p, word))
    want = grade(word, 2)
    for (w1, w2) in img.terms:
        total = tuple(a + b for a, b in zip(grade(w1, 2), grade(w2, 2)))
        assert total == want


def test_coproduct_powers_b2_g2():
    for name in ("b2", "g2"):
        rd = rootdata.builtin(name)
        ctx = HopfContext(rd, ParameterSet.v_tied(rd.cartan))
        for i in rd.index_set:
            recs = verify_coproduct_powers(ctx, i, nmax=4)
            assert all(r.status == "pass" for r in recs), name


@pytest.mark.parametrize("name", ["a2", "g2"])
def test_coproduct_power_stays_small(monkeypatch, name):
    """Delta(E_i)^n is straightened after every factor: no tensor handed to
    the straightener has more than 2 (nmax + 1) terms, where the
    unstraightened power would carry all 2^nmax words."""
    nmax = 11
    sizes = []
    tnf = HopfContext.tnf

    def recording_tnf(self, x):
        sizes.append(len(x.terms))
        return tnf(self, x)

    monkeypatch.setattr(HopfContext, "tnf", recording_tnf)
    rd = rootdata.builtin(name)
    ctx = HopfContext(rd, ParameterSet.v_tied(rd.cartan))
    for i in rd.index_set:
        recs = verify_coproduct_powers(ctx, i, nmax)
        assert all(r.status == "pass" for r in recs)
    assert sizes and max(sizes) <= 2 * (nmax + 1)


def _k_datum(k):
    """The rank-2 datum with dot [[2, -k], [-k, 2]] (alpha and coweight the
    identity, coroot the Cartan matrix): a_12 = a_21 = -k, so its Serre
    words have length k + 2."""
    return rootdata.from_dict({"I_size": 2, "dot": [[2, -k], [-k, 2]], "X_rank": 2,
                               "alpha": [[1, 0], [0, 1]], "coroot": [[2, -k], [-k, 2]],
                               "coweight": [[1, 0], [0, 1]]}, name="k%d" % k)


def _serre_words(rd, p):
    return {w for inst in relations_of("scrU", rd, p) if inst.family in ("d-E", "d-F")
            for w in inst.expr.terms}


@pytest.mark.parametrize("name", ["a1", "a2", "b2", "g2", "k6"])
@pytest.mark.parametrize("make", [ParameterSet.v_tied, ParameterSet.generic], ids=["v-tied", "generic"])
def test_delta_per_factor_is_the_straightened_product(name, make):
    """Delta of every Serre word, and of words that put K-type letters after
    E/F letters, is the straightened product of its letters' coproducts,
    straightened once at the end by a context of its own."""
    rd = _k_datum(6) if name == "k6" else rootdata.builtin(name)
    p = make(rd.cartan)
    ctx, fresh = HopfContext(rd, p), HopfContext(rd, p)
    words = _serre_words(rd, p)
    for i in rd.index_set:
        for j in rd.index_set:
            words.add((("E", i), ("F", j), ("K", j), ("E", j), ("Kpinv", i)))
            words.add((("F", i), ("Kinv", j), ("E", i), ("Kp", j), ("F", j)))
    for word in sorted(words, key=word_key):
        product = TensorExpr.unit(p, 2)
        for sym in word:
            product = tmul(product, _delta_symbol(ctx, sym))
        assert delta(ctx, NCExpr.word(p, word)) == fresh.tnf(product), word


@pytest.mark.parametrize("name", ["a1", "a1xa1", "a2", "b2", "g2", "k6"])
def test_antipode_is_the_star_product_of_the_generator_images(name):
    """S of a word, built as one word, equals the *-product fold of its
    letters' signed images in GENERATORS (oracles.star_mul), on every scrU
    word and on words that put K-type letters after E/F letters, in the v-tied
    and generic rings and the ring of each specialization case."""
    rd = _k_datum(6) if name == "k6" else rootdata.builtin(name)
    rings = [ParameterSet.v_tied(rd.cartan), ParameterSet.generic(rd.cartan)]
    for p in rings + [specializations.make(case, rd).params for case in specializations.CASES]:
        ctx = HopfContext(rd, p)
        words = {w for inst in relations_of("scrU", rd, p) for w in inst.expr.terms}
        for i in rd.index_set:
            for j in rd.index_set:
                words.add((("E", i), ("F", j), ("K", j), ("E", j), ("Kpinv", i)))
                words.add((("F", i), ("Kinv", j), ("E", i), ("Kp", j), ("F", j)))
        for word in sorted(words, key=word_key):
            fold = NCExpr.unit(p)
            for kind, i in word:
                _, sign, image = GENERATORS[kind]
                fold = star_mul(p, fold, NCExpr.word(p, tuple((k, i) for k in image), sign))
            assert antipode(ctx, NCExpr.word(p, word)) == fold, (p.label, word)


def test_coproduct_power_closed_form_takes_no_tensor_product(monkeypatch):
    """At nmax 11 the coproduct powers of E_1 on a2 call tmul 11 times, once
    per factor: delta extends the memoised E_1^{n-1} to E_1^n, Delta(E_1)
    being the n = 1 power; the closed form is written as one tensor, with no
    product."""
    calls = []
    real_tmul = hopf.tmul

    def counting_tmul(a, b):
        calls.append(1)
        return real_tmul(a, b)

    monkeypatch.setattr(hopf, "tmul", counting_tmul)
    rd = rootdata.builtin("a2")
    recs = verify_coproduct_powers(HopfContext(rd, ParameterSet.v_tied(rd.cartan)), 0, 11)
    assert all(r.status == "pass" for r in recs)
    assert len(calls) == 11


@pytest.mark.parametrize("name, expected", [("a2", 10), ("b2", 14), ("g2", 19)])
def test_coproduct_serre_extends_the_memoised_powers(monkeypatch, name, expected):
    """After the coproduct powers at nmax 11 for every i, Delta of each Serre
    word E_i^a E_j E_i^b extends its longest memoised prefix, so the Serre
    check calls tmul once per letter past that prefix: 10, 14 and 19 times
    on a2, b2 and g2, where a product from the unit takes 18, 25 and 34."""
    rd = rootdata.builtin(name)
    ctx = HopfContext(rd, ParameterSet.v_tied(rd.cartan))
    for i in rd.index_set:
        verify_coproduct_powers(ctx, i, 11)
    calls = []
    real_tmul = hopf.tmul

    def counting_tmul(a, b):
        calls.append(1)
        return real_tmul(a, b)

    monkeypatch.setattr(hopf, "tmul", counting_tmul)
    recs = verify_coproduct_serre(ctx, relations_of("scrU", rd, ctx.params))
    assert recs and all(r.status == "pass" for r in recs)
    assert len(calls) == expected


@pytest.mark.parametrize("name", ["a2", "b2", "g2"])
@pytest.mark.parametrize("make", [ParameterSet.v_tied, ParameterSet.generic], ids=["v-tied", "generic"])
def test_delta_of_random_combinations_is_the_product_from_the_unit(name, make):
    """delta of random combinations of words, many of them extensions of
    words already asked for, with unit and non-unit coefficients, equals the
    sum of each word's product of its letters' coproducts from the unit,
    straightened after every factor by a context of its own, times its
    coefficient; each call stores exactly its uncached words."""
    rd = rootdata.builtin(name)
    p = make(rd.cartan)
    ctx, fresh = HopfContext(rd, p), HopfContext(rd, p)
    letters = [(kind, i) for kind in GENERATORS for i in rd.index_set]
    rng = random.Random(0)
    words = [()]
    for _ in range(12):
        combo = {}
        for _ in range(rng.randint(1, 4)):
            base = rng.choice([w for w in words if len(w) <= 4])
            word = base + tuple(rng.choice(letters) for _ in range(rng.randint(0, 2)))
            words.append(word)
            combo[word] = p.rat(rng.choice((-2, -1, 1, 3, p.q(0) + 1)))
        expected = TensorExpr.zero(p)
        for word, c in combo.items():
            product = TensorExpr.unit(p, 2)
            for sym in word:
                product = fresh.tnf(tmul(product, _delta_symbol(fresh, sym)))
            expected = expected + product.scale(c)
        size, uncached = len(ctx._delta_cache), len(combo.keys() - ctx._delta_cache.keys())
        assert delta(ctx, NCExpr(p, combo)) == expected
        assert len(ctx._delta_cache) == size + uncached


@pytest.mark.parametrize("name", ["a1", "a1xa1", "a2", "b2", "g2"])
@pytest.mark.parametrize("make", [ParameterSet.v_tied, ParameterSet.generic], ids=["v-tied", "generic"])
def test_delta_of_every_scru_instance_is_a_normal_form(name, make):
    """delta hands back normal forms, so its callers compare it without
    straightening again: straightening Delta of each scrU instance changes
    no key and no coefficient."""
    rd = rootdata.builtin(name)
    p = make(rd.cartan)
    ctx = HopfContext(rd, p)
    for inst in relations_of("scrU", rd, p):
        d = delta(ctx, inst.expr)
        straightened = ctx.tnf(d)
        assert straightened.terms.keys() == d.terms.keys(), inst.id
        assert all(straightened.terms[k] == c for k, c in d.terms.items()), inst.id


def test_delta_of_a_long_serre_word_stays_small(monkeypatch):
    """Delta of a word is straightened after every factor: on the k = 12
    datum, whose Serre words have length L = 14, no tensor that delta hands
    to the straightener has more than (L+1)^2 terms, where the unstraightened
    product would carry all 2^L."""
    sizes = []
    tnf = HopfContext.tnf

    def recording_tnf(self, x):
        sizes.append(len(x.terms))
        return tnf(self, x)

    monkeypatch.setattr(HopfContext, "tnf", recording_tnf)
    rd = _k_datum(12)
    ctx = HopfContext(rd, ParameterSet.v_tied(rd.cartan))
    words = _serre_words(rd, ctx.params)
    assert {len(w) for w in words} == {14}
    for word in words:
        delta(ctx, NCExpr.word(ctx.params, word))
    assert sizes and max(sizes) <= 15**2


def test_coproduct_serre_all_data():
    for name in ("a2", "b2", "g2"):
        rd = rootdata.builtin(name)
        ctx = HopfContext(rd, ParameterSet.v_tied(rd.cartan))
        recs = verify_coproduct_serre(ctx, relations_of("scrU", rd, ctx.params))
        assert len(recs) == rd.n * (rd.n - 1), name
        for rec in recs:
            assert rec.status == "pass", (name, rec.id, rec.witness)


def test_counit(a1ctx):
    p = a1ctx.params
    assert counit(a1ctx, NCExpr.word(p, (("K", 0), ("Kpinv", 0)))) == p.rat(1)
    assert counit(a1ctx, NCExpr.word(p, (("E", 0),))).is_zero()
    assert counit(a1ctx, NCExpr.word(p, (("K", 0), ("F", 0)))).is_zero()


def test_star_product_is_associative_and_twisted(a1ctx):
    p = a1ctx.params
    E = NCExpr.word(p, (("E", 0),))
    F = NCExpr.word(p, (("F", 0),))
    K = NCExpr.word(p, (("K", 0),))
    # x * y = s(|y|,|x|) t(|x|,|y|) yx
    prod = star_mul(p, E, F)
    ((w, c),) = prod.terms.items()
    assert w == (("F", 0), ("E", 0))
    assert c == p.rat(p.s(0, 0).inv_unit() * p.t(0, 0).inv_unit())
    for a in (E, F, K):
        for b in (E, F, K):
            for cc in (E, F, K):
                assert star_mul(p, star_mul(p, a, b), cc) == star_mul(
                    p, a, star_mul(p, b, cc)
                )


def test_antipode_generator_images(a1ctx):
    ctx = a1ctx
    p = ctx.params
    assert antipode(ctx, NCExpr.word(p, (("K", 0),))) == NCExpr.word(p, (("Kinv", 0),))
    assert antipode(ctx, NCExpr.unit(p)) == NCExpr.unit(p)
    img = ctx.nf(antipode(ctx, NCExpr.word(p, (("E", 0), ("E", 0)))))
    # S(E^l) = (-1)^l q^{l(l-1)} K^{-l} E^l at l = 2
    assert img == NCExpr.word(
        p, (("Kinv", 0), ("Kinv", 0), ("E", 0), ("E", 0)), p.q(0) ** 2
    )


def test_antipode_campaign_scalars(a1ctx):
    recs = verify_antipode(a1ctx, relations_of("scrU", a1ctx.rd, a1ctx.params))
    assert all(r.status == "pass" for r in recs)
    (rec,) = [r for r in recs if r.id == "antipode-c:i1:j1"]
    # the mixed-relation image is -(K^-1 Kp^-1) times the relation itself:
    # the printed chain's prefactor multiplies the negated relation
    assert rec.scalar == "-1 * Kinv1*Kpinv1"


def test_antipode_campaign_a2_b2():
    for name in ("a2", "b2"):
        rd = rootdata.builtin(name)
        ctx = HopfContext(rd, ParameterSet.v_tied(rd.cartan))
        recs = verify_antipode(ctx, relations_of("scrU", rd, ctx.params))
        assert all(r.status == "pass" for r in recs), name


def test_bialgebra_axioms():
    for name in ("a1", "a2", "b2"):
        rd = rootdata.builtin(name)
        ctx = HopfContext(rd, ParameterSet.v_tied(rd.cartan))
        recs = verify_bialgebra(ctx)
        assert all(r.status == "pass" for r in recs), name


def test_full_campaign_reports(a1ctx):
    rep = verify_hopf(a1ctx.rd, a1ctx.params)
    assert rep.ok
    assert rep.summary["pass"] > 20


def test_negative_control_untied_parameters():
    """With free deformation parameters the compatibility hypothesis fails
    and the campaign must fail loudly with witness terms, exactly on the
    off-diagonal antipode and coproduct Serre records."""
    for name in ("a2", "b2", "g2"):
        rd = rootdata.builtin(name)
        rep = verify_hopf(rd, ParameterSet.generic(rd.cartan))
        assert rep.summary == {"pass": 76, "fail": 7, "warn": 0}, name
        fails = rep.failures()
        assert sorted(c.id for c in fails) == [
            "antipode-c:i1:j2", "antipode-c:i2:j1",
            "antipode-serre:i1:j2", "antipode-serre:i2:j1",
            "coprod-serre:i1:j2", "coprod-serre:i2:j1",
            "hypothesis:q-compat",
        ], name
        assert all(c.witness for c in fails), name


@pytest.mark.parametrize("name", ["a2", "g2"])
def test_campaign_divides_no_polynomial(monkeypatch, name):
    """The campaign reads the scrU relations as built: the Serre sums are
    already in integral form, so no coefficient is divided out again."""
    calls = []
    exact_div = LaurentPoly.exact_div

    def spy(self, other):
        calls.append(other)
        return exact_div(self, other)

    monkeypatch.setattr(LaurentPoly, "exact_div", spy)
    rd = rootdata.builtin(name)
    rep = verify_hopf(rd, ParameterSet.v_tied(rd.cartan), nmax=3)
    assert rep.summary == {"pass": 80, "fail": 0, "warn": 0}
    assert calls == []


# sha256 of the (datum, ring label, id, status, scalar, witness) lines of every
# verify_hopf record below: a rewrite of the Hopf campaign that is meant to
# leave its reports alone keeps this digest, in every ring, untied included.
HOPF_RECORDS_DIGEST = "86a70b043c5ff4046dfa68120b56be19bc56ed593409f046f8c9787c5a9d29d6"


def test_every_hopf_record_is_pinned():
    """Every Hopf record at nmax 5 on a1, a1xa1, a2, b2 and g2, in the v-tied
    and generic rings and the ring of each specialization case."""
    digest = hashlib.sha256()
    count = 0
    for name in ("a1", "a1xa1", "a2", "b2", "g2"):
        rd = rootdata.builtin(name)
        rings = [ParameterSet.v_tied(rd.cartan), ParameterSet.generic(rd.cartan)]
        rings += [specializations.make(case, rd).params for case in specializations.CASES]
        for p in rings:
            for rec in verify_hopf(rd, p, nmax=5).checks:
                line = json.dumps([name, p.label, rec.id, rec.status, rec.scalar, rec.witness])
                digest.update(line.encode() + b"\n")
                count += 1
    assert count == 2229
    assert digest.hexdigest() == HOPF_RECORDS_DIGEST
