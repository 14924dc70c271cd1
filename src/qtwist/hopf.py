"""Twisted bialgebra and Hopf structure: coproduct, counit, antipode, and
the mechanical verification of their compatibility with the presentation.

Everything here computes in the auxiliary algebra presented by the K-type
commutation relations only, so straightening plus free-word linear algebra
decides each identity.  The coproduct lands in the bicharacter-twisted
tensor square: ``delta`` takes Delta of a word by extending its longest
memoised prefix, the coproduct powers and the Serre check read it, and the
closed form of Delta(E_i)^n is built as the one tensor it is.  The antipode
lands in the opposite algebra whose product is twisted by both
bicharacters, x * y = s(|y|,|x|) t(|x|,|y|) yx, so S of a word is one
word: its letters' images reversed, times one unit.

The compatibility of the coproduct with the quantum Serre relation reduces,
after expansion, to the vanishing of alternating Gaussian-binomial sums;
the antipode carries the Serre sum and the mixed E/F relation to exact
unit-monomial multiples of themselves.  The K-monomial of that multiple is
predicted from the relation's letters (``k_monomial``: K_i^{-1} per E_i,
Kp_i^{-1} per F_i), so the check is one exact-multiple test
(``LinComb.multiple_of``) against it, never a search of the image and never
general ideal membership.  Both read the scrU relation instances as
``relations_of`` builds them, in integral form, so no coefficient is
divided.

All of this requires the deformation parameters to satisfy
q_i^{a_ij} = q_j^{a_ji}; contexts built from a parameter set where the q_i
are not tied to a common base record the defect and the checks then fail
loudly with a witness term, which is the intended negative control.
"""

from __future__ import annotations

from itertools import product

from .coeffring import qbinom
from .ncalg import (
    NCExpr,
    StraightenRules,
    TensorExpr,
    grade,
    merge_term,
    pair_twist,
    straighten,
    times_unit,
    tmul,
    word_key,
    word_str,
)
from .params import ParameterSet
from .presentations import relations_of
from .report import FAIL, CheckRecord, Report
from .rootdata import RootDatum


class HopfContext:
    """Root datum, parameters, and the K-straightening rules used throughout."""

    def __init__(self, rd: RootDatum, params: ParameterSet):
        self.rd = rd
        self.params = params
        self.rules = StraightenRules(rd, params)
        self.hypothesis_ok = all(
            params.q(i) ** rd.cartan.a(i, j) == params.q(j) ** rd.cartan.a(j, i)
            for i in rd.index_set
            for j in rd.index_set
        )
        self._delta_cache: dict = {}

    def nf(self, x: NCExpr) -> NCExpr:
        return straighten(x, self.rules)

    def tnf(self, x: TensorExpr) -> TensorExpr:
        return x.straighten(self.rules)


# Delta and S of each generator kind, in words of kinds at the generator's
# index: the coproduct's (left, right) tensor words, then S's sign and word.
GENERATORS = {
    "K": (((("K",), ("K",)),), 1, ("Kinv",)),
    "Kinv": (((("Kinv",), ("Kinv",)),), 1, ("K",)),
    "Kp": (((("Kp",), ("Kp",)),), 1, ("Kpinv",)),
    "Kpinv": (((("Kpinv",), ("Kpinv",)),), 1, ("Kp",)),
    "E": (((("E",), ()), (("K",), ("E",))), -1, ("Kinv", "E")),
    "F": ((((), ("F",)), (("F",), ("Kp",))), -1, ("F", "Kpinv")),
}


# The K-factor the paper's Delta and S give each E/F letter, plain then
# inverted: Delta(E_i) = E_i x 1 + K_i x E_i and S(E_i) = -K_i^{-1} E_i;
# Delta(F_i) = 1 x F_i + F_i x Kp_i and S(F_i) = -F_i Kp_i^{-1}.
_K_FACTOR = {"E": ("K", "Kinv"), "F": ("Kp", "Kpinv")}


def k_monomial(ctx: HopfContext, word, inverse: bool = False) -> tuple:
    """The straightened K-monomial of word's E/F letters: K_i for each E_i and
    Kp_i for each F_i, each inverted when inverse (the antipode's)."""
    ks = tuple((_K_FACTOR[kind][inverse], i) for kind, i in word)
    (mono,) = ctx.nf(NCExpr.word(ctx.params, ks)).terms
    return mono


def _at(kinds, i) -> tuple:
    return tuple((kind, i) for kind in kinds)


def _delta_symbol(ctx: HopfContext, sym) -> TensorExpr:
    kind, i = sym
    p = ctx.params
    return TensorExpr(p, {(_at(l, i), _at(r, i)): p.one() for l, r in GENERATORS[kind][0]})


def delta(ctx: HopfContext, x: NCExpr) -> TensorExpr:
    """Coproduct, extended to words as a product in the twisted tensor
    square, in straightened form and memoised per word; the one place Delta
    of a word is taken.  Each word's tensor is scaled by its coefficient, by
    one times_unit when that is a unit, and summed over x into one dict.

    A word not in the cache extends its longest cached proper prefix (else
    the unit) by the other letters' coproducts, straightening after each
    factor, and only that word is stored.  This is exact: a cached prefix is
    the straightened product of its letters' coproducts, so extending it
    runs the same factors as the product from the unit.  Straightening per
    factor keeps a word of length L at about (L+1)^2 tensors, not 2^L, and
    is exact too: every K symbol hops over the same E/F letters whether the
    factors or their concatenation are straightened, and ``tmul``'s twist
    depends only on the slot gradings, which straightening keeps.  No
    parameter relation is used, so all this holds for untied parameters.
    """
    cache = ctx._delta_cache
    terms: dict = {}
    for word, coeff in x.terms.items():
        cached = cache.get(word)
        if cached is None:
            n = next((m for m in range(len(word) - 1, 0, -1) if word[:m] in cache), 0)
            cached = cache[word[:n]] if n else TensorExpr.unit(ctx.params, 2)
            for sym in word[n:]:
                cached = ctx.tnf(tmul(cached, _delta_symbol(ctx, sym)))
            cache[word] = cached
        unit = coeff.num.unit_mono() if coeff.is_poly() else None
        for key, c in cached.terms.items():
            merge_term(terms, key, c * coeff if unit is None else times_unit(c, unit[1], unit[0]))
    return TensorExpr(ctx.params, terms)


def counit(ctx: HopfContext, x: NCExpr):
    """1 on K-type generators, 0 on E and F, extended multiplicatively."""
    out = ctx.params.rat(0)
    for word, coeff in x.terms.items():
        if all(kind not in ("E", "F") for kind, _ in word):
            out = out + coeff
    return out


def antipode(ctx: HopfContext, x: NCExpr) -> NCExpr:
    """Algebra map into the twisted-opposite algebra.

    On generators it is ``GENERATORS``' sign times word: E_i -> -K_i^{-1} E_i,
    F_i -> -F_i Kp_i^{-1}, K-types are inverted.  The *-product of a word's
    images is one word, the images in reverse order, times the signs and
    pair_twist(degree of the images so far, the letter's degree) per letter,
    whose monomials are summed as ints for one times_unit.
    """
    p = ctx.params
    n = p.cartan.n
    terms: dict = {}
    for word, coeff in x.terms.items():
        image, mono, c = (), 0, 1
        for kind, i in word:
            _, sign, kinds = GENERATORS[kind]
            m, tc = pair_twist(p, grade(image, n), grade(((kind, i),), n))
            mono, c = mono + m, c * sign * tc
            image = _at(kinds, i) + image
        merge_term(terms, image, times_unit(coeff, mono, c))
    return NCExpr(p, terms)


# -- verification -----------------------------------------------------------------


def verify_coproduct_powers(ctx: HopfContext, i: int, nmax: int = 4) -> list:
    """``delta`` of E_i^n against its Gaussian-binomial closed form
    sum_l q_i^{l(n-l)} binom(n,l) (E^l x 1)(K^{n-l} x E^{n-l}), written as the
    one tensor with the n+1 keys (E^l K^{n-l}, E^{n-l}) and straightened once.
    Each product is a concatenation: its twist moves K^{n-l} past the empty
    word, both of degree 0, and pair_twist(0, 0) is 1; straightening then
    supplies the scalars of K^{n-l} hopping over E^l.  Taken for n in
    order, each power extends the memoised E_i^{n-1} by one factor."""
    p = ctx.params
    q, e, k = p.q(i), ("E", i), ("K", i)
    records = []
    for n in range(nmax + 1):
        rhs = TensorExpr(p, {((e,) * l + (k,) * (n - l), (e,) * (n - l)):
                             p.rat(q ** (l * (n - l)) * qbinom(n, l, q)) for l in range(n + 1)})
        rec = CheckRecord("coprod-pow:i%d:n%d" % (i + 1, n), "coprod-pow", i, None, None)
        records.append(_compare(rec, delta(ctx, NCExpr.word(p, (e,) * n)), ctx.tnf(rhs)))
    return records


def verify_coproduct_serre(ctx: HopfContext, instances) -> list:
    """Coproduct of each raising Serre sum R of the presentation equals
    R x 1 + K^beta x R exactly, with K^beta the K-monomial of R's letters,
    as built: R's words hold only E letters and K^beta is a normal form."""
    p = ctx.params
    records = []
    for inst in instances:
        if inst.family != "d-E":
            continue
        i, j, R = inst.i, inst.j, inst.expr
        kbeta = NCExpr.word(p, k_monomial(ctx, max(R.terms, key=word_key)))
        rhs = TensorExpr.of(R, NCExpr.unit(p)) + TensorExpr.of(kbeta, R)
        rec = CheckRecord("coprod-serre:i%d:j%d" % (i + 1, j + 1), "coprod-serre", i, j)
        records.append(_compare(rec, delta(ctx, R), rhs))
    return records


def _compare(rec: CheckRecord, lhs, rhs) -> CheckRecord:
    """Mark rec FAIL with a two-sided witness unless lhs == rhs."""
    if not lhs == rhs:
        rec.status = FAIL
        rec.witness = lhs.difference_witness(rhs)
    return rec


# The antipode's multiple checks: scrU family -> record family, failure sentence.
_MULTIPLE_CHECKS = {
    "c": ("antipode-c", "image is not scalar * K-monomial * relation: "),
    "d-E": ("antipode-serre", "antipode image is not scalar * K-monomial * Serre sum: "),
}


def verify_antipode(ctx: HopfContext, instances) -> list:
    """Compatibility of the antipode with the scrU relation instances.

    Each K-conjugation instance R (family b) must have nf(S(R)) == 0.  Each
    mixed E/F instance (family c) and each raising Serre sum (family d-E),
    both in their integral form, must have nf(S(R)) == N * nf(K * R), with
    K the inverted ``k_monomial`` of R's largest word and N found by
    ``multiple_of``; so an image with a stray K-factor fails.  Families a
    and d-F are not read.

    Family c is read only up to that multiple, so a wrong relative factor
    between the two halves of c_ii, a(E_i F_i - c F_i E_i) - b(K_i - K'_i),
    passes here: S takes both halves to the same K-monomial multiple of
    themselves, whatever a and b are.  The module campaign is the one check
    of that factor (tests/test_mutations.py::
    test_wrong_mixed_relation_factor_fails_modules).
    """
    p = ctx.params
    records = []
    for inst in instances:
        i, j, R = inst.i, inst.j, inst.expr
        if inst.family == "b":
            rec = CheckRecord("antipode-b:%s:i%d:j%d" % (inst.part, i + 1, j + 1), "antipode-b", i, j)
            records.append(_compare(rec, ctx.nf(antipode(ctx, R)), NCExpr.zero(p)))
        elif inst.family in _MULTIPLE_CHECKS:
            family, failure = _MULTIPLE_CHECKS[inst.family]
            rec = CheckRecord("%s:i%d:j%d" % (family, i + 1, j + 1), family, i, j)
            kmono = k_monomial(ctx, max(R.terms, key=word_key), inverse=True)
            image = ctx.nf(antipode(ctx, R))
            target = ctx.nf(NCExpr.word(p, kmono) * R)
            scalar = image.multiple_of(target)
            if scalar is None:
                rec.status = FAIL
                rec.witness = failure + image.multiple_witness(target)
            else:
                rec.scalar = "%s * %s" % (scalar.simplified(), word_str(kmono))
            records.append(rec)
    return records


def verify_bialgebra(ctx: HopfContext) -> list:
    """Coassociativity, the counit laws, and the antipode axiom on generators.

    The multiplication used to contract S(x_1) x_2 (and x_1 S(x_2)) is plain
    concatenation; on generators one tensor slot is always K-type of degree
    zero, so the bicharacter twist of the *-structure is invisible here and
    the axiom set matches the displayed formulas.  delta gives normal
    forms, so coassociativity and the counit laws compare its tensors as
    they are, against a normalised other side.
    """
    p = ctx.params
    records = []
    for kind, i in product(GENERATORS, ctx.rd.index_set):
        name = "%s%d" % (kind, i + 1)
        g = NCExpr.word(p, ((kind, i),))
        dg = delta(ctx, g)

        lhs3, rhs3 = {}, {}
        for (w1, w2), c in dg.terms.items():
            for (u1, u2), cu in delta(ctx, NCExpr.word(p, w1)).terms.items():
                merge_term(lhs3, (u1, u2, w2), c * cu)
            for (u1, u2), cu in delta(ctx, NCExpr.word(p, w2)).terms.items():
                merge_term(rhs3, (w1, u1, u2), c * cu)
        rec = CheckRecord("coassoc:%s" % name, "coassoc")
        records.append(_compare(rec, TensorExpr(p, lhs3), TensorExpr(p, rhs3)))

        left, right = {}, {}
        for (w1, w2), c in dg.terms.items():
            merge_term(left, w2, c * counit(ctx, NCExpr.word(p, w1)))
            merge_term(right, w1, c * counit(ctx, NCExpr.word(p, w2)))
        rec = CheckRecord("counit:%s" % name, "counit")
        for side in (left, right):
            if rec.status != FAIL:
                _compare(rec, NCExpr(p, side), ctx.nf(g))
        records.append(rec)

        target = counit(ctx, g)
        for tag, side in (("S-left", 0), ("S-right", 1)):
            acc: dict = {}
            for (w1, w2), c in dg.terms.items():
                pair = [NCExpr.word(p, w1), NCExpr.word(p, w2)]
                pair[side] = antipode(ctx, pair[side])
                for w, cw in (pair[0] * pair[1]).terms.items():
                    merge_term(acc, w, cw * c)
            rec = CheckRecord("hopf-%s:%s" % (tag, name), "hopf-axiom")
            records.append(_compare(rec, ctx.nf(NCExpr(p, acc)), NCExpr.unit(p).scale(target)))
    return records


def verify_hopf(rd: RootDatum, params: ParameterSet, nmax: int = 4) -> Report:
    """The whole coalgebra campaign on one datum: coproduct powers and Serre
    compatibility, antipode compatibility, and the bialgebra axioms."""
    rep = Report("hopf", datum=rd.name, case=params.label)
    ctx = HopfContext(rd, params)
    if not ctx.hypothesis_ok:
        rep.add(
            CheckRecord(
                "hypothesis:q-compat", "hypothesis", status=FAIL,
                witness="q_i^{a_ij} != q_j^{a_ji}; the coalgebra checks below are expected to fail",
            )
        )
    for i in rd.index_set:
        rep.extend(verify_coproduct_powers(ctx, i, nmax))
    instances = relations_of("scrU", rd, params)
    rep.extend(verify_coproduct_serre(ctx, instances))
    rep.extend(verify_antipode(ctx, instances))
    rep.extend(verify_bialgebra(ctx))
    return rep.finalize()
