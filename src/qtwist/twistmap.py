"""The generator-rescaling map between the untwisted and twisted modified
algebras, its scalars, and the mechanical verification that it is an
isomorphism of relation presentations.

The rescaling multiplies every raising arrow into weight lam by
e(i, lam) = prod_j s_ij^{lam(j)}, every lowering arrow out of weight lam by
f(i, lam) = prod_j t_ij^{lam(j)}, and fixes the idempotents.  Because the
scalars attach per step, the map is multiplicative on path words by
construction; the content of the verification is that every untwisted
relation instance is carried to an exact unit-monomial multiple of the
matching twisted instance.

e(i, .), f(i, .) and c(i, .) are characters of the weight lattice X, each
built once as one packed monomial per coordinate of X
(params.twist_character) and evaluated only by params.character_value, per
weight in TwistScalars for the closed forms and per word in TwistMap.  Each
step of a word is at its target lam plus an offset fixed by the steps
before it, so the word's scalar at lam is b times a character A at lam: A
the letters' characters multiplied (their columns added as ints), b their
values at the steps' offsets, once per step tuple, with no TwistScalars
lookup and no unit product.  The scalar's monomial b + sum_k lam_k A_k is
never built as a polynomial: the map adds it to each monomial of the word's
coefficient (LaurentPoly.times_unit) and keeps its denominator.
tests/test_twistmap.py checks the images against a walk that reads
TwistScalars at every step, and TwistScalars against products of parameter
powers.

A campaign builds no image to check a clean record: TwistMap.multiple
finds the unit N with forward(x) == N * target in the same exponent pass,
one shift per word by its scalar over N, with no PathExpr and no fraction
divided or multiplied.  Only an input that is no unit multiple over shared
denominators builds the image and compares it as fractions
(LinComb.multiple_of), with the same N or None.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from operator import add, mul

from .coeffring import RatExpr
from .params import ParameterSet, character_value, twist_character
# relations_of stays importable from here: bench/tests checks that the tracer rebinds this copy
from .presentations import (PathExpr, PathWord, divided_power, idempotent, lam_text,
                            modified_relations, relations_of)
from .report import FAIL, CheckRecord, Report
from .rootdata import RootDatum, Weight


class TwistScalars:
    """The rescaling monomials e, f and the K-correction c: their 3n
    characters built once, each value cached per weight."""

    def __init__(self, rd: RootDatum, params: ParameterSet):
        self.rd = rd
        self.params = params
        self.characters = {(kind, i): twist_character(rd, params, kind, i)
                           for kind in ("e", "f", "c") for i in rd.index_set}
        self._cache: dict = {}

    def _get(self, kind, i, lam):
        key = (kind, i, lam)
        value = self._cache.get(key)
        if value is None:
            value = self._cache[key] = self.params.ctx.one.times_unit(
                *character_value(self.characters[kind, i], lam))
        return value

    def e(self, i: int, lam: Weight):
        return self._get("e", i, lam)

    def f(self, i: int, lam: Weight):
        return self._get("f", i, lam)

    def c(self, i: int, lam: Weight):
        return self._get("c", i, lam)


class TwistMap:
    """Forward: untwisted arrows to rescaled twisted arrows.  Backward: inverse."""

    def __init__(self, rd: RootDatum, params: ParameterSet):
        if not params.q_tied_to_v():
            raise ValueError(
                "the rescaling map needs q_i = v^{d_i}; parameter set %r does not satisfy it"
                % params.label
            )
        self.rd = rd
        self.params = params
        self.scalars = TwistScalars(rd, params)
        self._steps: dict = {}  # step tuple -> ((b, c), (columns, ratios))

    def _step_data(self, steps: tuple):
        """The word scalar of steps at target 0, and the character of their
        letters, once per step tuple.

        A raising step is scaled by e at its target, a lowering step by f at
        its source: each at the word's target plus an offset, so the scalar
        at target 0 is (b, c), its letters' values at their offsets
        (character_value) multiplied.  The character is the letters'
        product: their packed columns added as ints and their ratios
        multiplied (None when every coefficient is 1)."""
        data = self._steps.get(steps)
        if data is None:
            add_root, letters = self.rd.add_root, self.scalars.characters
            lam, b, c, columns, ratios = self.rd.zero_weight(), 0, 1, (0,) * self.rd.x_rank, None
            for kind, i in steps:
                if kind == "F":
                    lam = add_root(lam, i, +1)
                letter = cols, r = letters[kind.lower(), i]
                m, k = character_value(letter, lam)
                b += m
                c *= k
                columns = tuple(map(add, columns, cols))
                if r is not None:
                    ratios = r if ratios is None else tuple(map(mul, ratios, r))
                if kind == "E":
                    lam = add_root(lam, i, -1)
            data = self._steps[steps] = ((b, c), (columns, ratios))
        return data

    def _word_scalar(self, word: PathWord, invert: bool):
        """The word scalar at the word's target lam, returned as (mono,
        coeff) for LaurentPoly.times_unit: the steps' scalar (b, c) at
        target 0 times their character at lam (character_value), both from
        _step_data.  Inverted, the monomial is negated (a sign digit is the
        same mod 2) and the coefficient inverted.  Reads only word.target
        and word.steps.

        This is the step walk from lam, exactly: each step's weight is lam
        plus an offset fixed by the steps before it, and a character at a
        sum is the product of its values.  tests/test_twistmap.py checks the
        map it drives against a walk that reads TwistScalars at every step."""
        (b, c), char = self._step_data(word.steps)
        m, k = character_value(char, word.target)
        m, c = m + b, c * k
        if invert:
            m = -m
            if c != 1:
                c = 1 / Fraction(c)
        return m, c

    def _image_num(self, word: PathWord, num, invert: bool, over=None):
        """num times word's scalar (inverted when invert), and over the unit
        monomial over = (coeff, mono) when given: one LaurentPoly.times_unit
        by the word scalar's monomial less mono, with the word scalar's
        coefficient over coeff (negated when coeff is -1, so a coefficient
        1 or -1 stays an int).  The map and the exact multiple both take
        every image numerator from here."""
        m, coeff = self._word_scalar(word, invert)
        if over is not None:
            c, mono = over
            m -= mono
            if c == -1:
                coeff = -coeff
            elif c != 1:
                coeff = Fraction(coeff) / c
        return num.times_unit(m, coeff)

    def _apply(self, x: PathExpr, invert: bool) -> PathExpr:
        """Each coefficient times its word's scalar, a unit monomial: the
        numerator's monomials shifted, the normalised denominator kept.  A
        unit times a nonzero coefficient is nonzero, so nothing is dropped."""
        image_num = self._image_num
        terms = {w: RatExpr._normalised(image_num(w, c.num, invert), c.den)
                 for w, c in x.terms.items()}
        return PathExpr(self.params, terms)

    def forward(self, x: PathExpr) -> PathExpr:
        return self._apply(x, invert=False)

    def backward(self, x: PathExpr) -> PathExpr:
        return self._apply(x, invert=True)

    def multiple(self, x: PathExpr, target: PathExpr):
        """N with forward(x) == N * target, or None, as
        forward(x).multiple_of(target) finds it, without building the image.

        At the reference key, target's largest, the image numerator is x's
        numerator shifted by the word scalar; when target's coefficient there
        is a unit monomial u over the same denominator, N is that numerator
        shifted once more by u's inverse, and the shared denominator
        cancels.  When N is a unit too, every other key shifts x's
        numerator by its word scalar over N and compares it with target's
        numerator, which is image == N * target there whenever the two
        denominators agree.  Any other input (a key mismatch, a zero
        target, a non-unit reference coefficient or N, differing
        denominators) goes through forward and multiple_of, so N is
        structurally the same either way."""
        terms, tterms = x.terms, target.terms
        if tterms and terms.keys() == tterms.keys():
            ref = max(tterms, key=x._order)
            a, b = terms[ref], tterms[ref]
            if a.den.terms == b.den.terms and len(b.num.terms) == 1:
                image_num = self._image_num
                n = image_num(ref, a.num, False, b.num.unit_mono())
                unit = n.unit_mono()
                if unit is not None:
                    for w, c in tterms.items():
                        if w is ref:
                            continue
                        y = terms[w]
                        if y.den.terms != c.den.terms:
                            break
                        if image_num(w, y.num, False, unit).terms != c.num.terms:
                            return None
                    else:
                        return RatExpr._normalised(n, self.params.ctx.one)
        return self.forward(x).multiple_of(target)


def _unit_multiple(rec: CheckRecord, tw: TwistMap, x: PathExpr, target: PathExpr, not_unit: str):
    """The unit monomial N with forward(x) == N * target, simplified and
    shown as rec's scalar; or None, with rec FAIL and a witness, when there
    is no exact multiple (the first word that is not N times the target's)
    or N is no unit monomial (the not_unit text, formatted with N).

    Simplifying makes at most one exact division: a multiple still carrying
    a denominator is not a polynomial.  A clean multiple is already a
    polynomial, as the coefficients it divides share their denominators."""
    n = tw.multiple(x, target)
    if n is None:
        rec.status = FAIL
        rec.witness = "image is not an exact multiple of the target instance: " + (
            tw.forward(x).multiple_witness(target))
        return None
    simple = n.simplified()
    rec.scalar = str(simple)
    if simple.is_poly() and simple.num.unit_mono() is not None:
        return simple
    rec.status = FAIL
    rec.witness = not_unit % simple
    return None


def verify_twist_isomorphism(rd: RootDatum, params: ParameterSet, window) -> Report:
    """Map every untwisted modified-algebra relation instance forward and
    check it is an exact unit multiple of the matching twisted instance.

    One pass of modified_relations over (params.untwisted(), params) gives
    every instance with both sides on the same word objects, one at a time:
    each is made into its record (_iso_record) and dropped, so the campaign
    holds the records and never the whole window's instances.  Families a
    and b have no parameters and are zero in the path model: a record
    passes, with scalar 1, when PathWord.compose gives left*right == word,
    and no expression is built; a failing one builds both sides as its
    witness.  For family c the multiple must equal e(i,lam) f(j,lam-a_i+a_j).
    For the Serre families the exact multiple is the whole check: both
    templates carry the same Gaussian binomial [r, l]_{q_i}, so image == N *
    target makes every word's rescaling scalar N times its ratio^l.
    """
    rep = Report("iso", datum=rd.name, case=params.label)
    record = partial(_iso_record, TwistMap(rd, params))
    # the loop names records, not instances: none is held once its record is made
    for rec in map(record, modified_relations(rd, (params.untwisted(), params), window)):
        rep.add(rec)
    return rep.finalize()


def _iso_record(tw: TwistMap, rel) -> CheckRecord:
    """The iso record of one Relation (see verify_twist_isomorphism)."""
    rec = CheckRecord("iso:" + rel.id, rel.family, rel.i, rel.j, rel.lam)
    if rel.exprs is None:
        left, right, word = rel.words
        if left.compose(right) == word:
            rec.scalar = "1"
        else:
            rec.status = FAIL
            rec.witness = "family %s instance is not zero: untwisted %s, twisted %s" % (
                rel.family, rel.side(0), rel.side(1))
        return rec
    simple = _unit_multiple(rec, tw, *rel.exprs, "multiple %s is not a unit monomial")
    if simple is not None and rel.family == "c":
        # not implied by the exact multiple, which only ties the words'
        # scalars to each other: a rescaling off by the same factor on
        # every word still gives a unit multiple, just the wrong one
        i, j, lam, rd, sc = rel.i, rel.j, rel.lam, tw.rd, tw.scalars
        expected = sc.e(i, lam) * sc.f(j, rd.add_root(rd.add_root(lam, i, -1), j, +1))
        if simple.num != expected:
            rec.status = FAIL
            rec.witness = "expected scalar %s, got %s" % (expected, simple)
    return rec


def verify_integrality(rd: RootDatum, params: ParameterSet, window, lmax: int = 4) -> Report:
    """Images of divided-power generators stay integral (unit-monomial
    coefficients over the Laurent ring) and equal their closed forms,
    e(i,lam)^l s_ii^{l(l+1)/2} for E and f(i,lam)^l t_ii^{l(l+1)/2} for F;
    and the map round-trips to the identity on all window generators (a
    failing round trip names the generator and both results).

    The coefficient is TwistMap.multiple of the untwisted over the twisted
    divided power, both in integral form with the same [l]!_{q_i} (TwistMap
    requires q_i = v^{d_i}), so N and every printed scalar stay the same; a
    missing or non-unit multiple fails the record as in the iso campaign."""
    rep = Report("integrality", datum=rd.name, case=params.label)
    tw = TwistMap(rd, params)
    sc = tw.scalars
    window = sorted(tuple(w) for w in window)
    for i in rd.index_set:
        for lam in window:
            for l in range(lmax + 1):
                for kind in ("E", "F"):
                    rec = rep.add(CheckRecord(
                        "dp-unit:%s:i%d:l%d:%s" % (kind, i + 1, l, lam_text(lam)),
                        "dp", i, None, lam,
                    ))
                    simple = _unit_multiple(
                        rec, tw, divided_power(kind, i, l, lam, rd, params.untwisted()),
                        divided_power(kind, i, l, lam, rd, params), "coefficient %s is not a unit monomial")
                    if simple is None:
                        continue
                    scalar, twist = (sc.e, params.s) if kind == "E" else (sc.f, params.t)
                    expected = scalar(i, lam) ** l * twist(i, i) ** (l * (l + 1) // 2)
                    if simple.num != expected:
                        rec.status = FAIL
                        rec.witness = "closed form %s, got %s" % (expected, simple)
            gens = [
                idempotent(rd, params, lam),
                PathExpr.word(params, PathWord(rd, lam, (("E", i),))),
                PathExpr.word(params, PathWord(rd, lam, (("F", i),))),
            ]
            for tag, g in zip(("idem", "E", "F"), gens):
                bf, fb = tw.backward(tw.forward(g)), tw.forward(tw.backward(g))
                rec = rep.add(CheckRecord(
                    "roundtrip:%s:i%d:%s" % (tag, i + 1, lam_text(lam)),
                    "roundtrip", i, None, lam,
                ))
                if bf != g or fb != g:
                    rec.status = FAIL
                    rec.witness = "%s: backward(forward) %s, forward(backward) %s" % (
                        next(iter(g.terms)), bf, fb)
    return rep.finalize()
