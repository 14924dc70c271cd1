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
built once from the parameters (params.twist_character): TwistScalars
evaluates them per weight for the closed forms, and TwistMap takes its
letters from them.  Each step of a word is at its target lam plus an offset
fixed by the steps before it, so the word's scalar at lam has the exponents
b + A.lam: A the letters' forms summed, b their values at the steps'
offsets, once per step tuple, with no TwistScalars lookup and no unit
product.  It is never built as a polynomial: the map adds b + A.lam to the
exponents of each monomial of the word's coefficient
(LaurentPoly.times_unit) and keeps its denominator.  tests/test_twistmap.py
checks the images against a walk that reads TwistScalars at every step, and
TwistScalars against products of parameter powers.

A campaign builds no image to check a clean record: TwistMap.multiple
finds the unit N with forward(x) == N * target in the same exponent pass,
one shift per word by its scalar over N, with no PathExpr and no fraction
divided or multiplied.  Only an input that is no unit multiple over shared
denominators builds the image and compares it as fractions
(LinComb.multiple_of), with the same N or None.
"""

from __future__ import annotations

import time
from fractions import Fraction
from operator import add, mul

from .coeffring import RatExpr
from .params import ParameterSet, character_value, twist_character
# relations_of stays importable from here: bench/tests checks that the tracer rebinds this copy
from .presentations import (PathExpr, PathWord, divided_power, idempotent, modified_relations,
                            relations_of)
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
            exps, coeff = character_value(self.characters[kind, i], lam)
            value = self._cache[key] = self.params.ctx.unit_from_exps(exps, coeff)
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
        self._steps: dict = {}  # step tuple -> ((b, c), (rows, ratios))

    def _step_data(self, steps: tuple):
        """The word scalar of steps at target 0, and the character of their
        letters, once per step tuple.

        A raising step is scaled by e at its target, a lowering step by f at
        its source: each at the word's target plus an offset, so the scalar
        at target 0 is (b, c), its letters' values at their offsets summed.
        The character sums the letters' forms, as rows (var index, A_v) with
        zero rows dropped, and multiplies their ratios (None when every
        coefficient is 1)."""
        data = self._steps.get(steps)
        if data is None:
            add_root, letters = self.rd.add_root, self.scalars.characters
            lam, b, c, columns, ratios = self.rd.zero_weight(), {}, 1, {}, None
            for kind, i in steps:
                if kind == "F":
                    lam = add_root(lam, i, +1)
                letter = rows, r = letters[kind.lower(), i]
                exps, k = character_value(letter, lam)
                for idx, s in exps.items():
                    b[idx] = b.get(idx, 0) + s
                c *= k
                for idx, a in rows:
                    acc = columns.get(idx)
                    columns[idx] = a if acc is None else tuple(map(add, acc, a))
                if r is not None:
                    ratios = r if ratios is None else tuple(map(mul, ratios, r))
                if kind == "E":
                    lam = add_root(lam, i, -1)
            rows = tuple((idx, a) for idx, a in sorted(columns.items()) if any(a))
            data = self._steps[steps] = ((b, c), (rows, ratios))
        return data

    def _word_scalar(self, word: PathWord, invert: bool):
        """The word scalar at the word's target lam as one affine map of lam,
        returned as (exps, coeff) for LaurentPoly.times_unit: the scaled
        exponents b + A.lam, a dict that may hold zero or unreduced
        sign-variable exponents, and the coefficient c * prod_k r_k^{lam_k},
        with (b, c) the steps' scalar at target 0 and (A, r) the character
        from _step_data.  Inverted, every exponent is negated (a sign
        variable's is the same mod 2) and the coefficient inverted.  Reads
        only word.target and word.steps.

        This is the step walk from lam, exactly: each step's weight is lam
        plus an offset fixed by the steps before it, and a character at a
        sum is the product of its values.  tests/test_twistmap.py checks the
        map it drives against a walk that reads TwistScalars at every step."""
        (b, c), char = self._step_data(word.steps)
        exps, k = character_value(char, word.target)
        for idx, s in b.items():
            exps[idx] = exps.get(idx, 0) + s
        c *= k
        if invert:
            exps = {idx: -s for idx, s in exps.items()}
            if c != 1:
                c = 1 / Fraction(c)
        return exps, c

    def _image_num(self, word: PathWord, num, invert: bool, over=None):
        """num times word's scalar (inverted when invert), and over the unit
        monomial over = (coeff, mono) when given: one LaurentPoly.times_unit,
        whose exponents are the word scalar's less mono and whose
        coefficient is the word scalar's over coeff.  The map and the exact
        multiple both take every image numerator from here."""
        exps, coeff = self._word_scalar(word, invert)
        if over is not None:
            c, mono = over
            for idx, s in mono:
                exps[idx] = exps.get(idx, 0) - s
            if c != 1:
                coeff = Fraction(coeff) / c
        return num.times_unit(exps.items(), coeff)

    def _apply(self, x: PathExpr, invert: bool) -> PathExpr:
        """Each coefficient times its word's scalar, a unit monomial: the
        numerator's monomials shifted, the normalised denominator kept.  A
        unit times a nonzero coefficient is nonzero, so nothing is dropped."""
        image_num = self._image_num
        terms = {w: RatExpr._normalised(image_num(w, c.num, invert), c.den)
                 for w, c in x.terms.items()}
        return PathExpr(self.rd, self.params, terms)

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


def _simplify_multiple(n: RatExpr):
    """(n.simplified(), whether n is a unit monomial), with at most one exact
    division: a multiple still carrying a denominator is not a polynomial.
    A clean multiple is already a polynomial, as the coefficients it divides
    share their denominators, and needs none."""
    simple = n.simplified()
    return simple, simple.is_poly() and simple.num.unit_mono() is not None


def verify_twist_isomorphism(rd: RootDatum, params: ParameterSet, window) -> Report:
    """Map every untwisted modified-algebra relation instance forward and
    check it is an exact unit multiple of the matching twisted instance.

    One pass of modified_relations over (params.untwisted(), params) gives
    every instance with both sides on the same word objects.  Families a
    and b have no parameters and are zero in the path model: a record
    passes, with scalar 1, when PathWord.compose gives left*right == word,
    and no expression is built; a failing one builds both sides as its
    witness.  For family c the multiple must equal e(i,lam) f(j,lam-a_i+a_j).
    For the Serre families the exact multiple is the whole check: both
    templates carry the same Gaussian binomial [r, l]_{q_i}, so image == N *
    target makes every word's rescaling scalar N times its ratio^l.
    """
    t0 = time.monotonic()
    rep = Report("iso", datum=rd.name, case=params.label)
    tw = TwistMap(rd, params)
    sc = tw.scalars
    for rel in modified_relations(rd, (params.untwisted(), params), window):
        rec = rep.add(CheckRecord("iso:" + rel.id, rel.family, rel.i, rel.j, rel.lam))
        if rel.exprs is None:
            left, right, word = rel.words
            if left.compose(right) == word:
                rec.scalar = "1"
            else:
                rec.status = FAIL
                rec.witness = "family %s instance is not zero: untwisted %s, twisted %s" % (
                    rel.family, rel.expr(0), rel.expr(1))
            continue
        x, target = rel.exprs
        n = tw.multiple(x, target)
        if n is None:
            rec.status = FAIL
            rec.witness = "image is not an exact multiple of the target instance: " + (
                tw.forward(x).multiple_witness(target))
            continue
        simple, unit = _simplify_multiple(n)
        rec.scalar = str(simple)
        if not unit:
            rec.status = FAIL
            rec.witness = "multiple %s is not a unit monomial" % simple
            continue
        if rel.family == "c":
            # not implied by the exact multiple, which only ties the words'
            # scalars to each other: a rescaling off by the same factor on
            # every word still gives a unit multiple, just the wrong one
            i, j, lam = rel.i, rel.j, rel.lam
            expected = sc.e(i, lam) * sc.f(j, rd.add_root(rd.add_root(lam, i, -1), j, +1))
            if simple.num != expected:
                rec.status = FAIL
                rec.witness = "expected scalar %s, got %s" % (expected, simple)
    rep.elapsed_ms = int((time.monotonic() - t0) * 1000)
    return rep.finalize()


def verify_integrality(rd: RootDatum, params: ParameterSet, window, lmax: int = 4) -> Report:
    """Images of divided-power generators stay integral (unit-monomial
    coefficients over the Laurent ring) and equal their closed forms,
    e(i,lam)^l s_ii^{l(l+1)/2} for E and f(i,lam)^l t_ii^{l(l+1)/2} for F;
    and the map round-trips to the identity on all window generators (a
    failing round trip names the generator and both results).

    The coefficient is TwistMap.multiple of the untwisted over the twisted
    divided power, both in integral form with the same [l]!_{q_i} (TwistMap
    requires q_i = v^{d_i}), so N and every printed scalar stay the same."""
    t0 = time.monotonic()
    rep = Report("integrality", datum=rd.name, case=params.label)
    tw = TwistMap(rd, params)
    sc = tw.scalars
    window = sorted(tuple(w) for w in window)
    for i in rd.index_set:
        for lam in window:
            for l in range(lmax + 1):
                for kind in ("E", "F"):
                    dp_u = divided_power(kind, i, l, lam, rd, params.untwisted())
                    dp_s = divided_power(kind, i, l, lam, rd, params)
                    simple, unit = _simplify_multiple(tw.multiple(dp_u, dp_s))
                    rec = CheckRecord(
                        "dp-unit:%s:i%d:l%d:lam(%s)" % (kind, i + 1, l, ",".join(map(str, lam))),
                        "dp", i, None, lam,
                    )
                    rec.scalar = str(simple)
                    if not unit:
                        rec.status = FAIL
                        rec.witness = "coefficient %s is not a unit monomial" % rec.scalar
                    else:
                        scalar, twist = (sc.e, params.s) if kind == "E" else (sc.f, params.t)
                        expected = scalar(i, lam) ** l * twist(i, i) ** (l * (l + 1) // 2)
                        if simple.num != expected:
                            rec.status = FAIL
                            rec.witness = "closed form %s, got %s" % (expected, simple)
                    rep.add(rec)
            gens = [
                idempotent(rd, params, lam),
                PathExpr.of(rd, params, PathWord(rd, lam, (("E", i),))),
                PathExpr.of(rd, params, PathWord(rd, lam, (("F", i),))),
            ]
            for tag, g in zip(("idem", "E", "F"), gens):
                bf, fb = tw.backward(tw.forward(g)), tw.forward(tw.backward(g))
                rec = rep.add(CheckRecord(
                    "roundtrip:%s:i%d:lam(%s)" % (tag, i + 1, ",".join(map(str, lam))),
                    "roundtrip", i, None, lam,
                ))
                if bf != g or fb != g:
                    rec.status = FAIL
                    rec.witness = "%s: backward(forward) %s, forward(backward) %s" % (
                        next(iter(g.terms)), bf, fb)
    rep.elapsed_ms = int((time.monotonic() - t0) * 1000)
    return rep.finalize()
