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

e(i, .) and f(i, .) are characters of the weight lattice X, so the scaled
exponents of each are an integer affine map of lam, and its coefficient is
c(0) * prod_k (c(eps_k) / c(0))^{lam_k}.  TwistMap reads each one off its
values at the zero weight and at the coordinate basis eps_k of X, which fix
a character exactly.  Every step of a word is at its target lam plus a shift
fixed by the steps before it, so the word's scalar at lam has the exponents
b + A.lam: b from the steps' scalar at target 0, walked once per step tuple,
and A the letters' matrices summed with their counts.  A word's scalar is
one such evaluation, with no per-letter TwistScalars lookup and no product
of unit monomials.  It is never built as a polynomial: a unit monomial only
shifts exponents, so the map adds b + A.lam to the exponents of each
monomial of the word's coefficient (LaurentPoly.times_unit) and keeps the
coefficient's denominator.  tests/test_twistmap.py checks the images
against the coefficient times a walk that reads TwistScalars at every step,
on the built-in data, a rank-3 lattice, permuted lattices and coefficients
other than 1.

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
from operator import mul

from .coeffring import RatExpr, RingError
from .params import ParameterSet, twist_c, twist_e, twist_f
from .presentations import PathExpr, PathWord, divided_power, idempotent, relations_of
from .report import FAIL, PASS, CheckRecord, Report
from .rootdata import RootDatum, Weight


class TwistScalars:
    """Cached accessors for the rescaling monomials e, f and the K-correction c."""

    def __init__(self, rd: RootDatum, params: ParameterSet):
        self.rd = rd
        self.params = params
        self._cache: dict = {}

    def _get(self, tag, fn, i, lam):
        key = (tag, i, lam)
        if key not in self._cache:
            self._cache[key] = fn(self.rd, self.params, i, lam)
        return self._cache[key]

    def e(self, i: int, lam: Weight):
        return self._get("e", twist_e, i, lam)

    def f(self, i: int, lam: Weight):
        return self._get("f", twist_f, i, lam)

    def c(self, i: int, lam: Weight):
        return self._get("c", twist_c, i, lam)


def _read_off(rd: RootDatum, scalar, i: int):
    """The character lam -> scalar(i, lam) as (M, ratios), read off its
    values at the zero weight and at the coordinate basis eps_k of X: M maps
    each variable index to its column of scaled exponents, the value at
    eps_k minus the value at 0 (zero columns left out), so the exponents at
    lam are those at 0 plus M.lam; ratios is None when the coefficient is 1
    at every weight, else (c(eps_k) / c(0))_k."""
    weights = [rd.zero_weight()] + [tuple(int(a == k) for a in range(rd.x_rank))
                                    for k in range(rd.x_rank)]
    units = []
    for lam in weights:
        value = scalar(i, lam)
        u = value.unit_mono()
        if u is None:
            raise RingError("rescaling scalar %s at %s is not a unit monomial" % (value, lam))
        units.append((u[0], dict(u[1])))
    (c0, at0), rest = units[0], units[1:]
    columns = {}
    for idx in sorted(set().union(*(m for _, m in units))):
        column = tuple(m.get(idx, 0) - at0.get(idx, 0) for _, m in rest)
        if any(column):
            columns[idx] = column
    if all(c == 1 for c, _ in units):
        return columns, None
    return columns, tuple(Fraction(c, c0) for c, _ in rest)


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
        # (kind, i) -> e(i, .) or f(i, .) read off as (M, ratios), see _read_off
        self._letters = {(kind, i): _read_off(rd, scalar, i)
                         for kind, scalar in (("E", self.scalars.e), ("F", self.scalars.f))
                         for i in rd.index_set}
        self._steps: dict = {}  # step tuple -> (scalar at target 0, (rows, ratios))

    def _step_data(self, steps: tuple):
        """The word scalar of steps at target 0, and the exponent matrix of
        their letters, once per step tuple.

        The scalar at target 0 is the product of per-step scalars, e at the
        step target for raising steps and f at the step source for lowering
        steps, kept as its monomial and coefficient.  The matrix is
        A = sum over the letters of count * M_letter, as rows (var index, A_v)
        with zero rows dropped, and the coefficient ratios multiplied the
        same way (None when every coefficient is 1)."""
        data = self._steps.get(steps)
        if data is None:
            e, f, add_root = self.scalars.e, self.scalars.f, self.rd.add_root
            factors, counts = [], {}
            lam = self.rd.zero_weight()
            for kind, i in steps:
                if kind == "E":
                    factors.append(e(i, lam))
                    lam = add_root(lam, i, -1)
                else:
                    lam = add_root(lam, i, +1)
                    factors.append(f(i, lam))
                counts[kind, i] = counts.get((kind, i), 0) + 1
            columns, ratios = {}, None
            for letter, n in counts.items():
                m, r = self._letters[letter]
                for idx, column in m.items():
                    acc = columns.get(idx, (0,) * len(column))
                    columns[idx] = tuple(x + n * y for x, y in zip(acc, column))
                if r is not None:
                    ratios = tuple(x * y ** n for x, y in zip(ratios or (1,) * len(r), r))
            rows = tuple((idx, a) for idx, a in sorted(columns.items()) if any(a))
            (at0,) = self.params.ctx.unit_product(factors).terms.items()
            data = self._steps[steps] = (at0, (rows, ratios))
        return data

    def _word_scalar(self, word: PathWord, invert: bool):
        """The word scalar at the word's target lam as one affine map of lam,
        returned as (exps, coeff) for LaurentPoly.times_unit: the scaled
        exponents b + A.lam, a dict that may hold zero or unreduced
        sign-variable exponents, and the coefficient c * prod_k r_k^{lam_k},
        with b and c the steps' scalar at target 0 and A and r from
        _step_data.  Inverted, every exponent is negated (a sign variable's
        is the same mod 2) and the coefficient inverted.  Reads only
        word.target and word.steps.

        This is the step walk from lam, exactly: e and f are characters of X,
        so every exponent is affine in lam and read off exactly at 0 and the
        coordinate basis, and each step's weight is lam plus a shift fixed by
        the steps before it.  tests/test_twistmap.py checks the map it
        drives against a walk that reads TwistScalars at every step."""
        (base, c), (rows, ratios) = self._step_data(word.steps)
        lam = word.target
        exps = dict(base)
        for idx, a in rows:
            exps[idx] = exps.get(idx, 0) + sum(map(mul, a, lam))
        if ratios is not None:
            for r, k in zip(ratios, lam):
                if k:
                    c *= r ** k
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

    Families a and b are identically zero in the path model: a record
    passes, with scalar 1, only when the untwisted and the twisted instance
    are both zero, and the map, which fixes zero, is not applied; a nonzero
    side fails with both sides as the witness.  For family c the multiple
    must equal e(i,lam) f(j,lam-a_i+a_j).  For the Serre families the exact
    multiple is the whole check: both templates carry the same Gaussian
    binomial [r, l]_{q_i}, so image == N * target makes every word's
    rescaling scalar N times its ratio^l.
    """
    t0 = time.monotonic()
    rep = Report("iso", datum=rd.name, case=params.label)
    tw = TwistMap(rd, params)
    src = relations_of("Udot", rd, params, window)
    dst = relations_of("scrUdot", rd, params, window)
    by_key = {(r.family, r.i, r.j, r.lam, r.part): r for r in dst}
    sc = tw.scalars

    for su in src:
        key = (su.family, su.i, su.j, su.lam, su.part)
        tgt = by_key.get(key)
        rec = rep.add(CheckRecord("iso:" + su.id, su.family, su.i, su.j, su.lam))
        if tgt is None:
            rec.status = FAIL
            rec.witness = "no matching twisted instance"
            continue
        if su.family in ("a", "b"):
            if su.expr.is_zero() and tgt.expr.is_zero():
                rec.scalar = "1"
            else:
                rec.status = FAIL
                rec.witness = "family %s instance is not zero: untwisted %s, twisted %s" % (
                    su.family, su.expr, tgt.expr)
            continue
        n = tw.multiple(su.expr, tgt.expr)
        if n is None:
            rec.status = FAIL
            rec.witness = "image is not an exact multiple of the target instance: " + (
                tw.forward(su.expr).multiple_witness(tgt.expr))
            continue
        simple, unit = _simplify_multiple(n)
        rec.scalar = str(simple)
        if not unit:
            rec.status = FAIL
            rec.witness = "multiple %s is not a unit monomial" % simple
            continue
        if su.family == "c":
            # not implied by the exact multiple, which only ties the words'
            # scalars to each other: a rescaling off by the same factor on
            # every word still gives a unit multiple, just the wrong one
            i, j, lam = su.i, su.j, su.lam
            expected = sc.e(i, lam) * sc.f(j, rd.add_root(rd.add_root(lam, i, -1), j, +1))
            if not (simple == params.rat(expected)):
                rec.status = FAIL
                rec.witness = "expected scalar %s, got %s" % (expected, simple)
    rep.elapsed_ms = int((time.monotonic() - t0) * 1000)
    return rep.finalize()


def verify_integrality(rd: RootDatum, params: ParameterSet, window, lmax: int = 4) -> Report:
    """Images of divided-power generators stay integral (unit-monomial
    coefficients over the Laurent ring) and equal their closed forms,
    e(i,lam)^l s_ii^{l(l+1)/2} for E and f(i,lam)^l t_ii^{l(l+1)/2} for F;
    and the map round-trips to the identity on all window generators.

    The coefficient is TwistMap.multiple of the untwisted over the twisted
    divided power: both carry 1/[l]!_{q_i} over one context, so the shared
    denominator cancels and no fraction is divided."""
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
                        if not (simple == params.rat(expected)):
                            rec.status = FAIL
                            rec.witness = "closed form %s, got %s" % (expected, simple)
                    rep.add(rec)
            gens = [
                idempotent(rd, params, lam),
                PathExpr.of(rd, params, PathWord(rd, lam, (("E", i),))),
                PathExpr.of(rd, params, PathWord(rd, lam, (("F", i),))),
            ]
            for tag, g in zip(("idem", "E", "F"), gens):
                ok = tw.backward(tw.forward(g)) == g and tw.forward(tw.backward(g)) == g
                rep.add(
                    CheckRecord(
                        "roundtrip:%s:i%d:lam(%s)" % (tag, i + 1, ",".join(map(str, lam))),
                        "roundtrip", i, None, lam,
                        PASS if ok else FAIL,
                    )
                )
    rep.elapsed_ms = int((time.monotonic() - t0) * 1000)
    return rep.finalize()
