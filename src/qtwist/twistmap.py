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
"""

from __future__ import annotations

import time

from .coeffring import RatExpr
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
        self._steps: dict = {}  # step tuple -> (scalar at target 0, letter counts)

    def _step_data(self, steps: tuple):
        """The word scalar of steps at target 0, and (e or f, i, count) for
        each letter: the product of per-step scalars, e at the step target
        for raising steps and f at the step source for lowering steps,
        walked once per step tuple."""
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
            letters = tuple((e if kind == "E" else f, i, n) for (kind, i), n in counts.items())
            data = self._steps[steps] = (self.params.ctx.unit_product(factors), letters)
        return data

    def _word_scalar(self, word: PathWord, invert: bool):
        """The steps' scalar at target 0 times the character
        prod_i e(i, lam)^{#E_i} f(i, lam)^{#F_i} at the word's target lam:
        e and f are characters of the weight lattice, and every step's
        weight is lam plus a shift fixed by the steps before it."""
        base, letters = self._step_data(word.steps)
        factors = [base]
        lam = word.target
        for scalar, i, n in letters:
            factors += [scalar(i, lam)] * n
        out = self.params.ctx.unit_product(factors)
        return out.inv_unit() if invert and not out.is_one() else out

    def _apply(self, x: PathExpr, invert: bool) -> PathExpr:
        terms = {}
        for w, c in x.terms.items():
            nc = c * self._word_scalar(w, invert)
            if not nc.is_zero():
                terms[w] = nc
        return PathExpr(self.rd, self.params, terms)

    def forward(self, x: PathExpr) -> PathExpr:
        return self._apply(x, invert=False)

    def backward(self, x: PathExpr) -> PathExpr:
        return self._apply(x, invert=True)


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
    multiple is the whole check: both templates carry the same
    1/([r-l]! [l]!), so image == N * target makes every word's rescaling
    scalar N times its ratio^l.
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
        image = tw.forward(su.expr)
        n = image.multiple_of(tgt.expr)
        if n is None:
            rec.status = FAIL
            rec.witness = "image is not an exact multiple of the target instance: " + (
                image.multiple_witness(tgt.expr))
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
    and the map round-trips to the identity on all window generators."""
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
                    image = tw.forward(dp_u)
                    ((w, c_img),) = image.terms.items()
                    mult = c_img / dp_s.terms[w]
                    simple, unit = _simplify_multiple(mult)
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
