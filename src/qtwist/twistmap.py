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

    def _word_scalar(self, word: PathWord, invert: bool):
        """Product of per-step scalars: e at the step target for raising
        steps, f at the step source for lowering steps."""
        out = self.params.ctx.one
        lam = word.target
        for kind, i in word.steps:
            if kind == "E":
                out = out * self.scalars.e(i, lam)
                lam = self.rd.add_root(lam, i, -1)
            else:
                src = self.rd.add_root(lam, i, +1)
                out = out * self.scalars.f(i, src)
                lam = src
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
    """(n.simplified(), whether n is a unit monomial), with one exact
    division: a multiple still carrying a denominator is not a polynomial."""
    simple = n.simplified()
    return simple, simple.is_poly() and simple.num.unit_mono() is not None


def _extract_multiple(image: PathExpr, target: PathExpr):
    """Return N with image == N * target, or None when no exact multiple exists."""
    params = image.params
    if target.is_zero():
        return params.rat(1) if image.is_zero() else None
    if set(image.terms) != set(target.terms):
        return None
    ref = max(target.terms, key=lambda w: w.key())
    n = image.terms[ref] / target.terms[ref]
    for w, c in target.terms.items():
        if not (image.terms[w] == n * c):
            return None
    return n


def check_scalar_identities(rd: RootDatum, params: ParameterSet, window) -> Report:
    """Shift laws of the rescaling scalars and their relation to the
    K-correction, verified for every index pair and window weight."""
    t0 = time.monotonic()
    rep = Report("scalar-identities", datum=rd.name, case=params.label)
    sc = TwistScalars(rd, params)
    for i in rd.index_set:
        for j in rd.index_set:
            for lam in sorted(tuple(w) for w in window):
                mu = rd.add_root(lam, j, +1)
                tag = "i%d:j%d:lam(%s)" % (i + 1, j + 1, ",".join(map(str, lam)))
                ok = sc.e(i, mu) == sc.e(i, lam) * params.s(i, j)
                rep.add(CheckRecord("shift-e:" + tag, "shift", i, j, lam,
                                    PASS if ok else FAIL))
                ok = sc.f(i, mu) == sc.f(i, lam) * params.t(i, j)
                rep.add(CheckRecord("shift-f:" + tag, "shift", i, j, lam,
                                    PASS if ok else FAIL))
                lhs = sc.f(j, mu) * sc.e(i, mu)
                rhs = (
                    sc.e(i, lam)
                    * sc.f(j, rd.add_root(mu, i, -1))
                    * params.s(i, j)
                    * params.t(j, i)
                )
                rep.add(CheckRecord("cross:" + tag, "cross", i, j, lam,
                                    PASS if lhs == rhs else FAIL))
                if i == j:
                    ok = sc.e(i, lam) * sc.f(i, lam) == sc.c(i, lam).inv_unit()
                    rep.add(CheckRecord("ef-c:" + tag, "ef-c", i, j, lam,
                                        PASS if ok else FAIL))
    rep.elapsed_ms = int((time.monotonic() - t0) * 1000)
    return rep.finalize()


def verify_twist_isomorphism(rd: RootDatum, params: ParameterSet, window) -> Report:
    """Map every untwisted modified-algebra relation instance forward and
    check it is an exact unit multiple of the matching twisted instance.

    Families a and b are identically zero in the path model and must map to
    zero.  For family c the multiple must equal e(i,lam) f(j,lam-a_i+a_j).
    For the Serre families the per-term rescaling scalar must factor as an
    l-independent unit times (s_ji/s_ij)^l (raising) or (t_ji/t_ij)^l
    (lowering), which is checked term by term.
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
        image = tw.forward(su.expr)
        n = _extract_multiple(image, tgt.expr)
        if n is None:
            rec.status = FAIL
            rec.witness = "image is not an exact multiple of the target instance"
            continue
        simple, unit = _simplify_multiple(n)
        rec.scalar = str(simple)
        if not unit:
            rec.status = FAIL
            rec.witness = "multiple %s is not a unit monomial" % n
            continue
        if su.family == "c":
            i, j, lam = su.i, su.j, su.lam
            expected = sc.e(i, lam) * sc.f(j, rd.add_root(rd.add_root(lam, i, -1), j, +1))
            if not (simple == params.rat(expected)):
                rec.status = FAIL
                rec.witness = "expected scalar %s, got %s" % (expected, n)
        elif su.family in ("d-E", "d-F"):
            fam = params.s if su.family == "d-E" else params.t
            ratio = params.rat(fam(su.j, su.i)) / params.rat(fam(su.i, su.j))
            ok, wit = _serre_term_factorization(su, tgt, tw, ratio)
            if not ok:
                rec.status = FAIL
                rec.witness = wit
    rep.elapsed_ms = int((time.monotonic() - t0) * 1000)
    return rep.finalize()


def _serre_term_factorization(su, tgt, tw, ratio):
    """Per-word rescaling scalar over ratio^l must be an l-independent unit,
    where l counts the trailing i-steps of the word (for d-E, leading for
    d-F).  A failure names the unit at l=0 and the first one that differs."""
    params = tw.params
    powers = [params.rat(1)]  # powers[l] = ratio**l
    units = {}
    for w in su.expr.terms:
        l = _serre_l(su, w)
        while len(powers) <= l:
            powers.append(powers[-1] * ratio)
        units[l] = params.rat(tw._word_scalar(w, invert=False)) / powers[l]
    l0, *rest = sorted(units)
    for l in rest:
        if not (units[l] == units[l0]):
            return False, "per-term unit %s at l=%d differs from %s at l=%d" % (
                units[l].simplified(), l, units[l0].simplified(), l0)
    return True, ""


def _serre_l(su, word: PathWord) -> int:
    """Recover the summation index from a Serre word: the number of i-steps
    after the single j-step (raising family) or before it (lowering)."""
    i, j = su.i, su.j
    steps = [idx for _, idx in word.steps]
    pos = steps.index(j)
    if su.family == "d-E":
        return len(steps) - pos - 1
    return pos


def verify_integrality(rd: RootDatum, params: ParameterSet, window, lmax: int = 4) -> Report:
    """Images of divided-power generators stay integral (unit-monomial
    coefficients over the Laurent ring), and the map round-trips to the
    identity on all window generators."""
    t0 = time.monotonic()
    rep = Report("integrality", datum=rd.name, case=params.label)
    tw = TwistMap(rd, params)
    sc = tw.scalars
    window = sorted(tuple(w) for w in window)
    for i in rd.index_set:
        for lam in window:
            for l in range(lmax + 1):
                for kind in ("E", "F"):
                    dp_u = divided_power(kind, i, l, lam, rd, params, base="v")
                    dp_s = divided_power(kind, i, l, lam, rd, params, base="q")
                    image = tw.forward(dp_u)
                    ((w, c_img),) = image.terms.items()
                    mult = c_img / dp_s.terms[w]
                    simple, unit = _simplify_multiple(mult)
                    rec = CheckRecord(
                        "dp-unit:%s:i%d:l%d:lam(%s)" % (kind, i + 1, l, ",".join(map(str, lam))),
                        "dp", i, None, lam,
                    )
                    if not unit:
                        rec.status = FAIL
                        rec.witness = "coefficient %s is not a unit monomial" % mult
                    else:
                        rec.scalar = str(simple)
                        if kind == "E":
                            expected = sc.e(i, lam) ** l * params.s(i, i) ** (l * (l + 1) // 2)
                            if not (simple == params.rat(expected)):
                                rec.status = FAIL
                                rec.witness = "closed form %s disagrees" % expected
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
