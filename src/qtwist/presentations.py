"""Relation families for the twisted and untwisted algebras and their
modified (idempotented) forms, plus the weight-decorated path-word model.

The modified algebras are non-unital, with orthogonal idempotents indexed by
weights and arrow generators that raise or lower a weight by a simple root.
A PathWord records the target weight and the sequence of raising/lowering
steps; products of words concatenate exactly when the inner weights match
and die otherwise, which makes the idempotent and weight-absorption
relations hold by construction.

Relation enumeration over the (infinite) weight lattice is windowed: the
caller supplies a finite set of base weights and every relation instance is
emitted per base weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .coeffring import qbinom
from .ncalg import LinComb, NCExpr, merge_term, word_str
from .params import ParameterSet, twist_c
from .rootdata import RootDatum, Weight

# re-exported here because the parameter family is part of the presentation
__all__ = [
    "ParameterSet",
    "PathWord",
    "PathExpr",
    "RelationInstance",
    "idempotent",
    "e_arrow",
    "f_arrow",
    "divided_power",
    "relations_of",
    "serre_binomial",
]


class PathWord:
    """A composable word in the modified algebra: target weight plus steps.

    Steps are listed left to right as written; an 'E' step with index i
    lowers the weight by alpha_i when read from target to source, so the
    source weight is target - sum(+alpha for E, -alpha for F).  A bare
    idempotent is the empty word at its weight.
    """

    __slots__ = ("target", "steps", "source")

    def __init__(self, rd: RootDatum, target: Weight, steps: tuple):
        self.target = tuple(target)
        self.steps = tuple(steps)
        lam = self.target
        for kind, i in self.steps:
            lam = rd.add_root(lam, i, -1 if kind == "E" else +1)
        self.source = lam

    def key(self):
        return (self.target, self.steps, self.source)

    def compose(self, other: "PathWord") -> Optional["PathWord"]:
        """The concatenated word self*other, or None when the inner weights
        differ.  Its source is other's, so no step is walked again."""
        if self.source != other.target:
            return None
        word = PathWord.__new__(PathWord)
        word.target = self.target
        word.steps = self.steps + other.steps
        word.source = other.source
        return word

    def __eq__(self, other):
        return (
            isinstance(other, PathWord)
            and self.target == other.target
            and self.steps == other.steps
        )

    def __hash__(self):
        return hash((self.target, self.steps))

    def degree(self, n: int) -> tuple:
        deg = [0] * n
        for kind, i in self.steps:
            deg[i] += 1 if kind == "E" else -1
        return tuple(deg)

    def __str__(self):
        tgt = ",".join(map(str, self.target))
        if not self.steps:
            return "1_(%s)" % tgt
        return "%s:(%s)<-(%s)" % (word_str(self.steps), tgt, ",".join(map(str, self.source)))

    __repr__ = __str__


class PathExpr(LinComb):
    """Linear combination of path words; the product composes paths whose
    inner weights match and kills the rest."""

    __slots__ = ("rd",)

    def __init__(self, rd: RootDatum, params: ParameterSet, terms: dict):
        self.rd = rd
        self.params = params
        self.terms = terms  # PathWord -> RatExpr

    def _new(self, terms: dict):
        return PathExpr(self.rd, self.params, terms)

    @classmethod
    def zero(cls, rd, params):
        return cls(rd, params, {})

    @classmethod
    def of(cls, rd, params, word: PathWord, coeff=1):
        c = params.rat(coeff)
        if c.is_zero():
            return cls.zero(rd, params)
        return cls(rd, params, {word: c})

    _order = staticmethod(PathWord.key)

    def key_str(self, word: PathWord) -> str:
        return str(word)

    def _mul_keys(self, w1: PathWord, w2: PathWord):
        return w1.compose(w2)


def idempotent(rd, params, lam: Weight) -> PathExpr:
    return PathExpr.of(rd, params, PathWord(rd, lam, ()))


def e_arrow(rd, params, i: int, source: Weight) -> PathExpr:
    """The raising arrow into source + alpha_i."""
    return PathExpr.of(rd, params, PathWord(rd, rd.add_root(source, i, +1), (("E", i),)))


def f_arrow(rd, params, i: int, source: Weight) -> PathExpr:
    """The lowering arrow into source - alpha_i."""
    return PathExpr.of(rd, params, PathWord(rd, rd.add_root(source, i, -1), (("F", i),)))


def _inv_qfact(params: ParameterSet, i: int, l: int, base: str):
    """1/[l]! in the deformation parameter (base 'q') or in v^{d_i} (base 'v').

    Cached per (base, i, l) beside the q-factorials of the parameter set's
    own ring context, which no other parameter set shares.
    """
    cache = params.ctx._qfact_cache
    key = ("inv", base, i, l)
    inv = cache.get(key)
    if inv is None:
        fact = params.qfact_q(l, i) if base == "q" else params.qfact_v(l, i)
        inv = cache[key] = params.rat(1) / params.rat(fact)
    return inv


def _dp_word(rd: RootDatum, kind: str, i: int, l: int, lam: Weight) -> PathWord:
    """The word of the l-th divided power (see divided_power)."""
    if kind == "E":
        target = lam
        for _ in range(l):
            target = rd.add_root(target, i, +1)
        return PathWord(rd, target, (("E", i),) * l)
    if kind == "F":
        return PathWord(rd, lam, (("F", i),) * l)
    raise ValueError("divided power kind must be 'E' or 'F'")


def divided_power(
    kind: str,
    i: int,
    l: int,
    lam: Weight,
    rd: RootDatum,
    params: ParameterSet,
    base: str = "q",
) -> PathExpr:
    """l-th divided power of a raising or lowering generator, as a path.

    For kind 'E' the word climbs from lam to lam + l*alpha_i, for kind 'F'
    it descends from lam + l*alpha_i to lam; the coefficient is 1/[l]! in
    the deformation parameter (base 'q') or in v^{d_i} (base 'v').
    """
    if l < 0:
        raise ValueError("divided power needs l >= 0")
    return PathExpr.of(rd, params, _dp_word(rd, kind, i, l, lam), _inv_qfact(params, i, l, base))


@dataclass(frozen=True)
class RelationInstance:
    """One relation, stored literally as LHS - RHS."""

    algebra: str  # 'U', 'scrU', 'Udot', 'scrUdot'
    family: str   # 'a', 'b', 'c', 'd-E', 'd-F'
    i: Optional[int]
    j: Optional[int]
    lam: Optional[Weight]
    part: str
    expr: object  # PathExpr or NCExpr

    @property
    def id(self) -> str:
        bits = [self.family]
        if self.i is not None:
            bits.append("i%d" % (self.i + 1))
        if self.j is not None:
            bits.append("j%d" % (self.j + 1))
        if self.lam is not None:
            bits.append("lam(%s)" % ",".join(map(str, self.lam)))
        if self.part:
            bits.append(self.part)
        return ":".join(bits)

    def sort_key(self):
        return (
            self.family,
            -1 if self.i is None else self.i,
            -1 if self.j is None else self.j,
            self.lam or (),
            self.part,
        )


def _serre_ratios(params: ParameterSet, i: int, j: int, twisted: bool):
    """(s_ji/s_ij, t_ji/t_ij) for the twisted Serre sums, (1, 1) untwisted."""
    if not twisted:
        return params.rat(1), params.rat(1)
    return tuple(params.rat(f(j, i)) / params.rat(f(i, j)) for f in (params.s, params.t))


def _serre_templates(params: ParameterSet, i: int, j: int, r: int, twisted: bool):
    """The lam-independent coefficients (-1)^l ratio^l / ([r-l]! [l]!) of the
    modified Serre sums, indexed by l, for the raising family (s ratio,
    factors in the order [r-l]!, [l]!) and the lowering one (t ratio, [l]!,
    [r-l]!), in q for the twisted algebra and in v^{d_i} otherwise."""
    base = "q" if twisted else "v"
    ratio_e, ratio_f = _serre_ratios(params, i, j, twisted)
    coeffs_e, coeffs_f = [], []
    for l in range(r + 1):
        sign = -1 if l % 2 else 1
        inv_l, inv_rest = _inv_qfact(params, i, l, base), _inv_qfact(params, i, r - l, base)
        coeffs_e.append(inv_rest * inv_l * (ratio_e**l * sign))
        coeffs_f.append(inv_l * inv_rest * (ratio_f**l * sign))
    return coeffs_e, coeffs_f


def _modified_relations(algebra, rd, params, window):
    """Relation instances of a modified algebra over a window of base weights."""
    twisted = algebra == "scrUdot"
    out = []
    idx = list(rd.index_set)
    window = sorted(tuple(w) for w in window)
    if not window:
        raise ValueError("modified algebras need a nonempty weight window")
    one = params.rat(1)

    for lam in window:
        unit = idempotent(rd, params, lam)
        out.append(RelationInstance(algebra, "a", None, None, lam, "", unit * unit - unit))
    for i in idx:
        for lam in window:
            e_up = e_arrow(rd, params, i, lam)      # target lam + alpha_i
            e_in = PathExpr.of(rd, params, PathWord(rd, lam, (("E", i),)))
            f_dn = f_arrow(rd, params, i, lam)      # target lam - alpha_i
            f_in = PathExpr.of(rd, params, PathWord(rd, lam, (("F", i),)))
            unit = idempotent(rd, params, lam)
            out.append(RelationInstance(algebra, "b", i, None, lam, "E-right", e_up * unit - e_up))
            out.append(RelationInstance(algebra, "b", i, None, lam, "E-left", unit * e_in - e_in))
            out.append(RelationInstance(algebra, "b", i, None, lam, "F-right", f_dn * unit - f_dn))
            out.append(RelationInstance(algebra, "b", i, None, lam, "F-left", unit * f_in - f_in))

    for i in idx:
        for j in idx:
            # only the idempotent term of a mixed relation depends on lam
            fe_coeff = -(params.rat(params.s(i, j) * params.t(j, i)) if twisted else one)
            for lam in window:
                # E_i F_j - c F_j E_i on 1_lam, and for i = j minus [<i,lam>] c_{i,lam} 1_lam
                terms = {PathWord(rd, lam, (("E", i), ("F", j))): one}
                merge_term(terms, PathWord(rd, lam, (("F", j), ("E", i))), fe_coeff)
                if i == j:
                    li = rd.lambda_i(lam, i)
                    qn = params.qint_q(li, i) if twisted else params.qint_v(li, i)
                    cc = params.rat(qn)
                    if twisted:
                        cc = cc * params.rat(twist_c(rd, params, i, lam))
                    merge_term(terms, PathWord(rd, lam, ()), -cc)
                if len([w for w in terms if w.steps]) != 2:
                    raise ValueError(
                        "chain-inconsistent weight decoration in mixed relation at %s" % (lam,)
                    )
                out.append(RelationInstance(algebra, "c", i, j, lam, "", PathExpr(rd, params, terms)))

    for i in idx:
        for j in idx:
            if i == j:
                continue
            r = rd.cartan.serre_exponent(i, j)
            coeffs_e, coeffs_f = _serre_templates(params, i, j, r, twisted)
            for lam in window:
                mids = [lam]  # mids[l] = lam + l*alpha_i
                for _ in range(r):
                    mids.append(rd.add_root(mids[-1], i, +1))
                terms_e, terms_f = {}, {}
                for l, mid in enumerate(mids):
                    top = rd.add_root(mid, j, +1)
                    # E_i^(r-l) E_j E_i^l from lam, and F_i^l F_j F_i^(r-l) into lam
                    w_e = _dp_word(rd, "E", i, r - l, top).compose(PathWord(rd, top, (("E", j),)))
                    w_e = w_e and w_e.compose(_dp_word(rd, "E", i, l, lam))
                    w_f = _dp_word(rd, "F", i, l, lam).compose(
                        PathWord(rd, rd.add_root(top, j, -1), (("F", j),)))
                    w_f = w_f and w_f.compose(_dp_word(rd, "F", i, r - l, top))
                    if w_e is not None:
                        merge_term(terms_e, w_e, coeffs_e[l])
                    if w_f is not None:
                        merge_term(terms_f, w_f, coeffs_f[l])
                if len(terms_e) != r + 1 or len(terms_f) != r + 1:
                    raise ValueError(
                        "chain-inconsistent weight decoration in Serre relation at %s" % (lam,)
                    )
                out.append(RelationInstance(algebra, "d-E", i, j, lam, "", PathExpr(rd, params, terms_e)))
                out.append(RelationInstance(algebra, "d-F", i, j, lam, "", PathExpr(rd, params, terms_f)))
    out.sort(key=lambda r: r.sort_key())
    return out


def _nc_relations(algebra, rd, params):
    """Relation instances of the unital algebras as free-word expressions."""
    twisted = algebra == "scrU"
    out = []
    idx = list(rd.index_set)
    one = params.rat(1)
    W = lambda *syms: NCExpr.word(params, tuple(syms))
    kfams = ("K", "Kp") if twisted else ("K",)

    for a_fam in kfams:
        for b_fam in kfams:
            for i in idx:
                for j in idx:
                    if a_fam == b_fam and i >= j:
                        continue
                    expr = W((a_fam, i), (b_fam, j)) - W((b_fam, j), (a_fam, i))
                    out.append(
                        RelationInstance(algebra, "a", i, j, None, "%s%s-comm" % (a_fam, b_fam), expr)
                    )
    for fam in kfams:
        for i in idx:
            inv = fam + "inv"
            out.append(
                RelationInstance(
                    algebra, "a", i, None, None, fam + "-inv",
                    W((fam, i), (inv, i)) - NCExpr.unit(params),
                )
            )
            out.append(
                RelationInstance(
                    algebra, "a", i, None, None, fam + "-inv2",
                    W((inv, i), (fam, i)) - NCExpr.unit(params),
                )
            )

    for i in idx:
        for j in idx:
            a = rd.cartan.a(i, j)
            if twisted:
                st_inv = params.rat((params.s(i, j) * params.t(i, j)).inv_unit())
                st = params.rat(params.s(i, j) * params.t(i, j))
                scalars = {
                    ("K", "E"): st_inv * params.rat(params.q(i) ** a),
                    ("Kp", "E"): st_inv * params.rat(params.q(i) ** (-a)),
                    ("K", "F"): st * params.rat(params.q(i) ** (-a)),
                    ("Kp", "F"): st * params.rat(params.q(i) ** a),
                }
            else:
                scalars = {
                    ("K", "E"): params.rat(params.vi(i) ** a),
                    ("K", "F"): params.rat(params.vi(i) ** (-a)),
                }
            for (fam, ef), c in scalars.items():
                expr = W((fam, i), (ef, j), (fam + "inv", i)) - W((ef, j)).scale(c)
                out.append(RelationInstance(algebra, "b", i, j, None, "%s-%s" % (fam, ef), expr))

    for i in idx:
        for j in idx:
            lhs = W(("E", i), ("F", j))
            if twisted:
                lhs = lhs - W(("F", j), ("E", i)).scale(params.s(i, j) * params.t(j, i))
            else:
                lhs = lhs - W(("F", j), ("E", i))
            if i == j:
                qi = params.q(i) if twisted else params.vi(i)
                denom = params.rat(qi - qi.inv_unit())
                kneg = ("Kp", i) if twisted else ("Kinv", i)
                lhs = lhs - (W(("K", i)) - W(kneg)).scale(one / denom)
            out.append(RelationInstance(algebra, "c", i, j, None, "", lhs))

    for i in idx:
        for j in idx:
            if i == j:
                continue
            r = rd.cartan.serre_exponent(i, j)
            ratio_e, ratio_f = _serre_ratios(params, i, j, twisted)
            base = "q" if twisted else "v"
            dp = lambda kind, m: NCExpr.word(params, ((kind, i),) * m, _inv_qfact(params, i, m, base))
            acc_e = NCExpr.zero(params)
            acc_f = NCExpr.zero(params)
            for l in range(r + 1):
                sign = -1 if l % 2 else 1
                term_e = dp("E", r - l) * W(("E", j)) * dp("E", l)
                term_f = dp("F", l) * W(("F", j)) * dp("F", r - l)
                acc_e = acc_e + term_e.scale(ratio_e**l * sign)
                acc_f = acc_f + term_f.scale(ratio_f**l * sign)
            out.append(RelationInstance(algebra, "d-E", i, j, None, "", acc_e))
            out.append(RelationInstance(algebra, "d-F", i, j, None, "", acc_f))
    out.sort(key=lambda r: r.sort_key())
    return out


def relations_of(algebra: str, rd: RootDatum, params: ParameterSet, window=None):
    """Every relation instance of the named presentation.

    'U' and 'scrU' give free-word (NCExpr) instances; 'Udot' and 'scrUdot'
    give path-word (PathExpr) instances over the supplied weight window.
    Untwisted presentations require a parameter set with a base v.
    """
    if algebra in ("U", "Udot") and not params.has_v():
        raise ValueError("the untwisted presentation needs a v-based parameter set")
    if algebra in ("Udot", "scrUdot"):
        if not window:
            raise ValueError("modified algebras need a nonempty weight window")
        return _modified_relations(algebra, rd, params, window)
    if algebra in ("U", "scrU"):
        return _nc_relations(algebra, rd, params)
    raise ValueError("unknown algebra %r" % algebra)


def serre_binomial(i: int, j: int, rd: RootDatum, params: ParameterSet, kind: str = "E") -> NCExpr:
    """Denominator-free quantum Serre sum with Gaussian binomial coefficients.

    Equals [r]!_{q_i} times the divided-power Serre sum; the per-term scalar
    for the raising family is (-1)^l (s_ji/s_ij)^l, for the lowering family
    the same in t.
    """
    if i == j:
        raise ValueError("Serre relation needs i != j")
    r = rd.cartan.serre_exponent(i, j)
    fam = params.s if kind == "E" else params.t
    ratio = params.rat(fam(j, i)) / params.rat(fam(i, j))
    acc = NCExpr.zero(params)
    for l in range(r + 1):
        sign = -1 if l % 2 else 1
        coeff = params.rat(qbinom(r, l, params.q(i))) * ratio**l * sign
        if kind == "E":
            word = (("E", i),) * (r - l) + (("E", j),) + (("E", i),) * l
        else:
            word = (("F", i),) * l + (("F", j),) + (("F", i),) * (r - l)
        acc = acc + NCExpr.word(params, word, coeff)
    return acc
