"""Relation families for the twisted and untwisted algebras and their
modified (idempotented) forms, plus the weight-decorated path-word model.

Lusztig's algebra is the twisted one at the trivial twist, so the untwisted
presentations are the twisted formulas run over ``params.untwisted()``
(s = t = 1, q_i = v^{d_i}); the unital builder differs only in its
generator set, K_i^{-1} in U where scrU has K'_i.  The modified builder
makes one pass over a tuple of parameter sets, each path word built once
with a coefficient table per set: the iso campaign takes (untwisted,
twisted) pairs from it, relations_of one side.

The modified algebras are non-unital, with orthogonal idempotents indexed by
weights and arrow generators that raise or lower a weight by a simple root.
A PathWord records the target weight and the sequence of raising/lowering
steps; products of words concatenate exactly when the inner weights match
and die otherwise, so the idempotent and weight-absorption relations
(families a and b) hold by construction: an instance keeps its words.

Relation enumeration over the (infinite) weight lattice is windowed: the
caller supplies a finite set of base weights and every relation instance is
emitted per base weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import add
from typing import Optional

from .coeffring import qbinom
from .ncalg import LinComb, NCExpr, merge_term, word_str
from .params import ParameterSet, character_value, twist_character
from .rootdata import RootDatum, Weight

# re-exported here because the parameter family is part of the presentation
__all__ = [
    "ParameterSet",
    "PathWord",
    "PathExpr",
    "RelationInstance",
    "PathRelation",
    "modified_relations",
    "idempotent",
    "divided_power",
    "relations_of",
]


class PathWord:
    """A composable word in the modified algebra: target weight plus steps.

    Steps are listed left to right as written; an 'E' step with index i
    lowers the weight by alpha_i when read from target to source, so the
    source weight is target - sum(+alpha for E, -alpha for F), the target
    plus the datum's shift of the step tuple.  A bare idempotent is the
    empty word at its weight.
    """

    __slots__ = ("target", "steps", "source")

    def __init__(self, rd: RootDatum, target: Weight, steps: tuple):
        self.target = tuple(target)
        self.steps = tuple(steps)
        self.source = tuple(map(add, self.target, rd.step_shift(self.steps)))

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


def divided_power(
    kind: str,
    i: int,
    l: int,
    lam: Weight,
    rd: RootDatum,
    params: ParameterSet,
) -> PathExpr:
    """l-th divided power of a raising or lowering generator, as a path, in
    integral form: [l]!_{q_i} E_i^(l) (or F_i^(l)), the word with coefficient
    1, as a RelationInstance stores each Serre sum times [r]!_{q_i}.  For kind
    'E' the word climbs from lam to lam + l*alpha_i, for kind 'F' it descends
    from lam + l*alpha_i to lam."""
    if l < 0:
        raise ValueError("divided power needs l >= 0")
    if kind not in ("E", "F"):
        raise ValueError("divided power kind must be 'E' or 'F'")
    descent = PathWord(rd, lam, (("F", i),) * l)
    word = descent if kind == "F" else PathWord(rd, descent.source, (("E", i),) * l)
    return PathExpr.of(rd, params, word)


class _RelationKey:
    """The id and sort key of a relation instance."""

    @property
    def id(self) -> str:
        bits = [self.family]
        bits += ["%s%d" % (name, k + 1) for name, k in (("i", self.i), ("j", self.j)) if k is not None]
        if self.lam is not None:
            bits.append("lam(%s)" % ",".join(map(str, self.lam)))
        if self.part:
            bits.append(self.part)
        return ":".join(bits)

    def sort_key(self):
        return (self.family, -1 if self.i is None else self.i, -1 if self.j is None else self.j,
                self.lam or (), self.part)


@dataclass(frozen=True)
class RelationInstance(_RelationKey):
    """One relation, stored as LHS - RHS in integral form: the Serre sums
    times [r]!_{q_i} and the mixed relation c_ii times q_i - q_i^{-1}, so
    every coefficient is a Laurent polynomial."""

    algebra: str  # 'U', 'scrU', 'Udot', 'scrUdot'
    family: str   # 'a', 'b', 'c', 'd-E', 'd-F'
    i: Optional[int]
    j: Optional[int]
    lam: Optional[Weight]
    part: str
    expr: object  # PathExpr or NCExpr


@dataclass(eq=False)
class PathRelation(_RelationKey):
    """One modified-algebra relation instance over each parameter set of
    sides, on shared path words: words = (left, right, word) for families a
    and b, left*right == word, and one PathExpr per side in exprs for c, d."""

    rd: RootDatum
    sides: tuple
    family: str
    i: Optional[int]
    j: Optional[int]
    lam: Weight
    part: str
    words: Optional[tuple]
    exprs: Optional[tuple]

    def expr(self, k: int) -> PathExpr:
        """The instance over sides[k]; for families a and b, left*right - word."""
        if self.exprs is not None:
            return self.exprs[k]
        params, (left, right, word) = self.sides[k], self.words
        product = left.compose(right)
        terms = {} if product == word else {word: -params.one()}
        if terms and product is not None:
            terms[product] = params.one()
        return PathExpr(self.rd, params, terms)


def _serre_ratios(params: ParameterSet, i: int, j: int):
    """(s_ji/s_ij, t_ji/t_ij) for the Serre sums, as unit monomials."""
    return tuple(f(j, i) * f(i, j).inv_unit() for f in (params.s, params.t))


def _serre_terms(params: ParameterSet, i: int, j: int, r: int, kind: str):
    """The Serre sum of kind 'E' or 'F' in integral form, as a weight-free
    list, over l = 0..r, of (steps, coefficient): the steps of
    E_i^(r-l) E_j E_i^l, or of F_i^l F_j F_i^(r-l), and (-1)^l ratio^l
    [r, l]_{q_i}, with the s ratio for the raising sum and the t ratio for
    the lowering one.  This is [r]!_{q_i} times the sum of divided powers,
    so no coefficient has a denominator."""
    ratio = _serre_ratios(params, i, j)[kind != "E"]
    out = []
    for l in range(r + 1):
        if kind == "E":
            steps = (("E", i),) * (r - l) + (("E", j),) + (("E", i),) * l
        else:
            steps = (("F", i),) * l + (("F", j),) + (("F", i),) * (r - l)
        out.append((steps, params.rat(ratio**l * qbinom(r, l, params.q(i)) * (-1) ** l)))
    return out


def modified_relations(rd: RootDatum, sides: tuple, window) -> list:
    """Every modified-algebra relation instance over a window of base
    weights, in sort_key order, as PathRelations over the parameter sets of
    sides: one pass that builds each path word once for every side."""
    window = sorted(tuple(w) for w in window or ())
    if not window:
        raise ValueError("modified algebras need a nonempty weight window")
    rel = partial(PathRelation, rd, sides)

    units = {lam: PathWord(rd, lam, ()) for lam in window}
    out = [rel("a", None, None, lam, "", (unit, unit, unit), None) for lam, unit in units.items()]
    for i in rd.index_set:
        for lam, unit in units.items():
            e_up = PathWord(rd, rd.add_root(lam, i, +1), (("E", i),))  # source lam
            e_in = PathWord(rd, lam, (("E", i),))
            f_dn = PathWord(rd, rd.add_root(lam, i, -1), (("F", i),))  # source lam
            f_in = PathWord(rd, lam, (("F", i),))
            out += [rel("b", i, None, lam, part, words, None) for part, words in (
                ("E-left", (unit, e_in, e_in)), ("E-right", (e_up, unit, e_up)),
                ("F-left", (unit, f_in, f_in)), ("F-right", (f_dn, unit, f_dn)))]

    ones = [p.one() for p in sides]
    for i in rd.index_set:
        chars = [twist_character(rd, p, "c", i) for p in sides]
        for j in rd.index_set:
            # only the idempotent term of a mixed relation depends on lam
            fe_coeffs = [-p.rat(p.s(i, j) * p.t(j, i)) for p in sides]
            for lam in window:
                # E_i F_j - c F_j E_i on 1_lam, and for i = j minus [<i,lam>] c_{i,lam} 1_lam
                ef, fe = PathWord(rd, lam, (("E", i), ("F", j))), PathWord(rd, lam, (("F", j), ("E", i)))
                exprs = []
                for p, one, c_i, fe_coeff in zip(sides, ones, chars, fe_coeffs):
                    terms = {ef: one, fe: fe_coeff}
                    if i == j:
                        qn = p.qint_q(rd.lambda_i(lam, i), i)
                        cc = p.rat(qn * p.ctx.unit_from_exps(*character_value(c_i, lam)))
                        merge_term(terms, units[lam], -cc)
                    exprs.append(PathExpr(rd, p, terms))
                out.append(rel("c", i, j, lam, "", None, tuple(exprs)))

    out_f = []
    for i in rd.index_set:
        for j in rd.index_set:
            if i == j:
                continue
            r = rd.cartan.serre_exponent(i, j)
            serre = {kind: [_serre_terms(p, i, j, r, kind) for p in sides] for kind in "EF"}
            steps = {kind: dict.fromkeys(s for terms in serre[kind] for s, _ in terms) for kind in "EF"}
            for lam in window:
                # the F words descend into lam; the E words climb from lam to their source
                words = {s: PathWord(rd, lam, s) for s in steps["F"]}
                top = next(iter(words.values())).source
                words.update((s, PathWord(rd, top, s)) for s in steps["E"])
                for kind, dest in (("E", out), ("F", out_f)):
                    exprs = tuple(PathExpr(rd, p, {words[s]: c for s, c in terms})
                                  for p, terms in zip(sides, serre[kind]))
                    dest.append(rel("d-" + kind, i, j, lam, "", None, exprs))
    return out + out_f


def _nc_relations(algebra, rd, params):
    """Relation instances of the unital algebras as free-word expressions.
    The two differ only in their generators: U has K_i^{-1} where scrU has
    K'_i."""
    out = []
    idx = list(rd.index_set)
    W = lambda *syms: NCExpr.word(params, tuple(syms))
    kfams, kneg = (("K", "Kp"), "Kp") if algebra == "scrU" else (("K",), "Kinv")

    for a_fam in kfams:
        for b_fam in kfams:
            for i in idx:
                for j in idx:
                    if a_fam == b_fam and i >= j:
                        continue
                    expr = W((a_fam, i), (b_fam, j)) - W((b_fam, j), (a_fam, i))
                    out.append(RelationInstance(algebra, "a", i, j, None, a_fam + b_fam + "-comm", expr))
    for fam in kfams:
        for i in idx:
            k, inv = (fam, i), (fam + "inv", i)
            for part, word in (("-inv", (k, inv)), ("-inv2", (inv, k))):
                expr = W(*word) - NCExpr.unit(params)
                out.append(RelationInstance(algebra, "a", i, None, None, fam + part, expr))

    for i in idx:
        for j in idx:
            a = rd.cartan.a(i, j)
            st = params.s(i, j) * params.t(i, j)
            st_inv, qa, qa_inv = st.inv_unit(), params.q(i) ** a, params.q(i) ** (-a)
            scalars = {("K", "E"): st_inv * qa, ("Kp", "E"): st_inv * qa_inv,
                       ("K", "F"): st * qa_inv, ("Kp", "F"): st * qa}
            for (fam, ef), c in scalars.items():
                if fam not in kfams:
                    continue
                expr = W((fam, i), (ef, j), (fam + "inv", i)) - W((ef, j)).scale(c)
                out.append(RelationInstance(algebra, "b", i, j, None, "%s-%s" % (fam, ef), expr))

    for i in idx:
        for j in idx:
            fe = W(("F", j), ("E", i)).scale(params.s(i, j) * params.t(j, i))
            lhs = W(("E", i), ("F", j)) - fe
            if i == j:
                # times q_i - q_i^{-1}, the integral form of the mixed relation
                qi = params.q(i)
                lhs = lhs.scale(qi - qi.inv_unit()) - (W(("K", i)) - W((kneg, i)))
            out.append(RelationInstance(algebra, "c", i, j, None, "", lhs))

    for i in idx:
        for j in idx:
            if i == j:
                continue
            r = rd.cartan.serre_exponent(i, j)
            for kind in ("E", "F"):
                terms = dict(_serre_terms(params, i, j, r, kind))
                out.append(RelationInstance(algebra, "d-" + kind, i, j, None, "", NCExpr(params, terms)))
    out.sort(key=lambda r: r.sort_key())
    return out


def relations_of(algebra: str, rd: RootDatum, params: ParameterSet, window=None):
    """Every relation instance of the named presentation.

    'U' and 'scrU' give free-word (NCExpr) instances; 'Udot' and 'scrUdot'
    give path-word (PathExpr) instances over the supplied weight window.
    The untwisted 'U' and 'Udot' are the twisted builders run over
    ``params.untwisted()``, so they need a parameter set with a base v.
    """
    if algebra in ("U", "Udot"):
        params = params.untwisted()
    if algebra in ("Udot", "scrUdot"):
        return [RelationInstance(algebra, r.family, r.i, r.j, r.lam, r.part, r.expr(0))
                for r in modified_relations(rd, (params,), window)]
    if algebra in ("U", "scrU"):
        return _nc_relations(algebra, rd, params)
    raise ValueError("unknown algebra %r" % algebra)

