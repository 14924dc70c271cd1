"""Relation families for the twisted and untwisted algebras and their
modified (idempotented) forms, plus the weight-decorated path-word model.

Lusztig's algebra is the twisted one at the trivial twist, so the untwisted
presentations are the twisted formulas run over ``params.untwisted()``
(s = t = 1, q_i = v^{d_i}); the unital builder differs only in its
generator set, K_i^{-1} in U where scrU has K'_i.  The modified builder
makes one pass over a tuple of parameter sets, each path word built once
with a coefficient table per set, and yields its instances one at a time:
the iso campaign checks each (untwisted, twisted) pair as it comes and
keeps none, and relations_of lists one side.  Its weight-free data (step
tuples, coefficient tables, weight shifts and id text) is made once per
(family, i, j) template, so an instance only places its words at a weight.

The modified algebras are non-unital, with orthogonal idempotents indexed by
weights and arrow generators that raise or lower a weight by a simple root.
A PathWord records the target weight and the sequence of raising/lowering
steps; products of words concatenate exactly when the inner weights match
and die otherwise, so the idempotent and weight-absorption relations
(families a and b) hold by construction: an instance keeps its words.

Relation enumeration over the (infinite) weight lattice is windowed: the
caller supplies a finite set of base weights and every relation instance is
emitted per base weight.  Every builder makes one record type, Relation,
whose side(k) is the instance over its k-th parameter set.
"""

from __future__ import annotations

from functools import partial
from operator import add, sub

from .coeffring import qbinom
from .ncalg import LinComb, NCExpr, merge_term, word_str
from .params import ParameterSet, character_value, twist_character
from .rootdata import RootDatum, Weight

__all__ = [
    "PathWord",
    "PathExpr",
    "Relation",
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

    __slots__ = ("target", "steps", "source", "_hash")

    def __init__(self, rd: RootDatum, target: Weight, steps: tuple):
        self.target = tuple(target)
        self.steps = tuple(steps)
        self.source = tuple(map(add, self.target, rd.step_shift(self.steps)))
        self._hash = hash((self.target, self.steps))

    @classmethod
    def _placed(cls, target: Weight, steps: tuple, source: Weight) -> "PathWord":
        """The word with these steps from source to target, given as tuples
        with source = target + the steps' shift; nothing is walked."""
        word = cls.__new__(cls)
        word.target, word.steps, word.source = target, steps, source
        word._hash = hash((target, steps))
        return word

    def key(self):
        return (self.target, self.steps, self.source)

    def compose(self, other: "PathWord") -> "PathWord | None":
        """The concatenated word self*other, or None when the inner weights
        differ.  Its source is other's, so no step is walked again."""
        if self.source != other.target:
            return None
        return PathWord._placed(self.target, self.steps + other.steps, other.source)

    def __eq__(self, other):
        return (
            isinstance(other, PathWord)
            and self.target == other.target
            and self.steps == other.steps
        )

    def __hash__(self):
        return self._hash

    def __str__(self):
        tgt = ",".join(map(str, self.target))
        if not self.steps:
            return "1_(%s)" % tgt
        return "%s:(%s)<-(%s)" % (word_str(self.steps), tgt, ",".join(map(str, self.source)))

    __repr__ = __str__


class PathExpr(LinComb):
    """Linear combination of path words; the product composes paths whose
    inner weights match and kills the rest."""

    __slots__ = ()

    _order = staticmethod(PathWord.key)

    def key_str(self, word: PathWord) -> str:
        return str(word)

    def _mul_keys(self, w1: PathWord, w2: PathWord):
        return w1.compose(w2)


def idempotent(rd, params, lam: Weight) -> PathExpr:
    return PathExpr.word(params, PathWord(rd, lam, ()))


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
    1, as a Relation stores each Serre sum times [r]!_{q_i}.  For kind
    'E' the word climbs from lam to lam + l*alpha_i, for kind 'F' it descends
    from lam + l*alpha_i to lam."""
    if l < 0:
        raise ValueError("divided power needs l >= 0")
    if kind not in ("E", "F"):
        raise ValueError("divided power kind must be 'E' or 'F'")
    descent = PathWord(rd, lam, (("F", i),) * l)
    word = descent if kind == "F" else PathWord(rd, descent.source, (("E", i),) * l)
    return PathExpr.word(params, word)


def lam_text(lam: Weight) -> str:
    """The weight part of a record id, lam(a,b,...): the one spelling every
    campaign's ids use."""
    return "lam(%s)" % ",".join(map(str, lam))


def _key_id(family: str, i: int | None, j: int | None) -> str:
    """The id text of a relation template: family, then i and j when set."""
    bits = [family] + ["%s%d" % (name, k + 1) for name, k in (("i", i), ("j", j)) if k is not None]
    return ":".join(bits)


class Relation:
    """One relation instance of any of the four presentations, over each
    parameter set of sides, stored as LHS - RHS in integral form: the Serre
    sums times [r]!_{q_i} and the mixed relation c_ii times q_i - q_i^{-1},
    so every coefficient is a Laurent polynomial.  exprs holds one
    expression per side (NCExpr for U and scrU, PathExpr for Udot and
    scrUdot); the parameter-free modified families a and b keep only their
    shared path words, words = (left, right, word) with left*right == word,
    and exprs None.  id is the instance's id text, made by the builder."""

    __slots__ = ("sides", "id", "family", "i", "j", "lam", "part", "words", "exprs",
                 "__weakref__")

    def __init__(self, sides: tuple, id: str, family: str, i: int | None, j: int | None,
                 lam: Weight | None, part: str, words: tuple | None,
                 exprs: tuple | None):
        self.sides = sides
        self.id = id
        self.family = family  # 'a', 'b', 'c', 'd-E', 'd-F'
        self.i = i
        self.j = j
        self.lam = lam
        self.part = part
        self.words = words
        self.exprs = exprs

    def sort_key(self):
        return (self.family, -1 if self.i is None else self.i, -1 if self.j is None else self.j,
                self.lam or (), self.part)

    def side(self, k: int):
        """The instance over sides[k]; for families a and b, left*right - word."""
        if self.exprs is not None:
            return self.exprs[k]
        params, (left, right, word) = self.sides[k], self.words
        product = left.compose(right)
        terms = {} if product == word else {word: -params.one()}
        if terms and product is not None:
            terms[product] = params.one()
        return PathExpr(params, terms)

    @property
    def expr(self):
        """The instance over the first (for relations_of, the only) side."""
        return self.side(0)


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


def modified_relations(rd: RootDatum, sides: tuple, window):
    """Every modified-algebra relation instance over a window of base
    weights, in sort_key order, as Relations over the parameter sets of
    sides, yielded one at a time: each path word is built once for every
    side, and the builder keeps no instance it has yielded.  An empty window
    raises ValueError here, at the call."""
    window = sorted(tuple(w) for w in window or ())
    if not window:
        raise ValueError("modified algebras need a nonempty weight window")
    return _modified_relations(rd, sides, window)


def _modified_relations(rd: RootDatum, sides: tuple, window: list):
    """The generator behind modified_relations.  Each (family, i, j)
    template makes its weight-free data once: step tuples, one coefficient
    table per side, the weight shift between a word's target and source, and
    its id text; each instance then only places its words at the window
    weight."""
    word, rel = PathWord._placed, partial(Relation, sides)
    lam_ids = {lam: lam_text(lam) for lam in window}
    units = {lam: word(lam, (), lam) for lam in window}
    for lam, unit in units.items():
        yield rel("a:" + lam_ids[lam], "a", None, None, lam, "", (unit, unit, unit), None)
    for i in rd.index_set:
        key, alpha = _key_id("b", i, None) + ":", rd.alpha[i]
        e, f = (("E", i),), (("F", i),)
        for lam, unit in units.items():
            up, dn = tuple(map(add, lam, alpha)), tuple(map(sub, lam, alpha))
            e_up, e_in = word(up, e, lam), word(lam, e, dn)
            f_dn, f_in = word(dn, f, lam), word(lam, f, up)
            lam_key = key + lam_ids[lam] + ":"
            for part, words in (("E-left", (unit, e_in, e_in)), ("E-right", (e_up, unit, e_up)),
                                ("F-left", (unit, f_in, f_in)), ("F-right", (f_dn, unit, f_dn))):
                yield rel(lam_key + part, "b", i, None, lam, part, words, None)

    ones = [p.one() for p in sides]
    for i in rd.index_set:
        chars = [twist_character(rd, p, "c", i) for p in sides]
        for j in rd.index_set:
            # only the idempotent term of a mixed relation depends on lam
            key = _key_id("c", i, j) + ":"
            ef_steps, fe_steps = (("E", i), ("F", j)), (("F", j), ("E", i))
            shift = rd.step_shift(ef_steps)
            tables = [(p, one, -p.rat(p.s(i, j) * p.t(j, i)), c_i)
                      for p, one, c_i in zip(sides, ones, chars)]
            for lam in window:
                # E_i F_j - c F_j E_i on 1_lam, and for i = j minus [<i,lam>] c_{i,lam} 1_lam
                source = tuple(map(add, lam, shift))
                ef, fe = word(lam, ef_steps, source), word(lam, fe_steps, source)
                exprs = []
                for p, one, fe_coeff, c_i in tables:
                    terms = {ef: one, fe: fe_coeff}
                    if i == j:
                        qn = p.qint_q(rd.lambda_i(lam, i), i)
                        cc = p.rat(qn.times_unit(*character_value(c_i, lam)))
                        merge_term(terms, units[lam], -cc)
                    exprs.append(PathExpr(p, terms))
                yield rel(key + lam_ids[lam], "c", i, j, lam, "", None, tuple(exprs))

    for kind in "EF":
        for i in rd.index_set:
            for j in rd.index_set:
                if i == j:
                    continue
                yield from _serre_relations(rd, sides, kind, i, j, window, lam_ids)


def _serre_relations(rd, sides: tuple, kind: str, i: int, j: int, window: list, lam_ids: dict):
    """The d-E or d-F instances of one index pair over the window: the step
    tuples of every side's Serre sum listed once, each side's table as
    (step index, coefficient), and the lift from the F words' target to
    their source (the E words climb from lam by the same lift)."""
    r = rd.cartan.serre_exponent(i, j)
    serre = [(p, _serre_terms(p, i, j, r, kind)) for p in sides]
    steps = list(dict.fromkeys(s for _, terms in serre for s, _ in terms))
    index = {s: k for k, s in enumerate(steps)}
    tables = [(p, [(index[s], c) for s, c in terms]) for p, terms in serre]
    lift = rd.step_shift((("F", i),) * r + (("F", j),))
    word, rel = PathWord._placed, partial(Relation, sides)
    key, family = _key_id("d-" + kind, i, j) + ":", "d-" + kind
    for lam in window:
        top = tuple(map(add, lam, lift))
        target, source = (top, lam) if kind == "E" else (lam, top)
        words = [word(target, s, source) for s in steps]
        exprs = tuple(PathExpr(p, {words[k]: c for k, c in table}) for p, table in tables)
        yield rel(key + lam_ids[lam], family, i, j, lam, "", None, exprs)


def _nc_relations(algebra, rd, params):
    """Relation instances of the unital algebras as free-word expressions.
    The two differ only in their generators: U has K_i^{-1} where scrU has
    K'_i.  An id is the template's id text, then the part when there is one."""
    out = []

    def emit(family, i, j, part, expr):
        key = _key_id(family, i, j)
        out.append(Relation((params,), key + ":" + part if part else key, family, i, j, None, part,
                            None, (expr,)))

    idx = list(rd.index_set)
    W = lambda *syms: NCExpr.word(params, syms)
    kfams, kneg = (("K", "Kp"), "Kp") if algebra == "scrU" else (("K",), "Kinv")

    for a_fam in kfams:
        for b_fam in kfams:
            for i in idx:
                for j in idx:
                    if a_fam == b_fam and i >= j:
                        continue
                    emit("a", i, j, a_fam + b_fam + "-comm",
                        W((a_fam, i), (b_fam, j)) - W((b_fam, j), (a_fam, i)))
    for fam in kfams:
        for i in idx:
            k, inv = (fam, i), (fam + "inv", i)
            for part, word in (("-inv", (k, inv)), ("-inv2", (inv, k))):
                emit("a", i, None, fam + part, W(*word) - NCExpr.unit(params))

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
                emit("b", i, j, "%s-%s" % (fam, ef),
                    W((fam, i), (ef, j), (fam + "inv", i)) - W((ef, j)).scale(c))

    for i in idx:
        for j in idx:
            fe = W(("F", j), ("E", i)).scale(params.s(i, j) * params.t(j, i))
            lhs = W(("E", i), ("F", j)) - fe
            if i == j:
                # times q_i - q_i^{-1}, the integral form of the mixed relation
                qi = params.q(i)
                lhs = lhs.scale(qi - qi.inv_unit()) - (W(("K", i)) - W((kneg, i)))
            emit("c", i, j, "", lhs)

    for i in idx:
        for j in idx:
            if i == j:
                continue
            r = rd.cartan.serre_exponent(i, j)
            for kind in ("E", "F"):
                emit("d-" + kind, i, j, "", NCExpr(params, dict(_serre_terms(params, i, j, r, kind))))
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
        return list(modified_relations(rd, (params,), window))
    if algebra in ("U", "scrU"):
        return _nc_relations(algebra, rd, params)
    raise ValueError("unknown algebra %r" % algebra)

