"""Noncommutative graded words, K-straightening, and twisted tensor products.

Words are tuples of generator symbols; a symbol is a (kind, index) pair with
kind one of 'E', 'F', 'K', 'Kinv', 'Kp', 'Kpinv' ('Kp' is the second family
of invertible group-like generators).  LinComb is the one linear-combination
type over the fraction field of the parameter ring; an NCExpr is a LinComb of
words, a TensorExpr one of word tensors (presentations adds path words).

Straightening moves every invertible K-type symbol to the front of a word,
collecting the commutation scalar of each hop, cancelling inverses, and
sorting the K-prefix canonically.  No rewriting beyond that is ever done:
the verification campaigns are arranged so K-straightening plus linear
algebra over the remaining free E/F-words decides every identity.  The
StraightenRules memoise each word's normal form with its scalar, a unit
(mono, coeff) whose hops are summed as packed ints.

Tensor squares and cubes carry the bicharacter-twisted multiplication: the
product of pure tensors picks up s/t factors determined by the gradings of
the slots that move past each other.  Each factor is a unit (mono, coeff),
memoised per degree pair on the ParameterSet (pair_twist), so a product
adds the factors' monomials and scales its coefficient once (times_unit).
"""

from __future__ import annotations

from operator import ne

from .coeffring import RatExpr, RingError
from .params import ParameterSet

E_KIND = "E"
F_KIND = "F"
_KIND_RANK = {"K": 0, "Kinv": 1, "Kp": 2, "Kpinv": 3, "E": 4, "F": 5}


def word_key(word):
    return tuple((_KIND_RANK[k], i) for k, i in word)


def grade(word, n: int) -> tuple:
    """Degree in Z[I]: E_i counts +1 in slot i, F_i counts -1, K-types 0."""
    deg = [0] * n
    for kind, i in word:
        if kind == E_KIND:
            deg[i] += 1
        elif kind == F_KIND:
            deg[i] -= 1
    return tuple(deg)


def bichar(params: ParameterSet, family: str, mu, nu):
    """Bicharacter prod_{i,j} f_ij^{mu_i nu_j} for f one of the s/t families."""
    get = params.s if family == "s" else params.t
    out = params.ctx.one
    for i, mi in enumerate(mu):
        if not mi:
            continue
        for j, nj in enumerate(nu):
            if nj:
                out = out * get(i, j) ** (mi * nj)
    return out


def pair_twist(params: ParameterSet, left, right) -> tuple:
    """t(left, right) s(right, left): the scalar a homogeneous factor of
    degree ``right`` picks up on moving past one of degree ``left``, as a
    unit (mono, coeff) for times_unit.  It is memoised per degree pair on
    params, and a miss computes it through bichar, its one definition."""
    twist = params._pair_twists.get((left, right))
    if twist is None:
        c, m = (bichar(params, "t", left, right) * bichar(params, "s", right, left)).unit_mono()
        twist = params._pair_twists[left, right] = (m, c)
    return twist


def times_unit(coeff: RatExpr, mono, c) -> RatExpr:
    """coeff times the unit c * mono (mono any sum of monomials, c != 0):
    one LaurentPoly.times_unit on the numerator, the denominator kept."""
    if (not mono and c == 1) or coeff.is_zero():
        return coeff
    return RatExpr._normalised(coeff.num.times_unit(mono, c), coeff.den)


def word_str(word) -> str:
    """Display a word as E1*K2 (indices 1-based), the empty word as 1."""
    return "*".join("%s%d" % (k, i + 1) for k, i in word) if word else "1"


def merge_term(terms: dict, key, coeff) -> None:
    """Add coeff to the coefficient of key in terms, dropping it if it cancels."""
    if key in terms:
        nc = terms[key] + coeff
        if nc.is_zero():
            del terms[key]
        else:
            terms[key] = nc
    elif not coeff.is_zero():
        terms[key] = coeff


class LinComb:
    """Finite linear combination of basis keys with RatExpr coefficients.

    Subclasses fix only the basis: ``_order`` sorts keys, ``key_str``
    displays one, and ``_mul_keys`` multiplies two keys for ``*`` (None when
    the product is zero; TensorExpr has none, its product is ``tmul``).
    """

    __slots__ = ("params", "terms")

    def __init__(self, params: ParameterSet, terms: dict):
        self.params = params
        self.terms = terms  # key -> RatExpr, no zero coefficients

    def _new(self, terms: dict):
        return type(self)(self.params, terms)

    @classmethod
    def zero(cls, params):
        return cls(params, {})

    @classmethod
    def word(cls, params, key, coeff=1):
        """The single term coeff * key, zero when coeff is."""
        c = params.rat(coeff)
        return cls(params, {} if c.is_zero() else {key: c})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        terms = dict(self.terms)
        for k, c in other.terms.items():
            merge_term(terms, k, c)
        return self._new(terms)

    def __neg__(self):
        return self._new({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, coeff):
        c = self.params.rat(coeff)
        if c.is_zero():
            return self._new({})
        return self._new({k: cc * c for k, cc in self.terms.items()})

    def __mul__(self, other):
        """Bilinear extension of the basis product ``_mul_keys``."""
        terms: dict = {}
        mul_keys = self._mul_keys
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = mul_keys(k1, k2)
                if key is not None:
                    merge_term(terms, key, c1 * c2)
        return self._new(terms)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        if self.terms.keys() != other.terms.keys():
            return False
        return all(self.terms[k] == other.terms[k] for k in self.terms)

    __hash__ = None

    def multiple_of(self, target):
        """N with self == N * target, or None when no exact multiple exists.

        Zero is 1 times zero.  N is one exact division at the largest key
        of target, so N * target[ref] == self[ref] holds by construction;
        only the other keys are checked against it.
        """
        if target.is_zero():
            return self.params.rat(1) if self.is_zero() else None
        if self.terms.keys() != target.terms.keys():
            return None
        ref = max(target.terms, key=self._order)
        n = self.terms[ref] / target.terms[ref]
        if all(self.terms[k] == n * c for k, c in target.terms.items() if k is not ref):
            return n
        return None

    def difference_witness(self, other, differs=ne, labels=("lhs", "rhs")) -> str:
        """The first key, in basis order, whose two coefficients (0 where a
        side lacks the key) ``differs`` holds for, shown with both as
        "<key>: lhs A, rhs B" under the two labels; empty when there is none."""
        zero = self.params.rat(0)
        for k in sorted(self.terms.keys() | other.terms.keys(), key=self._order):
            a, b = self.terms.get(k, zero), other.terms.get(k, zero)
            if differs(a, b):
                return "%s: %s %s, %s %s" % (
                    self.key_str(k), labels[0], a.simplified(), labels[1], b.simplified())
        return ""

    def multiple_witness(self, target) -> str:
        """Why self is not an exact multiple of target: the first key, in basis
        order, that only one side has or whose coefficient is not N times
        target's, N being the multiple read at target's largest key as in
        multiple_of.  Both coefficients are shown (0 where a side lacks the
        key), then N when it exists; empty when self is an exact multiple."""
        ref = max(target.terms, key=self._order) if target.terms else None
        n = self.terms[ref] / target.terms[ref] if ref in self.terms else None
        shown = self.difference_witness(
            target, lambda a, b: a.is_zero() or b.is_zero() or (n is not None and not a == n * b),
            ("image", "target"))
        return shown if n is None or not shown else "%s, multiple %s" % (shown, n.simplified())

    def sorted_terms(self):
        order = self._order
        return sorted(self.terms.items(), key=lambda kc: order(kc[0]))

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join("(%s)*%s" % (c, self.key_str(k)) for k, c in self.sorted_terms())

    __repr__ = __str__


class NCExpr(LinComb):
    """Linear combination of free words; the product concatenates words."""

    __slots__ = ()

    @classmethod
    def unit(cls, params):
        return cls.word(params, ())

    _order = staticmethod(word_key)

    def key_str(self, word) -> str:
        return word_str(word)

    @staticmethod
    def _mul_keys(w1, w2):
        return w1 + w2


class StraightenRules:
    """Commutation scalars for moving K-type symbols left across E/F symbols,
    and the memoised normal form of every word straightened so far."""

    def __init__(self, rd, params: ParameterSet):
        self.rd = rd
        self.params = params
        self._cache: dict = {}
        self._words: dict = {}  # word -> (normal-form word, (mono, coeff))

    def hop(self, k_kind: str, i: int, ef_kind: str, j: int):
        """Scalar acquired by rewriting (EF symbol)(K symbol) -> (K symbol)(EF symbol)."""
        key = (k_kind, i, ef_kind, j)
        if key not in self._cache:
            p = self.params
            a = self.rd.cartan.a(i, j)
            st = p.s(i, j) * p.t(i, j)
            eps = 1 if k_kind in ("K", "Kinv") else -1
            sgn = 1 if k_kind in ("K", "Kp") else -1
            if ef_kind == E_KIND:
                base = st * p.q(i) ** (-eps * a)
            else:
                base = st.inv_unit() * p.q(i) ** (eps * a)
            self._cache[key] = base if sgn == 1 else base.inv_unit()
        return self._cache[key]


def _straighten_word(word, rules: StraightenRules):
    """(normal-form word, (mono, coeff)): the word is the canonical K-monomial
    prefix followed by the untouched E/F symbols, and the unit is the
    product of the hops taken to get there, their monomials summed as ints.
    Memoised per word on rules; hop is called only on a miss."""
    hit = rules._words.get(word)
    if hit is not None:
        return hit
    mono, coeff = 0, 1
    kexp: dict = {}  # (i, family 'K'/'Kp') -> exponent
    ef = []
    for kind, i in word:
        if kind in (E_KIND, F_KIND):
            ef.append((kind, i))
        else:
            fam = "K" if kind in ("K", "Kinv") else "Kp"
            sgn = 1 if kind in ("K", "Kp") else -1
            for ef_kind, j in ef:
                c, m = rules.hop(kind, i, ef_kind, j).unit_mono()
                mono += m
                if c != 1:
                    coeff *= c
            cur = kexp.get((i, fam), 0) + sgn
            if cur == 0:
                kexp.pop((i, fam), None)
            else:
                kexp[(i, fam)] = cur
    prefix = []
    for (i, fam), e in sorted(kexp.items()):
        kind = fam if e > 0 else (fam + "inv")
        prefix.extend([(kind, i)] * abs(e))
    hit = rules._words[word] = (tuple(prefix) + tuple(ef), (mono, coeff))
    return hit


def straighten(x: NCExpr, rules: StraightenRules) -> NCExpr:
    """Normal form: canonical K-monomial prefix times the untouched E/F word."""
    if rules.params is not x.params:
        raise RingError("straightening rules built for a different parameter set")
    out: dict = {}
    for word, coeff in x.terms.items():
        nf, (mono, c) = _straighten_word(word, rules)
        merge_term(out, nf, times_unit(coeff, mono, c))
    return NCExpr(x.params, out)


class TensorExpr(LinComb):
    """Linear combination of 2- or 3-fold word tensors with the twisted
    product; the arity is the length of the keys."""

    __slots__ = ()

    @classmethod
    def unit(cls, params, arity=2):
        return cls.word(params, ((),) * arity)

    @classmethod
    def of(cls, *factors: NCExpr):
        """Tensor of NC expressions (componentwise formal products)."""
        params = factors[0].params
        keys = [((), params.one())]
        for f in factors:
            keys = [
                (key + (w,), c * cw)
                for key, c in keys
                for w, cw in f.terms.items()
            ]
        out: dict = {}
        for key, c in keys:
            merge_term(out, key, c)
        return cls(params, out)

    def straighten(self, rules: StraightenRules) -> "TensorExpr":
        """Apply the K-straightening normal form in every tensor slot."""
        if rules.params is not self.params:
            raise RingError("straightening rules built for a different parameter set")
        out: dict = {}
        for key, coeff in self.terms.items():
            nf_key, mono, c = [], 0, 1
            for w in key:
                nf, (m, wc) = _straighten_word(w, rules)
                nf_key.append(nf)
                mono += m
                if wc != 1:
                    c *= wc
            merge_term(out, tuple(nf_key), times_unit(coeff, mono, c))
        return TensorExpr(self.params, out)

    @staticmethod
    def _order(key):
        return tuple(word_key(w) for w in key)

    def key_str(self, key) -> str:
        return " (x) ".join(word_str(w) for w in key)


def tmul(a: TensorExpr, b: TensorExpr) -> TensorExpr:
    """Twisted multiplication of tensor expressions (2- or 3-fold): the
    product of pure tensors picks up pair_twist(|x_b|, |y_a|) for every slot
    a of y that moves past a slot b > a of x.  The arity is the length of
    every key of both factors."""
    arities = {len(key) for key in a.terms} | {len(key) for key in b.terms}
    if len(arities) > 1:
        raise ValueError("tensor arity mismatch")
    arity = arities.pop() if arities else 0
    params = a.params
    n = params.cartan.n
    pairs = [(ya, xb) for ya in range(arity) for xb in range(ya + 1, arity)]
    ys = [(ykey, cy, [grade(w, n) for w in ykey]) for ykey, cy in b.terms.items()]
    terms: dict = {}
    for xkey, cx in a.terms.items():
        xdeg = [grade(w, n) for w in xkey]
        for ykey, cy, ydeg in ys:
            mono, c = 0, 1
            for ya, xb in pairs:
                m, tc = pair_twist(params, xdeg[xb], ydeg[ya])
                mono += m
                if tc != 1:
                    c *= tc
            key = tuple(xw + yw for xw, yw in zip(xkey, ykey))
            merge_term(terms, key, times_unit(cx * cy, mono, c))
    return TensorExpr(params, terms)
