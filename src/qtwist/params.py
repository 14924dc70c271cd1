"""Parameter families (q_i, s_ij, t_ij) realised as unit monomials in a ring.

A ParameterSet fixes the coefficient ring and gives every generator scalar
needed by the relation builders: the deformation parameters q_i, the twist
bicharacter parameters s_ij and t_ij, and (when present) the single base
parameter v.  Lusztig's untwisted algebra is the twisted one at the trivial
twist, so its parameters are a ParameterSet too: ``untwisted()`` gives
q_i = v^{d_i}, s = t = 1 in the same ring.  Specialised parameter sets use
the exact same interface, so the verification campaigns run unchanged over
any of them.

The rescaling scalars e(i, lam) = prod_j s_ij^{lam(j)}, f(i, lam) =
prod_j t_ij^{lam(j)} and the K-correction c(i, lam) = prod_j (s_ij
t_ij)^{-lam(j)}, with lam(j) = <coweight_j, lam>, are characters of the
weight lattice X.  Each has one definition, twist_character, built once
from the unit monomials s_ij, t_ij and the coweight forms of the root
datum: one packed monomial per coordinate of X, the character's value at
that basis vector, and the coefficient's value there.  character_value is
the one evaluator: the value at lam is sum_k lam_k * column_k, a few int
operations, and the coefficient prod_k ratio_k^{lam_k}.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .coeffring import Context, LaurentPoly, RatExpr, RingError, qint_signed
from .rootdata import CartanDatum, RootDatum, Weight


def _free_matrix(ctx: Context, name: str, n: int) -> list:
    """n x n matrix of fresh variables name11, name12, ... admitting square roots."""
    return [
        [ctx.laurent("%s%d%d" % (name, i + 1, j + 1), denom=2) for j in range(n)]
        for i in range(n)
    ]


class ParameterSet:
    """The ring plus the values of q_i, s_ij, t_ij (all unit monomials)."""

    def __init__(self, cartan: CartanDatum, ctx: Context, q, s, t, v=None, label: str = ""):
        self.cartan = cartan
        self.ctx = ctx
        self._q = list(q)
        self._s = [list(row) for row in s]
        self._t = [list(row) for row in t]
        self._v = v
        self.label = label
        self._untwisted = None
        self._pair_twists: dict = {}  # ncalg.pair_twist's memo: (left, right) -> (mono, coeff)

    # -- accessors -------------------------------------------------------

    def q(self, i: int) -> LaurentPoly:
        return self._q[i]

    def s(self, i: int, j: int) -> LaurentPoly:
        return self._s[i][j]

    def t(self, i: int, j: int) -> LaurentPoly:
        return self._t[i][j]

    def v(self) -> LaurentPoly:
        if self._v is None:
            raise ValueError("parameter set %r has no base parameter v" % self.label)
        return self._v

    def untwisted(self) -> "ParameterSet":
        """Lusztig's parameters in this ring: q_i = v^{d_i}, s = t = 1.

        Built once per set; the untwisted set is its own untwisted set.  A
        set with no base parameter v has none (ValueError).
        """
        if self._untwisted is None:
            v, one, n = self.v(), self.ctx.one, self.cartan.n
            q = [v ** self.cartan.d(i) for i in range(n)]
            ones = [[one] * n for _ in range(n)]
            u = ParameterSet(self.cartan, self.ctx, q, ones, ones, v=v, label=self.label)
            u._untwisted = self._untwisted = u
        return self._untwisted

    def one(self) -> RatExpr:
        return self.ctx.rat(1)

    def rat(self, x) -> RatExpr:
        return self.ctx.rat(x)

    # -- q-combinatorics in the i-th deformation parameter ----------------

    def qint_q(self, n: int, i: int) -> LaurentPoly:
        return qint_signed(n, self.q(i))

    def q_tied_to_v(self) -> bool:
        """True when q_i = v^{d_i} holds structurally for every i."""
        if self._v is None:
            return False
        u = self.untwisted()
        return all(self.q(i) == u.q(i) for i in self.cartan.index_set)

    # -- factories ----------------------------------------------------------

    @classmethod
    def generic(cls, cartan: CartanDatum, label: str = "generic") -> "ParameterSet":
        """All of q_i, s_ij, t_ij free; q_i admits 2 d_i-th roots."""
        ctx = Context(label)
        n = cartan.n
        q = [ctx.laurent("q%d" % (i + 1), denom=2 * cartan.d(i)) for i in range(n)]
        s, t = _free_matrix(ctx, "s", n), _free_matrix(ctx, "t", n)
        return cls(cartan, ctx, q, s, t, v=None, label=label)

    @classmethod
    def v_tied(cls, cartan: CartanDatum, label: str = "v-tied") -> "ParameterSet":
        """s, t free; every q_i tied to one base parameter by q_i = v^{d_i}."""
        ctx = Context(label)
        n = cartan.n
        v = ctx.laurent("v", denom=2)
        s, t = _free_matrix(ctx, "s", n), _free_matrix(ctx, "t", n)
        q = [v ** cartan.d(i) for i in range(n)]
        return cls(cartan, ctx, q, s, t, v=v, label=label)


# -- the rescaling scalars as characters of X ---------------------------------


def twist_character(rd: RootDatum, params: ParameterSet, kind: str, i: int) -> tuple:
    """The character lam -> prod_j base(j)^{<coweight_j, lam>} of X for
    e(i, .) (base s_ij), f(i, .) (base t_ij) or c(i, .) (base (s_ij t_ij)^-1),
    as (columns, ratios).

    columns holds one monomial per coordinate k of X, built by Context.mono
    (so a scaled exponent out of its range is a RingError here): digit v is
    sum_j exps_v(base(j)) * <coweight_j, e_k>.  ratios is None when every
    base's coefficient is 1, else the coefficient's value at each e_k.  The
    value at lam is character_value."""
    bases = {"e": (params.s,), "f": (params.t,), "c": (params.s, params.t)}[kind]
    sign = -1 if kind == "c" else 1
    ctx, forms = params.ctx, rd.coweight
    exps, ratios = {}, [Fraction(1)] * rd.x_rank
    for j in rd.index_set:
        form = [sign * x for x in forms[j]]
        for base in bases:
            u = base(i, j).unit_mono()
            if u is None:
                raise RingError("rescaling base %s is not a unit monomial" % base(i, j))
            c, m = u
            for idx, s in ctx.mono_exps(m):
                acc = exps.get(idx, (0,) * rd.x_rank)
                exps[idx] = tuple(a + s * x for a, x in zip(acc, form))
            if c != 1:
                ratios = [r * Fraction(c) ** x for r, x in zip(ratios, form)]
    columns = tuple(ctx.mono([(idx, a[k]) for idx, a in exps.items()]) for k in range(rd.x_rank))
    return columns, None if all(r == 1 for r in ratios) else tuple(ratios)


def character_value(char: tuple, lam: Weight) -> tuple:
    """The character (columns, ratios) at lam as (mono, coeff) for
    LaurentPoly.times_unit, the one evaluator of a twist character: the
    monomial sum_k lam_k * columns_k, sign digits unreduced, and the
    coefficient prod_k ratios_k^{lam_k}."""
    columns, ratios = char
    coeff = 1
    if ratios is not None:
        for r, k in zip(ratios, lam):
            if k:
                coeff *= r ** k
    return sum(map(mul, columns, lam)), coeff
