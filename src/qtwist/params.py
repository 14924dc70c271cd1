"""Parameter families (q_i, s_ij, t_ij) realised as unit monomials in a ring.

A ParameterSet fixes the coefficient ring and gives every generator scalar
needed by the relation builders: the deformation parameters q_i, the twist
bicharacter parameters s_ij and t_ij, and (when present) the single base
parameter v.  Lusztig's untwisted algebra is the twisted one at the trivial
twist, so its parameters are a ParameterSet too: ``untwisted()`` gives
q_i = v^{d_i}, s = t = 1 in the same ring.  Specialised parameter sets use
the exact same interface, so the verification campaigns run unchanged over
any of them.
"""

from __future__ import annotations

from fractions import Fraction

from .coeffring import Context, LaurentPoly, RatExpr, RingError, qfact, qint_signed
from .rootdata import CartanDatum, RootDatum, Weight


def _free_matrix(ctx: Context, name: str, n: int) -> list:
    """n x n matrix of fresh variables name11, name12, ... admitting square roots."""
    return [
        [ctx.laurent("%s%d%d" % (name, i + 1, j + 1), denom=2).as_poly() for j in range(n)]
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

    def qfact_q(self, n: int, i: int) -> LaurentPoly:
        return qfact(n, self.q(i))

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
        q = [ctx.laurent("q%d" % (i + 1), denom=2 * cartan.d(i)).as_poly() for i in range(n)]
        s, t = _free_matrix(ctx, "s", n), _free_matrix(ctx, "t", n)
        return cls(cartan, ctx, q, s, t, v=None, label=label)

    @classmethod
    def v_tied(cls, cartan: CartanDatum, label: str = "v-tied") -> "ParameterSet":
        """s, t free; every q_i tied to one base parameter by q_i = v^{d_i}."""
        ctx = Context(label)
        n = cartan.n
        v = ctx.laurent("v", denom=2).as_poly()
        s, t = _free_matrix(ctx, "s", n), _free_matrix(ctx, "t", n)
        q = [v ** cartan.d(i) for i in range(n)]
        return cls(cartan, ctx, q, s, t, v=v, label=label)


# -- weight-indexed rescaling scalars -----------------------------------------


def _weight_monomial(rd: RootDatum, params: ParameterSet, lam: Weight, *bases,
                     sign=1) -> LaurentPoly:
    """prod_j prod_base base(j)^{sign * lam(j)} as one unit monomial: each
    base's scaled exponents times sign * lam(j) are summed per variable, with
    no power taken; a base that is the ring's one (as every s and t of an
    untwisted set are) is skipped."""
    ctx = params.ctx
    one = ctx.one
    exps, coeff = {}, 1
    for j in rd.index_set:
        k = sign * rd.lambda_paren(lam, j)
        if k:
            for base in bases:
                b = base(j)
                if b is one:
                    continue
                u = b.unit_mono()
                if u is None:
                    raise RingError("rescaling base %s is not a unit monomial" % b)
                c, m = u
                if c != 1:
                    coeff *= Fraction(c) ** k
                for idx, s in m:
                    exps[idx] = exps.get(idx, 0) + k * s
    return ctx.unit_from_exps(exps, coeff)


def twist_e(rd: RootDatum, params: ParameterSet, i: int, lam: Weight) -> LaurentPoly:
    """prod_j s_ij^{lam(j)}."""
    return _weight_monomial(rd, params, lam, lambda j: params.s(i, j))


def twist_f(rd: RootDatum, params: ParameterSet, i: int, lam: Weight) -> LaurentPoly:
    """prod_j t_ij^{lam(j)}."""
    return _weight_monomial(rd, params, lam, lambda j: params.t(i, j))


def twist_c(rd: RootDatum, params: ParameterSet, i: int, lam: Weight) -> LaurentPoly:
    """prod_j (s_ij t_ij)^{-lam(j)}; the K-eigenvalue correction."""
    return _weight_monomial(rd, params, lam, lambda j: params.s(i, j), lambda j: params.t(i, j),
                            sign=-1)
