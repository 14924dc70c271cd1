"""Reference helpers that only the tests read.

None of these runs in a campaign, so none lives in src/qtwist
(tests/test_no_test_only_code.py keeps it that way):

- qfact, the q-factorial, against which the tests check qbinom and write
  divided powers by hand;
- substitute, the ring homomorphism sending each variable, by name, to a
  signed unit monomial, which checks the specialization maps;
- corrupt, the negative control that damages one generator matrix of a
  weight module;
- star_mul, the twisted-opposite product x * y = s(|y|,|x|) t(|x|,|y|) yx
  extended bilinearly, the reference against which the tests check that
  hopf.antipode builds S of a word as the one word it is.
"""

from fractions import Fraction

from qtwist.coeffring import LAURENT, LaurentPoly, RatExpr, RingError, _unit_key, qint
from qtwist.ncalg import NCExpr, grade, merge_term, pair_twist, times_unit
from qtwist.params import ParameterSet
from qtwist.repcheck import WeightModule, _scaled


def qfact(n: int, q: LaurentPoly) -> LaurentPoly:
    """q-factorial [n]! = [1][2]...[n]."""
    if n < 0:
        raise ValueError("qfact requires n >= 0")
    _unit_key(q)  # refuses a q that is no unit monomial, at n = 0 too
    out = q.ctx.one
    for p in range(1, n + 1):
        out = out * qint(p, q)
    return out


def substitute(x, images, ctx_out):
    """Ring homomorphism determined by variable name -> signed unit monomial.

    x is a LaurentPoly or a RatExpr.  The map must be total on the variables
    that occur; images must be single-term (invertible) polynomials in
    ctx_out.
    """
    if isinstance(x, RatExpr):
        return RatExpr(substitute(x.num, images, ctx_out), substitute(x.den, images, ctx_out))
    out = ctx_out.zero
    for m, c in x.terms.items():
        acc = ctx_out.poly(c)
        for idx, s in x.ctx.mono_exps(m):
            var = x.ctx.vars[idx]
            img = images.get(var.name)
            if img is None:
                raise RingError("unbound variable %r in substitution" % var.name)
            if img.ctx is not ctx_out:
                raise RingError("image of %r lives in the wrong context" % var.name)
            if img.unit_mono() is None:
                raise RingError("image of %r is not an invertible monomial" % var.name)
            e = Fraction(s, var.denom) if var.kind == LAURENT else Fraction(s)
            acc = acc * img.unit_pow(e)
        out = out + acc
    return out


def corrupt(mod: WeightModule, kind: str, i: int, factor) -> WeightModule:
    """Negative control: damage one generator matrix by a unit factor."""
    cols = dict(mod.cols)
    cols[(kind, i)] = _scaled(mod.cols[(kind, i)], [mod.params.ctx.poly(factor)] * mod.dim)
    return WeightModule(mod.rd, mod.params, mod.weights, cols, mod.label + "+corrupt")


def star_mul(p: ParameterSet, x: NCExpr, y: NCExpr) -> NCExpr:
    """x * y = s(|y|,|x|) t(|x|,|y|) yx on homogeneous words, bilinearly."""
    n = p.cartan.n
    terms: dict = {}
    for wx, cx in x.terms.items():
        dx = grade(wx, n)
        for wy, cy in y.terms.items():
            dy = grade(wy, n)
            merge_term(terms, wy + wx, times_unit(cx * cy, *pair_twist(p, dx, dy)))
    return NCExpr(p, terms)
