"""Exact arithmetic for multivariate Laurent rings and their fraction fields.

A Context registers variables in declaration order, which fixes the
canonical term order once and for all.  Two kinds of variables exist:

  * Laurent variables, with exact rational exponents whose denominators are
    bounded per variable (declared at creation, e.g. denom=2 admits square
    roots of that variable);
  * sign variables, satisfying x**2 == 1, whose exponents live mod 2.

Outside this module a variable is its name, and its value is its generator,
the LaurentPoly that declaring it returns (ctx[name] gives it again).  Its
powers are generator powers, and a map of variables (a specialization's
sigma) is keyed by name, so one map applies to every ring that declares
those names.  The Var records in ctx.vars (index, name, kind, denominator
bound) are bookkeeping that only this module reads.

Coefficients are exact rationals stored integer-first: a coefficient is an
int when it is integral and otherwise a Fraction with denominator > 1; it is
never a float and never 0 (_num is the one normaliser, and every division
goes through Fraction(a, b)).  Polynomials are canonical by construction
(no zero coefficients, one int per monomial), so equality is structural and
zero tests are decidable.

A monomial is one int, sum_v s_v * 2^(64 v), whose signed digits s_v are
the scaled exponents (exponent * denominator bound; a sign variable's is 0
or 1): 1 is 0, a product is a sum (sign digits then reduced mod 2), an
inverse is the negation, and a variable declared later has a zero digit.
Other modules build and read monomials only through Context.mono and
Context.mono_exps, and only add, subtract or scale them
(tests/test_variable_names.py).  Display and term order decode the digits
(mono_key, mono_str).  Building a monomial rejects a scaled exponent of
magnitude 2^32 or more, which leaves 2^31 products before a digit carries.
That headroom is why a twist character needs no guard when it is
evaluated: params.twist_character builds its columns through mono, and its
value at lam (params.character_value) is a sum of |lam|_1 of them.

Fractions (RatExpr) are pairs of polynomials.  They are never reduced by a
multivariate gcd; equality is decided by cross multiplication, which needs
a regular denominator (one free of sign variables is).  RatExpr is the
coefficient type of ncalg.LinComb and of values read off coefficients, such
as exact multiples; every other value is a LaurentPoly, so a campaign with
no seeded defect builds no denominator (tests/test_integral_forms.py).
"""

from __future__ import annotations

from fractions import Fraction

Scalar = int | Fraction

LAURENT = "laurent"
SIGN = "sign"


class RingError(Exception):
    """Invalid ring operation: context mixing, bad exponent, bad image."""


class NotDivisible(RingError):
    """An exact polynomial division left a remainder."""


class Var:
    """The bookkeeping record of a declared variable; see the module docstring."""

    __slots__ = ("index", "name", "kind", "denom")

    def __init__(self, index, name, kind, denom):
        self.index = index
        self.name = name
        self.kind = kind
        self.denom = denom


def _num(x) -> Scalar:
    """Canonical coefficient: an int when integral, else a Fraction."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _canon(terms: dict) -> dict:
    """Restore the int-when-integral invariant in place after Fraction arithmetic."""
    for m, c in terms.items():
        if type(c) is Fraction and c.denominator == 1:
            terms[m] = c.numerator
    return terms


# A monomial is an int whose signed _W-bit digit v is the scaled exponent of variable v.
Mono = int
_W = 64
_HALF = 1 << (_W - 1)
_MASK = (1 << _W) - 1
_LIMIT = 1 << 32  # bound on the magnitude of a scaled exponent a monomial is built from


class Context:
    """Registry of variables; the declaration order is the canonical order."""

    def __init__(self, name: str = ""):
        self.name = name
        self.vars: list[Var] = []
        self.sign_indices: set = set()  # indices of the sign variables
        self._sign_digits: list = []  # (bit offset, lower-digit bias) per sign variable
        self._gens: dict[str, LaurentPoly] = {}  # name -> generator
        self._qint_cache: dict = {}
        self._mono_pieces: dict = {}  # (index, scaled exponent) -> display
        self._mono_texts: dict = {0: "1"}  # monomial -> display
        self.one = LaurentPoly(self, {0: 1})
        self.zero = LaurentPoly(self, {})

    def _declare(self, name: str, kind: str, denom: int) -> "LaurentPoly":
        if name in self._gens:
            raise RingError("variable %r already declared" % name)
        v = Var(len(self.vars), name, kind, denom)
        self.vars.append(v)
        if kind == SIGN:
            self.sign_indices.add(v.index)
            # the bias lifts every digit up to v's into [0, 2^W): no borrow
            bias = sum(_HALF << (_W * u) for u in range(v.index + 1))
            self._sign_digits.append((_W * v.index, bias))
        gen = self._gens[name] = LaurentPoly(self, {denom << (_W * v.index): 1})
        return gen

    def laurent(self, name: str, denom: int = 1) -> "LaurentPoly":
        """Declare a Laurent variable admitting denom-th roots; its generator."""
        if denom < 1:
            raise RingError("denominator bound must be >= 1")
        return self._declare(name, LAURENT, denom)

    def sign(self, name: str) -> "LaurentPoly":
        """Declare a sign variable (x**2 == 1); its generator."""
        return self._declare(name, SIGN, 1)

    def __getitem__(self, name: str) -> "LaurentPoly":
        return self._gens[name]

    def poly(self, x) -> "LaurentPoly":
        if isinstance(x, LaurentPoly):
            if x.ctx is not self:
                raise RingError("value from a different ring context")
            return x
        c = _num(x)
        if c == 0:
            return self.zero
        return LaurentPoly(self, {0: c})

    def rat(self, x) -> "RatExpr":
        if isinstance(x, RatExpr):
            if x.num.ctx is not self:
                raise RingError("value from a different ring context")
            return x
        return RatExpr(self.poly(x), self.one)

    # -- monomials (packed ints, see the module docstring) --------------------

    def _reduced(self, m: Mono) -> Mono:
        """m with every sign-variable digit reduced mod 2: the canonical form
        of a sum of monomials.  m itself in a ring with no sign variable."""
        for pos, bias in self._sign_digits:
            s = (((m + bias) >> pos) & _MASK) - _HALF
            if s & ~1:
                m -= (s & ~1) << pos
        return m

    def mono(self, exps) -> Mono:
        """The monomial prod x_idx^s over (index, scaled exponent) pairs or a
        dict {index: s}, zero and unreduced sign-variable exponents allowed.
        A scaled exponent of magnitude 2^32 or more is a RingError."""
        m = 0
        for idx, s in exps.items() if isinstance(exps, dict) else exps:
            if not -_LIMIT < s < _LIMIT:
                raise RingError("scaled exponent %s is out of range" % s)
            m += s << (_W * idx)
        return self._reduced(m)

    def mono_exps(self, m: Mono) -> tuple:
        """The (index, scaled exponent) pairs of m's nonzero digits in
        declaration order; the inverse of mono."""
        out, idx = [], 0
        while m:
            s = ((m + _HALF) & _MASK) - _HALF
            if s:
                out.append((idx, s))
            m = (m - s) >> _W
            idx += 1
        return tuple(out)

    def mono_mul(self, m1: Mono, m2: Mono) -> Mono:
        """The product of two monomials: their sum, sign digits reduced; the
        rule that products and times_unit apply inline."""
        return self._reduced(m1 + m2)

    def mono_pow(self, m: Mono, k) -> Mono:
        if type(k) is not int:
            k = Fraction(k)
        pairs = []
        for idx, s in self.mono_exps(m):
            var = self.vars[idx]
            ns = s * k
            if ns.denominator != 1:
                if var.kind == SIGN:
                    raise RingError("fractional power of sign variable %r" % var.name)
                raise RingError(
                    "power %s takes %r outside its declared denominator bound" % (k, var.name))
            pairs.append((idx, ns.numerator))
        return self.mono(pairs)

    def mono_key(self, m: Mono):
        # Dense exponent vector in declaration order; lex comparison on it is
        # the canonical term order.
        key = [0] * len(self.vars)
        for idx, s in self.mono_exps(m):
            key[idx] = s
        return tuple(key)

    def mono_str(self, m: Mono) -> str:
        """Display of m, made once per monomial from its pieces."""
        text = self._mono_texts.get(m)
        if text is None:
            pieces = self._mono_pieces
            text = self._mono_texts[m] = "*".join(
                [pieces.get(p) or self._mono_piece(p) for p in self.mono_exps(m)])
        return text

    def _mono_piece(self, p) -> str:
        """Display of one (variable index, scaled exponent) pair, made once."""
        idx, s = p
        var = self.vars[idx]
        e = Fraction(s, var.denom) if var.kind == LAURENT else Fraction(s)
        if e == 1:
            text = var.name
        elif e.denominator == 1:
            text = "%s^%d" % (var.name, e.numerator)
        else:
            text = "%s^(%s)" % (var.name, e)
        self._mono_pieces[p] = text
        return text


class LaurentPoly:
    """Sparse Laurent polynomial with exact rational coefficients."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: Context, terms: dict):
        self.ctx = ctx
        self.terms = terms  # Mono -> coefficient, canonical, treated immutable

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        t = self.terms
        return len(t) == 1 and t.get(0) == 1

    def unit_mono(self) -> tuple | None:
        """Return (coeff, mono) when this is a single-term (hence invertible) poly."""
        if len(self.terms) != 1:
            return None
        ((m, c),) = self.terms.items()
        return (c, m)

    def has_sign_vars(self) -> bool:
        ctx = self.ctx
        return any(idx in ctx.sign_indices for m in self.terms for idx, _ in ctx.mono_exps(m))

    # -- arithmetic ------------------------------------------------------------

    def _coerce(self, other) -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            if other.ctx is not self.ctx:
                raise RingError("mixing ring contexts")
            return other
        return self.ctx.poly(other)

    def __add__(self, other):
        other = self._coerce(other)
        if not self.terms:
            return other
        if not other.terms:
            return self
        terms = dict(self.terms)
        frac = False
        for m, c in other.terms.items():
            nc = terms.get(m, 0) + c
            if nc == 0:
                terms.pop(m, None)
            else:
                terms[m] = nc
                frac = frac or type(nc) is Fraction
        return LaurentPoly(self.ctx, _canon(terms) if frac else terms)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(self.ctx, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        if isinstance(other, RatExpr):
            return NotImplemented
        other = self._coerce(other)
        small, big = (self, other) if len(self.terms) <= len(other.terms) else (other, self)
        a, b = small.terms, big.terms
        if not a:
            return small
        if len(a) == 1:
            ((m1, c1),) = a.items()
            if c1 == 1 and not m1:
                return big
            return big.times_unit(m1, c1)
        reduced = self.ctx._reduced if self.ctx._sign_digits else None
        terms = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = m1 + m2 if reduced is None else reduced(m1 + m2)
                nc = terms.get(m, 0) + c1 * c2
                if nc == 0:
                    terms.pop(m, None)
                else:
                    terms[m] = nc
        return LaurentPoly(self.ctx, _canon(terms))

    __rmul__ = __mul__

    def times_unit(self, shift: Mono, coeff: Scalar = 1) -> "LaurentPoly":
        """self times the unit monomial coeff * shift, shift any sum of
        monomials (its sign digits need not be reduced) and coeff nonzero.
        A unit monomial permutes monomials, so no two products collide or
        cancel: shift is added to each monomial (the rule of
        Context.mono_mul) and nothing is merged.  A coefficient 1 or -1
        keeps every coefficient's type, so only another one needs _canon."""
        ctx = self.ctx
        if ctx._sign_digits:
            reduced = ctx._reduced
            terms = {reduced(m + shift): c for m, c in self.terms.items()}
        else:
            terms = {m + shift: c for m, c in self.terms.items()}
        if coeff == 1:
            return LaurentPoly(ctx, terms)
        if coeff == -1:
            return LaurentPoly(ctx, {m: -c for m, c in terms.items()})
        return LaurentPoly(ctx, _canon({m: c * coeff for m, c in terms.items()}))

    def __pow__(self, n):
        if len(self.terms) == 1 or (isinstance(n, Fraction) and n.denominator != 1):
            # a unit monomial: scale its exponents, no repeated squaring
            return self.unit_pow(n)
        n = int(n)
        if n < 0:
            return self.inv_unit() ** (-n)
        result = self.ctx.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def inv_unit(self) -> "LaurentPoly":
        u = self.unit_mono()
        if u is None:
            raise RingError("not an invertible monomial: %s" % self)
        c, m = u
        if c != 1 and c != -1:
            c = _num(Fraction(c.denominator, c.numerator))
        return LaurentPoly(self.ctx, {self.ctx._reduced(-m): c})

    def unit_pow(self, e) -> "LaurentPoly":
        """Raise a unit monomial to an exact rational power."""
        u = self.unit_mono()
        if u is None:
            raise RingError("fractional power of a non-monomial: %s" % self)
        c, m = u
        if type(e) is not int:
            e = Fraction(e)
        if c == 1:
            nc = 1
        elif e.denominator == 1:
            nc = _num(Fraction(c) ** e.numerator)
        else:
            raise RingError("fractional power of coefficient %s" % c)
        return LaurentPoly(self.ctx, {self.ctx.mono_pow(m, e): nc})

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ctx.poly(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.ctx is other.ctx and self.terms == other.terms

    __hash__ = None  # mutable dict inside; not meant to be a key

    # -- structure -------------------------------------------------------------

    def sorted_terms(self):
        key = self.ctx.mono_key
        return sorted(self.terms.items(), key=lambda mc: key(mc[0]), reverse=True)

    def leading(self):
        key = self.ctx.mono_key
        m = max(self.terms, key=key)
        return m, self.terms[m]

    def coefficient_sum(self) -> Scalar:
        """Value at the all-ones point (every variable set to 1)."""
        return _num(sum(self.terms.values()))

    def _laurent_shift(self) -> Mono:
        """Per-variable minimum exponents across all terms (Laurent vars only)."""
        ctx = self.ctx
        mins: dict | None = None
        for m in self.terms:
            seen = {idx: s for idx, s in ctx.mono_exps(m) if idx not in ctx.sign_indices}
            if mins is None:
                mins = seen
            else:
                for idx in set(mins) | set(seen):
                    mins[idx] = min(mins.get(idx, 0), seen.get(idx, 0))
        return 0 if mins is None else ctx.mono(mins)

    def exact_div(self, other) -> "LaurentPoly":
        """Exact division; raises NotDivisible when a remainder is left.

        The divisor is shifted to an honest polynomial and eliminated by
        leading-term reduction in the order of the packed monomials
        themselves.  After the shift every digit is >= 0, so integer order is
        the lex order read from the last variable: a monomial order, and a
        well order, so the reduction terminates, and since an exact quotient
        is unique it is the one any monomial order finds.  Unit-monomial
        divisors are inverted directly.  Non-unit divisors containing sign
        variables are rejected: with x**2 == 1 the ring has zero divisors and
        plain reduction is not meaningful there.
        """
        other = self._coerce(other)
        ctx = self.ctx
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return ctx.zero
        u = other.unit_mono()
        if u is not None:
            return self * other.inv_unit()
        if other.has_sign_vars():
            raise RingError("exact division by a non-unit with sign variables")
        sa = self._laurent_shift()
        sb = other._laurent_shift()
        a = self.times_unit(-sa)
        b = other.times_unit(-sb)
        lt_b = max(b.terms)
        lc_b = b.terms[lt_b]
        quot: dict = {}
        f = dict(a.terms)
        while f:
            ltf = max(f)
            # b has no sign variable, so the quotient's digits are plain differences
            t = ltf - lt_b
            if any(s < 0 for _, s in ctx.mono_exps(t)):
                raise NotDivisible("%s is not divisible by %s" % (self, other))
            c = f[ltf] if lc_b == 1 else _num(Fraction(f[ltf], lc_b))
            quot[t] = quot.get(t, 0) + c
            for m2, c2 in b.terms.items():
                m = ctx.mono_mul(t, m2)
                nc = f.get(m, 0) - c * c2
                if nc == 0:
                    f.pop(m, None)
                else:
                    f[m] = nc
        q = LaurentPoly(ctx, _canon({m: c for m, c in quot.items() if c != 0}))
        return q.times_unit(sa - sb)

    # -- display -------------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        # a single term needs no sort: every printed iso scalar is a unit monomial
        for m, c in self.sorted_terms() if len(self.terms) > 1 else self.terms.items():
            ms = self.ctx.mono_str(m)
            if ms == "1":
                body = str(c)
            elif c == 1:
                body = ms
            elif c == -1:
                body = "-" + ms
            else:
                body = "%s*%s" % (c, ms)
            parts.append(body)
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    __repr__ = __str__


class RatExpr:
    """Fraction of Laurent polynomials; equality by cross multiplication.

    Unit-monomial denominators are absorbed into the numerator on
    construction, and general denominators are normalised to have leading
    coefficient 1 and no monomial content.  No gcd reduction is attempted.

    Two exact shortcuts skip work whose result is already known.  A product
    with a polynomial factor keeps the other factor's denominator: it is
    normalised, and normalising it again would return it unchanged.  A
    quotient of two fractions over the same denominator D is num/num', the
    value of (num*D)/(D*num') with the common D cancelled; when num' is a
    unit monomial it is absorbed, so a unit multiple comes out as that
    polynomial at once.  Both keep results canonical where they are
    printed: a polynomial value has one structural form whichever way it
    was computed, and a fraction is printed after ``simplified()``, which
    turns it into that form whenever the division is exact.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.ctx is not den.ctx:
            raise RingError("mixing ring contexts")
        ctx = num.ctx
        if num.is_zero():
            num, den = ctx.zero, ctx.one
        elif not den.is_one():
            u = den.unit_mono()
            if u is not None:
                num = num * den.inv_unit()
                den = ctx.one
            else:
                shift = den._laurent_shift()
                if shift:
                    num = num.times_unit(-shift)
                    den = den.times_unit(-shift)
                _, lc = den.leading()
                if lc != 1:
                    inv = _num(Fraction(lc.denominator, lc.numerator))
                    num = num * inv
                    den = den * inv
        self.num = num
        self.den = den

    @property
    def ctx(self) -> Context:
        return self.num.ctx

    def _coerce(self, other) -> "RatExpr":
        if isinstance(other, RatExpr):
            if other.ctx is not self.ctx:
                raise RingError("mixing ring contexts")
            return other
        return RatExpr(self.ctx.poly(other), self.ctx.one)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_poly(self) -> bool:
        return self.den.is_one()

    def unit_mono(self):
        """Unit-monomial content, cancelling the denominator exactly when possible."""
        if self.den.is_one():
            return self.num.unit_mono()
        try:
            return self.num.exact_div(self.den).unit_mono()
        except (RingError, NotDivisible):
            return None

    def simplified(self) -> "RatExpr":
        """Cancel the denominator when the division happens to be exact."""
        if self.den.is_one():
            return self
        try:
            return RatExpr(self.num.exact_div(self.den), self.ctx.one)
        except (RingError, NotDivisible):
            return self

    def __add__(self, other):
        other = self._coerce(other)
        if (self.den.is_one() and other.den.is_one()) or self.den == other.den:
            return RatExpr(self.num + other.num, self.den)
        return RatExpr(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatExpr(-self.num, self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            num, den = self.num * other, self.den
        else:
            other = self._coerce(other)
            num = self.num * other.num
            if other.den.is_one():
                den = self.den
            elif self.den.is_one():
                den = other.den
            else:
                return RatExpr(num, self.den * other.den)
        if num.is_zero():
            return RatExpr(num, den)
        return RatExpr._normalised(num, den)

    __rmul__ = __mul__

    @staticmethod
    def _normalised(num: LaurentPoly, den: LaurentPoly) -> "RatExpr":
        """num / den with no normalisation: den is already a normalised
        denominator, which __init__ would keep as is, and num is nonzero."""
        out = object.__new__(RatExpr)
        out.num = num
        out.den = den
        return out

    def inv(self) -> "RatExpr":
        if self.is_zero():
            raise ZeroDivisionError("inverting zero")
        return RatExpr(self.den, self.num)

    def __truediv__(self, other):
        other = self._coerce(other)
        if self.den.terms == other.den.terms and not other.is_zero():
            return RatExpr(self.num, other.num)
        return self * other.inv()

    def __pow__(self, n):
        n = int(n)
        if n < 0:
            return self.inv() ** (-n)
        out = RatExpr(self.ctx.one, self.ctx.one)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, LaurentPoly)):
            other = self._coerce(other)
        if not isinstance(other, RatExpr):
            return NotImplemented
        if (self.den.is_one() and other.den.is_one()) or self.den == other.den:
            return self.num == other.num
        return self.num * other.den == other.num * self.den

    __hash__ = None

    def __str__(self):
        if self.den.is_one():
            return str(self.num)
        return "(%s) / (%s)" % (self.num, self.den)

    __repr__ = __str__


# -- q-combinatorics -----------------------------------------------------------


def _unit_key(q: LaurentPoly):
    u = q.unit_mono()
    if u is None:
        raise RingError("q must be an invertible monomial, got %s" % q)
    return u


def qint(n: int, q: LaurentPoly) -> LaurentPoly:
    """Balanced q-integer [n] = q^(n-1) + q^(n-3) + ... + q^(1-n)."""
    if n < 0:
        raise ValueError("qint requires n >= 0")
    key = ("qint", _unit_key(q), n)
    cache = q.ctx._qint_cache
    if key not in cache:
        out = q.ctx.zero
        for k in range(n):
            out = out + q ** (n - 1 - 2 * k)
        cache[key] = out
    return cache[key]


def qint_signed(n: int, q: LaurentPoly) -> LaurentPoly:
    """q-integer extended to negative n by [-n] = -[n]."""
    if n >= 0:
        return qint(n, q)
    return -qint(-n, q)


def qbinom(n: int, p: int, q: LaurentPoly) -> LaurentPoly:
    """Gaussian binomial [n, p] = [n]! / ([p]! [n-p]!), built without division.

    The q-Pascal rule [m, k] = q^{-k} [m-1, k] + q^{m-k} [m-1, k-1], with
    [m, 0] = [m, m] = 1 (Lusztig, Introduction to Quantum Groups), fills
    rows 2..n of the triangle by additions only.  Every entry is cached per
    context under ("qbinom", q, m, k), next to the q-integers.
    """
    if not 0 <= p <= n:
        raise ValueError("qbinom requires 0 <= p <= n")
    u = _unit_key(q)
    cache = q.ctx._qint_cache

    def entry(m, k):
        return q.ctx.one if k in (0, m) else cache[("qbinom", u, m, k)]

    if 0 < p < n and ("qbinom", u, n, p) not in cache:
        for m in range(2, n + 1):
            for k in range(1, m):
                key = ("qbinom", u, m, k)
                if key not in cache:
                    cache[key] = q**-k * entry(m - 1, k) + q ** (m - k) * entry(m - 1, k - 1)
    return entry(n, p)


def gauss_vanish(n: int, q: LaurentPoly) -> LaurentPoly:
    """Alternating Gaussian-binomial sum; identically zero for every n >= 1."""
    if n < 1:
        raise ValueError("gauss_vanish requires n >= 1")
    out = q.ctx.zero
    for l in range(n + 1):
        term = q ** (l * (1 - n)) * qbinom(n, l, q)
        out = out + term if l % 2 == 0 else out - term
    return out

