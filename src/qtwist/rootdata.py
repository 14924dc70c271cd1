"""Cartan data, root data in explicit lattice coordinates, and weights.

A root datum is given by integer coordinate matrices for the simple roots
(in X), the coroots and the fundamental coweights (in Y), together with a
pairing matrix P : Y x X -> Z, which must be perfect (determinant +-1) and
is the identity when a file gives none.  The loader folds P into each Y row
y once, so RootDatum stores the linear forms y.P on X, all the engine reads.
The loader and the built-ins insist on the regularity condition
<coweight_i, alpha_j> = delta_ij, which is what every weight-indexed scalar
in this package is built from.

Validation also refuses a datum whose d_i, alpha entries or coroot /
coweight form entries reach ENTRY_BOUND = 2^10 in magnitude: the largest
exponent the engine builds, 2 d_i <coroot_i, lam> for q_i^{<coroot_i, lam>},
then stays below 2^21 |lam|_1, inside a ring's 2^32 for |lam|_1 < 2^11, so
a larger datum is invalid configuration, not a failure inside a campaign.
So is |a_ij| > A_BOUND = 16, as the Serre relations have degree 1 - a_ij:
verify-hopf takes seconds at |a_ij| = 16 and gave no result in 300 s at 32.
A weight window [-box, box]^x_rank of more than WINDOW_BOUND = 4096
weights is refused the same way, before it is built: verify-iso on a3 in
the gl4 lattice took 2 s and 87 MB at box 3 (7^4 = 2401 weights) on a
2-vCPU host, and the window grows by a factor 2 box + 1 per coordinate.
So is X_rank > X_RANK_BOUND = 2^16, refused before anything is built:
every weight, even the one of a box-0 window, has X_rank coordinates, and
verify-iso --lambda-box 0 on a zero-node file took 0.42 s and 96 MB at
X_rank 10^6, growing with it, where 2^16 takes 0.03 s.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import product
from operator import add, mul, sub

Weight = tuple  # integer coordinate vector in X
ENTRY_BOUND = 2**10  # bound on |d_i| and on the entries of alpha and the coroot / coweight forms
A_BOUND = 16  # bound on the Cartan entries |a_ij|
WINDOW_BOUND = 4096  # bound on the weights in a window, (2 box + 1)^x_rank
X_RANK_BOUND = 2**16  # bound on the lattice rank, the length of every weight


class DatumError(Exception):
    """A root datum failed validation or could not be parsed."""


class CartanDatum:
    """Finite index set with a symmetric even pairing i.j."""

    __slots__ = ("dot",)

    def __init__(self, dot: tuple):
        self.dot = dot  # n x n tuple of tuples of ints

    @property
    def n(self) -> int:
        return len(self.dot)

    @property
    def index_set(self):
        return range(self.n)

    def d(self, i: int) -> int:
        return self.dot[i][i] // 2

    def a(self, i: int, j: int) -> int:
        # 2(i.j)/(i.i); validate() guarantees integrality
        return 2 * self.dot[i][j] // self.dot[i][i]

    def serre_exponent(self, i: int, j: int) -> int:
        if i == j:
            raise ValueError("Serre exponent needs i != j")
        return 1 - self.a(i, j)

    def validate(self) -> list:
        errs = []
        n = self.n
        for i in range(n):
            if len(self.dot[i]) != n:
                errs.append("dot matrix row %d has wrong length" % i)
                return errs
        for i in range(n):
            if self.dot[i][i] <= 0 or self.dot[i][i] % 2 != 0:
                errs.append("i.i must be a positive even integer at i=%d" % i)
            for j in range(n):
                if self.dot[i][j] != self.dot[j][i]:
                    errs.append("dot matrix not symmetric at (%d,%d)" % (i, j))
                if i != j and self.dot[i][j] > 0:
                    errs.append("i.j must be <= 0 for i != j at (%d,%d)" % (i, j))
                if i != j and self.dot[i][i] > 0 and (2 * self.dot[i][j]) % self.dot[i][i] != 0:
                    errs.append("a(%d,%d) = 2(i.j)/(i.i) is not an integer" % (i, j))
        if not errs:
            for i in range(n):
                for j in range(n):
                    if abs(self.a(i, j)) > A_BOUND:
                        errs.append("|a_ij| must be at most %d at (%d,%d)" % (A_BOUND, i, j))
                    if self.d(i) * self.a(i, j) != self.d(j) * self.a(j, i):
                        errs.append("symmetrizability d_i a_ij = d_j a_ji fails at (%d,%d)" % (i, j))
        return errs


class RootDatum:
    """Cartan datum plus explicit lattice coordinates.

    alpha[i] are the simple roots in X; coroot[i] and coweight[i] are the
    forms <coroot_i, .> and <coweight_i, .> on X, a file's pairing folded in.
    """

    __slots__ = ("cartan", "x_rank", "alpha", "coroot", "coweight", "name", "_step_shifts")

    def __init__(self, cartan: CartanDatum, x_rank: int, alpha: tuple, coroot: tuple,
                 coweight: tuple, name: str = ""):
        self.cartan = cartan
        self.x_rank = x_rank
        self.alpha = alpha        # n rows of length x_rank
        self.coroot = coroot      # n forms of length x_rank
        self.coweight = coweight  # n forms of length x_rank
        self.name = name
        self._step_shifts = {}  # step tuple -> step_shift

    @property
    def n(self) -> int:
        return self.cartan.n

    @property
    def index_set(self):
        return range(self.n)

    def lambda_i(self, lam: Weight, i: int) -> int:
        """<coroot_i, lam>."""
        return sum(map(mul, self.coroot[i], lam))

    def lambda_paren(self, lam: Weight, i: int) -> int:
        """<coweight_i, lam>."""
        return sum(map(mul, self.coweight[i], lam))

    def add_root(self, lam: Weight, i: int, sign: int = 1) -> Weight:
        alpha = self.alpha[i]
        if sign == 1:
            return tuple(map(add, lam, alpha))
        if sign == -1:
            return tuple(map(sub, lam, alpha))
        return tuple(map(add, lam, [sign * a for a in alpha]))

    def step_shift(self, steps: tuple) -> Weight:
        """Source minus target of a path word with these steps: -alpha_i per
        'E' step and +alpha_i per 'F' step, walked once per step tuple."""
        shift = self._step_shifts.get(steps)
        if shift is None:
            shift = self.zero_weight()
            for kind, i in steps:
                shift = self.add_root(shift, i, -1 if kind == "E" else +1)
            self._step_shifts[steps] = shift
        return shift

    def zero_weight(self) -> Weight:
        return (0,) * self.x_rank

    def weights_box(self, box: int) -> list:
        """All weights with coordinates in [-box, box], in lexicographic order.
        A window of (2 box + 1)^x_rank > WINDOW_BOUND weights is refused
        before any weight is built."""
        side, size = 2 * box + 1, 1
        for _ in range(self.x_rank):
            size *= side
            if size > WINDOW_BOUND:
                raise DatumError("weight window [-%d, %d]^%d has %d^%d weights, more than the "
                                 "bound %d" % (box, box, self.x_rank, side, self.x_rank, WINDOW_BOUND))
        return list(product(range(-box, box + 1), repeat=self.x_rank))

    def validate(self) -> list:
        errs = list(self.cartan.validate())
        if errs:  # the form checks below read a_ij
            return errs
        n = self.n
        for label, rows in (("alpha", self.alpha), ("coroot", self.coroot), ("coweight", self.coweight)):
            if len(rows) != n or any(len(r) != self.x_rank for r in rows):
                errs.append("%s must be %d rows of length %d" % (label, n, self.x_rank))
                return errs
        for label, rows in (("d_i", [(self.cartan.d(i),) for i in range(n)]), ("alpha", self.alpha),
                            ("coroot form", self.coroot), ("coweight form", self.coweight)):
            if any(abs(x) >= ENTRY_BOUND for row in rows for x in row):
                errs.append("%s entries must have magnitude below %d" % (label, ENTRY_BOUND))
        for i in range(n):
            for j in range(n):
                got = self.lambda_i(self.alpha[j], i)
                want = self.cartan.a(i, j)
                if got != want:
                    errs.append("<coroot_%d, alpha_%d> = %d, expected a_ij = %d" % (i, j, got, want))
                got = self.lambda_paren(self.alpha[j], i)
                want = 1 if i == j else 0
                if got != want:
                    errs.append("<coweight_%d, alpha_%d> = %d, expected %d" % (i, j, got, want))
        if _rank(self.alpha)[0] != n:
            errs.append("simple roots are not linearly independent in X")
        return errs


def _rank(rows) -> tuple:
    """(rank, determinant) of integer rows by Gauss-Jordan elimination over
    the rationals; the determinant is 0 unless the matrix is square of full rank."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank, det = 0, Fraction(1)
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        if pivot != rank:
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            det = -det
        pr = rows[rank]
        det *= pr[col]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col] / pr[col]
                rows[r] = [a - f * b for a, b in zip(rows[r], pr)]
        rank += 1
    return rank, det if rank == len(rows) == ncols else 0


# Built-in data.  Types A1 and A2 use gl-style lattices (X = Z^2, Z^3 with
# roots e_i - e_{i+1}) so the fundamental coweights are integral and the
# familiar string/natural modules have integral weights; the others use the
# root-lattice coordinates alpha_j = e_j.  Each entry is written in the
# datum-file format and read by from_dict, like a file.
BUILTINS = {
    "a1": dict(
        I_size=1,
        dot=((2,),),
        X_rank=2,
        alpha=((1, -1),),
        coroot=((1, -1),),
        coweight=((1, 0),),
    ),
    "a1xa1": dict(
        I_size=2,
        dot=((2, 0), (0, 2)),
        X_rank=2,
        alpha=((1, 0), (0, 1)),
        coroot=((2, 0), (0, 2)),
        coweight=((1, 0), (0, 1)),
    ),
    "a2": dict(
        I_size=2,
        dot=((2, -1), (-1, 2)),
        X_rank=3,
        alpha=((1, -1, 0), (0, 1, -1)),
        coroot=((1, -1, 0), (0, 1, -1)),
        coweight=((1, 0, 0), (1, 1, 0)),
    ),
    "b2": dict(
        # long root first: d = (2, 1), a_12 = -1, a_21 = -2
        I_size=2,
        dot=((4, -2), (-2, 2)),
        X_rank=2,
        alpha=((1, 0), (0, 1)),
        coroot=((2, -1), (-2, 2)),
        coweight=((1, 0), (0, 1)),
    ),
    "g2": dict(
        # short root first: d = (1, 3), a_12 = -3, a_21 = -1
        I_size=2,
        dot=((2, -3), (-3, 6)),
        X_rank=2,
        alpha=((1, 0), (0, 1)),
        coroot=((2, -3), (-1, 2)),
        coweight=((1, 0), (0, 1)),
    ),
}


def builtin(name: str) -> RootDatum:
    """The named built-in, read and validated as a datum file would be."""
    key = name.lower()
    if key not in BUILTINS:
        raise DatumError("unknown built-in root datum %r (have %s)" % (name, sorted(BUILTINS)))
    return from_dict(BUILTINS[key], name=key)


def _integer(x) -> int:
    """x itself if it is an int; a float, string or bool is refused, not truncated."""
    if type(x) is not int:
        raise DatumError("root datum entries must be integers, got %r" % (x,))
    return x


def from_dict(data: dict, name: str = "") -> RootDatum:
    """Build and validate a root datum from a parsed config mapping."""

    def matrix(key):
        return tuple(tuple(_integer(x) for x in row) for row in data[key])

    try:
        n = _integer(data["I_size"])
        dot = matrix("dot")
        x_rank = _integer(data["X_rank"])
        alpha, coroot, coweight = matrix("alpha"), matrix("coroot"), matrix("coweight")
        pairing = matrix("pairing") if "pairing" in data else None
    except (KeyError, TypeError, ValueError) as exc:
        raise DatumError("malformed root datum config: %s" % exc)
    if x_rank > X_RANK_BOUND:
        raise DatumError("root datum rejected: X_rank %d is more than the bound %d"
                         % (x_rank, X_RANK_BOUND))
    if len(dot) != n:
        raise DatumError("dot matrix size disagrees with I_size")
    if pairing is not None:  # fold P into each Y row y as y.P; zip would truncate a short row
        for label, rows in (("coroot", coroot), ("coweight", coweight)):
            if len(rows) != n or any(len(y) != x_rank for y in rows):
                raise DatumError("root datum rejected: %s must be %d rows of length %d"
                                 % (label, n, x_rank))
        if len(pairing) != x_rank or any(len(row) != x_rank for row in pairing):
            raise DatumError("root datum rejected: pairing must be %d x %d" % (x_rank, x_rank))
        det = _rank(pairing)[1]
        if abs(det) != 1:
            raise DatumError("root datum rejected: pairing Y x X -> Z is not perfect: "
                             "determinant %s, expected +-1" % det)
        cols = tuple(zip(*pairing))
        coroot, coweight = (tuple(tuple(sum(map(mul, y, col)) for col in cols) for y in rows)
                            for rows in (coroot, coweight))
    rd = RootDatum(CartanDatum(dot), x_rank, alpha, coroot, coweight, name=name or "file")
    errs = rd.validate()
    if errs:
        raise DatumError("root datum rejected: " + "; ".join(errs))
    return rd


def load(path: str) -> RootDatum:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise DatumError("root datum file %s is not valid JSON: %s" % (path, exc))
    return from_dict(data, name=path)
