"""The four parameter specializations, each a substitution out of the
v-tied parameters.

Each case is defined once, by what its substitution sigma does to the
parameters of the v-tied relation correspondence: v -> v, s_ij -> s'_ij,
t_ij -> t'_ij.  sigma is keyed by parameter name, so it applies to any
v-tied ring of the datum (ParameterSet.v_tied) and no source ring is
built here.  A case resolves its dependent parameters against a small
free variable set (the three constrained cases by one rule, _resolved)
and checks its defining constraint identities exactly, among them that
its own formula for q_i gives v^{d_i}, the hypothesis of the v-tied
proof.  One builder makes sigma and the target ParameterSet (q_i =
v^{d_i}) from the images, so every verification campaign runs unchanged
over the target.  The closed form of the K-correction scalars c_{i,lam}
is verified over a weight window.
"""

from __future__ import annotations

from fractions import Fraction

from .coeffring import Context, LaurentPoly
from .params import ParameterSet
from .presentations import lam_text
from .report import FAIL, PASS, WARN, CheckRecord, Report
from .rootdata import RootDatum
from .twistmap import TwistScalars


class SpecializationError(Exception):
    """A constraint matrix or sign choice violates the required conditions."""


def validate_omega(rd: RootDatum, omega) -> list:
    """Check the grading-matrix conditions for the two-parameter case."""
    n = rd.n
    errs = []
    square = isinstance(omega, (list, tuple)) and len(omega) == n and all(
        isinstance(row, (list, tuple)) and len(row) == n for row in omega
    )
    if not square:
        return ["omega must be %d x %d" % (n, n)]
    if any(type(x) is not int for row in omega for x in row):
        return ["omega entries must be integers"]
    for i in range(n):
        if omega[i][i] <= 0:
            errs.append("(a) omega[%d][%d] must be positive" % (i + 1, i + 1))
        for j in range(n):
            if i != j and omega[i][j] > 0:
                errs.append("(a) omega[%d][%d] must be <= 0" % (i + 1, j + 1))
            if i != j and omega[i][i] > 0:
                tot = omega[i][j] + omega[j][i]
                if tot % omega[i][i] != 0 or tot // omega[i][i] > 0:
                    errs.append(
                        "(b) (omega[%d][%d]+omega[%d][%d])/omega[%d][%d] not a nonpositive integer"
                        % (i + 1, j + 1, j + 1, i + 1, i + 1, i + 1)
                    )
            if omega[i][j] + omega[j][i] != rd.cartan.dot[i][j]:
                errs.append(
                    "(c) omega[%d][%d]+omega[%d][%d] != i.j = %d"
                    % (i + 1, j + 1, j + 1, i + 1, rd.cartan.dot[i][j])
                )
    return errs


def default_omega(rd: RootDatum):
    """diag(d_i), the full pairing above the diagonal, zero below.

    Satisfies all three matrix conditions for every Cartan datum: the
    diagonal is positive, off-diagonal entries are i.j <= 0 or 0, the rows
    sum to i.j, and (i.j)/d_i = a_ij is a nonpositive integer.
    """
    n = rd.n
    return [
        [rd.cartan.d(i) if i == j else (rd.cartan.dot[i][j] if i < j else 0) for j in range(n)]
        for i in range(n)
    ]


class Specialization:
    """A named substitution with its resolved parameter set and checks."""

    __slots__ = ("name", "rd", "params", "sigma", "constraints", "meta")

    def __init__(self, name: str, rd: RootDatum, params: ParameterSet, sigma: dict,
                 constraints: list, meta: dict):
        self.name = name
        self.rd = rd
        self.params = params            # resolved target parameters
        self.sigma = sigma              # v-tied parameter name -> target unit monomial
        self.constraints = constraints  # (description, bool)
        self.meta = meta

    def constraint_records(self) -> list:
        out = []
        for k, (desc, ok) in enumerate(self.constraints):
            out.append(
                CheckRecord(
                    "constraint:%02d:%s" % (k, desc),
                    "constraint",
                    status=PASS if ok else FAIL,
                )
            )
        return out


def _specialize(name: str, rd: RootDatum, v, s, t, constraints, meta) -> Specialization:
    """sigma: v -> v, s_ij -> s[i][j], t_ij -> t[i][j] on the names of the
    v-tied parameters, and the target parameters it gives, with q_i = v^{d_i}."""
    cartan = rd.cartan
    sigma = {"v": v}
    for i in cartan.index_set:
        for j in cartan.index_set:
            sigma["s%d%d" % (i + 1, j + 1)] = s[i][j]
            sigma["t%d%d" % (i + 1, j + 1)] = t[i][j]
    q = [v ** cartan.d(i) for i in cartan.index_set]
    params = ParameterSet(cartan, v.ctx, q, s, t, v=v, label=name)
    return Specialization(name, rd, params, sigma, constraints, meta)


def _resolved(ctx: Context, name: str, denom: int, diag: list, free, product) -> list:
    """The n x n matrix of a case's dependent parameters, one rule for all.

    x_ii = diag[i].  Where free(i, j) holds, x_ij is a new Laurent variable
    <name>ij with denominator bound denom, declared in row-major (i, j)
    order.  Every other off-diagonal entry is solved from its product
    constraint against the free one on the other side: x_ij = product(i, j)
    x_ji^{-1}.
    """
    n = len(diag)
    x = [[None] * n for _ in range(n)]
    for i in range(n):
        x[i][i] = diag[i]
        for j in range(n):
            if i != j and free(i, j):
                x[i][j] = ctx.laurent("%s%d%d" % (name, i + 1, j + 1), denom=denom)
    for i in range(n):
        for j in range(n):
            if x[i][j] is None:
                x[i][j] = product(i, j) * x[j][i].inv_unit()
    return x


# two_parameter's "no omega given"; None (a JSON null) is refused like any non-matrix
_DEFAULT_OMEGA = object()


def two_parameter(rd: RootDatum, omega=_DEFAULT_OMEGA) -> Specialization:
    """v -> v, s_ij -> t^{-omega_ij}, t_ij -> t^{omega_ji} over Z[v,t]."""
    if omega is _DEFAULT_OMEGA:
        omega = default_omega(rd)
    errs = validate_omega(rd, omega)
    if errs:
        raise SpecializationError("; ".join(errs))
    n = rd.n
    ctx = Context("two-param")
    v = ctx.laurent("v", denom=2)
    t = ctx.laurent("t", denom=2)
    s = [[t ** (-omega[i][j]) for j in range(n)] for i in range(n)]
    tt = [[t ** (omega[j][i]) for j in range(n)] for i in range(n)]
    constraints = [("omega matrix conditions", True)]
    for i in range(n):
        for j in range(n):
            ok = s[i][j] * tt[i][j] == t ** (omega[j][i] - omega[i][j])
            constraints.append(("st[%d][%d] collapses to t^(om_ji-om_ij)" % (i + 1, j + 1), ok))
    return _specialize("two-param", rd, v, s, tt, constraints,
                       {"omega": [list(r) for r in omega]})


def c_table_expected(spec: Specialization, i: int, lam) -> LaurentPoly:
    """Closed form of the specialized K-correction scalar, per case."""
    rd, params = spec.rd, spec.params
    name = spec.name
    if name == "two-param":
        omega = spec.meta["omega"]
        t = params.ctx["t"]
        e = sum(
            rd.lambda_paren(lam, j) * (omega[i][j] - omega[j][i]) for j in rd.index_set
        )
        return t**e
    if name == "multi-param":
        qm = spec.meta["qmat"]
        out = params.ctx.one
        for j in rd.index_set:
            k = rd.lambda_paren(lam, j)
            if k:
                out = out * (qm[i][j] * qm[j][i].inv_unit()).unit_pow(Fraction(k, 2))
        return out
    if name == "super1":
        tau = spec.meta["tau"]
        gam = spec.meta["gammafn"]
        out = params.ctx.one
        for j in rd.index_set:
            k = rd.lambda_paren(lam, j)
            if k:
                out = out * (tau[i][j] * gam(i, j)) ** k
        return out
    if name == "super2":
        return params.untwisted().q(i) ** rd.lambda_i(lam, i)
    raise ValueError(name)


def multi_parameter(rd: RootDatum) -> Specialization:
    """s_ij and t_ij as square roots of a constrained q_ij family.

    For i < j the q_ij stay free; q_ji is resolved from the product
    constraint q_ij q_ji = q_ii^{a_ij}; the diagonal is tied to the base by
    q_ii = v^{2 d_i}, which is what makes the isomorphism chain applicable.
    """
    cartan = rd.cartan
    n = cartan.n
    ctx = Context("multi-param")
    v = ctx.laurent("v", denom=2)
    qii = [v ** (2 * cartan.d(i)) for i in range(n)]
    qm = _resolved(ctx, "q", 2, qii, lambda i, j: i < j,
                   lambda i, j: qii[j] ** cartan.a(j, i))
    half = Fraction(1, 2)
    s = [[qm[j][i].unit_pow(half) for j in range(n)] for i in range(n)]
    t = [[qm[i][j].unit_pow(-half) for j in range(n)] for i in range(n)]
    constraints = []
    for i in range(n):
        for j in range(n):
            ok = qm[i][j] * qm[j][i] == qm[i][i] ** cartan.a(i, j)
            constraints.append(("q[%d][%d]q[%d][%d] == q_ii^a_ij" % (i + 1, j + 1, j + 1, i + 1), ok))
        ok = qm[i][i].unit_pow(half) == v ** cartan.d(i)
        constraints.append(("q_%d tied to base" % (i + 1), ok))
    return _specialize("multi-param", rd, v, s, t, constraints, {"qmat": qm})


def check_order(order, n: int) -> list:
    """A total order on the index set as 0-based indices; anything but a
    permutation of them is refused in the 1-based terms of the CLI."""
    if sorted(order) != list(range(n)):
        raise SpecializationError("order must be a permutation of 1..%d" % n)
    return order


def super_first(rd: RootDatum, order=None, eps=None) -> Specialization:
    """The sign-variable specialization with a total order on the index set.

    Dependent parameters resolve as p_i = v^{d_i} gamma_i with gamma_i^2 = 1,
    p_ij = eps_ij p_i^{a_ij} for the chosen square-root signs eps, theta_ii =
    eps_ii, and for i < j in the chosen order theta_ji is determined by
    theta_ij so that the product constraints hold identically (this forces a
    gamma_i^{a_ij} gamma_j^{a_ji} factor alongside eps_ij eps_ji).
    """
    cartan = rd.cartan
    n = cartan.n
    if order is None:
        order = list(range(n))
    rank = {idx: pos for pos, idx in enumerate(check_order(order, n))}
    if eps is None:
        eps = {}
    for i, j in sorted(eps):
        if not (0 <= i < n and 0 <= j < n):
            raise SpecializationError(
                "eps pair %d,%d is outside the index set 1..%d" % (i + 1, j + 1, n))
    epsval = {
        (i, j): eps.get((i, j), 1) for i in range(n) for j in range(n)
    }
    if any(e not in (1, -1) for e in epsval.values()):
        raise SpecializationError("sign values must be 1 or -1")

    ctx = Context("super1")
    v = ctx.laurent("v", denom=2)
    gam = [ctx.sign("g%d" % (i + 1)) for i in range(n)]
    theta = _resolved(
        ctx, "th", 1, [ctx.poly(epsval[(i, i)]) for i in range(n)],
        lambda i, j: rank[i] < rank[j],
        lambda i, j: ctx.poly(epsval[(j, i)] * epsval[(i, j)])
        * gam[j] ** cartan.a(j, i) * gam[i] ** cartan.a(i, j),
    )

    p = [v ** cartan.d(i) * gam[i] for i in range(n)]
    pij = [[ctx.poly(epsval[(i, j)]) * p[i] ** cartan.a(i, j) for j in range(n)] for i in range(n)]
    tau = [[ctx.poly(epsval[(i, j)]) for j in range(n)] for i in range(n)]
    gammafn = lambda i, j: gam[i] ** cartan.a(i, j)

    s = [[None] * n for _ in range(n)]
    t = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if rank[i] >= rank[j]:
                s[i][j] = theta[i][j].inv_unit() * gammafn(i, j)
                t[i][j] = theta[i][j] * tau[i][j]
            else:
                s[i][j] = tau[j][i]
                t[i][j] = tau[i][j] * tau[j][i] * gammafn(i, j)

    constraints = []
    for i in range(n):
        ok = p[i] * gam[i] == v ** cartan.d(i)
        constraints.append(("q_%d == v^d after sign cancellation" % (i + 1), ok))
        for j in range(n):
            ok = pij[i][j] ** 2 == p[i] ** (2 * cartan.a(i, j))
            constraints.append(("p[%d][%d]^2 == p_i^(2a_ij)" % (i + 1, j + 1), ok))
            ok = pij[i][j] * pij[j][i] == theta[i][j] * theta[j][i] * p[i] ** (2 * cartan.a(i, j))
            constraints.append(
                ("p[%d][%d]p[%d][%d] == th_ij th_ji p_i^(2a_ij)" % (i + 1, j + 1, j + 1, i + 1), ok)
            )
        ok = pij[i][i] == theta[i][i] * p[i] ** 2
        constraints.append(("p[%d][%d] == th_ii p_i^2" % (i + 1, i + 1), ok))
    return _specialize("super1", rd, v, s, t, constraints, {"tau": tau, "gammafn": gammafn})


def super_second(rd: RootDatum) -> Specialization:
    """The sign-free square-root specialization with p~_i = v_i^2."""
    cartan = rd.cartan
    n = cartan.n
    ctx = Context("super2")
    v = ctx.laurent("v", denom=2)
    ptil = [v ** (2 * cartan.d(i)) for i in range(n)]
    theta = _resolved(ctx, "th", 1, [p.inv_unit() for p in ptil], lambda i, j: i < j,
                      lambda i, j: ptil[j] ** (-cartan.a(j, i)))
    v_i = lambda i: v ** cartan.d(i)
    zeta = [[theta[i][j] * v_i(i) ** cartan.a(i, j) for j in range(n)] for i in range(n)]
    s = [[None] * n for _ in range(n)]
    t = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i > j:
                s[i][j] = zeta[j][i] * v_i(i) ** (-cartan.a(i, j))
            else:
                s[i][j] = v_i(i) ** (-cartan.a(i, j))
            t[i][j] = zeta[i][j] if i >= j else ctx.one
    constraints = []
    for i in range(n):
        constraints.append(("q_%d == v^d" % (i + 1), ptil[i].unit_pow(Fraction(1, 2)) == v_i(i)))
        constraints.append(("th[%d][%d] == ptil_i^-1" % (i + 1, i + 1), theta[i][i] == ptil[i].inv_unit()))
        for j in range(n):
            ok = theta[i][j] * theta[j][i] == ptil[i] ** (-cartan.a(i, j))
            constraints.append(("th[%d][%d]th[%d][%d] == ptil_i^-a_ij" % (i + 1, j + 1, j + 1, i + 1), ok))
    return _specialize("super2", rd, v, s, t, constraints, {})


# case name -> builder; the CLI reads its --case choices from these keys
CASES = {
    "two-param": two_parameter,
    "multi-param": multi_parameter,
    "super1": super_first,
    "super2": super_second,
}


def make(case: str, rd: RootDatum, **kwargs) -> Specialization:
    if case not in CASES:
        raise SpecializationError("unknown case %r (have %s)" % (case, sorted(CASES)))
    return CASES[case](rd, **kwargs)


def verify_specialization(spec: Specialization, window) -> Report:
    """Constraint identities plus the closed-form table of c_{i,lam}.

    The raising/lowering table entries are exact requirements except the
    sign-free square-root case on a lattice where some window weight leaves
    the root span: there the closed form only matches on the root span, and
    off-span weights are reported as warnings with both values.
    """
    rd, params = spec.rd, spec.params
    rep = Report("special", datum=rd.name, case=spec.name)
    rep.extend(spec.constraint_records())
    window = sorted(tuple(w) for w in window)
    sc = TwistScalars(rd, params)
    for i in rd.index_set:
        for lam in window:
            got = sc.c(i, lam)
            want = c_table_expected(spec, i, lam)
            tag = "ctable:i%d:%s" % (i + 1, lam_text(lam))
            rec = CheckRecord(tag, "ctable", i, None, lam, scalar=str(got))
            if got == want:
                pass
            elif spec.name == "super2" and rd.lambda_i(lam, i) != sum(
                rd.cartan.a(i, j) * rd.lambda_paren(lam, j) for j in rd.index_set
            ):
                rec.status = WARN
                rec.witness = (
                    "off the root span: computed %s, table form %s" % (got, want)
                )
            else:
                rec.status = FAIL
                rec.witness = "computed %s, expected %s" % (got, want)
            rep.add(rec)
            if spec.name == "super1":
                sq = got * got
                rec = CheckRecord(
                    "csquare:i%d:%s" % (i + 1, lam_text(lam)),
                    "csquare", i, None, lam,
                    PASS if sq == params.ctx.one else FAIL,
                )
                if rec.status == FAIL:
                    rec.witness = "c^2 = %s" % sq
                rep.add(rec)
    return rep.finalize()
