"""Matrix-level cross-validation: transport explicit weight modules of the
untwisted algebra to the twisted one and check every relation as an exact
matrix identity over the Laurent ring: every entry is a Laurent polynomial,
and a relation's coefficient enters only in verify_module.

A module keeps one sparse matrix per generator symbol, as columns: column b
lists the (row, entry) pairs of its nonzero entries.  Construction,
transport and evaluation (and the tests' negative controls) all read and
write this one form; no dense matrix is ever built.

One string rule (string_module) builds every stock module from its weights:
the (n+1)-dimensional string modules of the rank-1 datum and the natural
module of the rank-2 type-A datum, which together exercise the mixed E/F
relation across a range of weights and the quantum Serre relation at matrix
level.  Their untwisted relations are checked by the tests, not at run time.

A relation is evaluated by column action: column b of a word's matrix
M_{w_0} ... M_{w_last} is M_{w_0}(...(M_{w_last} e_b)), so each basis
vector is pushed through the word's letters by their nonzero entries, and
the coefficient times the result is summed into column b.  Matrix
multiplication is associative, so these are the entries of the dense
product, for any matrices and not only weight-graded ones.  The witness of
a failed relation is its first nonzero entry in row-major order.
"""

from __future__ import annotations

from . import rootdata, specializations
from .params import ParameterSet
from .presentations import relations_of
from .report import FAIL, PASS, CheckRecord, Report
from .rootdata import RootDatum
from .twistmap import TwistScalars


class WeightModule:
    """Weight-graded module with one sparse matrix per generator symbol."""

    def __init__(self, rd: RootDatum, params: ParameterSet, weights, cols, label=""):
        self.rd = rd
        self.params = params
        self.weights = list(weights)  # weight of each basis vector
        self.cols = cols              # (kind, i) -> [[(row, entry), ...] per column]
        self.label = label

    @property
    def dim(self) -> int:
        return len(self.weights)


def _diag(entries):
    return [[(b, e)] for b, e in enumerate(entries)]


def _scaled(cols, factors):
    """The sparse matrix with column b multiplied by factors[b]."""
    return [[(r, x * c) for r, x in col] for col, c in zip(cols, factors)]


def string_module(rd: RootDatum, params: ParameterSet, weights, label: str) -> WeightModule:
    """Basis v_mu for mu in ``weights``, in order, every i-string a simple one
    (Jantzen, Lectures on Quantum Groups, 5A.1): with a and b the steps from
    mu to the top and the bottom of its i-string, F_i v_mu = [a+1]_{v_i}
    v_{mu-alpha_i}, E_i v_mu = [b+1]_{v_i} v_{mu+alpha_i}, and K_i^{+-1} acts
    by v_i^{+-<i,mu>}.  A string of the wrong length, b - a != <i,mu>, is a
    ValueError.  The entries are those of Lusztig's algebra, read from
    ``params.untwisted()``."""
    u = params.untwisted()
    index = {mu: col for col, mu in enumerate(weights)}
    cols = {}
    for i in rd.index_set:
        E, F = [[] for _ in weights], [[] for _ in weights]
        for col, mu in enumerate(weights):
            up, down = (_steps(rd, index, mu, i, sign) for sign in (1, -1))
            if down - up != rd.lambda_i(mu, i):
                raise ValueError("the %d-string through %s is not simple" % (i + 1, mu))
            if up:
                E[col].append((index[rd.add_root(mu, i, 1)], u.qint_q(down + 1, i)))
            if down:
                F[col].append((index[rd.add_root(mu, i, -1)], u.qint_q(up + 1, i)))
        cols[("E", i)], cols[("F", i)] = E, F
        pairs = [rd.lambda_i(mu, i) for mu in weights]
        cols[("K", i)] = _diag([u.q(i) ** k for k in pairs])
        cols[("Kinv", i)] = _diag([u.q(i) ** -k for k in pairs])
    return WeightModule(rd, params, weights, cols, label)


def _steps(rd, index, mu, i, sign):
    """How often mu can step by sign * alpha_i and stay in ``index``."""
    k = 0
    while (mu := rd.add_root(mu, i, sign)) in index:
        k += 1
    return k


def sl2_string_module(n: int, rd: RootDatum, params: ParameterSet) -> WeightModule:
    """The (n+1)-dimensional irreducible string module of the rank-1 datum.

    Basis m_0..m_n with m_k of weight (n-k, k); the lowering operator sends
    m_k to [k+1] m_{k+1}, raising sends m_k to [n-k+1] m_{k-1}, and the
    group-like generator acts by v^{n-2k}.
    """
    if rd.alpha != ((1, -1),):
        raise ValueError("the string module needs the rank-1 built-in datum")
    if n < 0:
        raise ValueError("n must be >= 0")
    return string_module(rd, params, [(n - k, k) for k in range(n + 1)], "sl2-string-n%d" % n)


def sl3_natural_module(rd: RootDatum, params: ParameterSet) -> WeightModule:
    """The natural 3-dimensional module of the rank-2 type-A datum."""
    if rd.alpha != ((1, -1, 0), (0, 1, -1)):
        raise ValueError("the natural module needs the rank-2 type-A built-in datum")
    return string_module(rd, params, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], "sl3-natural")


def transport(mod: WeightModule, scalars: TwistScalars) -> WeightModule:
    """Pull the module across the inverse rescaling map.

    The convention is read from the generator rescaling at the acting
    weight: E_i|M_lam is scaled by e(i, lam+alpha_i)^-1, the raising action
    divided by e at the landing weight, and F_i|M_lam by f(i, lam)^-1, the
    lowering action divided by f at the starting weight; the two K-families
    act by the corrected eigenvalues c(i,lam) q_i^{lam_i} and
    c(i,lam) q_i^{-lam_i}.
    """
    rd = mod.rd
    params = scalars.params
    cols = {}
    for i in rd.index_set:
        e = [scalars.e(i, rd.add_root(lam, i, +1)).inv_unit() for lam in mod.weights]
        f = [scalars.f(i, lam).inv_unit() for lam in mod.weights]
        cols[("E", i)] = _scaled(mod.cols[("E", i)], e)
        cols[("F", i)] = _scaled(mod.cols[("F", i)], f)
        for kind, sign in (("K", 1), ("Kp", -1)):
            diag = [scalars.c(i, lam) * params.q(i) ** (sign * rd.lambda_i(lam, i))
                    for lam in mod.weights]
            cols[(kind, i)] = _diag(diag)
            cols[(kind + "inv", i)] = _diag([x.inv_unit() for x in diag])
    return WeightModule(rd, params, mod.weights, cols, label=mod.label + "+twist")


def _word_column(cols, word, b, one):
    """Column b of the word's matrix, M_{w_0}(M_{w_1}(... M_{w_last} e_b)),
    as {row: entry}: the letters act on e_b last one first, through their
    nonzero entries only."""
    if not word:
        return {b: one}
    vec = dict(cols[word[-1]][b])
    for sym in reversed(word[:-1]):
        col = cols[sym]
        out = {}
        for k, x in vec.items():
            for r, m in col[k]:
                y = m * x
                out[r] = out[r] + y if r in out else y
        vec = out
    return vec


def verify_module(mod: WeightModule, instances) -> Report:
    """Substitute the module matrices into every relation instance.

    Each relation sum_w c_w w is evaluated column by column: column b of
    the matrix M_{w_0} M_{w_1} ... M_{w_last} is M_{w_0}(M_{w_1}(...
    M_{w_last} e_b)), so the letters act on the basis vector e_b through
    their nonzero entries only, and c_w times that column is summed into
    column b of the relation's matrix, word by word.  These are the exact
    entries of the dense product, for any matrices.  A relation holds when
    every entry is zero; otherwise the witness is its first nonzero entry
    in row-major order, the least (row, column).
    """
    rep = Report("modules", datum=mod.rd.name, case=mod.label)
    one = mod.params.ctx.one
    for inst in instances:
        rec = CheckRecord("%s:%s" % (mod.label, inst.id), inst.family, inst.i, inst.j)
        bad, terms = None, inst.expr.terms.items()
        for b in range(mod.dim):
            acc = {}
            for word, coeff in terms:
                for r, x in _word_column(mod.cols, word, b, one).items():
                    y = coeff * x
                    acc[r] = acc[r] + y if r in acc else y
            for r in sorted(acc):
                if not acc[r].is_zero():
                    if bad is None or r < bad[0]:
                        bad = (r, b, acc[r])
                    break
        if bad is not None:
            rec.status = FAIL
            rec.witness = "entry (%d,%d) = %s" % (bad[0], bad[1], bad[2].simplified())
        rep.add(rec)
    return rep.finalize()


def kkp_eigenvalue_records(mod: WeightModule, scalars: TwistScalars) -> list:
    """K_i Kp_i acts on the lam weight space by c(i,lam)^2: the (b, b) entry
    of the word K_i Kp_i, by the column action verify_module uses."""
    rd, ctx = mod.rd, mod.params.ctx
    zero, one = ctx.zero, ctx.one
    out = []
    for i in rd.index_set:
        word = (("K", i), ("Kp", i))
        ok = True
        witness = ""
        for b, lam in enumerate(mod.weights):
            got = _word_column(mod.cols, word, b, one).get(b, zero)
            want = scalars.c(i, lam) ** 2
            if not (got == want):
                ok = False
                witness = "basis %d: %s != %s" % (b, got, want)
                break
        out.append(
            CheckRecord(
                "%s:kkp-eigen:i%d" % (mod.label, i + 1), "kkp", i, None,
                status=PASS if ok else FAIL, witness=witness,
            )
        )
    return out


def verify_transported_modules(case: str, max_n: int = 6) -> Report:
    """Build the stock modules, transport them, and check the twisted relations.

    The string modules n = 0..max_n of a1 and the natural module of a2, in
    the ring of ``case``: the v-tied parameters for "generic", otherwise
    those of specializations.make(case, rd).
    """
    rep = Report("modules", datum="a1+a2", case=case)
    for name in ("a1", "a2"):
        rd = rootdata.builtin(name)
        params = (ParameterSet.v_tied(rd.cartan) if case == "generic"
                  else specializations.make(case, rd).params)
        rels = relations_of("scrU", rd, params)
        sc = TwistScalars(rd, params)
        bases = ([sl2_string_module(n, rd, params) for n in range(max_n + 1)] if name == "a1"
                 else [sl3_natural_module(rd, params)])
        for base in bases:
            tmod = transport(base, sc)
            rep.merge(verify_module(tmod, rels))
            rep.extend(kkp_eigenvalue_records(tmod, sc))
    return rep.finalize()
