"""Weight modules as exact sparse matrices: construction, transport, verification."""

import pytest
from oracles import corrupt

from qtwist import rootdata
from qtwist import specializations as sp
from qtwist.coeffring import qint_signed
from qtwist.params import ParameterSet
from qtwist.presentations import relations_of
from qtwist.repcheck import (
    WeightModule,
    kkp_eigenvalue_records,
    sl2_string_module,
    sl3_natural_module,
    string_module,
    transport,
    verify_module,
    verify_transported_modules,
)
from qtwist.twistmap import TwistScalars


def _mat_mul(params, a, b):
    n = len(a)
    out = [[params.rat(0)] * n for _ in range(n)]
    for i in range(n):
        arow = a[i]
        orow = out[i]
        for k in range(n):
            aik = arow[k]
            if aik.is_zero():
                continue
            brow = b[k]
            for j in range(n):
                if not brow[j].is_zero():
                    orow[j] = orow[j] + aik * brow[j]
    return out


def _dense(mod, sym):
    """The dense matrix of a generator symbol, read from its columns."""
    m = [[mod.params.rat(0)] * mod.dim for _ in range(mod.dim)]
    for b, col in enumerate(mod.cols[sym]):
        for r, x in col:
            m[r][b] = x
    return m


@pytest.fixture()
def a1():
    rd = rootdata.builtin("a1")
    return rd, ParameterSet.v_tied(rd.cartan)


@pytest.fixture()
def a2():
    rd = rootdata.builtin("a2")
    return rd, ParameterSet.v_tied(rd.cartan)


def test_trivial_module(a1):
    rd, p = a1
    mod = sl2_string_module(0, rd, p)
    assert mod.dim == 1
    assert _dense(mod, ("E", 0))[0][0].is_zero()
    assert _dense(mod, ("F", 0))[0][0].is_zero()
    assert _dense(mod, ("K", 0))[0][0] == p.rat(1)


def test_two_dim_module(a1):
    rd, p = a1
    mod = sl2_string_module(1, rd, p)
    v = p.v()
    assert _dense(mod, ("E", 0))[0][1] == p.rat(1)
    assert _dense(mod, ("F", 0))[1][0] == p.rat(1)
    assert _dense(mod, ("K", 0))[0][0] == p.rat(v)
    assert _dense(mod, ("K", 0))[1][1] == p.rat(v.inv_unit())
    # the mixed relation gives (K - K^-1)/(v - v^-1) = diag([1], -[1])
    rels = relations_of("U", rd, p)
    rep = verify_module(mod, rels)
    assert rep.ok


def test_string_module_commutator_eigenvalues(a1):
    rd, p = a1
    n = 3
    mod = sl2_string_module(n, rd, p)
    E, F = _dense(mod, ("E", 0)), _dense(mod, ("F", 0))
    ef = _mat_mul(p, E, F)
    fe = _mat_mul(p, F, E)
    for k, lam in enumerate(mod.weights):
        got = ef[k][k] - fe[k][k]
        assert got == p.rat(qint_signed(rd.lambda_i(lam, 0), p.v() ** rd.cartan.d(0)))


def test_natural_module(a2):
    """Its U relations are checked, in every case's ring, by
    test_campaign_modules_satisfy_untwisted_relations."""
    rd, p = a2
    mod = sl3_natural_module(rd, p)
    assert [rd.lambda_i(w, 0) for w in mod.weights] == [1, -1, 0]


def test_transport_identity_under_trivial_twist():
    rd = rootdata.builtin("a1")
    p = ParameterSet.v_tied(rd.cartan).untwisted()
    sc = TwistScalars(rd, p)
    mod = sl2_string_module(2, rd, p)
    tmod = transport(mod, sc)
    assert _dense(tmod, ("E", 0)) == _dense(mod, ("E", 0))
    assert _dense(tmod, ("F", 0)) == _dense(mod, ("F", 0))
    assert _dense(tmod, ("K", 0)) == _dense(mod, ("K", 0))
    assert _dense(tmod, ("Kp", 0)) == _dense(mod, ("Kinv", 0))


def test_transport_k_eigenvalues(a1):
    rd, p = a1
    sc = TwistScalars(rd, p)
    tmod = transport(sl2_string_module(1, rd, p), sc)
    for b, lam in enumerate(tmod.weights):
        li = rd.lambda_i(lam, 0)
        want = p.rat(sc.c(0, lam) * p.q(0) ** li)
        assert _dense(tmod, ("K", 0))[b][b] == want
        want = p.rat(sc.c(0, lam) * p.q(0) ** (-li))
        assert _dense(tmod, ("Kp", 0))[b][b] == want


def test_transported_string_modules_satisfy_twisted_relations(a1):
    rd, p = a1
    sc = TwistScalars(rd, p)
    rels = relations_of("scrU", rd, p)
    for n in range(7):
        tmod = transport(sl2_string_module(n, rd, p), sc)
        rep = verify_module(tmod, rels)
        assert rep.ok, rep.failures()[:2]


def test_transported_natural_module_serre(a2):
    rd, p = a2
    sc = TwistScalars(rd, p)
    tmod = transport(sl3_natural_module(rd, p), sc)
    rep = verify_module(tmod, relations_of("scrU", rd, p))
    assert rep.ok, rep.failures()[:2]


def test_kkp_eigenvalue_consistency(a1):
    rd, p = a1
    sc = TwistScalars(rd, p)
    tmod = transport(sl2_string_module(3, rd, p), sc)
    recs = kkp_eigenvalue_records(tmod, sc)
    assert all(r.status == "pass" for r in recs)


@pytest.mark.parametrize("name, want", [
    ("a1", {"i1": ("fail", "basis 0: v*s11^-6*t11^-6 != s11^-6*t11^-6")}),
    ("a2", {"i1": ("fail", "basis 0: v*s11^-2*s12^-2*t11^-2*t12^-2 != s11^-2*s12^-2*t11^-2*t12^-2"),
            "i2": ("pass", "")}),
])
def test_kkp_record_fails_on_a_corrupt_kp(name, want):
    """Kp_1 times v breaks K_1 Kp_1 = c(1,lam)^2 at the first basis vector,
    and only for i = 1 (a1 n=3 string module, a2 natural module)."""
    rd = rootdata.builtin(name)
    p = ParameterSet.v_tied(rd.cartan)
    sc = TwistScalars(rd, p)
    base = sl2_string_module(3, rd, p) if name == "a1" else sl3_natural_module(rd, p)
    recs = kkp_eigenvalue_records(corrupt(transport(base, sc), "Kp", 0, p.v()), sc)
    assert {r.id.rsplit(":", 1)[1]: (r.status, r.witness) for r in recs} == want


def test_kkp_trivial_under_sign_specialization(a1):
    rd, _ = a1
    spec = sp.super_first(rd)
    p = spec.params
    sc = TwistScalars(rd, p)
    tmod = transport(sl2_string_module(2, rd, p), sc)
    for i in rd.index_set:
        prod = _mat_mul(p, _dense(tmod, ("K", i)), _dense(tmod, ("Kp", i)))
        for b in range(tmod.dim):
            assert prod[b][b] == p.rat(1)


def test_transport_preserves_block_structure(a1):
    rd, p = a1
    sc = TwistScalars(rd, p)
    mod = sl2_string_module(4, rd, p)
    tmod = transport(mod, sc)
    assert tmod.weights == mod.weights
    E, F, E0 = _dense(tmod, ("E", 0)), _dense(tmod, ("F", 0)), _dense(mod, ("E", 0))
    for r in range(tmod.dim):
        for b in range(tmod.dim):
            if not E[r][b].is_zero():
                assert tmod.weights[r] == rd.add_root(tmod.weights[b], 0, +1)
            assert E[r][b].is_zero() == E0[r][b].is_zero()
            if not F[r][b].is_zero():
                assert tmod.weights[r] == rd.add_root(tmod.weights[b], 0, -1)


def test_negative_control(a1):
    rd, p = a1
    sc = TwistScalars(rd, p)
    tmod = transport(sl2_string_module(2, rd, p), sc)
    bad = corrupt(tmod, "E", 0, p.s(0, 0))
    rep = verify_module(bad, relations_of("scrU", rd, p))
    assert not rep.ok
    assert any("entry" in c.witness for c in rep.failures())


def test_full_campaign_all_specializations():
    for label in ("generic", "two-param", "multi-param", "super1", "super2"):
        rep = verify_transported_modules(label, max_n=2)
        assert rep.ok, (label, rep.failures()[:2])


def _dense_verdicts(mod, instances):
    """Reference evaluator: every word's matrix as a chain of dense products,
    scaled and summed; the witness is the first nonzero entry in row-major
    order."""
    p, n = mod.params, mod.dim
    dense = {sym: _dense(mod, sym) for sym in mod.cols}
    out = {}
    for inst in instances:
        acc = [[p.rat(0)] * n for _ in range(n)]
        for word, coeff in inst.expr.terms.items():
            m = [[p.rat(int(r == c)) for c in range(n)] for r in range(n)]
            for sym in word:
                m = _mat_mul(p, m, dense[sym])
            acc = [[a + x * coeff for a, x in zip(ra, rm)] for ra, rm in zip(acc, m)]
        bad = next(((r, c, x) for r, row in enumerate(acc) for c, x in enumerate(row)
                    if not x.is_zero()), None)
        if bad is None:
            out["%s:%s" % (mod.label, inst.id)] = ("pass", "")
        else:
            out["%s:%s" % (mod.label, inst.id)] = (
                "fail", "entry (%d,%d) = %s" % (bad[0], bad[1], bad[2].simplified()))
    return out


def _with_k_off_diagonal(mod, i):
    """K_i + E_i + F_i in place of K_i: no longer a weight module.  In a weight
    module each relation's nonzero entries lie on one weight shift, where
    row-major and column-major order agree; K_i K_i^-1 - 1 = (E_i + F_i)
    K_i^-1 has entries on both sides of the diagonal, where they do not."""
    cols = dict(mod.cols)
    cols[("K", i)] = [k + e + f for k, e, f in zip(*(mod.cols[(kind, i)] for kind in "KEF"))]
    return WeightModule(mod.rd, mod.params, mod.weights, cols, mod.label)


def _dense_kkp(mod, scalars):
    """Reference kkp records: the diagonal of the dense product K_i Kp_i
    against c(i,lam)^2, the witness at the first basis vector that differs."""
    p = mod.params
    out = {}
    for i in mod.rd.index_set:
        prod = _mat_mul(p, _dense(mod, ("K", i)), _dense(mod, ("Kp", i)))
        want = [p.rat(scalars.c(i, lam) ** 2) for lam in mod.weights]
        bad = next((b for b in range(mod.dim) if not prod[b][b] == want[b]), None)
        out["%s:kkp-eigen:i%d" % (mod.label, i + 1)] = ("pass", "") if bad is None else (
            "fail", "basis %d: %s != %s" % (bad, prod[bad][bad], want[bad]))
    return out


@pytest.mark.parametrize("case", ["generic", "super1"])
def test_column_action_matches_dense_reference(monkeypatch, case):
    """verify_module gives every record of a modules campaign, and of corrupt
    copies of its transported modules, the status and witness of the dense
    evaluation; so does kkp_eigenvalue_records, against the diagonal of the
    dense product K_i Kp_i."""
    import qtwist.repcheck as repcheck

    calls = []
    real = repcheck.verify_module

    def spy(mod, instances):
        calls.append((mod, instances))
        return real(mod, instances)

    monkeypatch.setattr(repcheck, "verify_module", spy)
    verify_transported_modules(case, max_n=4)
    transported = [(m, rels) for m, rels in calls if m.label.endswith("+twist")]
    assert len(transported) == 6  # string modules n = 0..4 and the natural module
    checked = list(calls)
    for mod, rels in transported:
        q = mod.params.q(0)
        checked += [(corrupt(mod, kind, 0, q), rels) for kind in ("E", "F", "K", "Kp")]
        checked.append((_with_k_off_diagonal(mod, 0), rels))
    witnesses = set()
    kkp_fails = 0
    for mod, rels in checked:
        got = {c.id: (c.status, c.witness) for c in real(mod, rels).checks}
        assert got == _dense_verdicts(mod, rels), mod.label
        witnesses |= {w for _, w in got.values() if w}
        sc = TwistScalars(mod.rd, mod.params)
        got = {c.id: (c.status, c.witness) for c in kkp_eigenvalue_records(mod, sc)}
        assert got == _dense_kkp(mod, sc), mod.label
        kkp_fails += sum(status == "fail" for status, _ in got.values())
    assert any(w.startswith("entry (0,1)") for w in witnesses)
    assert kkp_fails


CASES = ("generic", "two-param", "multi-param", "super1", "super2")


def _case_params(case, rd):
    """The parameter set verify_transported_modules uses for ``case``."""
    return ParameterSet.v_tied(rd.cartan) if case == "generic" else sp.make(case, rd).params


@pytest.mark.parametrize("case", CASES)
def test_campaign_modules_satisfy_untwisted_relations(case):
    """Every module the campaign builds (a1 n = 0..10 and the a2 natural
    module) satisfies the untwisted relations in the case's ring."""
    rd = rootdata.builtin("a1")
    p = _case_params(case, rd)
    rels = relations_of("U", rd, p)
    for n in range(11):
        rep = verify_module(sl2_string_module(n, rd, p), rels)
        assert rep.ok, (n, rep.failures()[:1])
    rd = rootdata.builtin("a2")
    p = _case_params(case, rd)
    rep = verify_module(sl3_natural_module(rd, p), relations_of("U", rd, p))
    assert rep.summary == {"pass": 21, "fail": 0, "warn": 0}


@pytest.mark.parametrize("case", CASES)
def test_string_rule_builds_the_dual_natural_module(case):
    """The string rule on the weights of the dual natural module gives a
    module of U, and its transport one of scrU."""
    rd = rootdata.builtin("a2")
    p = _case_params(case, rd)
    mod = string_module(rd, p, [(0, 0, -1), (0, -1, 0), (-1, 0, 0)], "sl3-dual")
    # E_1 v_(-1,0,0) = v_(0,-1,0) and E_2 v_(0,-1,0) = v_(0,0,-1)
    assert _dense(mod, ("E", 0))[1][2] == p.rat(1) and _dense(mod, ("E", 1))[0][1] == p.rat(1)
    rep = verify_module(mod, relations_of("U", rd, p))
    assert rep.summary == {"pass": 21, "fail": 0, "warn": 0}
    assert verify_module(transport(mod, TwistScalars(rd, p)), relations_of("scrU", rd, p)).ok


def test_string_rule_rejects_a_string_of_the_wrong_length(a1):
    rd, p = a1
    with pytest.raises(ValueError, match="1-string through"):
        string_module(rd, p, [(2, 0), (1, 1)], "short")


def test_stock_modules_check_the_lattice():
    """The guards read the simple roots, not only the rank: a rank-1 datum
    with alpha = (1, 1) is refused."""
    rd = rootdata.from_dict({"I_size": 1, "dot": [[2]], "X_rank": 2, "alpha": [[1, 1]],
                             "coroot": [[1, 1]], "coweight": [[1, 0]]})
    with pytest.raises(ValueError, match="rank-1 built-in datum"):
        sl2_string_module(2, rd, ParameterSet.v_tied(rd.cartan))
    rd = rootdata.builtin("a1xa1")
    with pytest.raises(ValueError, match="rank-2 type-A built-in datum"):
        sl3_natural_module(rd, ParameterSet.v_tied(rd.cartan))
