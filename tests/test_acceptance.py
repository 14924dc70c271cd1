"""Acceptance suite: the eight exit criteria, one test per criterion.

Every check is an exact symbolic identity (zero tolerance); the per-datum
wall targets are printed for inspection.  Run with `pytest -s` to see the
per-criterion lines.
"""

import json
import time
from math import comb

import pytest
from oracles import corrupt

from qtwist import rootdata
from qtwist import specializations as sp
from qtwist.coeffring import Context, gauss_vanish, qbinom
from qtwist.hopf import HopfContext, verify_coproduct_serre, verify_hopf
from qtwist.params import ParameterSet
from qtwist.repcheck import sl2_string_module, transport, verify_module, \
    verify_transported_modules
from qtwist.presentations import relations_of
from qtwist.twistmap import TwistScalars, verify_integrality, verify_twist_isomorphism

ALL_DATA = ("a1", "a1xa1", "a2", "b2", "g2")
CASES = ("two-param", "multi-param", "super1", "super2")


def _report(line):
    print(line)


def pascal_qbinom(n, p, q):
    if p in (0, n):
        return q.ctx.one
    return q**p * pascal_qbinom(n - 1, p, q) + q ** (p - n) * pascal_qbinom(n - 1, p - 1, q)


def test_criterion_1_q_combinatorics():
    t0 = time.monotonic()
    ctx = Context()
    v = ctx.laurent("v", denom=2)
    for n in range(1, 9):
        assert gauss_vanish(n, v).is_zero(), n
    for n in range(11):
        for p in range(n + 1):
            val = qbinom(n, p, v)
            assert val == pascal_qbinom(n, p, v)
            assert val == qbinom(n, n - p, v)
            assert val.coefficient_sum() == comb(n, p)
    dt = time.monotonic() - t0
    assert dt < 1.0, "q-combinatorics exceeded 1 s"
    _report("PASS criterion 1: q-combinatorics exact (%.2fs < 1s)" % dt)


def test_criterion_2_isomorphism_all_data():
    for name in ALL_DATA:
        rd = rootdata.builtin(name)
        params = ParameterSet.v_tied(rd.cartan)
        t0 = time.monotonic()
        rep = verify_twist_isomorphism(rd, params, rd.weights_box(2))
        dt = time.monotonic() - t0
        assert rep.ok, (name, rep.failures()[:3])
        counts = rep.summary
        _report(
            "PASS criterion 2: %s relation correspondence, %d instances exact (%.1fs, target <60s)"
            % (name, counts["pass"], dt)
        )
        assert dt < 60.0, name


def test_criterion_3_integral_form_and_inverse():
    t0 = time.monotonic()
    for name in ALL_DATA:
        rd = rootdata.builtin(name)
        params = ParameterSet.v_tied(rd.cartan)
        rmax = max(
            [rd.cartan.serre_exponent(i, j) for i in rd.index_set for j in rd.index_set if i != j]
            or [2]
        )
        rep = verify_integrality(rd, params, rd.weights_box(1), lmax=rmax)
        assert rep.ok, (name, rep.failures()[:3])
    dt = time.monotonic() - t0
    assert dt < 5.0, "integral-form checks exceeded 5 s"
    _report("PASS criterion 3: divided-power integrality + inverse round trip (%.1fs < 5s)" % dt)


def test_criterion_4_coproduct():
    for name in ("a2", "b2", "g2"):
        rd = rootdata.builtin(name)
        ctx = HopfContext(rd, ParameterSet.v_tied(rd.cartan))
        t0 = time.monotonic()
        from qtwist.hopf import verify_coproduct_powers

        for i in rd.index_set:
            recs = verify_coproduct_powers(ctx, i, nmax=4)
            assert all(r.status == "pass" for r in recs), (name, i)
        recs = verify_coproduct_serre(ctx, relations_of("scrU", rd, ctx.params))
        assert len(recs) == rd.n * (rd.n - 1), name
        for rec in recs:
            assert rec.status == "pass", (name, rec.id, rec.witness)
        exps = [rd.cartan.serre_exponent(rec.i, rec.j) for rec in recs]
        dt = time.monotonic() - t0
        _report(
            "PASS criterion 4: %s coproduct powers n<=4 and Serre image (r in %s) exact (%.1fs)"
            % (name, sorted(set(exps)), dt)
        )
        if name == "g2":
            assert dt < 120.0, "g2 coproduct target exceeded"


def test_criterion_5_antipode_and_axioms():
    for name in ("a1", "a2", "b2"):
        rd = rootdata.builtin(name)
        rep = verify_hopf(rd, ParameterSet.v_tied(rd.cartan))
        assert rep.ok, (name, rep.failures()[:3])
        _report(
            "PASS criterion 5: %s antipode compatibility and bialgebra axioms (%d checks)"
            % (name, rep.summary["pass"])
        )


def test_criterion_6_specializations():
    for name in ("a1", "a2"):
        rd = rootdata.builtin(name)
        for case in CASES:
            spec = sp.make(case, rd)
            assert all(ok for _, ok in spec.constraints), (name, case)
            rep = sp.verify_specialization(spec, rd.weights_box(2))
            assert rep.ok, (name, case, rep.failures()[:3])
            t0 = time.monotonic()
            iso = verify_twist_isomorphism(rd, spec.params, rd.weights_box(2))
            dt = time.monotonic() - t0
            assert iso.ok, (name, case, iso.failures()[:3])
            _report(
                "PASS criterion 6: %s %s constraints+tables+campaign (%d instances, %.1fs)"
                % (name, case, iso.summary["pass"], dt)
            )
    # table forms hold cleanly on root-lattice coordinates
    for name in ("a1xa1", "b2", "g2"):
        rd = rootdata.builtin(name)
        rep = sp.verify_specialization(sp.super_second(rd), rd.weights_box(2))
        assert rep.ok and rep.summary["warn"] == 0, name
    _report("PASS criterion 6: square-root table exact on root-lattice data, discrepancies reported elsewhere")


def test_criterion_7_module_transport():
    for label in ("generic", "two-param", "multi-param", "super1", "super2"):
        t0 = time.monotonic()
        rep = verify_transported_modules(label, max_n=6)
        dt = time.monotonic() - t0
        assert rep.ok, (label, rep.failures()[:3])
        _report(
            "PASS criterion 7: modules under %s parameters, all zero matrices (%d checks, %.1fs)"
            % (label, rep.summary["pass"], dt)
        )
    rd = rootdata.builtin("a1")
    p = ParameterSet.v_tied(rd.cartan)
    sc = TwistScalars(rd, p)
    bad = corrupt(transport(sl2_string_module(2, rd, p), sc), "E", 0, p.s(0, 0))
    rep = verify_module(bad, relations_of("scrU", rd, p))
    assert not rep.ok and any(c.witness for c in rep.failures())
    _report("PASS criterion 7: corrupted scalar detected with a witness entry")


def test_criterion_8_determinism():
    def campaign():
        rd = rootdata.builtin("a2")
        params = ParameterSet.v_tied(rd.cartan)
        rep = verify_twist_isomorphism(rd, params, rd.weights_box(1))
        return json.dumps(rep.identity_dict(), sort_keys=True)

    assert campaign() == campaign()

    def special():
        rd = rootdata.builtin("a1")
        rep = sp.verify_specialization(sp.super_first(rd), rd.weights_box(2))
        return json.dumps(rep.identity_dict(), sort_keys=True)

    assert special() == special()
    _report("PASS criterion 8: repeated campaigns produce byte-identical reports")
