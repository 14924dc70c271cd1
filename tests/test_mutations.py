"""Seeded defects: the iso, Hopf, module and specialization campaigns must
reject them.

Each defect is monkeypatched into the code a campaign calls, or built into
the module under test, and the campaign must fail exactly the records the
defect touches, each with a witness: the iso campaign on a2 over
weights_box(1), the Hopf campaign on a2 with nmax=3, the matrix checks
of scrU on the transported a1 n=3 string module and a2 natural module, and
the specialization tables on a2 over weights_box(1).  A wrong backward
map must fail the integrality round trips on a2 there.  The clean controls
show the same runs pass, so the failures come from the defect.
"""

import collections
import dataclasses
import json
import types
from fractions import Fraction

import pytest

from qtwist import hopf, presentations, repcheck, rootdata, specializations, twistmap
from qtwist.cli import main
from qtwist.coeffring import qint_signed
from qtwist.hopf import star_mul, verify_hopf
from qtwist.ncalg import NCExpr, TensorExpr, word_key
from qtwist.params import ParameterSet, twist_character
from qtwist.presentations import _serre_ratios, relations_of
from qtwist.repcheck import (
    corrupt,
    sl2_string_module,
    sl3_natural_module,
    transport,
    verify_module,
    verify_transported_modules,
)
from qtwist.twistmap import TwistScalars, verify_integrality, verify_twist_isomorphism

WITNESS = "image is not an exact multiple of the target instance"


def _transposed(params, name):
    """params with s (name "s") or t (name "t") transposed."""
    idx = params.cartan.index_set
    s, t = ([[m(j, i) if base == name else m(i, j) for j in idx] for i in idx]
            for base, m in (("s", params.s), ("t", params.t)))
    return ParameterSet(params.cartan, params.ctx, [params.q(i) for i in idx], s, t,
                        v=params.v(), label=params.label)


def _inverse(char):
    """The character lam -> its value at lam, inverted."""
    rows, ratios = char
    return (tuple((idx, tuple(-x for x in a)) for idx, a in rows),
            None if ratios is None else tuple(1 / r for r in ratios))


def _character_defect(kind, edit):
    """twist_character with the character of this kind (e, f or c) replaced
    by edit(rd, params, i)."""

    def defect(rd, params, k, i):
        return edit(rd, params, i) if k == kind else twist_character(rd, params, k, i)

    return defect


_transposed_twist_e = _character_defect(
    "e", lambda rd, p, i: twist_character(rd, _transposed(p, "s"), "e", i))
_transposed_twist_f = _character_defect(
    "f", lambda rd, p, i: twist_character(rd, _transposed(p, "t"), "f", i))
_inverted_twist_c = _character_defect(
    "c", lambda rd, p, i: _inverse(twist_character(rd, p, "c", i)))


def _flipped_serre_ratios(params, i, j):
    """s_ij/s_ji and t_ij/t_ji in the twisted Serre sums: each ratio inverted."""
    ratios = _serre_ratios(params, i, j)
    return ratios if params.untwisted() is params else tuple(r.inv_unit() for r in ratios)


def _run_a2():
    rd = rootdata.builtin("a2")
    params = ParameterSet.v_tied(rd.cartan)
    return verify_twist_isomorphism(rd, params, rd.weights_box(1))


def test_clean_control():
    rep = _run_a2()
    assert len(rep.checks) == 459
    assert rep.summary == {"pass": 459, "fail": 0, "warn": 0}


@pytest.mark.parametrize(
    "module, name, defect, failures, families, first",
    [
        (twistmap, "twist_character", _transposed_twist_e, 132, {"c": 78, "d-E": 54},
         ("iso:c:i1:j1:lam(-1,0,-1)", "1_(-1,0,-1): image 1, target s11*s12*t11*t12, "
          "multiple s11^-1*s21^-1*t11^-1*t12^-1")),
        (twistmap, "twist_character", _transposed_twist_f, 132, {"c": 78, "d-F": 54},
         ("iso:c:i1:j1:lam(-1,0,-1)", "1_(-1,0,-1): image 1, target s11*s12*t11*t12, "
          "multiple s11^-1*s12^-1*t11^-1*t21^-1")),
        (presentations, "twist_character", _inverted_twist_c, 34, {"c": 34},
         ("iso:c:i1:j1:lam(-1,0,-1)", "1_(-1,0,-1): image 1, target s11^-1*s12^-1*t11^-1*t12^-1, "
          "multiple s11^-1*s12^-1*t11^-1*t12^-1")),
        (presentations, "_serre_ratios", _flipped_serre_ratios, 108, {"d-E": 54, "d-F": 54},
         ("iso:d-E:i1:j2:lam(-1,-1,-1)", "E1*E1*E2:(1,-2,-2)<-(-1,-1,-1): "
          "image s11*s12^-2*s21^-1*s22^-1, target 1, multiple s11*s12^-6*s21^3*s22^-1")),
    ],
    ids=["twist_e-s-transposed", "twist_f-t-transposed", "twist_c-inverted",
         "serre-ratio-flipped"],
)
def test_seeded_defect_is_rejected(monkeypatch, module, name, defect, failures, families, first):
    """Each failure names the first word that is not N times the target's.
    s transposed in e's character and t transposed in f's fail the mixed
    relations and the Serre sums of their own side."""
    monkeypatch.setattr(module, name, defect)
    rep = _run_a2()
    assert len(rep.checks) == 459
    assert rep.summary == {"pass": 459 - failures, "fail": failures, "warn": 0}
    assert collections.Counter(c.family for c in rep.failures()) == families
    assert all(c.witness.startswith(WITNESS) for c in rep.failures())
    rec_id, term = first
    assert rep.failures()[0].id == rec_id
    assert rep.failures()[0].witness == "%s: %s" % (WITNESS, term)


_compose = presentations.PathWord.compose


def _compose_drops_right_idempotent(self, other):
    """PathWord.compose that kills a product with an idempotent on the right."""
    return None if not other.steps else _compose(self, other)


def test_broken_path_product_is_rejected(monkeypatch):
    """The same broken product on both sides maps the untwisted idempotent
    and weight-absorption relations to the twisted ones, so an exact-multiple
    test passes them; they must be zero on both sides instead."""
    monkeypatch.setattr(presentations.PathWord, "compose", _compose_drops_right_idempotent)
    rep = _run_a2()
    assert rep.summary == {"pass": 324, "fail": 135, "warn": 0}
    failed = collections.Counter(
        (c.family, c.i, c.id.rsplit(":", 1)[-1] if c.family == "b" else "")
        for c in rep.failures()
    )
    assert failed == {
        ("a", None, ""): 27,
        ("b", 0, "E-right"): 27, ("b", 0, "F-right"): 27,
        ("b", 1, "E-right"): 27, ("b", 1, "F-right"): 27,
    }
    first = rep.failures()[0]
    assert first.id == "iso:a:lam(-1,-1,-1)"
    assert first.witness == (
        "family a instance is not zero: untwisted (-1)*1_(-1,-1,-1), twisted (-1)*1_(-1,-1,-1)"
    )
    assert all(c.witness.startswith("family %s instance is not zero: untwisted " % c.family)
               for c in rep.failures())


def _word_scalar_f_at_target(self, word, invert):
    """TwistMap._word_scalar reading f at the step target, not the source."""
    out = self.params.ctx.one
    lam = word.target
    for kind, i in word.steps:
        if kind == "E":
            out = out * self.scalars.e(i, lam)
            lam = self.rd.add_root(lam, i, -1)
        else:
            out = out * self.scalars.f(i, lam)
            lam = self.rd.add_root(lam, i, +1)
    ((m, c),) = (out.inv_unit() if invert else out).terms.items()
    return dict(m), c


def test_family_c_closed_form_is_load_bearing(monkeypatch):
    """A rescaling off by the same factor on both words of a mixed relation
    still maps it to a unit multiple; only the closed form catches it."""
    monkeypatch.setattr(twistmap.TwistMap, "_word_scalar", _word_scalar_f_at_target)
    rep = _run_a2()
    assert rep.summary == {"pass": 351, "fail": 108, "warn": 0}
    witnesses = [c.witness for c in rep.failures()]
    assert len([w for w in witnesses if w.startswith(WITNESS)]) == 36
    expected = [w for w in witnesses if w.startswith("expected scalar ")]
    assert len(expected) == 72
    assert {c.family for c in rep.failures() if c.witness in expected} == {"c"}
    assert all(c.witness.endswith(", got " + c.scalar) for c in rep.failures()
               if c.witness in expected)


_step_data = twistmap.TwistMap._step_data
_word_scalar = twistmap.TwistMap._word_scalar
_image_num = twistmap.TwistMap._image_num


def _step_data_without_base(self, steps):
    """TwistMap._step_data with the steps' scalar at target 0 dropped, so a
    word's scalar is the character at its target alone."""
    return ({}, 1), _step_data(self, steps)[1]


def _word_scalar_character_at_source(self, word, invert):
    """TwistMap._word_scalar reading the character at the word's source."""
    return _word_scalar(self, types.SimpleNamespace(target=word.source, steps=word.steps), invert)


@pytest.mark.parametrize(
    "name, defect, failures, families, first",
    [
        ("_step_data", _step_data_without_base, 216, {"c": 108, "d-E": 54, "d-F": 54},
         ("iso:c:i1:j1:lam(-1,-1,-1)",
          WITNESS + ": E1*F1:(-1,-1,-1)<-(-1,-1,-1): image s11^-1*s12^-2*t11^-1*t12^-2, "
          "target 1, multiple s11^-2*s12^-2*t11^-2*t12^-2")),
        # every word of a Serre sum shares its source, so only the closed
        # form of the mixed relations with i != j sees this one
        ("_word_scalar", _word_scalar_character_at_source, 54, {"c": 54},
         ("iso:c:i1:j2:lam(-1,-1,-1)",
          "expected scalar s11^-1*s12^-2*t21^-2*t22^-1, got s11^-2*s12^-1*t21^-3")),
    ],
    ids=["base-dropped", "character-at-source"],
)
def test_character_rule_defect_is_rejected(monkeypatch, name, defect, failures, families, first):
    monkeypatch.setattr(twistmap.TwistMap, name, defect)
    rep = _run_a2()
    assert rep.summary == {"pass": 459 - failures, "fail": failures, "warn": 0}
    assert collections.Counter(c.family for c in rep.failures()) == families
    assert (rep.failures()[0].id, rep.failures()[0].witness) == first


def _backward_negates_first_variable_only(self, word, invert):
    """TwistMap._word_scalar whose inverse negates only the exponent of the
    first variable: the backward map is no longer the forward map's inverse."""
    exps, c = _word_scalar(self, word, False)
    if invert:
        exps = dict(exps)
        for idx in exps:
            exps[idx] = -exps[idx]
            break
        if c != 1:
            c = 1 / Fraction(c)
    return exps, c


def test_wrong_backward_map_fails_the_round_trips(monkeypatch):
    """The round-trip records reject a backward map that is not the inverse,
    each witness naming the generator and both round trips; the iso
    campaign, which maps forward only, still passes."""
    monkeypatch.setattr(twistmap.TwistMap, "_word_scalar", _backward_negates_first_variable_only)
    rd = rootdata.builtin("a2")
    params = ParameterSet.v_tied(rd.cartan)
    rep = verify_integrality(rd, params, rd.weights_box(1))
    assert rep.summary == {"pass": 627, "fail": 75, "warn": 0}
    assert collections.Counter(c.family for c in rep.failures()) == {"roundtrip": 75}
    assert rep.failures()[0].id == "roundtrip:E:i1:lam(-1,-1,-1)"
    assert rep.failures()[0].witness == (
        "E1:(-1,-1,-1)<-(-2,0,-1): backward(forward) (s12^-4)*E1:(-1,-1,-1)<-(-2,0,-1), "
        "forward(backward) (s12^-4)*E1:(-1,-1,-1)<-(-2,0,-1)")
    assert all(": backward(forward) " in c.witness for c in rep.failures())
    assert _run_a2().summary == {"pass": 459, "fail": 0, "warn": 0}


_scalar_e = TwistScalars.e


def _e_off_at(lam0):
    """TwistScalars.e times s_ii at the one weight lam0 only, which is not a character."""

    def defect(self, i, lam):
        out = _scalar_e(self, i, lam)
        return out * self.params.s(i, i) if lam == lam0 else out

    return defect


@pytest.mark.parametrize(
    "lam0, failures, families, first, integrality",
    [
        ((1, 1, 0), 4, {"c": 4},
         ("iso:c:i1:j1:lam(1,1,0)",
          "expected scalar s11^2*s12^2*t11*t12^2, got s11*s12^2*t11*t12^2"), 8),
        ((1, 0, 0), 4, {"c": 4},
         ("iso:c:i1:j1:lam(1,0,0)",
          "expected scalar s11^2*s12*t11*t12, got s11*s12*t11*t12"), 8),
    ],
    ids=["off-basis", "at-basis-vector"],
)
def test_single_weight_defect_is_rejected(monkeypatch, lam0, failures, families, first,
                                          integrality):
    """The map takes its letters from the characters and reads no
    TwistScalars value, so a defect of e at a single weight, on the
    coordinate basis of X or off it, reaches only the closed forms that read
    e there, and they fail."""
    monkeypatch.setattr(twistmap.TwistScalars, "e", _e_off_at(lam0))
    rep = _run_a2()
    assert rep.summary == {"pass": 459 - failures, "fail": failures, "warn": 0}
    assert collections.Counter(c.family for c in rep.failures()) == families
    assert (rep.failures()[0].id, rep.failures()[0].witness) == first
    rd = rootdata.builtin("a2")
    rep = twistmap.verify_integrality(rd, ParameterSet.v_tied(rd.cartan), rd.weights_box(1))
    assert rep.summary == {"pass": 702 - integrality, "fail": integrality, "warn": 0}


def _image_num_times_one_plus_v(self, word, num, invert, over=None):
    """TwistMap._image_num, which both the map and its exact multiple read,
    with the image numerator of every word of three or more steps times
    (1 + v), which no word scalar, a unit, can be."""
    out = _image_num(self, word, num, invert, over)
    return out * (1 + self.params.v()) if len(word.steps) >= 3 else out


def test_non_unit_multiple_is_rejected(monkeypatch):
    """Every word of an a2 Serre sum has three steps, so the image is an
    exact multiple of the target, but by 1 + v times a unit: the record
    fails on the unit test and prints the simplified multiple it reports."""
    monkeypatch.setattr(twistmap.TwistMap, "_image_num", _image_num_times_one_plus_v)
    rep = _run_a2()
    assert rep.summary == {"pass": 351, "fail": 108, "warn": 0}
    assert collections.Counter(c.family for c in rep.failures()) == {"d-E": 54, "d-F": 54}
    assert all(c.witness == "multiple %s is not a unit monomial" % c.scalar for c in rep.failures())
    first = rep.failures()[0]
    assert first.id == "iso:d-E:i1:j2:lam(-1,-1,-1)"
    assert first.scalar == "v*s11*s12^-2*s21^-1*s22^-1 + s11*s12^-2*s21^-1*s22^-1"


def test_f_divided_powers_meet_their_closed_form(monkeypatch):
    """verify_integrality compares F^(l) with f(i,lam)^l t_ii^{l(l+1)/2} as it
    does E^(l) with e and s: reading f at the step target fails exactly the
    F records with l >= 1, and each witness shows both sides."""
    rd = rootdata.builtin("a2")
    params = ParameterSet.v_tied(rd.cartan)
    window = rd.weights_box(1)
    assert twistmap.verify_integrality(rd, params, window).summary == {
        "pass": 702, "fail": 0, "warn": 0}
    monkeypatch.setattr(twistmap.TwistMap, "_word_scalar", _word_scalar_f_at_target)
    rep = twistmap.verify_integrality(rd, params, window)
    assert rep.summary == {"pass": 486, "fail": 216, "warn": 0}
    assert all(c.id.startswith("dp-unit:F:") and ":l0:" not in c.id for c in rep.failures())
    first = rep.failures()[0]
    assert first.id == "dp-unit:F:i1:l1:lam(-1,-1,-1)"
    assert first.witness == "closed form t12^-2, got t11^-1*t12^-2"


_divided_power = twistmap.divided_power


def _divided_power_v_times_one_plus_v(kind, i, l, lam, rd, params):
    """divided_power with its untwisted coefficient at l = 2 times (1 + v)."""
    dp = _divided_power(kind, i, l, lam, rd, params)
    return dp.scale(1 + params.v()) if params.untwisted() is params and l == 2 else dp


def test_non_unit_divided_power_coefficient_is_rejected(monkeypatch):
    """The image of E^(2) and F^(2) is then (1 + v) times a unit times the
    twisted divided power: every l = 2 record fails on the unit test and
    prints the simplified coefficient it reports as its scalar."""
    monkeypatch.setattr(twistmap, "divided_power", _divided_power_v_times_one_plus_v)
    rd = rootdata.builtin("a2")
    rep = twistmap.verify_integrality(rd, ParameterSet.v_tied(rd.cartan), rd.weights_box(1))
    assert rep.summary == {"pass": 594, "fail": 108, "warn": 0}
    assert all(":l2:" in c.id for c in rep.failures())
    assert all(c.witness == "coefficient %s is not a unit monomial" % c.scalar
               for c in rep.failures())
    first = rep.failures()[0]
    assert first.id == "dp-unit:E:i1:l2:lam(-1,-1,-1)"
    assert first.scalar == "v*s11*s12^-4 + s11*s12^-4"


_antipode = hopf.antipode
_delta_symbol = hopf._delta_symbol
_serre_terms = presentations._serre_terms


def _antipode_with_e_image(e_image):
    """hopf.antipode with the image of each E_i replaced by e_image(p, i)."""

    def antipode(ctx, x):
        p = ctx.params
        out = NCExpr.zero(p)
        for word, coeff in x.terms.items():
            acc = NCExpr.unit(p)
            for sym in word:
                img = e_image(p, sym[1]) if sym[0] == "E" else _antipode(ctx, NCExpr.word(p, (sym,)))
                acc = star_mul(p, acc, img)
            out = out + acc.scale(coeff)
        return out

    return antipode


def _delta_e_with_kp(ctx, sym):
    """Delta(E_i) = E_i x 1 + Kp_i x E_i: the wrong group-like in E's coproduct."""
    if sym[0] != "E":
        return _delta_symbol(ctx, sym)
    p = ctx.params
    e, kp = (sym,), (("Kp", sym[1]),)
    return TensorExpr(p, 2, {(e, ()): p.one(), (kp, e): p.one()})


def _twisted_raising_serre(edit):
    """presentations._serre_terms with edit(params, i, terms) applied to the
    (steps, coefficient) list of each twisted raising Serre sum."""

    def serre_terms(params, i, j, r, kind):
        terms = _serre_terms(params, i, j, r, kind)
        twisted = params.untwisted() is not params
        return edit(params, i, terms) if kind == "E" and twisted else terms

    return serre_terms


def _without_top(params, i, terms):
    """The Serre sum with its top word dropped."""
    top = max((steps for steps, _ in terms), key=word_key)
    return [(steps, c) for steps, c in terms if steps != top]


def _middle_scaled(params, i, terms):
    """The Serre sum with its middle word's coefficient times q_i."""
    words = sorted((steps for steps, _ in terms), key=word_key)
    mid = words[len(words) // 2]
    return [(steps, c * params.rat(params.q(i)) if steps == mid else c) for steps, c in terms]


def _run_hopf_a2():
    rd = rootdata.builtin("a2")
    return verify_hopf(rd, ParameterSet.v_tied(rd.cartan), nmax=3)


def test_hopf_clean_control():
    rep = _run_hopf_a2()
    assert rep.summary == {"pass": 80, "fail": 0, "warn": 0}


@pytest.mark.parametrize(
    "module, name, defect, failures, families",
    [
        (hopf, "antipode",
         _antipode_with_e_image(lambda p, i: NCExpr.word(p, (("Kinv", i), ("E", i)))),
         6, {"antipode-c", "hopf-axiom"}),
        (hopf, "antipode",
         _antipode_with_e_image(lambda p, i: NCExpr.word(p, (("K", i), ("E", i)), -1)),
         10, {"antipode-c", "antipode-serre", "hopf-axiom"}),
        (hopf, "_delta_symbol", _delta_e_with_kp, 12, {"coprod-pow", "coprod-serre", "hopf-axiom"}),
        (presentations, "_serre_terms", _twisted_raising_serre(_without_top),
         4, {"coprod-serre", "antipode-serre"}),
        # a symmetric error in the Serre sum: S(R) is still a multiple of R,
        # so only the coproduct check sees it
        (presentations, "_serre_terms", _twisted_raising_serre(_middle_scaled),
         2, {"coprod-serre"}),
    ],
    ids=["antipode-E-sign-flipped", "antipode-E-K-not-inverted", "delta-E-Kp-for-K",
         "serre-top-word-dropped", "serre-middle-coefficient-scaled"],
)
def test_seeded_hopf_defect_is_rejected(monkeypatch, module, name, defect, failures, families):
    monkeypatch.setattr(module, name, defect)
    rep = _run_hopf_a2()
    assert rep.summary == {"pass": 80 - failures, "fail": failures, "warn": 0}
    assert {c.family for c in rep.failures()} == families
    assert all(c.witness for c in rep.failures())


def _delta_k_with_kp(ctx, sym):
    """Delta(K_i) = K_i x Kp_i: K_i no longer group-like."""
    if sym[0] != "K":
        return _delta_symbol(ctx, sym)
    p = ctx.params
    return TensorExpr(p, 2, {((sym,), (("Kp", sym[1]),)): p.one()})


def test_non_group_like_k_fails_coassociativity(monkeypatch):
    """The coassociativity records reject a defect: with K_i x Kp_i for
    Delta(K_i), Delta(E_i) = E_i x 1 + K_i x E_i is no longer coassociative,
    and the counit and antipode axioms fail on K_i."""
    monkeypatch.setattr(hopf, "_delta_symbol", _delta_k_with_kp)
    rep = _run_hopf_a2()
    assert rep.summary == {"pass": 72, "fail": 8, "warn": 0}
    assert collections.Counter(c.family for c in rep.failures()) == {
        "hopf-axiom": 4, "coassoc": 2, "counit": 2}
    assert rep.failures()[0].id == "coassoc:E1"


def test_hopf_witness_shows_both_sides(monkeypatch):
    """With Kp_i for K_i in Delta(E_i), each coprod-pow failure names the first
    differing tensor and both of its coefficients."""
    monkeypatch.setattr(hopf, "_delta_symbol", _delta_e_with_kp)
    rep = _run_hopf_a2()
    witnesses = {c.id: c.witness for c in rep.failures() if c.family == "coprod-pow"}
    assert witnesses == {
        "coprod-pow:i%d:n%d" % (i, n): "%s (x) %s: lhs 0, rhs 1"
        % ("*".join(["K%d" % i] * n), "*".join(["E%d" % i] * n))
        for i in (1, 2)
        for n in (1, 2, 3)
    }


def _counit_kp_zero(ctx, x):
    """hopf.counit with every word that contains a Kp taken to 0, not 1."""
    out = ctx.params.rat(0)
    for word, coeff in x.terms.items():
        if all(kind not in ("E", "F", "Kp") for kind, _ in word):
            out = out + coeff
    return out


def test_counit_witness_shows_both_sides(monkeypatch):
    """A counit with eps(Kp_i) = 0 breaks the counit law on F_i (whose
    coproduct has a Kp_i slot) and Kp_i, and the antipode axiom on Kp_i, whose
    target is eps(Kp_i); each counit witness names the word and both sides."""
    monkeypatch.setattr(hopf, "counit", _counit_kp_zero)
    rep = _run_hopf_a2()
    assert rep.summary == {"pass": 72, "fail": 8, "warn": 0}
    witnesses = {c.id: c.witness for c in rep.failures()}
    assert {k: w for k, w in witnesses.items() if k.startswith("counit:")} == {
        "counit:%s%d" % (g, i): "%s%d: lhs 0, rhs 1" % (g, i)
        for g in ("F", "Kp") for i in (1, 2)
    }
    assert {k for k in witnesses if not k.startswith("counit:")} == {
        "hopf-S-%s:Kp%d" % (side, i) for side in ("left", "right") for i in (1, 2)}


def _kp_e_scaled_relations(algebra, rd, params, window=None):
    """relations_of with the E1 term of the family-b instance Kp_1 E_1 Kp_1^-1
    - c E_1 times q_1: a wrong scalar in the presentation itself."""
    out = []
    for inst in relations_of(algebra, rd, params, window):
        if (inst.family, inst.i, inst.j, inst.part) == ("b", 0, 0, "Kp-E"):
            terms = dict(inst.expr.terms)
            terms[(("E", 0),)] = terms[(("E", 0),)] * params.rat(params.q(0))
            inst = dataclasses.replace(inst, expr=NCExpr(params, terms))
        out.append(inst)
    return out


def test_wrong_scru_relation_fails_hopf_and_modules(monkeypatch):
    """The Hopf and module campaigns read the one scrU presentation, so a wrong
    family-b scalar in it fails exactly that instance in both."""
    monkeypatch.setattr(hopf, "relations_of", _kp_e_scaled_relations)
    monkeypatch.setattr(repcheck, "relations_of", _kp_e_scaled_relations)
    rep = _run_hopf_a2()
    assert rep.summary == {"pass": 79, "fail": 1, "warn": 0}
    (rec,) = rep.failures()
    assert rec.id == "antipode-b:Kp-E:i1:j1"
    assert rec.witness.startswith("Kinv1*E1: lhs ") and rec.witness.endswith(", rhs 0")

    rep = verify_transported_modules("generic", max_n=1)
    assert [c.id for c in rep.failures()] == [
        "sl2-string-n1+twist:b:i1:j1:Kp-E", "sl3-natural+twist:b:i1:j1:Kp-E"]
    assert all(c.witness.startswith("entry (") for c in rep.failures())


def _k_part_scaled_relations(algebra, rd, params, window=None):
    """relations_of with the K-part K_i - K'_i of each scrU mixed relation
    c_ii times q_i: a wrong factor in the integral form
    (q_i - q_i^-1)(E_i F_i - c F_i E_i) - (K_i - K'_i)."""
    out = []
    for inst in relations_of(algebra, rd, params, window):
        if algebra == "scrU" and inst.family == "c" and inst.i == inst.j:
            q = params.rat(params.q(inst.i))
            terms = {w: c * q if w and w[0][0] not in ("E", "F") else c
                     for w, c in inst.expr.terms.items()}
            inst = dataclasses.replace(inst, expr=NCExpr(params, terms))
        out.append(inst)
    return out


@pytest.mark.parametrize("case", ["generic", "super1"])
def test_wrong_mixed_relation_factor_fails_modules(monkeypatch, case):
    """The module matrices see a K-part off by q_i in every c_ii instance.
    The Hopf campaign does not: S takes E_i F_i - c F_i E_i and K_i - K'_i
    to the same K-monomial multiple of themselves, so S(R) is a multiple of
    R = a(E_i F_i - c F_i E_i) - b(K_i - K'_i) whatever a and b are, and
    antipode-c cannot see a relative rescaling of the K-part."""
    monkeypatch.setattr(hopf, "relations_of", _k_part_scaled_relations)
    monkeypatch.setattr(repcheck, "relations_of", _k_part_scaled_relations)
    assert _run_hopf_a2().summary == {"pass": 80, "fail": 0, "warn": 0}

    rep = verify_transported_modules(case, max_n=3)
    assert rep.summary == {"pass": 87, "fail": 5, "warn": 0}
    assert [c.id for c in rep.failures()] == [
        "sl2-string-n1+twist:c:i1:j1", "sl2-string-n2+twist:c:i1:j1",
        "sl2-string-n3+twist:c:i1:j1", "sl3-natural+twist:c:i1:j1",
        "sl3-natural+twist:c:i2:j2"]
    assert all(c.witness.startswith("entry (") for c in rep.failures())


class _RaisingAtStart(TwistScalars):
    """transport divides E_i|M_lam by e(i, lam+alpha_i); this wrapper hands it
    e(i, lam), the rescaling at the starting weight instead of the landing one."""

    def e(self, i, lam):
        return super().e(i, self.rd.add_root(lam, i, -1))


def _module_case(name):
    """(base module, its parameters, scrU instances) for a1 n=3 or the a2 natural module."""
    rd = rootdata.builtin(name)
    p = ParameterSet.v_tied(rd.cartan)
    base = sl2_string_module(3, rd, p) if name == "a1" else sl3_natural_module(rd, p)
    return base, p, relations_of("scrU", rd, p)


@pytest.mark.parametrize("name, records", [("a1", 11), ("a2", 42)], ids=["a1", "a2"])
def test_module_clean_control(name, records):
    base, p, rels = _module_case(name)
    rep = verify_module(transport(base, TwistScalars(base.rd, p)), rels)
    assert rep.summary == {"pass": records, "fail": 0, "warn": 0}


@pytest.mark.parametrize(
    "name, defect, failures, families",
    [
        ("a1", "K", 5, {"a", "b", "c"}),
        ("a1", "Kp", 5, {"a", "b", "c"}),
        ("a1", "F", 1, {"c"}),
        ("a1", "raising-at-start", 1, {"c"}),
        ("a2", "K", 7, {"a", "b", "c"}),
        ("a2", "Kp", 7, {"a", "b", "c"}),
        ("a2", "F", 1, {"c"}),
        ("a2", "raising-at-start", 2, {"c"}),
    ],
    ids=["a1-K", "a1-Kp", "a1-F", "a1-raising-at-start",
         "a2-K", "a2-Kp", "a2-F", "a2-raising-at-start"],
)
def test_seeded_module_defect_is_rejected(name, defect, failures, families):
    """corrupt(kind, i=1, v) on the transported module, or the raising action
    rescaled at the wrong weight by transport itself."""
    base, p, rels = _module_case(name)
    if defect == "raising-at-start":
        mod = transport(base, _RaisingAtStart(base.rd, p))
    else:
        mod = corrupt(transport(base, TwistScalars(base.rd, p)), defect, 0, p.v())
    rep = verify_module(mod, rels)
    assert rep.summary == {"pass": len(rels) - failures, "fail": failures, "warn": 0}
    assert {c.family for c in rep.failures()} == families
    assert all(c.witness.startswith("entry (") for c in rep.failures())


def _qint_one_too_big(self, n, i):
    """ParameterSet.qint_q giving [n+1] for n > 1."""
    return qint_signed(n + 1 if n > 1 else n, self.q(i))


def test_wrong_string_entries_fail_the_modules_report(monkeypatch, tmp_path):
    """With no run-time U check behind the string rule, a wrong E/F entry is a
    FAIL of the report, with a witness, not an internal error: [n+1] for [n]
    breaks the mixed relation of the string modules with a [2] or [3] entry."""
    monkeypatch.setattr(ParameterSet, "qint_q", _qint_one_too_big)
    out = tmp_path / "report.json"
    code = main(["verify-modules", "--case", "generic", "--max-n", "3",
                 "--format", "json", "--out", str(out)])
    assert code == 1
    failed = [c for c in json.loads(out.read_text())["checks"] if c["status"] == "fail"]
    assert [c["id"] for c in failed] == [
        "sl2-string-n2+twist:c:i1:j1", "sl2-string-n3+twist:c:i1:j1"]
    assert all(c["witness"].startswith("entry (") for c in failed)


# -- specialization defects ------------------------------------------------------

_specialize = specializations._specialize


def _t_transposed(name, rd, v, s, t, constraints, meta):
    """t'_ji as the image of t_ij, after the case has checked its constraints."""
    return _specialize(name, rd, v, s, [list(col) for col in zip(*t)], constraints, meta)


def _s12_negated(name, rd, v, s, t, constraints, meta):
    """-s'_12 as the image of s_12: the other square-root sign."""
    s = [list(row) for row in s]
    s[0][1] = -s[0][1]
    return _specialize(name, rd, v, s, t, constraints, meta)


# case -> (records of verify_specialization on a2 box 1, of which WARN)
SPECIAL_RECORDS = {"two-param": (59, 0), "multi-param": (60, 0), "super1": (120, 0),
                   "super2": (62, 20)}


def _run_special_a2(case):
    rd = rootdata.builtin("a2")
    spec = specializations.make(case, rd)
    window = rd.weights_box(1)
    return (specializations.verify_specialization(spec, window),
            specializations.apply_to_isomorphism(spec, window))


@pytest.mark.parametrize("case", list(SPECIAL_RECORDS))
def test_special_clean_control(case):
    rep, iso = _run_special_a2(case)
    records, warns = SPECIAL_RECORDS[case]
    assert rep.summary == {"pass": records - warns, "fail": 0, "warn": warns}
    assert iso.summary == {"pass": 459, "fail": 0, "warn": 0}


@pytest.mark.parametrize(
    "case, defect, failures, families, first",
    [
        ("two-param", _t_transposed, 36, {"ctable"},
         ("ctable:i1:lam(-1,-1,-1)", "computed 1, expected t^2")),
        ("multi-param", _t_transposed, 36, {"ctable"},
         ("ctable:i1:lam(-1,-1,-1)", "computed 1, expected v^-2*q12^-2")),
        ("super1", _t_transposed, 72, {"ctable", "csquare"},
         ("csquare:i1:lam(-1,-1,-1)", "c^2 = th12^-4")),
        ("super2", _t_transposed, 22, {"ctable"},
         ("ctable:i1:lam(-1,-1,-1)", "computed v^2*th12^-2, expected 1")),
        ("two-param", _s12_negated, 12, {"ctable"},
         ("ctable:i1:lam(-1,0,-1)", "computed -t, expected t")),
        ("multi-param", _s12_negated, 12, {"ctable"},
         ("ctable:i1:lam(-1,0,-1)", "computed -v^-1*q12^-1, expected v^-1*q12^-1")),
        ("super1", _s12_negated, 12, {"ctable"},
         ("ctable:i1:lam(-1,0,-1)", "computed -g1, expected g1")),
        ("super2", _s12_negated, 12, {"ctable"},
         ("ctable:i1:lam(-1,0,-1)", "computed -v^-1, expected v^-1")),
    ],
    ids=["two-param-t-transposed", "multi-param-t-transposed", "super1-t-transposed",
         "super2-t-transposed", "two-param-s12-negated", "multi-param-s12-negated",
         "super1-s12-negated", "super2-s12-negated"],
)
def test_seeded_special_defect_is_rejected(monkeypatch, case, defect, failures, families, first):
    """A wrong image of s or t leaves every constraint record and the whole
    special-iso campaign passing, as the isomorphism holds for any s and t:
    only the c-table records tell the wrong case apart, each with a witness."""
    monkeypatch.setattr(specializations, "_specialize", defect)
    rep, iso = _run_special_a2(case)
    records, warns = SPECIAL_RECORDS[case]
    assert rep.summary == {"pass": records - warns - failures, "fail": failures, "warn": warns}
    assert {c.family for c in rep.failures()} == families
    assert all(c.witness for c in rep.failures())
    assert (rep.failures()[0].id, rep.failures()[0].witness) == first
    assert iso.summary == {"pass": 459, "fail": 0, "warn": 0}
