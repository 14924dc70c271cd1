"""Self-tests of the campaign benchmark: seeded inputs, the correctness
gate, the tracer's behaviour when a traced name is gone, and metric names.

Run with ``python3 -m pytest bench/tests``.
"""

import json
import os
import re
import time

import pytest

import metrics
import run
import tracer
import workloads
from qtwist import cli, rootdata

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _checks(tmp_path, *argv):
    out = tmp_path / "report.json"
    assert cli.main([*argv, "--format", "json", "--stable", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    return sum(report["summary"].values()), report


@pytest.mark.parametrize("name", sorted(workloads.BASE_DATA))
def test_base_data_are_the_builtins(name):
    rd = rootdata.builtin(name)
    base = workloads.BASE_DATA[name]
    as_lists = lambda rows: [list(r) for r in rows]
    assert base["dot"] == as_lists(rd.cartan.dot)
    assert base["alpha"] == as_lists(rd.alpha)
    assert base["coroot"] == as_lists(rd.coroot)
    assert base["coweight"] == as_lists(rd.coweight)


@pytest.mark.parametrize("name", sorted(workloads.BASE_DATA))
def test_relabelled_datum_validates_and_keeps_check_counts(name, tmp_path):
    want, base_report = _checks(tmp_path, "verify-iso", "--root-datum", name, "--lambda-box", "1")
    relabelled = set()
    for seed in range(1, 7):
        data = workloads.relabel(name, seed)
        rootdata.from_dict(data)  # raises DatumError when invalid
        relabelled.add(json.dumps(data, sort_keys=True))
        path = tmp_path / ("%s-%d.json" % (name, seed))
        path.write_text(json.dumps(data))
        got, report = _checks(tmp_path, "verify-iso", "--root-datum", str(path), "--lambda-box", "1")
        assert got == want
        assert report["summary"] == base_report["summary"]
    assert len(relabelled) > 1, "the seeds never changed the labelling"


def test_seed_zero_uses_builtin_names_and_others_use_files():
    for workload in workloads.WORKLOADS:
        for camp in workloads.build(workload, 0):
            assert not camp.files
            assert "--jobs" not in camp.argv
        for camp in workloads.build(workload, 5):
            assert "--jobs" not in camp.argv
            for fname in camp.files:
                assert fname in camp.argv
    assert workloads.build("iso", 3) == workloads.build("iso", 3)
    assert workloads.build("iso", 3) != workloads.build("iso", 0)


def test_super1_choices_are_valid_flags():
    for seed in range(1, 6):
        flags = workloads.super1_choices(2, seed)
        order, signs = flags[1], flags[3]
        assert cli._parse_order(order, 2) is not None
        assert set(cli._parse_signs(signs)) == {(i, j) for i in range(2) for j in range(2)}
    assert workloads.super1_choices(2, 0) == []


def _rec(**kw):
    rec = {"error": "", "rc": 0, "digest": "d1", "fail": 0, "checks": 10}
    rec.update(kw)
    return rec


def test_gate_passes_a_clean_run():
    assert run.gate(_rec(), None, None) == ""
    assert run.gate(_rec(), "d1", 10) == ""


def test_gate_flags_exit_code_digest_and_counts():
    assert "exit code 3" in run.gate(_rec(rc=3), None, None)
    assert "does not parse" in run.gate(_rec(digest=None), None, None)
    assert "checks failed" in run.gate(_rec(fail=2), None, None)
    assert "SHA-256 differs" in run.gate(_rec(digest="d2"), "d1", None)
    assert "seed 0 has 11" in run.gate(_rec(), "d1", 11)
    assert run.gate(_rec(error="timed out"), None, None) == "timed out"


def test_gate_flags_a_real_nonzero_exit_and_a_changed_report(tmp_path):
    bench = run.Bench(str(tmp_path), limit=time.perf_counter() + 120)
    bad = workloads.Campaign("bad", ("verify-iso", "--root-datum", "nosuch"))
    rec = bench.run(bad, 0)
    assert rec["rc"] == 3 and "exit code 3" in rec["gate"]

    ok = workloads.Campaign("iso/a1", ("verify-iso", "--root-datum", "a1", "--lambda-box", "1"))
    first = bench.run(ok, 0)
    assert first["gate"] == "" and first["setup_s"] > 0 and first["checks"] > 0
    # the same campaign name and seed with other output: the digest gate must fire
    changed = workloads.Campaign("iso/a1", ("verify-iso", "--root-datum", "a1", "--lambda-box", "0"))
    assert "SHA-256 differs" in bench.run(changed, 0)["gate"]
    assert len(bench.failures) == 2


HOPF = ("verify-hopf", "--root-datum", "a1", "--nmax", "3")
ISO = ("verify-iso", "--root-datum", "a1", "--lambda-box", "1")


def _traced(t, argv):
    t.install()
    try:
        assert cli.main([*argv, "--format", "json", "--stable", "--out", os.devnull]) == 0
    finally:
        t.uninstall()
    return t.dump()


def test_tracer_rebinds_imported_names_and_restores_them():
    from qtwist import presentations, repcheck, twistmap

    original = presentations.relations_of
    t = tracer.Tracer("t").install()
    try:
        assert twistmap.relations_of is presentations.relations_of is repcheck.relations_of
        assert twistmap.relations_of is not original
    finally:
        t.uninstall()
    assert twistmap.relations_of is original and presentations.relations_of is original


def test_traced_call_counts_repeat_exactly():
    a, b = _traced(tracer.Tracer("a"), HOPF), _traced(tracer.Tracer("b"), HOPF)
    calls = lambda d: {k: v[0] for k, v in d["stats"].items()}
    assert calls(a) == calls(b)
    assert calls(a)["coeffring.LaurentPoly.__mul__"] > 0
    assert a["counters"] == b["counters"]
    assert a["missing"] == []
    spans = a["spans"]
    assert spans[0][3] == "cli.main" and spans[0][2] is None
    assert all(s[5] >= s[4] for s in spans)


def test_missing_traced_name_is_reported_not_fatal(monkeypatch):
    from qtwist import ncalg

    # a refactor that removes TensorExpr.straighten (not used by verify-iso) and
    # a whole module, and an observer whose cache attribute was renamed
    monkeypatch.delattr(ncalg.TensorExpr, "straighten")
    broken_probe = ("gone",) + tracer._cache_probe("_no_such_cache")
    observers = dict(tracer.OBSERVERS, **{"twistmap.TwistMap.forward": broken_probe})
    t = tracer.Tracer("t", layers=tracer.LAYERS + ("no_such_module",), observers=observers)
    dump = _traced(t, ISO)
    assert "no_such_module" in dump["missing"]
    assert "ncalg.TensorExpr.straighten" in dump["missing"]
    assert "twistmap.TwistMap.forward" in dump["missing"]  # its observer broke, calls went on
    assert dump["stats"]["twistmap.TwistMap.forward"][0] > 0

    values, missing = metrics.per_layer(tracer.merge([dump]), 1.5)
    assert "ncalg.TensorExpr.straighten.total_s" in missing
    assert "ncalg.max_tensor_terms" in missing
    assert not set(missing) & set(values)
    assert values["coeffring.LaurentPoly.__mul__.calls"] > 0
    assert values["trace.overhead_ratio"] == 1.5


def test_metric_names_and_benchmark_json_agree():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for row in metrics.END_TO_END + metrics.PER_LAYER:
        assert NAME.match(row[0]), row[0]
    e2e = [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    assert e2e == [tuple(r) for r in metrics.END_TO_END]
    layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert layer == [r[:3] for r in metrics.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert all(w["why"] == workloads.WORKLOADS[w["name"]] for w in spec["workloads"])
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"] + spec["workloads"]]
    assert len(names) == len(set(names))
