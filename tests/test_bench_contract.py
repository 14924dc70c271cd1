"""The benchmark's per-layer metrics read names of the program: functions and
methods it wraps, and attributes its observers read.  A refactor that
renames one leaves the metric out of a traced run, so this test traces one
small campaign of each kind the benchmark runs and requires every per-layer
metric of BENCHMARK.json to come out.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import metrics  # noqa: E402
import tracer  # noqa: E402
from qtwist import cli  # noqa: E402

CAMPAIGNS = [
    ("verify-iso", "--root-datum", "a1", "--lambda-box", "1"),
    ("verify-hopf", "--root-datum", "a2", "--nmax", "2"),
    ("verify-special", "--case", "two-param", "--with-iso", "--root-datum", "a1",
     "--lambda-box", "1"),
    ("verify-modules", "--max-n", "1"),
]


def test_traced_campaigns_give_every_per_layer_metric(tmp_path):
    out = str(tmp_path / "report.json")
    dumps = []
    for argv in CAMPAIGNS:
        t = tracer.Tracer(argv[0]).install()
        try:
            # through the module, so that the wrapped cli.main is the one called
            rc = cli.main([*argv, "--format", "json", "--stable", "--out", out])
        finally:
            t.uninstall()
        assert rc == 0, argv
        dumps.append(t.dump())
    values, missing = metrics.per_layer(tracer.merge(dumps), 1.0)
    assert missing == []
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    assert [name for name in names if name not in values] == []
    assert values["report.checks"] > 0 and values["presentations.instances"] > 0
