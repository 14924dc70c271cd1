"""Report serialization: to_json lays out json.dumps(indent=2) by hand."""

import json

import pytest

from qtwist.report import FAIL, WARN, CheckRecord, Report


def _empty():
    return Report("iso")


def _mixed():
    rep = Report("modules", datum="a1+a2", case='gen"eric', elapsed_ms=17)
    rep.add(CheckRecord("a:none"))
    rep.add(CheckRecord("b:i1:j2", "b", 0, 1, (0, -1), scalar="v^2*s12^-1"))
    rep.add(CheckRecord("c:empty-lambda", "c", 1, None, (), status=WARN))
    rep.add(CheckRecord("d:quote", "d-E", None, 0, (3,), status=FAIL,
                        witness='entry (0,1) = "v" \\ 2\nnext line'))
    rep.add(CheckRecord("d:unicode", "d-F", 2, 2, None, status=FAIL,
                        witness="λ = ϖ₁ ≠ 0 \U0001d53d \x7f \x01"))
    return rep.finalize()


@pytest.mark.parametrize("include_timing", [True, False])
@pytest.mark.parametrize("make", [_empty, _mixed], ids=["empty", "mixed"])
def test_to_json_is_indented_json_dumps(make, include_timing):
    rep = make()
    want = json.dumps(rep.to_dict(include_timing), indent=2, sort_keys=True)
    assert rep.to_json(include_timing) == want
