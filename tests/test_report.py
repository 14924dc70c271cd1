"""Report serialization: to_json writes json.dumps(to_dict(), indent=2,
sort_keys=True) from fixed record templates, and to_dict stays the contract
it is compared against, on hand-made reports and on random ones."""

import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtwist.report import FAIL, PASS, WARN, CheckRecord, Report


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


# any code point, surrogates included, with the ones JSON escapes drawn often
_text = st.text(st.one_of(
    st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028\U0001d53d'),
    st.characters(exclude_categories=()),
), max_size=6)
_index = st.none() | st.integers()
# short lists of small values repeat within a report, as window weights do
_lam = st.none() | st.lists(st.integers(-2, 0), max_size=3).map(tuple) | (
    st.lists(st.integers(), max_size=4).map(tuple))
_record = st.builds(
    CheckRecord, _text, _text, _index, _index, _lam,
    st.sampled_from((PASS, FAIL, WARN)) | _text, _text, _text,
)
_report = st.builds(
    Report, _text, _text, _text, st.lists(_record, max_size=5), st.integers(min_value=0),
)


@settings(deadline=None)
@given(_report, st.booleans())
def test_to_json_matches_json_dumps_on_random_reports(rep, include_timing):
    want = json.dumps(rep.to_dict(include_timing), indent=2, sort_keys=True)
    assert rep.to_json(include_timing) == want


def test_finalize_sets_the_elapsed_time_and_merge_adds_none(monkeypatch):
    """finalize reads the wall time since the report was made; a merged
    report ran inside that span, so merge takes its checks and no time."""
    clock = iter([10.0, 10.5, 11.0, 12.25])
    monkeypatch.setattr(time, "monotonic", lambda: next(clock))
    outer, inner = Report("iso"), Report("integrality")
    inner.add(CheckRecord("dp-unit:E"))
    assert inner.finalize().elapsed_ms == 500
    outer.merge(inner)
    assert outer.elapsed_ms == 0 and [c.id for c in outer.checks] == ["dp-unit:E"]
    assert outer.finalize().elapsed_ms == 2250
