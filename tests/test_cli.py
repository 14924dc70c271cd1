"""Subcommands, exit codes, report formats, and determinism."""

import argparse
import json
import os
import re
import subprocess
import sys
import time

import pytest

from qtwist.cli import build_parser, main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_qcalc_qbinom(capsys):
    code, out, _ = run(capsys, "qcalc", "qbinom", "4", "2")
    assert code == 0
    assert "coefficient sum: 6" in out


def test_qcalc_gauss(capsys):
    code, out, _ = run(capsys, "qcalc", "gauss", "6")
    assert code == 0
    assert out.strip() == "0"


QBINOM_12_5 = (
    "v^35 + v^33 + 2*v^31 + 3*v^29 + 5*v^27 + 7*v^25 + 10*v^23 + 13*v^21 + 17*v^19"
    " + 21*v^17 + 26*v^15 + 30*v^13 + 35*v^11 + 39*v^9 + 43*v^7 + 46*v^5 + 48*v^3"
    " + 49*v + 49*v^-1 + 48*v^-3 + 46*v^-5 + 43*v^-7 + 39*v^-9 + 35*v^-11 + 30*v^-13"
    " + 26*v^-15 + 21*v^-17 + 17*v^-19 + 13*v^-21 + 10*v^-23 + 7*v^-25 + 5*v^-27"
    " + 3*v^-29 + 2*v^-31 + v^-33 + v^-35\n"
    "coefficient sum: 792\n"
)


def test_qcalc_printed_lines_are_pinned(capsys):
    # the lines printed when [12, 5] was still computed as [12]! / ([5]! [7]!)
    assert run(capsys, "qcalc", "qbinom", "12", "5") == (0, QBINOM_12_5, "")
    assert run(capsys, "qcalc", "gauss", "12") == (0, "0\n", "")


def test_verify_iso_text(capsys):
    code, out, _ = run(capsys, "verify-iso", "--root-datum", "a1", "--lambda-box", "1")
    assert code == 0
    assert "summary:" in out and "0 fail" in out


def test_verify_iso_json_schema(capsys):
    code, out, _ = run(
        capsys, "verify-iso", "--root-datum", "a1", "--lambda-box", "1",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"campaign", "datum", "case", "engine", "checks", "summary", "elapsed_ms"}
    assert data["summary"]["fail"] == 0
    rec = data["checks"][0]
    assert {"id", "family", "i", "j", "lambda", "status", "scalar"} <= set(rec)


def test_verify_special_super1(capsys):
    code, out, _ = run(
        capsys, "verify-special", "--case", "super1", "--root-datum", "a1",
        "--lambda-box", "1",
    )
    assert code == 0
    assert "csquare" in out


def test_verify_special_with_omega_file(tmp_path, capsys):
    omega = tmp_path / "omega.json"
    omega.write_text("[[1, -1], [0, 1]]", encoding="utf-8")
    code, out, _ = run(
        capsys, "verify-special", "--case", "two-param", "--root-datum", "a2",
        "--lambda-box", "1", "--omega", str(omega),
    )
    assert code == 0


def test_verify_special_bad_omega_exit(tmp_path, capsys):
    """A matrix that breaks condition (a), and a JSON null, which is no matrix."""
    omega = tmp_path / "omega.json"
    for text, message in (("[[1, 1], [1, 1]]", "(a)"), ("null", "omega must be 2 x 2")):
        omega.write_text(text, encoding="utf-8")
        code, _, err = run(
            capsys, "verify-special", "--case", "two-param", "--root-datum", "a2",
            "--omega", str(omega),
        )
        assert code == 3, text
        assert "invalid configuration" in err
        assert message in err, text


def test_verify_special_non_integer_omega_exit(tmp_path, capsys):
    omega = tmp_path / "omega.json"
    omega.write_text('[[1, "x"], [0, 1]]', encoding="utf-8")
    code, _, err = run(
        capsys, "verify-special", "--case", "two-param", "--root-datum", "a2",
        "--omega", str(omega),
    )
    assert code == 3
    assert "omega entries must be integers" in err


def test_verify_special_order_and_signs(capsys):
    code, _, _ = run(
        capsys, "verify-special", "--case", "super1", "--root-datum", "a2",
        "--lambda-box", "1", "--order", "2,1", "--signs", "1,2,-1",
    )
    assert code == 0


def test_verify_modules(capsys):
    code, out, _ = run(capsys, "verify-modules", "--max-n", "2")
    assert code == 0
    assert "sl3-natural" in out


def test_verify_hopf(capsys):
    code, out, _ = run(capsys, "verify-hopf", "--root-datum", "a1", "--nmax", "3")
    assert code == 0


def test_validate_datum_ok(tmp_path, capsys):
    from qtwist import rootdata

    rd = rootdata.builtin("b2")
    path = tmp_path / "b2.json"
    path.write_text(
        json.dumps(
            {
                "I_size": rd.n,
                "dot": [list(r) for r in rd.cartan.dot],
                "X_rank": rd.x_rank,
                "alpha": [list(r) for r in rd.alpha],
                "coroot": [list(r) for r in rd.coroot],
                "coweight": [list(r) for r in rd.coweight],
            }
        ),
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "validate-datum", str(path))
    assert code == 0 and "ok" in out


def test_validate_datum_rejects(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "I_size": 1, "dot": [[2]], "X_rank": 1,
                "alpha": [[2]], "coroot": [[1]], "coweight": [[1]],
            }
        ),
        encoding="utf-8",
    )
    code, _, err = run(capsys, "validate-datum", str(path))
    assert code == 3
    assert "coweight" in err


A2_DATUM = {
    "I_size": 2, "dot": [[2, -1], [-1, 2]], "X_rank": 3,
    "alpha": [[1, -1, 0], [0, 1, -1]], "coroot": [[1, -1, 0], [0, 1, -1]],
    "coweight": [[1, 0, 0], [1, 1, 0]],
}


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"dot": [[2, -1.5], [-1.5, 2]]}, "entries must be integers"),
        ({"I_size": 2.9, "X_rank": "3", "alpha": [[True, -1, 0], [0, 1, -1]]},
         "entries must be integers"),
        ({"dot": [[2, -1], [-1]]}, "dot matrix row 1 has wrong length"),
        ({"dot": [[0, 0], [0, 2]]}, "i.i must be a positive even integer"),
        ({"pairing": [[1, 0], [0, 1], [0, 0]]}, "pairing must be 3 x 3"),
        ({"dot": [[2, -17], [-17, 2]]}, "|a_ij| must be at most 16"),
    ],
    ids=["half-integer-dot", "float-string-bool", "ragged-dot", "zero-diagonal", "pairing-3x2",
         "a12=-17"],
)
def test_bad_datum_entries_are_invalid_configuration(tmp_path, capsys, changes, message):
    """Each entry must be an int (-1.5, 2.9, "3" and true are refused, not
    truncated to the a2 datum), and a bad dot matrix is reported before the
    pairings that read it are checked."""
    path = tmp_path / "a2.json"
    path.write_text(json.dumps(dict(A2_DATUM, **changes)), encoding="utf-8")
    for argv in (("validate-datum", str(path)),
                 ("verify-iso", "--root-datum", str(path), "--lambda-box", "0")):
        code, out, err = run(capsys, *argv)
        assert code == 3, argv
        assert "invalid configuration" in err and message in err and out == ""
    path.write_text(json.dumps(A2_DATUM), encoding="utf-8")
    assert run(capsys, "validate-datum", str(path))[0] == 0


# one node in a rank-2 lattice whose pairing Y x X -> Z is not perfect: every
# <coroot, alpha> and <coweight, alpha> holds, but the pairing has det 2 or 0
IMPERFECT_PAIRINGS = {
    "det-2": {"I_size": 1, "dot": [[2]], "X_rank": 2, "alpha": [[0, 1]], "coroot": [[0, 2]],
              "coweight": [[0, 1]], "pairing": [[2, 0], [0, 1]]},
    "det-0": {"I_size": 1, "dot": [[2]], "X_rank": 2, "alpha": [[1, 0]], "coroot": [[2, 0]],
              "coweight": [[1, 0]], "pairing": [[1, 0], [0, 0]]},
}


@pytest.mark.parametrize("name", sorted(IMPERFECT_PAIRINGS))
def test_imperfect_pairing_is_invalid_configuration(tmp_path, capsys, name):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(IMPERFECT_PAIRINGS[name]), encoding="utf-8")
    for argv in (("validate-datum", str(path)),
                 ("verify-iso", "--root-datum", str(path), "--lambda-box", "0")):
        code, out, err = run(capsys, *argv)
        assert code == 3, argv
        assert "pairing Y x X -> Z is not perfect" in err and out == ""


# regular data whose entries are too large for the engine's exponents: d_1 =
# 2^39, a coweight form entry 2^32, and d_1 and a coroot form entry just
# below 2^16; each loaded and then failed inside verify-iso as a RingError
OVERSIZED_DATA = {
    "dot-2^40": {"I_size": 1, "dot": [[2**40]], "X_rank": 1, "alpha": [[1]], "coroot": [[2]],
                 "coweight": [[1]]},
    "coweight-2^32": {"I_size": 1, "dot": [[2]], "X_rank": 2, "alpha": [[1, -1]],
                      "coroot": [[1, -1]], "coweight": [[2**32, 2**32 - 1]]},
    "coroot-65000": {"I_size": 1, "dot": [[65534]], "X_rank": 2, "alpha": [[1, -1]],
                     "coroot": [[65000, 64998]], "coweight": [[1, 0]]},
}


@pytest.mark.parametrize("name", sorted(OVERSIZED_DATA))
def test_oversized_datum_is_invalid_configuration(tmp_path, capsys, name):
    """A datum past rootdata.ENTRY_BOUND is refused when it is loaded, by
    every subcommand that reads it, never reported as an internal error."""
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(OVERSIZED_DATA[name]), encoding="utf-8")
    for argv in (("validate-datum", str(path)),
                 ("verify-iso", "--root-datum", str(path), "--lambda-box", "1"),
                 ("verify-hopf", "--root-datum", str(path))):
        code, out, err = run(capsys, *argv)
        assert code == 3, argv
        assert "invalid configuration" in err and "below 1024" in err and out == ""
        assert "internal error" not in err


def test_window_past_the_bound_is_invalid_configuration(tmp_path, capsys):
    """A weight window of more than rootdata.WINDOW_BOUND weights is refused at
    once, before any weight is built: a zero-node file with X_rank 20 under
    the default --lambda-box 2 (5^20 weights), and a2 at --lambda-box 10000."""
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"I_size": 0, "dot": [], "X_rank": 20, "alpha": [], "coroot": [],
                                "coweight": []}), encoding="utf-8")
    for argv, shown in (
        (("verify-iso", "--root-datum", str(path)), "[-2, 2]^20 has 5^20"),
        (("verify-iso", "--root-datum", "a2", "--lambda-box", "10000"), "[-10000, 10000]^3 has 20001^3"),
        (("verify-special", "--case", "two-param", "--root-datum", "a2", "--lambda-box", "10000"),
         "[-10000, 10000]^3 has 20001^3"),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1, argv
        assert (code, out) == (3, ""), argv
        assert err == ("invalid configuration: weight window %s weights, more than the bound 4096\n"
                       % shown)


def test_box_zero_window_on_a_wide_lattice(tmp_path, capsys):
    """The box-0 window of a zero-node file with X_rank 50000 is its one zero
    weight, built in one pass, so verify-iso passes its one record at once."""
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"I_size": 0, "dot": [], "X_rank": 50000, "alpha": [], "coroot": [],
                                "coweight": []}), encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run(capsys, "verify-iso", "--root-datum", str(path), "--lambda-box", "0")
    assert time.perf_counter() - start < 1
    assert (code, err) == (0, "")
    assert "[PASS] iso:a:lam(%s)" % ",".join(["0"] * 50000) in out
    assert "summary: 1 pass, 0 fail, 0 warn" in out


def test_lattice_rank_past_the_bound_is_invalid_configuration(tmp_path, capsys):
    """A zero-node file with X_rank one past rootdata.X_RANK_BOUND = 2^16 is
    refused at load, at once, by validate-datum and verify-iso, with a
    message that names both numbers; X_rank 2^16 itself loads."""
    def datum(x_rank):
        path = tmp_path / ("rank%d.json" % x_rank)
        path.write_text(json.dumps({"I_size": 0, "dot": [], "X_rank": x_rank, "alpha": [],
                                    "coroot": [], "coweight": []}), encoding="utf-8")
        return str(path)

    wide = datum(65537)
    for argv in (("validate-datum", wide), ("verify-iso", "--root-datum", wide, "--lambda-box", "0")):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1, argv
        assert (code, out) == (3, ""), argv
        assert err == ("invalid configuration: root datum rejected: X_rank 65537 is more than "
                       "the bound 65536\n")
    code, out, err = run(capsys, "validate-datum", datum(65536))
    assert (code, err) == (0, "") and "rank 65536, 0 nodes" in out


def test_missing_file_io_exit(capsys):
    code, _, err = run(capsys, "validate-datum", "/nonexistent/d.json")
    assert code == 4


def test_unknown_datum_exit(capsys):
    code, _, err = run(capsys, "verify-iso", "--root-datum", "e8")
    assert code == 3


def test_out_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "verify-iso", "--root-datum", "a1", "--lambda-box", "1",
        "--format", "json", "--stable", "--out", str(out_path),
    )
    assert code == 0
    data = json.loads(out_path.read_text(encoding="utf-8"))
    assert data["summary"]["fail"] == 0
    assert "elapsed_ms" not in data


def test_deterministic_reports(tmp_path, capsys):
    paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
    for path in paths:
        code, _, _ = run(
            capsys, "verify-special", "--case", "super1", "--root-datum", "a1",
            "--lambda-box", "1", "--format", "json", "--stable",
            "--out", str(path),
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_stable_text_reports_are_deterministic(tmp_path, capsys):
    paths = [tmp_path / "r1.txt", tmp_path / "r2.txt"]
    for path in paths:
        code, _, _ = run(
            capsys, "verify-iso", "--root-datum", "a1", "--lambda-box", "1",
            "--format", "text", "--stable", "--out", str(path),
        )
        assert code == 0
    first, second = (path.read_bytes() for path in paths)
    assert first == second
    assert b"ms)" not in first
    assert first.endswith(b"summary: 171 pass, 0 fail, 0 warn\n")


def test_jobs_flag_removed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-iso", "--root-datum", "a1", "--lambda-box", "1", "--jobs", "4"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify-special", "--case", "two-param", "--lambda-box", "-1"),
        ("verify-hopf", "--nmax", "-2"),
        ("verify-iso", "--lambda-box", "-1"),
    ],
)
def test_negative_sizes_are_invalid_configuration(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert "invalid configuration" in err and ">= 0" in err
    assert out == ""


def test_malformed_datum_json_is_invalid_configuration(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{\"I_size\": 1,", encoding="utf-8")
    code, _, err = run(capsys, "verify-iso", "--root-datum", str(path))
    assert code == 3
    assert "not valid JSON" in err


# Modules the CLI needs on no campaign path: dataclasses and the code
# introspection it pulls in, and traceback, read only on the exit-5 path.
STARTUP_UNUSED = ("dataclasses", "inspect", "ast", "dis", "tokenize", "traceback")


def test_import_loads_no_introspection_modules():
    """import qtwist.cli, in a fresh interpreter, adds none of
    STARTUP_UNUSED to the modules the interpreter had before it (whatever
    the site hooks loaded is not counted)."""
    code = ("import json, sys; before = set(sys.modules); import qtwist.cli; "
            "print(json.dumps(sorted(set(sys.modules) - before)))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"),
                                                      env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    added = json.loads(out)
    assert "qtwist.cli" in added
    assert [m for m in STARTUP_UNUSED if m in added] == []


def test_import_without_site_hooks_loads_no_typing():
    """Under -S no site hook has imported typing first, so this sees what
    qtwist.cli itself loads: its annotations are never evaluated and need
    no typing."""
    code = ("import sys; sys.path.insert(0, %r); import qtwist.cli; "
            "print('typing' in sys.modules)" % os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def test_engine_error_is_internal_error(monkeypatch, capsys):
    from qtwist import cli

    def broken(*args, **kwargs):
        raise ValueError("engine bug")

    monkeypatch.setattr(cli, "verify_twist_isomorphism", broken)
    code, out, err = run(capsys, "verify-iso", "--root-datum", "a1", "--lambda-box", "1")
    assert code == 5
    assert "internal error" in err and "engine bug" in err
    assert "Traceback (most recent call last)" in err
    assert "invalid configuration" not in err


def test_unpaired_relation_instance_is_internal_error(monkeypatch, capsys):
    """The iso campaign takes its untwisted and twisted instances as pairs
    from one builder, so they cannot fall out of step; an engine error
    raised inside that builder is an internal error, never a failed record
    or an invalid configuration."""
    from qtwist import twistmap

    def broken_pairs(rd, sides, window):
        raise RuntimeError("relation pair builder failed")

    monkeypatch.setattr(twistmap, "modified_relations", broken_pairs)
    code, out, err = run(capsys, "verify-iso", "--root-datum", "a1", "--lambda-box", "1")
    assert code == 5
    assert "internal error" in err and "relation pair builder failed" in err
    assert "invalid configuration" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify-hopf", "--lambda-box", "99"),
        ("verify-modules", "--root-datum", "a2"),
        ("verify-modules", "--lambda-box", "1"),
    ],
)
def test_flags_a_subcommand_does_not_read_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("--case", "super1", "--omega", "/nonexistent.json"), "--omega"),
        (("--case", "multi-param", "--omega", "/nonexistent.json"), "--omega"),
        (("--case", "two-param", "--order", "2,1"), "--order"),
        (("--case", "super2", "--signs", "1,2,-1"), "--signs"),
    ],
)
def test_case_flags_outside_their_case_are_invalid_configuration(capsys, argv, flag):
    code, out, err = run(capsys, "verify-special", "--root-datum", "a2", "--lambda-box", "0", *argv)
    assert code == 3
    assert "invalid configuration" in err and flag in err
    assert out == ""


@pytest.mark.parametrize(
    "signs, message",
    [
        ("5,7,-1", "outside the index set"),
        ("0,1,-1", "outside the index set"),
        ("1,2,1;1,2,-1", "twice"),
        ("1,2,2", "sign values must be 1 or -1"),
    ],
)
def test_bad_sign_pairs_are_invalid_configuration(capsys, signs, message):
    code, out, err = run(
        capsys, "verify-special", "--case", "super1", "--with-iso", "--root-datum", "a2",
        "--lambda-box", "1", "--signs", signs,
    )
    assert code == 3
    assert "invalid configuration" in err and message in err
    assert out == ""


@pytest.mark.parametrize(
    "order, message",
    [
        ("1,1", "permutation of 1..2"),
        ("2,x", "comma-separated integers"),
    ],
)
def test_bad_order_is_invalid_configuration(capsys, order, message):
    code, out, err = run(
        capsys, "verify-special", "--case", "super1", "--root-datum", "a2",
        "--lambda-box", "1", "--order", order,
    )
    assert code == 3
    assert "invalid configuration" in err and message in err
    assert out == ""


@pytest.mark.parametrize(
    "argv, rule",
    [
        (("qint", "-3"), "n >= 0"),
        (("qbinom", "3", "5"), "0 <= p <= n"),
        (("qbinom", "3", "-1"), "0 <= p <= n"),
        (("gauss", "0"), "n >= 1"),
    ],
)
def test_qcalc_values_out_of_range_are_invalid_configuration(capsys, argv, rule):
    code, out, err = run(capsys, "qcalc", *argv)
    assert code == 3
    assert "invalid configuration" in err and rule in err
    assert "internal error" not in err and "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("argv", [("qint", "1000000000"), ("qbinom", "100000", "1"),
                                  ("gauss", "100000")])
def test_qcalc_n_past_the_bound_is_invalid_configuration(capsys, argv):
    """n above cli.QCALC_N_BOUND = 64 is refused at once, before any q-number
    is built: qbinom caches the whole q-Pascal triangle, about n^4/12 terms."""
    start = time.perf_counter()
    code, out, err = run(capsys, "qcalc", *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert "invalid configuration" in err and "n <= 64" in err


@pytest.mark.parametrize("argv", [("qint", "1", "2"), ("qbinom", "4"), ("gauss", "1", "2")])
def test_qcalc_wrong_argument_count_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["qcalc", *argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "takes" in err and "internal error" not in err


@pytest.mark.parametrize(
    "argv, printed",
    [(("qint", "0"), "0\n"), (("qbinom", "0", "0"), "1\ncoefficient sum: 1\n"), (("gauss", "1"), "0\n")],
)
def test_qcalc_range_edges_still_compute(capsys, argv, printed):
    assert run(capsys, "qcalc", *argv) == (0, printed, "")


def _readme_flag_rows():
    """subcommand -> the --flags of its row in README's flag table, plus
    --format, --out and --stable, which all four take."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    rows = re.findall(r"^\| `(verify-[a-z]+)` \| (.*) \|$", text, flags=re.M)
    return {cmd: set(re.findall(r"--[a-z][a-z-]*", flags)) | {"--format", "--out", "--stable"}
            for cmd, flags in rows}


def test_readme_flag_table_matches_the_parser():
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    parser_flags = {
        cmd: {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"}
        for cmd, sub in subparsers.choices.items() if cmd.startswith("verify-")
    }
    assert _readme_flag_rows() == parser_flags
