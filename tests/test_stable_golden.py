"""Golden SHA-256 digests of `--format json --stable` reports.

Each digest pins the exact bytes one campaign prints: check ids and order,
scalar strings, witnesses, the summary and the engine version.  A refactor
that is meant to leave the reports alone must keep every digest; a change
that alters a report on purpose (or bumps the version) updates them here and
says why.
"""

import hashlib

import pytest

from qtwist.cli import main

GOLDEN = [
    ("verify-iso --root-datum a1 --lambda-box 1",
     "f5376dcc73f47da8f7f17dc26b776378397ce43a842f2b22496b1a906a039113"),
    ("verify-iso --root-datum a2 --lambda-box 1",
     "139621a8354dcd75b214dade07816009639887db654a7e3b4b064c72b191e59a"),
    ("verify-iso --root-datum b2 --lambda-box 1",
     "1aaefdbd8dbdcf226377b1895aca03b168d16423376d5bde3764faafe1ffef4c"),
    ("verify-iso --root-datum g2 --lambda-box 1",
     "9125a802b1968d023b4289aeb51aafe7a264c590c671aa30373940e2d5c79286"),
    ("verify-iso --root-datum g2 --lambda-box 2",
     "df8d5cac289486fd5550b1ab42e601114d8faff1f2c249d2b16dbc1145567d49"),
    ("verify-hopf --root-datum a2 --nmax 4",
     "acb3d0a5a776a6cb901fcfe655525986786fd1c8ebd3711b0bf48c11350db6a5"),
    ("verify-hopf --root-datum b2 --nmax 4",
     "f93b3cfb6e0ac7906810d975dd0f9604ec0d664d9eb3d4e04c7f3cf2967eef19"),
    ("verify-hopf --root-datum g2 --nmax 4",
     "5ad7278edb9b215e245a012517f50b0de71c977a075e11ce058035d553fe1ced"),
    ("verify-special --case two-param --with-iso --root-datum a2 --lambda-box 1",
     "326b8f031d342f751177a1b805d4b555e74af1dd19401c1ad0b1a780b1169f02"),
    ("verify-special --case multi-param --with-iso --root-datum a2 --lambda-box 1",
     "ccf66d47a0df24410333dd7183ec50d27aba3d1c072100e27483d04f691a656f"),
    ("verify-special --case super1 --with-iso --root-datum a2 --lambda-box 1",
     "0bb96f0de44e88fefbacdbd128cd1316cc7d17c9ae35a9b7d49dd3d88fb93770"),
    ("verify-special --case super2 --with-iso --root-datum a2 --lambda-box 1",
     "3079240c20b100ff3b97fbed975dd9c768aec3a3a1824201ecc4cbb45a6bcd9a"),
    ("verify-special --case super1 --with-iso --root-datum a2 --lambda-box 2 --order 2,1 --signs 1,2,-1",
     "45620371bc39b7c84caf7783357158269a02cf3e8b85e67b37d449ec23f1f458"),
    ("verify-modules --max-n 3 --case generic",
     "751da93c73e179184f0d39eabd3ce3bd03f2f58a1bd7a48ad1bae6c2d94544fb"),
    ("verify-modules --max-n 3 --case super1",
     "2cb68aba99ddd97244a7bdd2154491b458e296ddeae7c67783e5ddad17b41b14"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[a for a, _ in GOLDEN])
def test_stable_report_digest(tmp_path, argv, digest):
    out = tmp_path / "report.json"
    code = main(argv.split() + ["--format", "json", "--stable", "--out", str(out)])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
