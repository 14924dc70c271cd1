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
    # a_ij = 0 (Serre exponent 1) on every pair of distinct indices
    ("verify-iso --root-datum a1xa1 --lambda-box 2",
     "8bba928ea71240fd8a038caeb62eabe6ef9fb3e2e072132b77cf0db960e38928"),
    ("verify-hopf --root-datum a2 --nmax 4",
     "acb3d0a5a776a6cb901fcfe655525986786fd1c8ebd3711b0bf48c11350db6a5"),
    ("verify-hopf --root-datum b2 --nmax 4",
     "f93b3cfb6e0ac7906810d975dd0f9604ec0d664d9eb3d4e04c7f3cf2967eef19"),
    ("verify-hopf --root-datum g2 --nmax 4",
     "5ad7278edb9b215e245a012517f50b0de71c977a075e11ce058035d553fe1ced"),
    ("verify-hopf --root-datum a1xa1 --nmax 4",
     "c325f1ae459b1125256fc3e8b222cf5f9eb53b8ff30c4e734b645ff36913b857"),
    # the two campaigns of the benchmark's hopf workload (seed 0)
    ("verify-hopf --root-datum a2 --nmax 11",
     "4b734c1b431e882ebe3181dd745761f3e8a5ee423ffe6c8588333d5f196eaf2d"),
    ("verify-hopf --root-datum g2 --nmax 11",
     "c88079554b1a7ef4494e64678357a1e95a088f765dcd0d0f3ca93c34b89107d4"),
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
    # a_ij = -2 (b2) and -3 (g2) in every case, and so in the constrained cases' resolution
    ("verify-special --case two-param --with-iso --root-datum b2 --lambda-box 1",
     "51af66c072f1d069fcc0c60b32b8beeeca26acc5ed6b3c94a71611a615b78464"),
    ("verify-special --case two-param --with-iso --root-datum g2 --lambda-box 1",
     "517598e6bf82809b902343eb44b0d9ac9c1af286e315720bc9e13828d7ba69fe"),
    ("verify-special --case multi-param --with-iso --root-datum b2 --lambda-box 1",
     "38ed86e3454049b8c498f1269fbfbefda06b81ab6d4b1eb81855cef4d15baeee"),
    ("verify-special --case multi-param --with-iso --root-datum g2 --lambda-box 1",
     "fa84b648f87f52209d94c2bcc9dcc26b1066421610a398d2a2495def7483d7e3"),
    ("verify-special --case super1 --with-iso --root-datum b2 --lambda-box 1",
     "37603ba3439a0d2082560a505d881b9e46c3242ae7055ee159e1321ddaf86388"),
    ("verify-special --case super1 --with-iso --root-datum g2 --lambda-box 1",
     "e5d3e0968c655266c024e7d528474e8ddb6f652ed3438a6525a3eaab0ac3d4d3"),
    ("verify-special --case super2 --with-iso --root-datum b2 --lambda-box 1",
     "f73ada801096ac7d777fee246cd46622f9e3aa0e4bc098b559fc1d7ab0c41347"),
    ("verify-special --case super2 --with-iso --root-datum g2 --lambda-box 1",
     "3b0fbe84524dce961fb68cfd52ffb2d20c4f694b82630c305d0deaa617a60ab4"),
    # the campaigns of the benchmark's iso and special workloads (seed 0)
    ("verify-iso --root-datum a2 --lambda-box 3",
     "23161698638051345b52492cb75d592b66cbaf65729a02e091b620526c978299"),
    ("verify-iso --root-datum g2 --lambda-box 3",
     "91cbe7607fbbfa068e3a0e604d7daff57d547954cd7ab24ca1d16693c1fe9063"),
    ("verify-special --case two-param --with-iso --root-datum a2 --lambda-box 2",
     "ce284226be14db2f91cb778d0ea2ef2e248aa31c2c33d31beb66aa34e3a60f1b"),
    ("verify-special --case multi-param --with-iso --root-datum a2 --lambda-box 2",
     "901be6e960f0a0057ab48c2c9815854bf13dec03e7af2f31b34468d00a838661"),
    ("verify-special --case super1 --with-iso --root-datum a2 --lambda-box 2",
     "89d1555b2861324577d26e4f30da9e0c1e6512dc3a643abba65c404ae8424a1e"),
    ("verify-special --case super2 --with-iso --root-datum a2 --lambda-box 2",
     "b9bf28a828409072b4e34ed7226f7001d3d43bf39783aad123bf56bdd700da92"),
    ("verify-modules --max-n 3 --case generic",
     "751da93c73e179184f0d39eabd3ce3bd03f2f58a1bd7a48ad1bae6c2d94544fb"),
    ("verify-modules --max-n 3 --case super1",
     "2cb68aba99ddd97244a7bdd2154491b458e296ddeae7c67783e5ddad17b41b14"),
    # the five campaigns of the benchmark's special workload that run repcheck (seed 0)
    ("verify-modules --max-n 10 --case generic",
     "00edde8756ae7dafab54f47eda922118397e662a29d2d60e80a89b495d08f60f"),
    ("verify-modules --max-n 10 --case two-param",
     "a687b72afc8807c22fda0c6562c13aaa6a7fee707b2a5a09b925494a900752c8"),
    ("verify-modules --max-n 10 --case multi-param",
     "9cb0e29c00c2e5f2d42708e4abbcf67cf7d379783fff77acc5d1a434d0654c60"),
    ("verify-modules --max-n 10 --case super1",
     "6e490a49a318c85ed7d83604fb879cfd36c6a1db86ee76d647dc527fef3dd312"),
    ("verify-modules --max-n 10 --case super2",
     "43e43f15143e31da3a7891c2a96ca983c4857711aa66fabefaf062a33028ddfd"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[a for a, _ in GOLDEN])
def test_stable_report_digest(tmp_path, argv, digest):
    out = tmp_path / "report.json"
    code = main(argv.split() + ["--format", "json", "--stable", "--out", str(out)])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
