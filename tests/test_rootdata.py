"""Built-in root data, pairings, validation, and the config loader."""

import itertools
import json
import random

import pytest

from qtwist import rootdata
from qtwist.presentations import PathWord
from qtwist.rootdata import CartanDatum, DatumError, RootDatum

ALL = ("a1", "a1xa1", "a2", "b2", "g2")


@pytest.mark.parametrize("name", ALL)
def test_builtin_entry_is_a_datum_file(tmp_path, name):
    """Each built-in entry, written as JSON and loaded as a datum file, is
    the built-in itself: both go through from_dict."""
    path = tmp_path / (name + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rootdata.BUILTINS[name], fh)
    loaded = rootdata.load(str(path))
    want = rootdata.builtin(name)
    assert loaded.cartan.dot == want.cartan.dot
    assert (loaded.x_rank, loaded.alpha, loaded.coroot, loaded.coweight) == (
        want.x_rank, want.alpha, want.coroot, want.coweight)


@pytest.mark.parametrize("name", ALL)
def test_builtins_validate(name):
    rd = rootdata.builtin(name)
    assert rd.validate() == []


def _dot(form, x):
    return sum(a * b for a, b in zip(form, x))


@pytest.mark.parametrize("name", ALL)
def test_pairing_identities(name):
    rd = rootdata.builtin(name)
    for i in rd.index_set:
        for j in rd.index_set:
            assert _dot(rd.coroot[i], rd.alpha[j]) == rd.cartan.a(i, j)
            assert _dot(rd.coweight[i], rd.alpha[j]) == (1 if i == j else 0)
            assert rd.cartan.d(i) * rd.cartan.a(i, j) == rd.cartan.d(j) * rd.cartan.a(j, i)


def test_a1_conventions():
    rd = rootdata.builtin("a1")
    assert rd.cartan.d(0) == 1
    assert rd.cartan.a(0, 0) == 2
    lam = (5, 0)
    assert rd.lambda_i(lam, 0) == 5


def test_b2_table():
    rd = rootdata.builtin("b2")
    assert [[rd.cartan.a(i, j) for j in rd.index_set] for i in rd.index_set] == [
        [2, -1],
        [-2, 2],
    ]
    assert [rd.cartan.d(i) for i in rd.index_set] == [2, 1]


def test_g2_serre_exponents():
    rd = rootdata.builtin("g2")
    exps = sorted(
        rd.cartan.serre_exponent(i, j)
        for i in rd.index_set
        for j in rd.index_set
        if i != j
    )
    assert exps == [2, 4]


def test_a2_weight_examples():
    rd = rootdata.builtin("a2")
    lam = rd.alpha[0]
    assert rd.lambda_paren(lam, 0) == 1
    assert rd.lambda_paren(lam, 1) == 0
    assert rd.lambda_i(lam, 0) == 2
    assert rd.lambda_i(lam, 1) == -1


def test_unknown_builtin():
    with pytest.raises(DatumError):
        rootdata.builtin("e8")


@pytest.mark.parametrize("name", ALL)
def test_lambda_paren_shift_identity(name):
    rd = rootdata.builtin(name)
    rng = random.Random(0)
    for _ in range(100):
        lam = tuple(rng.randint(-5, 5) for _ in range(rd.x_rank))
        for i in rd.index_set:
            for j in rd.index_set:
                shifted = rd.add_root(lam, j, +1)
                assert rd.lambda_paren(shifted, i) == rd.lambda_paren(lam, i) + (
                    1 if i == j else 0
                )
                assert rd.lambda_i(shifted, i) == rd.lambda_i(lam, i) + rd.cartan.a(i, j)


@pytest.mark.parametrize("name", ALL)
def test_step_shift_matches_root_walk(name):
    """The cached shift of every step tuple up to length 5 equals the
    add_root walk from the zero weight, and a path word's source is its
    target plus that shift."""
    rd = rootdata.builtin(name)
    letters = [(kind, i) for kind in ("E", "F") for i in rd.index_set]
    target = tuple(range(1, rd.x_rank + 1))
    for k in range(6):
        for steps in itertools.product(letters, repeat=k):
            walk, source = rd.zero_weight(), target
            for kind, i in steps:
                sign = -1 if kind == "E" else +1
                walk, source = rd.add_root(walk, i, sign), rd.add_root(source, i, sign)
            assert rd.step_shift(steps) == walk, steps
            assert rd.step_shift(steps) == walk, steps  # the cached value
            assert PathWord(rd, target, steps).source == source, steps


def test_validate_reports_coweight_defect():
    rd = rootdata.builtin("a2")
    broken = RootDatum(rd.cartan, rd.x_rank, rd.alpha, rd.coroot, coweight=rd.coroot)
    errs = broken.validate()
    assert any("coweight" in e for e in errs)


# an a1 datum in the gl2 lattice with one entry k: d_1 = k, an alpha entry k,
# or a coroot or coweight form entry k, every pairing kept
_SIZED_A1 = {
    "d_i": lambda k: ([[2 * k]], [[1, -1]], [[1, -1]], [[1, 0]]),
    "alpha": lambda k: ([[2]], [[k, k - 1]], [[2, -2]], [[1, -1]]),
    "coroot form": lambda k: ([[2]], [[1, -1]], [[k, k - 2]], [[1, 0]]),
    "coweight form": lambda k: ([[2]], [[1, -1]], [[1, -1]], [[k, k - 1]]),
}


@pytest.mark.parametrize("label", sorted(_SIZED_A1))
def test_validate_bounds_the_entries(label):
    """d_i and the entries of alpha and of the coroot and coweight forms
    must have magnitude below ENTRY_BOUND: at the bound (or its negative)
    the datum is refused, naming what is too large; just below, it loads."""
    bound = rootdata.ENTRY_BOUND
    # a negative d_i is refused by the Cartan checks before any bound
    for k in (bound - 1, bound) if label == "d_i" else (bound - 1, bound, -bound):
        dot, alpha, coroot, coweight = (tuple(map(tuple, m)) for m in _SIZED_A1[label](k))
        rd = RootDatum(CartanDatum(dot), 2, alpha, coroot, coweight)
        want = [] if k == bound - 1 else ["%s entries must have magnitude below 1024" % label]
        assert rd.validate() == want, (label, k)


def test_validate_bounds_the_cartan_entries():
    """|a_ij| may be at most A_BOUND = 16: the rank-2 datum with dot
    [[2, -k], [-k, 2]] (alpha and coweight the identity, coroot the Cartan
    matrix) loads at k = 16 and is refused at k = 17, naming the bound."""
    assert rootdata.A_BOUND == 16

    def k_datum(k):
        return {"I_size": 2, "dot": [[2, -k], [-k, 2]], "X_rank": 2, "alpha": [[1, 0], [0, 1]],
                "coroot": [[2, -k], [-k, 2]], "coweight": [[1, 0], [0, 1]]}

    assert rootdata.from_dict(k_datum(16)).cartan.a(0, 1) == -16
    with pytest.raises(DatumError, match=r"\|a_ij\| must be at most 16 at \(0,1\)"):
        rootdata.from_dict(k_datum(17))
    assert CartanDatum(((2, -17), (-17, 34))).validate() == ["|a_ij| must be at most 16 at (0,1)"]


def test_validate_reports_symmetrizability_defect():
    bad = CartanDatum(dot=((2, -1), (-2, 2)))
    assert any("symmetr" in e for e in bad.validate())


def test_weights_box():
    rd = rootdata.builtin("b2")
    box = rd.weights_box(2)
    assert len(box) == 25
    assert box == sorted(box)
    assert all(all(-2 <= c <= 2 for c in w) for w in box)


def _lattice(x_rank):
    return rootdata.from_dict(
        {"I_size": 0, "dot": [], "X_rank": x_rank, "alpha": [], "coroot": [], "coweight": []})


def test_weights_box_is_bounded():
    """Windows of up to WINDOW_BOUND weights are built in full: the largest the
    golden reports and the benchmark read (a2 and g2 at box 3, a1xa1 at box
    2) and a rank-4 lattice at box 3 (7^4 = 2401, as for a3 in the gl4
    lattice).  One box step or one coordinate more is refused before any
    weight is built."""
    assert rootdata.WINDOW_BOUND == 4096
    sizes = {name: len(rootdata.builtin(name).weights_box(box))
             for name, box in (("a2", 3), ("g2", 3), ("a1xa1", 2))}
    assert sizes == {"a2": 343, "g2": 49, "a1xa1": 25}
    assert len(_lattice(4).weights_box(3)) == 2401
    assert len(_lattice(1).weights_box(2047)) == 4095
    assert _lattice(5000).weights_box(0) == [(0,) * 5000]
    for x_rank, box, shown in ((4, 4, r"\[-4, 4\]\^4 has 9\^4"), (8, 1, r"\[-1, 1\]\^8 has 3\^8"),
                               (1, 2048, r"\[-2048, 2048\]\^1 has 4097\^1")):
        with pytest.raises(DatumError, match=shown + " weights, more than the bound 4096$"):
            _lattice(x_rank).weights_box(box)


def _sorted_window(x_rank, box):
    """The window built a coordinate at a time, in descending coordinate order,
    then sorted: the reference for weights_box's lexicographic order."""
    out = [()]
    for _ in range(x_rank):
        out = [w + (c,) for w in out for c in range(box, -box - 1, -1)]
    return sorted(out)


def _coordinates_permuted(name, pi):
    """The built-in datum with lattice coordinate k read from pi[k]."""
    rd = rootdata.builtin(name)

    def rows(m):
        return [[row[pi[k]] for k in range(rd.x_rank)] for row in m]

    return rootdata.from_dict({"I_size": rd.n, "dot": [list(r) for r in rd.cartan.dot],
                               "X_rank": rd.x_rank, "alpha": rows(rd.alpha), "coroot": rows(rd.coroot),
                               "coweight": rows(rd.coweight)}, name=name + "-permuted")


@pytest.mark.parametrize("box", [0, 1, 2])
def test_weights_box_is_the_sorted_window(box):
    """weights_box lists the window in lexicographic order, on every built-in,
    on built-ins with permuted lattice coordinates and on zero-node lattices."""
    data = [rootdata.builtin(name) for name in ALL]
    data += [_coordinates_permuted("a2", (2, 0, 1)), _coordinates_permuted("g2", (1, 0)),
             _coordinates_permuted("a1xa1", (1, 0))]
    data += [_lattice(x_rank) for x_rank in range(5)]
    for rd in data:
        assert rd.weights_box(box) == _sorted_window(rd.x_rank, box), rd.name


def _datum_dict(rd):
    return {
        "I_size": rd.n,
        "dot": [list(r) for r in rd.cartan.dot],
        "X_rank": rd.x_rank,
        "alpha": [list(r) for r in rd.alpha],
        "coroot": [list(r) for r in rd.coroot],
        "coweight": [list(r) for r in rd.coweight],
    }


def test_loader_roundtrip(tmp_path):
    rd = rootdata.builtin("b2")
    path = tmp_path / "b2.json"
    path.write_text(json.dumps(_datum_dict(rd)), encoding="utf-8")
    loaded = rootdata.load(str(path))
    assert loaded.cartan.dot == rd.cartan.dot
    assert loaded.alpha == rd.alpha


def test_loader_rejects_nonintegral_coweights(tmp_path):
    # weight-lattice coordinates of the rank-1 type: alpha = (2) in X = Z
    # leaves no integral coweight row, so the loader must refuse
    data = {
        "I_size": 1,
        "dot": [[2]],
        "X_rank": 1,
        "alpha": [[2]],
        "coroot": [[1]],
        "coweight": [[1]],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(DatumError):
        rootdata.load(str(path))


def test_loader_rejects_malformed(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"I_size": 2}), encoding="utf-8")
    with pytest.raises(DatumError):
        rootdata.load(str(path))


def test_loader_rejects_dependent_roots(tmp_path):
    data = {
        "I_size": 2,
        "dot": [[2, 0], [0, 2]],
        "X_rank": 2,
        "alpha": [[1, 0], [1, 0]],
        "coroot": [[2, 0], [2, 0]],
        "coweight": [[1, 0], [1, 0]],
    }
    path = tmp_path / "dep.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(DatumError):
        rootdata.load(str(path))


def test_wide_lattice_loads_in_bounded_memory():
    """No X_rank x X_rank matrix is built for a file without a pairing: a
    zero-node datum with X_rank 3000 loads with a traced peak under 1 MB.
    Rows shorter than X_rank are refused, with or without a pairing, where
    folding by zip would have truncated a short coroot row."""
    import tracemalloc

    wide = {"I_size": 0, "dot": [], "X_rank": 3000, "alpha": [], "coroot": [], "coweight": []}
    tracemalloc.start()
    try:
        rd = rootdata.from_dict(wide)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rd.n, rd.x_rank) == (0, 3000)
    assert peak < 2**20, peak
    short = {"I_size": 1, "dot": [[2]], "X_rank": 2048,
             "alpha": [[2, 0]], "coroot": [[1, 0]], "coweight": [[1, 0]]}
    with pytest.raises(DatumError, match="alpha must be 1 rows of length 2048"):
        rootdata.from_dict(short)
    short = {"I_size": 1, "dot": [[2]], "X_rank": 2, "alpha": [[1, 0]], "coroot": [[2]],
             "coweight": [[1, 0]], "pairing": [[1, 0], [0, 1]]}
    with pytest.raises(DatumError, match="coroot must be 1 rows of length 2"):
        rootdata.from_dict(short)


# a unimodular, non-symmetric pairing per lattice rank, with its inverse
_PAIRINGS = {
    2: (((2, 3), (1, 2)), ((2, -3), (-1, 2))),
    3: (((1, 2, 0), (0, 1, 3), (0, 0, 1)), ((1, -2, 6), (0, 1, -3), (0, 0, 1))),
}


def _mat_mul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def _with_pairing(rd):
    """rd's datum dict with its pairing P and every Y row multiplied by P^-1."""
    pairing, inverse = _PAIRINGS[rd.x_rank]
    data = _datum_dict(rd)
    data["pairing"] = [list(r) for r in pairing]
    data["coroot"] = [list(r) for r in _mat_mul(rd.coroot, inverse)]
    data["coweight"] = [list(r) for r in _mat_mul(rd.coweight, inverse)]
    return data


@pytest.mark.parametrize("name", ALL)
def test_linear_forms_with_non_identity_pairing(name):
    """The same datum with the pairing P and every Y row multiplied by P^-1:
    the folded forms are the identity-pairing built-in's, and they and
    add_root agree with the double sum of y P lam and the coordinate loop."""
    rd = rootdata.builtin(name)
    pairing, inverse = _PAIRINGS[rd.x_rank]
    cols = range(rd.x_rank)
    assert _mat_mul(pairing, inverse) == tuple(tuple(int(a == b) for b in cols) for a in cols)
    data = _with_pairing(rd)
    twisted = rootdata.from_dict(data, name=name)
    assert twisted.coroot == rd.coroot and twisted.coweight == rd.coweight

    def pair(y, lam):
        return sum(y[a] * pairing[a][b] * lam[b] for a in cols for b in cols)

    for lam in twisted.weights_box(2):
        for i in twisted.index_set:
            got = twisted.lambda_i(lam, i)
            assert got == pair(data["coroot"][i], lam) == rd.lambda_i(lam, i)
            got = twisted.lambda_paren(lam, i)
            assert got == pair(data["coweight"][i], lam) == rd.lambda_paren(lam, i)
            for sign in (1, -1, 2, -2):
                want = tuple(lam[k] + sign * twisted.alpha[i][k] for k in range(twisted.x_rank))
                assert twisted.add_root(lam, i, sign) == want


def test_rank_runs_on_a_pairing_only_when_a_file_gives_one(monkeypatch):
    """_rank is O(X_rank^3): loading a datum takes the rank of its simple
    roots, and the determinant of a pairing only when the file gives one;
    an imperfect pairing is still refused."""
    seen = []
    rank = rootdata._rank

    def spy(rows):
        seen.append(rows)
        return rank(rows)

    monkeypatch.setattr(rootdata, "_rank", spy)
    for name in ALL:
        del seen[:]
        rd = rootdata.builtin(name)
        assert seen == [rd.alpha], name
        del seen[:]
        rootdata.from_dict(_with_pairing(rd), name=name)
        assert seen == [_PAIRINGS[rd.x_rank][0], rd.alpha], name
    imperfect = {"I_size": 1, "dot": [[2]], "X_rank": 2, "alpha": [[0, 1]], "coroot": [[0, 2]],
                 "coweight": [[0, 1]], "pairing": [[2, 0], [0, 1]]}
    with pytest.raises(DatumError, match="not perfect: determinant 2"):
        rootdata.from_dict(imperfect)
    assert seen[-1] == ((2, 0), (0, 1))


@pytest.mark.parametrize(
    "rows, rank, det",
    [
        (((1, 0), (0, 1)), 2, 1),
        (((0, 1), (1, 0)), 2, -1),
        (((2, 0), (0, 1)), 2, 2),
        (((1, 0), (0, 0)), 1, 0),
        (((1, -1, 0), (0, 1, -1)), 2, 0),
    ]
    + [(pairing, len(pairing), 1) for pairing, _ in _PAIRINGS.values()],
)
def test_rank_and_determinant(rows, rank, det):
    """_rank's elimination gives the rank and, for a square matrix of full
    rank, the determinant; a row swap flips its sign."""
    from fractions import Fraction

    assert rootdata._rank([[Fraction(x) for x in row] for row in rows]) == (rank, det)
