"""The benchmark's workloads: fixed lists of qtwist CLI campaigns.

Every campaign is run as ``qtwist <argv> --format json --stable --out FILE``
in a fresh interpreter.  Seed 0 names the built-in root data; any other seed
relabels the simple roots and permutes the lattice coordinates, writes the
result as a datum JSON file and passes that with ``--root-datum FILE``.  The
relabelling changes every label in the reports but not the amount of work,
so each campaign's check count must equal the one it has at seed 0.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# The two built-in data the workloads use, in the datum-file format that
# ``qtwist --root-datum FILE`` reads.  a2 lives in the gl3 lattice (three
# coordinates), g2 in its root lattice with the short root first.
BASE_DATA = {
    "a2": {
        "I_size": 2,
        "dot": [[2, -1], [-1, 2]],
        "X_rank": 3,
        "alpha": [[1, -1, 0], [0, 1, -1]],
        "coroot": [[1, -1, 0], [0, 1, -1]],
        "coweight": [[1, 0, 0], [1, 1, 0]],
    },
    "g2": {
        "I_size": 2,
        "dot": [[2, -3], [-3, 6]],
        "X_rank": 2,
        "alpha": [[1, 0], [0, 1]],
        "coroot": [[2, -3], [-1, 2]],
        "coweight": [[1, 0], [0, 1]],
    },
}

WORKLOADS = {
    "iso": "Relation correspondence at the size the ring-core work targets: enumeration, the "
           "rescaling map and exact multiples in the generic ring, with no tensor or Hopf work.",
    "hopf": "Coproduct powers load twisted tensor products and K-straightening, with no weight "
            "window, path model or rescaling map, so presentations or twistmap changes stay flat.",
    "special": "The iso code again in rings with sign variables and half exponents, plus dense "
               "matrix products, to expose a ring fast path that helps only the generic ring.",
}

SPECIAL_CASES = ("two-param", "multi-param", "super1", "super2")
MODULE_CASES = ("generic",) + SPECIAL_CASES


@dataclass(frozen=True)
class Campaign:
    """One CLI invocation.  ``files`` maps file names the argv refers to
    (relative to the run's work directory) to the JSON they must hold."""

    name: str
    argv: tuple
    files: dict = field(default_factory=dict, compare=False, hash=False)


def relabel(name: str, seed: int) -> dict:
    """Datum JSON for the built-in ``name`` with the simple roots relabelled
    and the lattice coordinates permuted, both chosen by ``seed``.

    The pairing stays the identity, so permuting the coordinates of X and Y
    together keeps every pairing <coroot_i, alpha_j> and <coweight_i, alpha_j>;
    relabelling the roots permutes the dot matrix to match.  The weight box
    [-K, K]^rank is invariant under the coordinate permutation.
    """
    base = BASE_DATA[name]
    n, rank = base["I_size"], base["X_rank"]
    rng = random.Random("%s:%d" % (name, seed))
    sigma = list(range(n))
    rng.shuffle(sigma)
    pi = list(range(rank))
    rng.shuffle(pi)

    def rows(key):
        return [[base[key][sigma[a]][pi[k]] for k in range(rank)] for a in range(n)]

    return {
        "I_size": n,
        "dot": [[base["dot"][sigma[a]][sigma[b]] for b in range(n)] for a in range(n)],
        "X_rank": rank,
        "alpha": rows("alpha"),
        "coroot": rows("coroot"),
        "coweight": rows("coweight"),
    }


def super1_choices(n: int, seed: int) -> list:
    """``--order`` and ``--signs`` flags for the super1 case, chosen by ``seed``."""
    if seed == 0:
        return []
    rng = random.Random("super1:%d" % seed)
    order = list(range(1, n + 1))
    rng.shuffle(order)
    signs = ";".join(
        "%d,%d,%d" % (i, j, rng.choice((1, -1)))
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    )
    return ["--order", ",".join(map(str, order)), "--signs", signs]


def _datum(name: str, seed: int, files: dict) -> str:
    if seed == 0:
        return name
    fname = "%s-seed%d.json" % (name, seed)
    files[fname] = relabel(name, seed)
    return fname


def build(workload: str, seed: int) -> list:
    """The campaigns of ``workload`` with inputs made from ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r (have %s)" % (workload, ", ".join(WORKLOADS)))
    out = []
    if workload == "iso":
        for name in ("a2", "g2"):
            files: dict = {}
            argv = ("verify-iso", "--root-datum", _datum(name, seed, files), "--lambda-box", "3")
            out.append(Campaign("iso/%s" % name, argv, files))
    elif workload == "hopf":
        for name in ("g2", "a2"):
            files = {}
            argv = ("verify-hopf", "--root-datum", _datum(name, seed, files), "--nmax", "11")
            out.append(Campaign("hopf/%s" % name, argv, files))
    else:
        for case in SPECIAL_CASES:
            files = {}
            argv = ["verify-special", "--case", case, "--with-iso",
                    "--root-datum", _datum("a2", seed, files), "--lambda-box", "2"]
            if case == "super1":
                argv += super1_choices(BASE_DATA["a2"]["I_size"], seed)
            out.append(Campaign("special/%s" % case, tuple(argv), files))
        for case in MODULE_CASES:
            argv = ("verify-modules", "--case", case, "--max-n", "10")
            out.append(Campaign("modules/%s" % case, argv))
    return out
