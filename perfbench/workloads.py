"""Workload definitions: seeded input generation and the job lists.

A job is one ``superdim`` CLI call with ``--format report``.  Its argv may
name ``{work}/<file>`` (a generated input written by the worker during
set-up) or ``{assets}/<file>`` (a file shipped with the package).  The
seed permutes the names and declaration order of the odd generators of
every generated presentation and picks the ``--elems`` pair and the
``--ideal`` generator.  Each generated algebra is symmetric under
permutations of its odd generators (or relabelled consistently with its
relations), so the recorded expectations hold for every seed.  Corpus jobs
and the shipped-cochain job are fixed, because their inputs are indexed by
basis position.
"""

import random

WORKLOADS = ("corpus-q", "corpus-f5", "chain", "hochschild")

_ODD_PREFIXES = ("y", "z", "w", "u", "v")

# (first job, second job, report key): two routes that must agree.  The odd
# chain of Lambda_7 and its Hilbert fit both give the super-dimension 0|7.
CROSS_CHECKS = (("lambda7.sdim", "lambda7.hilbert", "sdim"),)


class Job:
    """One CLI call: a stable id, its argv template and its size class."""

    __slots__ = ("id", "argv", "large", "golden")

    def __init__(self, id, argv, large=False, golden=None):
        self.id = id
        self.argv = list(argv)
        self.large = large
        self.golden = golden  # shipped asset the report's single case must equal


def _odd_names(rng, count):
    """``count`` odd generator names, in a seeded declaration order."""
    prefix = rng.choice(_ODD_PREFIXES)
    names = ["%s%d" % (prefix, i) for i in range(1, count + 1)]
    rng.shuffle(names)
    return names


def _alg_text(name, even, odd, cap=None, relations=()):
    lines = ["algebra %s over Q" % name, "flavor supercommutative"]
    if even:
        lines.append("even " + " ".join(even))
    lines.append("odd " + " ".join(odd))
    if cap is not None:
        lines.append("cap %d" % cap)
    lines.append("relations")
    lines.extend("  " + r for r in relations)
    lines.append("end")
    return "\n".join(lines) + "\n"


def _chain_inputs(rng):
    """Generated presentations of the chain workload and their seeded choices."""
    files = {}
    picks = {}

    z6 = _odd_names(rng, 6)
    files["lambda6.alg"] = _alg_text("lambda6", [], z6, cap=6)
    picks["lambda6"] = (sorted(rng.sample(z6, 2)), rng.choice(z6))

    z4 = _odd_names(rng, 4)
    files["lambda4x.alg"] = _alg_text("lambda4x", ["x"], z4, cap=6, relations=["x^3"])
    picks["lambda4x"] = (sorted(rng.sample(z4, 2)), rng.choice(z4))

    z7 = _odd_names(rng, 7)
    files["lambda7.alg"] = _alg_text("lambda7", [], z7, cap=7)
    picks["lambda7"] = (sorted(rng.sample(z7, 2)), None)

    # Odd Y1 Y2 Y3 relabelled by a seeded permutation; the relations follow.
    y = _odd_names(rng, 3)
    rels = ["X1*%s - X2*%s" % (y[0], y[1]), "X1*X2*%s" % y[2]]
    decl = list(y)
    rng.shuffle(decl)
    files["rel_2_3.alg"] = _alg_text("rel_2_3", ["X1", "X2"], decl, relations=rels)
    return files, picks


def _hochschild_inputs(rng):
    files = {}
    files["lambda3.alg"] = _alg_text("lambda3", [], _odd_names(rng, 3), cap=3)
    odd = _odd_names(rng, 1)
    files["xy3.alg"] = _alg_text("xy3", ["X"], odd, cap=3)
    files["xy4.alg"] = _alg_text("xy4", ["X"], odd, cap=4)
    return files


def inputs(workload, seed):
    """Generated input files {name: text} and the jobs of one workload."""
    rng = random.Random("%s:%d" % (workload, seed))
    if workload in ("corpus-q", "corpus-f5"):
        field = ["--field", "f5"] if workload == "corpus-f5" else []
        golden = {"c2": "golden_c2.json"} if workload == "corpus-q" else {}
        jobs = [
            Job("corpus." + case, ["corpus", "--case", case] + field,
                large=case in ("c1", "gr"), golden=golden.get(case))
            for case in ("c1", "c2", "flat", "gr")
        ]
        return {}, jobs

    if workload == "chain":
        files, picks = _chain_inputs(rng)
        jobs = []
        for alg in ("lambda6", "lambda4x"):
            path = "{work}/%s.alg" % alg
            pair, ideal = picks[alg]
            jobs += [
                Job(alg + ".sdim", ["sdim", path]),
                Job(alg + ".odd-params", ["odd-params", path]),
                Job(alg + ".regular", ["regular", path, "--module", "{assets}/regular.mod",
                                       "--elems", ",".join(pair)]),
                Job(alg + ".gr-radical", ["gr", path, "--ideal", "odd-radical", "--verify"]),
                Job(alg + ".gr-bigraded", ["gr", path, "--ideal", ideal, "--bigraded"]),
            ]
        pair7 = picks["lambda7"][0]
        jobs += [
            Job("lambda7.sdim", ["sdim", "{work}/lambda7.alg"], large=True),
            Job("lambda7.regular", ["regular", "{work}/lambda7.alg", "--module",
                                    "{assets}/regular.mod", "--elems", ",".join(pair7)],
                large=True),
            Job("free_3_2.hilbert", ["hilbert", "{assets}/free_3_2.alg", "--kmax", "40", "--fit"],
                large=True),
            Job("free_2_3.hilbert", ["hilbert", "{assets}/free_2_3.alg", "--kmax", "30", "--fit"]),
            Job("lambda7.hilbert", ["hilbert", "{work}/lambda7.alg", "--kmax", "4", "--fit"]),
            Job("rel_2_3.hilbert", ["hilbert", "{work}/rel_2_3.alg", "--kmax", "30", "--fit"]),
        ]
        return files, jobs

    if workload == "hochschild":
        files = _hochschild_inputs(rng)
        g2 = "{assets}/grassmann2.alg"
        jobs = [Job("grassmann2.n%d" % n, ["hochschild", g2, "--n", str(n)], large=n == 3)
                for n in range(4)]
        for alg in ("lambda3", "xy3", "xy4"):
            for n in (0, 1):
                jobs.append(Job("%s.n%d" % (alg, n),
                                ["hochschild", "{work}/%s.alg" % alg, "--n", str(n)],
                                large=n == 1 and alg != "xy3"))
        jobs.append(Job("grassmann2.cocycle",
                        ["hochschild", g2, "--n", "1", "--cocycle", "{assets}/coboundary_pi.json",
                         "--build-api", "--classify", "{assets}/zero_pi.json"]))
        return files, jobs

    raise ValueError("unknown workload %r" % (workload,))
