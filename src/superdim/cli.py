"""Command-line driver.

    superdim sdim <alg> [--module FILE]
    superdim odd-params <alg> [--module FILE] [--size L]
    superdim regular <alg> --module FILE --elems y1,y2
    superdim gr <alg> [--module FILE] --ideal ELEMS|odd-radical
                 [--bigraded] [--verify]
    superdim hilbert <alg> --kmax K [--lmax L] [--fit] [--special]
    superdim hochschild <alg> [--module FILE] --n N [--cocycle FILE]
                 [--build-api] [--classify FILE2]
    superdim corpus [--case c1|c2|gr|flat|all]

Global flags on every subcommand: --field q|f<p> overrides the field in
the algebra file, --format text|report selects human text or the JSON
report, --seed N is echoed into the output for reproducibility.

Each subcommand returns its report, its text lines and the ids of its
failed clauses; ``main`` alone writes the output, then prints one
``FAIL <id>`` line per failed clause to stderr and sets the exit code:
0 success, 1 a verification clause failed, 2 usage or parse error, or
the output could not be written.
The argument parser is built once per process, on the first call of
``main``, and reused by every later call.

Element lists (--elems, --ideal) are comma-separated expressions in the
algebra's generators, e.g. ``Y1,t123*Y4``.  Cochain files (--cocycle,
--classify) are JSON: {"n": 1, "parity": "odd", "table": {"i,j":
{"r": coeff, ...}, ...}} with coefficients either integers or
{"num": ..., "den": ...} pairs, indices into the algebra's basis.
"""

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from .algebra import compile_presentation, odd_radical, superideal_span
from .corpus import CASES, corpus_all, corpus_report
from .exactlin import QQ, field_from_name
from .graded import (
    bgr,
    bgr_module,
    bgr_to_gr_surjective,
    gr,
    gr_module,
    graded_comparison,
)
from .hilbert import DEFAULT_KMAX, bigraded_dims, fit_rows, sdim_from_hilbert
from .hochschild import (
    Cochain,
    adapted_equivalence,
    build_A_pi,
    cochain_parity_violations,
    is_cocycle_pi,
    is_in_C,
    is_super_skew,
    sh_dim,
)
from .sdim import (
    odd_parameter_systems,
    odd_power_spans_of_module,
    sdim,
    sdim_of_chain,
    verify_factoring,
)
from .smodule import RegularModule, check_module, regular_module
from .superpoly import EVEN, ODD
from .textio import (
    emit_report,
    parse_elements,
    parse_module,
    parse_presentation,
    scalar_to_data,
)


class UsageError(ValueError):
    pass


# Most product pairs, dim(A) * max(dim A, dim M), that ``gr`` may classify,
# checked before any work.  It counts the pairs the graded tables and module
# actions could hold; gr solves a table pair only when it is read.  It
# admits the 1024-dimensional Grassmann algebra Lambda_10, whose costliest
# run measured, ``--ideal odd-radical --bigraded --verify``, peaks at 51 MB
# on Python 3.11, and refuses Lambda_11.
MAX_GR_PAIRS = 1 << 21


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError("cannot read %s: %s" % (path, exc))


def _field(args, default=None):
    """The --field override, or ``default`` without one."""
    return field_from_name(args.field) if args.field else default


def _load_algebra(args):
    return compile_presentation(parse_presentation(_read(args.algebra), field=_field(args)))


def _load_module(args, A):
    """The --module file, checked against the module axioms, or the regular module."""
    if not getattr(args, "module", None):
        return regular_module(A)
    M = parse_module(_read(args.module), A)
    if not isinstance(M, RegularModule):
        bad = check_module(M)
        if bad:
            raise UsageError("%s is not a module: %s" % (args.module, bad[0]))
    return M


def _sdim_text(sd):
    if isinstance(sd, dict):
        if sd.get("empty"):
            return "empty"
        return "%d|%d" % (sd["even"], sd["odd"])
    if sd.empty:
        return "empty"
    return "%d|%d" % (sd.even, sd.odd)


def _clause_lines(clauses):
    return [("ok   " if cl["ok"] else "FAIL ") + cl["id"] for cl in clauses]


def _failed(clauses, prefix=""):
    return [prefix + cl["id"] for cl in clauses if not cl["ok"]]


# ---------------------------------------------------------------------------
# subcommands


def _cmd_sdim(args):
    A = _load_algebra(args)
    M = _load_module(args, A)
    spans = odd_power_spans_of_module(M)
    sd = sdim_of_chain(spans)
    chain = [s.dim for s in spans]
    report = {
        "command": "sdim",
        "algebra": {"name": A.name, "dim": A.dim},
        "module": {"name": M.name, "dim": M.dim},
        "sdim": sd,
        "odd_chain_dims": chain,
    }
    lines = [
        "algebra %s: dim %d" % (A.name, A.dim),
        "module %s: dim %d" % (M.name, M.dim),
        "super-dimension: %s" % _sdim_text(sd),
        "odd chain dims: %s" % " ".join(str(d) for d in chain),
    ]
    return report, lines, []


def _cmd_odd_params(args):
    if args.size is not None and args.size < 0:
        raise UsageError("--size must be nonnegative, not %d" % args.size)
    A = _load_algebra(args)
    M = _load_module(args, A)
    size = args.size
    if size is None:
        sd = sdim(M)
        size = 0 if sd.empty else sd.odd
    systems = odd_parameter_systems(M, size)
    report = {
        "command": "odd-params",
        "algebra": {"name": A.name, "dim": A.dim},
        "module": {"name": M.name, "dim": M.dim},
        "size": size,
        "count": len(systems),
        "systems": [list(s) for s in systems],
    }
    lines = ["size: %d" % size, "count: %d" % len(systems)]
    lines += [" ".join(s) for s in systems]
    return report, lines, []


def _cmd_regular(args):
    A = _load_algebra(args)
    M = _load_module(args, A)
    ys = parse_elements(args.elems, A)
    if not ys:
        raise UsageError("--elems needs at least one element")
    rep = verify_factoring(M, ys)
    report = {
        "command": "regular",
        "algebra": {"name": A.name, "dim": A.dim},
        "module": {"name": M.name, "dim": M.dim},
        "elems": args.elems,
        "clauses": rep["clauses"],
        "ok": rep["ok"],
        "sdim": rep["sdim"],
        "sdim_quotient": rep["sdim_quotient"],
        "extendable": rep["extendable"],
    }
    lines = _clause_lines(rep["clauses"])
    lines += [
        "sdim: %s" % _sdim_text(rep["sdim"]),
        "sdim of quotient: %s" % _sdim_text(rep["sdim_quotient"]),
        "extendable to longest: %s" % ("true" if rep["extendable"] else "false"),
    ]
    return report, lines, _failed(rep["clauses"])


def _cmd_gr(args):
    A = _load_algebra(args)
    M = _load_module(args, A)
    pairs = A.dim * max(A.dim, M.dim)
    if pairs > MAX_GR_PAIRS:
        raise UsageError(
            "gr over a %d-dimensional algebra and a %d-dimensional module takes %d "
            "product pairs, past the budget of %d" % (A.dim, M.dim, pairs, MAX_GR_PAIRS)
        )
    if args.ideal == "odd-radical":
        ideal = odd_radical(A)
    else:
        ideal = superideal_span(A, parse_elements(args.ideal, A))
    G = gr(A, ideal)
    GM = gr_module(M, ideal, graded_algebra=G)
    sd = sdim(M)
    gsd = sdim(GM.module)
    comp = GM.component_dims()
    report = {
        "command": "gr",
        "algebra": {"name": A.name, "dim": A.dim},
        "module": {"name": M.name, "dim": M.dim},
        "ideal_dims": {"even": ideal.dims()[0], "odd": ideal.dims()[1]},
        "component_dims": {str(d): n for d, n in sorted(comp.items())},
        "sdim": sd,
        "sdim_graded": gsd,
    }
    lines = [
        "ideal dims: even %d, odd %d" % (ideal.dims()[0], ideal.dims()[1]),
        "graded components: %s"
        % " ".join("%d:%d" % (d, n) for d, n in sorted(comp.items())),
        "super-dimension: %s" % _sdim_text(sd),
        "graded super-dimension: %s" % _sdim_text(gsd),
    ]
    if args.bigraded:
        B = bgr(A, ideal)
        BM = bgr_module(M, ideal, bigraded_algebra=B)
        bcomp = BM.component_dims()
        report["bigraded_component_dims"] = {
            "%d,%d" % kl: n for kl, n in sorted(bcomp.items())
        }
        report["bgr_to_gr_surjective"] = bgr_to_gr_surjective(B, G)
        lines.append(
            "bigraded components: %s"
            % " ".join("(%d,%d):%d" % (kl[0], kl[1], n) for kl, n in sorted(bcomp.items()))
        )
    if args.verify:
        rep = graded_comparison(M, ideal, GM, sd, gsd)
        report["clauses"] = rep["clauses"]
        report["ok"] = rep["ok"]
        lines += _clause_lines(rep["clauses"])
    return report, lines, _failed(report.get("clauses", []))


def _cmd_hilbert(args):
    for flag, value in (("--kmax", args.kmax), ("--lmax", args.lmax)):
        if value is not None and value < 0:
            raise UsageError("%s must be nonnegative, not %d" % (flag, value))
    pres = parse_presentation(_read(args.algebra), field=_field(args))
    table = bigraded_dims(pres, kmax=args.kmax, lmax=args.lmax)
    report = {
        "command": "hilbert",
        "algebra": {"name": pres.name},
        "special": bool(args.special),
        "table": table.as_json(),
    }
    lines = ["bigraded dims of %s (k = 0..%d):" % (pres.name, table.kmax)]
    for l in range(table.lmax + 1):
        lines.append("l=%d: %s" % (l, " ".join(str(v) for v in table.row(l))))
    if args.fit:
        hp = fit_rows(table)
        report["fits"] = hp.as_json()["fits"]
        degs = hp.degrees()
        lines.append(
            "fit degrees: %s"
            % " ".join(
                "l=%d:%s" % (l, "zero" if d is None else d) for l, d in sorted(degs.items())
            )
        )
        if hp.all_stabilized():
            sd = sdim_from_hilbert(hp)
            report["sdim"] = sd
            label = "Krull super-dimension" if args.special else "super-dimension"
            lines.append("%s: %s" % (label, _sdim_text(sd)))
        else:
            bad = [l for l, f in sorted(hp.fits.items()) if f is None]
            report["not_stabilized_rows"] = bad
            lines.append(
                "rows not stabilized: %s (raise --kmax)"
                % " ".join(str(l) for l in bad)
            )
    return report, lines, []


def _scalar_from_json(field, c):
    """A cochain coefficient: a JSON integer, or {"num": n, "den": d} with
    JSON integers n and d (a float, a string or a boolean is refused)."""
    parts = (c["num"], c["den"]) if isinstance(c, dict) else (c,)
    if any(type(x) is not int for x in parts):
        raise UsageError(
            "bad coefficient %r in cochain file: not an integer or a num/den pair of integers"
            % (c,)
        )
    try:
        return field.of(Fraction(*parts))
    except ZeroDivisionError:
        raise UsageError("coefficient %r is not defined over %s" % (c, field.name))


def _load_cochain(path, A):
    try:
        data = json.loads(_read(path))
    except (ValueError, RecursionError) as exc:  # RecursionError: arrays nested too deep
        raise UsageError("bad cochain file %s: %s" % (path, exc))
    try:
        n = data["n"]
        if type(n) is not int:
            raise ValueError("arity %r is not a JSON integer" % (n,))
        parity = {"even": EVEN, "odd": ODD}[data["parity"]]
        raw = data.get("table", {})
        if not isinstance(raw, dict) or not all(isinstance(v, dict) for v in raw.values()):
            raise ValueError("the table and each of its values must be JSON objects")
        table = {}
        keys = {}
        for key, vec in raw.items():
            tup = tuple(int(x) for x in key.split(","))
            if tup in keys:
                raise ValueError("keys %r and %r name the same tuple" % (keys[tup], key))
            keys[tup] = key
            table[tup] = {
                int(r): _scalar_from_json(A.field, c) for r, c in vec.items()
            }
        f = Cochain(n, parity, table)
    except (KeyError, ValueError, TypeError) as exc:
        raise UsageError("bad cochain file %s: %s" % (path, exc))
    for tup, vec in table.items():
        for i in (*tup, *vec):
            if not 0 <= i < A.dim:
                raise UsageError("cochain index %d out of range" % i)
    bad = cochain_parity_violations(f, A, A.parities)
    if bad:
        raise UsageError("cochain values not parity-homogeneous at %r" % (bad[0],))
    return f


def _cochain_json(f):
    table = {}
    for tup, vec in sorted(f.table.items()):
        table[",".join(str(i) for i in tup)] = {
            str(r): scalar_to_data(vec[r]) for r in sorted(vec)
        }
    return {"n": f.n, "parity": "odd" if f.parity == ODD else "even", "table": table}


def _cmd_hochschild(args):
    if args.n < 0:
        raise UsageError("--n must be nonnegative, not %d" % args.n)
    A = _load_algebra(args)
    M = _load_module(args, A)
    report = {"command": "hochschild", "algebra": {"name": A.name, "dim": A.dim}}
    lines = []
    clauses = []
    if args.cocycle is None:
        if args.build_api or args.classify:
            raise UsageError("--build-api and --classify need --cocycle")
        even, odd = sh_dim(A, M, args.n)
        report["module"] = {"name": M.name, "dim": M.dim}
        report["n"] = args.n
        report["sh_dim"] = {"even": even, "odd": odd}
        lines.append("sh-dim n=%d: %d|%d" % (args.n, even, odd))
    else:
        if args.n != 1:
            raise UsageError("cocycle checks need --n 1")
        pi = _load_cochain(args.cocycle, A)
        clauses = [
            {"id": "cocycle-is-odd", "ok": pi.parity == ODD and pi.n == 1},
            {"id": "cocycle-super-skew", "ok": is_super_skew(pi, A)},
            {"id": "cocycle-condition", "ok": is_cocycle_pi(pi, A)},
            {"id": "cocycle-in-c1-subcomplex", "ok": is_in_C(pi, A, regular_module(A))},
        ]
        report["n"] = args.n
        report["clauses"] = clauses
        lines += _clause_lines(clauses)
        ok = all(cl["ok"] for cl in clauses)
        if ok and args.build_api:
            R = build_A_pi(A, pi)
            sd = sdim(regular_module(R))
            report["extension"] = {"name": R.name, "dim": R.dim, "sdim": sd}
            lines.append("extension dim %d, super-dimension %s" % (R.dim, _sdim_text(sd)))
        if ok and args.classify:
            pi2 = _load_cochain(args.classify, A)
            f = adapted_equivalence(pi, pi2, A)
            if f is None:
                report["equivalent"] = False
                lines.append("not adapted-equivalent")
            else:
                report["equivalent"] = True
                report["certificate"] = _cochain_json(f)
                lines.append(
                    "adapted-equivalent (certificate with %d nonzero images)"
                    % len(f.table)
                )
    return report, lines, _failed(clauses)


def _cmd_corpus(args):
    field = _field(args, QQ)
    if args.case == "all":
        reports = corpus_all(field=field)
    else:
        reports = {args.case: corpus_report(args.case, field=field)}
    lines = []
    failed = []
    for case in sorted(reports):
        rep = reports[case]
        lines.append("--- %s" % case)
        lines += _clause_lines(rep["clauses"])
        lines.append("ok = %s" % ("true" if rep["ok"] else "false"))
        failed += _failed(rep["clauses"], prefix=case + ".")
    return {"command": "corpus", "cases": reports}, lines, failed


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--field", help="override field: q or f<p>")
    common.add_argument("--format", choices=("text", "report"), default="text",
                        help="output format")
    common.add_argument("--seed", type=int, help="echoed sampling seed")

    p = argparse.ArgumentParser(
        prog="superdim",
        description="Krull super-dimension computations for finite-dimensional "
        "super-commutative algebras.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, func, help, algebra=True):
        sp = sub.add_parser(name, parents=[common], help=help)
        if algebra:
            sp.add_argument("algebra")
        sp.set_defaults(func=func)
        return sp

    sp = command("sdim", _cmd_sdim, "super-dimension of a module")
    sp.add_argument("--module", help="module file (default: regular module)")

    sp = command("odd-params", _cmd_odd_params, "systems of odd parameters")
    sp.add_argument("--module")
    sp.add_argument("--size", type=int, help="system length (default: longest)")

    sp = command("regular", _cmd_regular, "regular-sequence and factoring checks")
    sp.add_argument("--module", required=True)
    sp.add_argument("--elems", required=True, help="comma-separated odd elements")

    sp = command("gr", _cmd_gr, "associated graded algebra and module")
    sp.add_argument("--module")
    sp.add_argument("--ideal", required=True, help="comma-separated elements, or odd-radical")
    sp.add_argument("--bigraded", action="store_true")
    sp.add_argument("--verify", action="store_true")

    sp = command("hilbert", _cmd_hilbert, "bigraded dimension table and growth fits")
    sp.add_argument("--kmax", type=int, default=DEFAULT_KMAX)
    sp.add_argument("--lmax", type=int)
    sp.add_argument("--fit", action="store_true")
    sp.add_argument(
        "--special",
        action="store_true",
        help="input is a special bigraded algebra; label the result as the "
        "Krull super-dimension",
    )

    sp = command("hochschild", _cmd_hochschild, "cochain complex computations")
    sp.add_argument("--module")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--cocycle", help="JSON cochain file")
    sp.add_argument("--build-api", action="store_true", dest="build_api")
    sp.add_argument("--classify", help="second JSON cochain file")

    sp = command("corpus", _cmd_corpus, "run the built-in verified examples", algebra=False)
    sp.add_argument("--case", choices=CASES + ("all",), default="all")

    return p


@functools.cache
def _parser():
    """The argument parser, built on the first call and reused after it;
    ``parse_args`` returns a fresh namespace and leaves the parser as it was.
    Each subcommand's ``_cmd_*`` handler is bound at that first build."""
    return _build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        report, lines, failed = args.func(args)
    except ValueError as exc:  # ParseError, UsageError, AlgebraError, ModuleError
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if args.seed is not None:
        report["seed"] = args.seed
        lines.insert(0, "seed: %d" % args.seed)
    try:
        if args.format == "report":
            sys.stdout.write(emit_report(report))
        else:
            for line in lines:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed early (| head -c 10); devnull keeps the flush at exit quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: the output could not be written", file=sys.stderr)
        return 2
    for cid in failed:
        print("FAIL %s" % cid, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
