"""Timing wrappers around superdim's layers, installed from outside the package.

A :class:`Tracer` keeps every span in memory as parallel arrays
(name, start, end, parent, job) and every count keyed by the innermost
open span.  :func:`install` wraps the public functions and methods named
in :data:`LAYERS`: functions are rebound under every name any
``superdim`` submodule imported them as, methods are replaced on their
class.  A wrapped call made while the innermost open span already has the
same name opens no new span; its time is that span's self time either way,
and the saved spans keep the hot Matrix and Echelon methods cheap to trace.

Self time of a span is its duration minus the part of it covered by its
child spans; :func:`self_times` computes it from the arrays alone.
"""

import sys
import time
from array import array

# Span name -> "module:qualname" of the functions and methods it times.
LAYERS = {
    "exactlin.matrix": [
        "exactlin:Matrix.from_rows", "exactlin:Matrix.from_cols_sparse",
        "exactlin:Matrix.identity", "exactlin:Matrix.zeros", "exactlin:Matrix.row_sparse",
        "exactlin:Matrix.cols_sparse", "exactlin:Matrix.apply", "exactlin:Matrix.compose",
        "exactlin:Matrix.transpose", "exactlin:Matrix.is_zero", "exactlin:Matrix.scaled",
        "exactlin:Matrix.__add__", "exactlin:Matrix.__sub__", "exactlin:Matrix.__neg__",
        "exactlin:Matrix.__eq__",
    ],
    "exactlin.echelon": [
        "exactlin:Echelon.reduce", "exactlin:Echelon.insert", "exactlin:Echelon.contains",
        "exactlin:Echelon.coords", "exactlin:Echelon.copy", "exactlin:Subspace.insert",
        "exactlin:Subspace.contains", "exactlin:Subspace.copy", "exactlin:Subspace.basis",
        "exactlin:Subspace.basis_with_parity", "exactlin:Subspace.__eq__",
    ],
    "exactlin.solve": [
        "exactlin:rank", "exactlin:rref", "exactlin:kernel_basis", "exactlin:solve",
        "exactlin:solve_sparse", "exactlin:kernel_of_constraints", "exactlin:in_span",
    ],
    "sdim.chain": ["sdim:odd_power_spans_of_module", "sdim:sdim_algebra"],
    "sdim.params": [
        "sdim:system_acts_nonzero", "sdim:odd_parameter_systems",
        "sdim:sdim_odd_by_subset_search", "sdim:subset_chain_agreement",
        "sdim:is_extendable_to_longest", "sdim:verify_factoring",
    ],
    "graded.gr": [
        "graded:ideal_powers", "graded:gr", "graded:gr_module", "graded:bgr",
        "graded:bgr_module", "graded:bgr_to_gr_surjective", "graded:class_in_degree",
        "graded:verify_graded_comparison",
    ],
    "hilbert.table": ["hilbert:bigraded_dims", "hilbert:box_monomials"],
    "hilbert.fit": ["hilbert:fit_rows", "hilbert:fit_polynomial", "hilbert:sdim_from_hilbert"],
    "hochschild.coboundary": ["hochschild:coboundary"],
    "hochschild.basis": ["hochschild:cochain_space_basis"],
    "hochschild.extension": [
        "hochschild:is_cocycle_pi", "hochschild:is_super_skew", "hochschild:is_in_C",
        "hochschild:build_A_pi", "hochschild:adapted_equivalence",
    ],
    "algebra.compile": ["algebra:compile_presentation"],
    "algebra.ideal": [
        "algebra:superideal_span", "algebra:odd_radical", "algebra:odd_power_span",
        "algebra:quotient_algebra",
    ],
    "smodule.module": [
        "smodule:check_module", "smodule:SuperModule.act_element", "smodule:quotient",
        "smodule:submodule", "smodule:product_span",
    ],
    "corpus.build": ["corpus:build_c1", "corpus:build_c2"],
    "corpus.verify": [
        "corpus:verify_c1", "corpus:verify_c2", "corpus:verify_gr_example",
        "corpus:verify_flat_example",
    ],
    "textio.parse": ["textio:parse_presentation", "textio:parse_module"],
    "textio.report": ["textio:emit_report"],
}

# The span every job runs in; its self time is the CLI's own work.
JOB_SPAN = "cli"


def _nnz(cochain):
    return sum(len(v) for v in cochain.table.values())


# "module:qualname" -> function(args, result) -> [(counter, amount)], taken at
# the call's boundary and attributed to the innermost open span.
COUNTS = {
    "exactlin:Matrix.__init__": lambda a, r: [
        ("exactlin.matrix_built", 1), ("exactlin.matrix_cells", a[1] * a[2])],
    "exactlin:Echelon.insert": lambda a, r: [
        ("exactlin.echelon_inserts", 1), ("exactlin.echelon_useful", r is not None)],
    "sdim:odd_power_spans_of_module": lambda a, r: [("sdim.chain_levels", len(r))],
    "sdim:system_acts_nonzero": lambda a, r: [("sdim.systems_tried", 1)],
    "graded:ideal_powers": lambda a, r: [("graded.stages", len(r))],
    "hilbert:box_monomials": lambda a, r: [("hilbert.boxes", 1), ("hilbert.monomials", len(r))],
    "hochschild:coboundary": lambda a, r: [
        ("hochschild.coboundary_calls", 1), ("hochschild.coboundary_out_nnz", _nnz(r))],
    "hochschild:cochain_space_basis": lambda a, r: [("hochschild.basis_dim", len(r))],
    "algebra:compile_presentation": lambda a, r: [("algebra.compiled_dim", r.dim)],
    "algebra:FiniteSuperAlgebra.mul": lambda a, r: [("algebra.mul_calls", 1)],
    "algebra:FiniteSuperAlgebra.mul_basis": lambda a, r: [("algebra.mul_basis_calls", 1)],
    "textio:emit_report": lambda a, r: [("textio.report_bytes", len(r.encode()))],
}


class Tracer:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.job = array("H")
        self.counts = {}  # (span index or -1, counter) -> amount
        self.stack = [-1]
        self.stack_names = [-1]
        self.job_id = 0

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid):
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.job.append(self.job_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.stack_names.append(nid)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self.stack.pop()
        self.stack_names.pop()

    def count(self, counter, amount):
        key = (self.stack[-1], counter)
        self.counts[key] = self.counts.get(key, 0) + amount

    def write(self, path):
        """Write spans as tab-separated lines, times in ns from the first span."""
        t0 = self.start[0] if self.start else 0.0
        names = self.names
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\tjob\n")
            for n, s, e, p, j in zip(self.name, self.start, self.end, self.parent, self.job):
                fh.write("%s\t%d\t%d\t%d\t%d\n" % (names[n], (s - t0) * 1e9, (e - t0) * 1e9, p, j))


def _span_wrapper(tracer, nid, fn, counter):
    stack_names = tracer.stack_names

    def wrapper(*args, **kwargs):
        if stack_names[-1] == nid:
            result = fn(*args, **kwargs)
            if counter is not None:
                for name, amount in counter(args, result):
                    tracer.count(name, amount)
            return result
        idx = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
            if counter is not None:
                for name, amount in counter(args, result):
                    tracer.count(name, amount)
        finally:
            tracer.close(idx)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _count_wrapper(tracer, fn, counter):
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        for name, amount in counter(args, result):
            tracer.count(name, amount)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _resolve(target):
    modname, qualname = target.split(":")
    owner = sys.modules["superdim." + modname]
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(tracer):
    """Wrap every target of LAYERS and COUNTS so that they report to ``tracer``."""
    span_of = {t: name for name, targets in LAYERS.items() for t in targets}
    for target in sorted(set(span_of) | set(COUNTS)):
        owner, attr = _resolve(target)
        raw = owner.__dict__[attr]
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        counter = COUNTS.get(target)
        if target in span_of:
            new = _span_wrapper(tracer, tracer.name_id(span_of[target]), fn, counter)
        else:
            new = _count_wrapper(tracer, fn, counter)
        if isinstance(owner, type):
            setattr(owner, attr, classmethod(new) if is_classmethod else new)
            continue
        # A module-level function: rebind it in every submodule that imported it.
        for modname, mod in list(sys.modules.items()):
            if modname == "superdim" or modname.startswith("superdim."):
                for alias, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, alias, new)


def self_times(name, start, end, parent):
    """Total self time per span name, from parallel columns.

    Spans are given in opening order; ``parent[i]`` is the index of span
    i's parent, or -1 for a root.  A span's self time is its duration minus
    the union of its children's intervals, clipped to its own.
    """
    n = len(start)
    covered = [0.0] * n
    reach = [None] * n  # latest end among the children seen so far
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], start[p])
        if reach[p] is not None:
            lo = max(lo, reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
        if reach[p] is None or end[i] > reach[p]:
            reach[p] = end[i]
    out = {}
    for i in range(n):
        out[name[i]] = out.get(name[i], 0.0) + (end[i] - start[i]) - covered[i]
    return out


def counts_under(name, parent, counts, counter, ancestor):
    """Total of ``counter`` over spans named ``ancestor`` or nested in one."""
    memo = {}

    def inside(i):
        path = []
        while i >= 0 and i not in memo:
            if name[i] == ancestor:
                memo[i] = True
                break
            path.append(i)
            i = parent[i]
        hit = memo.get(i, False)
        for j in path:
            memo[j] = hit
        return hit

    return sum(n for (i, c), n in counts.items() if c == counter and i >= 0 and inside(i))



def _span_metric(name):
    return "cli.self_s" if name == JOB_SPAN else name + "_s"


# Per-layer metrics as (name, unit, better): self times, then counts.
PER_LAYER = (
    [(_span_metric(n), "s", "lower") for n in list(LAYERS) + [JOB_SPAN]]
    + [(c, "count", "lower") for c in (
        "exactlin.matrix_built", "exactlin.matrix_cells", "exactlin.echelon_inserts",
        "sdim.chain_levels", "sdim.chain_inserts", "sdim.systems_tried", "graded.stages",
        "hilbert.boxes", "hilbert.monomials", "hochschild.coboundary_calls",
        "hochschild.coboundary_out_nnz", "hochschild.basis_dim", "algebra.compiled_dim",
        "algebra.mul_calls", "algebra.mul_basis_calls")]
    + [("textio.report_bytes", "bytes", "lower"),
       ("exactlin.insert_useful_ratio", "ratio", "higher"),
       ("trace.overhead_ratio", "ratio", "lower")]
)


def layer_metrics(tracer, job_speeds):
    """Every per-layer metric of one traced pass except trace.overhead_ratio.

    Self times are taken per (span name, job) and each is multiplied by
    its job's entry in ``job_speeds``, the factor that rescales the job's
    wall time to the reference host speed.
    """
    ids = {name: tracer.name_id(name) for name in list(LAYERS) + [JOB_SPAN]}
    own = self_times(list(zip(tracer.name, tracer.job)), tracer.start, tracer.end, tracer.parent)
    out = dict.fromkeys(map(_span_metric, ids), 0.0)
    by_id = {nid: _span_metric(name) for name, nid in ids.items()}
    for (nid, job), seconds in own.items():
        out[by_id[nid]] += seconds * job_speeds[job]
    totals = {}
    for (_span, counter), amount in tracer.counts.items():
        totals[counter] = totals.get(counter, 0) + amount
    for name, unit, _better in PER_LAYER:
        if unit in ("count", "bytes"):
            out[name] = totals.get(name, 0)
    out["sdim.chain_inserts"] = counts_under(
        tracer.name, tracer.parent, tracer.counts, "exactlin.echelon_inserts", ids["sdim.chain"]
    )
    inserts = totals.get("exactlin.echelon_inserts", 0)
    out["exactlin.insert_useful_ratio"] = (
        totals.get("exactlin.echelon_useful", 0) / inserts if inserts else 0.0
    )
    return out
