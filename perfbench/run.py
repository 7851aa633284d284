"""superdim benchmark: fixed lists of CLI jobs, timed end to end and per layer.

Usage::

    python3 perfbench/run.py --workload corpus-q --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; superdim is imported from ``src/``.
Each pass is a closed loop with one client: a fresh interpreter
(``worker.py``) imports superdim, writes the workload's generated inputs,
and runs the jobs one after another; only one worker runs at a time.
Passes repeat while the next one, at the median pass time so far, still
ends within ``--seconds`` of the start (at least MIN_PASSES of them).
Every job's exit code and report are checked against ``expected.json``;
any mismatch counts as a failed job and makes the exit status 1.

With ``--trace 0`` the metrics are the end-to-end ones: medians over the
run's samples of the wall times, rescaled to the reference host speed
(worker.job_speeds), and of the peak RSS.  With ``--trace 1`` untraced and
traced passes alternate: the traced pass wraps superdim's layers
(``spans.py``), the per-layer metrics come from it, each traced report
must match the untraced report byte for byte, and
``trace.overhead_ratio`` is traced over untraced pass time.

The last stdout line is the JSON result; the lines before it print every
metric by name and unit, with quartiles and sample counts, and the wall
times as measured.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import spans
import workloads
from worker import CALIBRATION_REF_S, job_speeds

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")
MIN_PASSES = 3
SETUP_PROBES = 3  # extra set-up-only workers, so set-up has enough samples
WORKER_TIMEOUT = 150.0

# Report fields compared with expected.json: they do not depend on the seed.
EXPECTED_KEYS = ("sdim", "odd_chain_dims", "component_dims", "sh_dim", "count", "equivalent")

# The end-to-end metrics of the JSON result.  The times are wall times
# rescaled to the reference host speed (see worker.job_speeds()); the
# wall times as measured are printed beside them as *_wall_s.
END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("large_s", "s"),
    ("small_s", "s"),
    ("peak_rss_mb", "MB"),
)
WALL = ("setup_wall_s", "pass_wall_s")


class BenchError(RuntimeError):
    pass


def digest(report):
    """The seed-independent fields of a report, keyed by their JSON path."""
    out = {}

    def walk(node, path):
        if isinstance(node, dict):
            for key in sorted(node):
                sub = "%s.%s" % (path, key) if path else key
                if key in EXPECTED_KEYS:
                    out[sub] = node[key]
                elif key == "clauses":
                    out[sub] = {cl["id"]: cl["ok"] for cl in node[key]}
                else:
                    walk(node[key], sub)
        elif isinstance(node, list):
            for i, item in enumerate(node):
                walk(item, "%s[%d]" % (path, i))

    walk(report, "")
    return out


def load_expected():
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)


def job_problem(job, result, expected):
    """Why a job's result fails the gate, or None when it passes."""
    if result["error"]:
        return "raised: " + result["error"].strip().splitlines()[-1]
    if result["exit"] != 0:
        return "exit %r: %s" % (result["exit"], result["stderr"].strip()[:200])
    try:
        data = json.loads(result["report"])
    except ValueError:
        return "report is not JSON"
    if job.id not in expected:
        return "no recorded expectation"
    if digest(data) != expected[job.id]:
        return "report differs from the recorded expectation"
    if job.golden:
        with open(os.path.join(SRC, "superdim", "assets", job.golden), "rb") as fh:
            golden = fh.read()
        (case,) = data["cases"].values()
        if (json.dumps(case, sort_keys=True, indent=2) + "\n").encode() != golden:
            return "report differs from %s" % job.golden
    return None


def cross_problems(jobs, results):
    """Pairs of jobs that must agree: {job id: problem} for the second of each."""
    by_id = {job.id: r for job, r in zip(jobs, results)}
    out = {}
    for first, second, key in workloads.CROSS_CHECKS:
        if first in by_id and second in by_id:
            try:
                a = json.loads(by_id[first]["report"]).get(key)
                b = json.loads(by_id[second]["report"]).get(key)
            except ValueError:
                continue  # already failed as "report is not JSON"
            if a != b:
                out[second] = "%s %s=%r disagrees with %s %s=%r" % (second, key, b, first, key, a)
    return out


def spawn(cfg):
    """Start one worker; return (set-up seconds, its result or None)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(cfg)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, cwd=ROOT,
                            text=True)
    timer = threading.Timer(WORKER_TIMEOUT, proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        shutil.rmtree(cfg["work"], ignore_errors=True)
    if ready != "ready\n" or code != 0:
        raise BenchError("worker (%s) exited with %r before finishing" % (cfg["mode"], code))
    return setup_s, json.loads(rest.splitlines()[-1])


def scaled_seconds(result, select=lambda k: True):
    """Sum of the selected jobs' wall times, rescaled by worker.job_speeds()."""
    speeds = job_speeds(result["calibration_s"])
    return sum(r["seconds"] * f for k, (r, f) in enumerate(zip(result["jobs"], speeds))
               if select(k))


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them; all equal for one value."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Run:
    """One workload at one seed: its workers, gate and metrics."""

    def __init__(self, workload, seed, expected):
        self.workload = workload
        self.seed = seed
        self.expected = expected
        _files, self.jobs = workloads.inputs(workload, seed)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self._n = 0

    def worker(self, mode, reference=None):
        """Run one worker and gate its jobs; a traced pass also against ``reference``."""
        self._n += 1
        os.makedirs(STATE, exist_ok=True)
        cfg = {
            "root": ROOT,
            "workload": self.workload,
            "seed": self.seed,
            "mode": mode,
            "work": os.path.join(STATE, "work-%d-%d" % (os.getpid(), self._n)),
            "spans": os.path.join(STATE, "spans-%s.tsv" % self.workload),
            "jobs": [{"id": job.id, "argv": job.argv} for job in self.jobs],
        }
        setup_s, result = spawn(cfg)
        if mode != "setup":
            self._gate(result, reference)
        return setup_s, result

    def _gate(self, result, reference):
        results = result["jobs"]
        cross = cross_problems(self.jobs, results)
        for k, (job, r) in enumerate(zip(self.jobs, results)):
            problem = job_problem(job, r, self.expected) or cross.get(job.id)
            if reference is not None and not problem and (
                    r["report"] != reference["jobs"][k]["report"]):
                problem = "traced report differs from the untraced report"
            self.attempted += 1
            if problem:
                self.failed += 1
                self.problems.append("%s: %s" % (job.id, problem))

    def is_large(self, large):
        return lambda k: self.jobs[k].large == large

    def measure(self, seconds):
        """End-to-end samples: {metric: [values]}."""
        t0 = time.perf_counter()
        self.worker("setup")  # writes bytecode caches; not a sample
        probes = [self.worker("setup") for _ in range(SETUP_PROBES)]
        runs = _repeat(lambda: self.worker("pass"), t0, seconds, MIN_PASSES)
        passes = [result for _setup_s, result in runs]
        everyone = probes + runs
        # Set-up is rescaled by the calibration taken right after it.
        return {
            "setup_s": [s * CALIBRATION_REF_S / r["calibration_s"][0] for s, r in everyone],
            "pass_s": [scaled_seconds(p) for p in passes],
            "large_s": [scaled_seconds(p, self.is_large(True)) for p in passes],
            "small_s": [scaled_seconds(p, self.is_large(False)) for p in passes],
            "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
            "setup_wall_s": [s for s, _r in everyone],
            "pass_wall_s": [sum(r["seconds"] for r in p["jobs"]) for p in passes],
            "host_speed": [CALIBRATION_REF_S / statistics.mean(r["calibration_s"])
                           for _s, r in everyone],
        }

    def measure_traced(self, seconds):
        """Per-layer samples from alternating untraced and traced passes."""
        t0 = time.perf_counter()
        self.worker("setup")

        def pair():
            plain = self.worker("pass")[1]
            return plain, self.worker("trace", reference=plain)[1]

        plain, traced = zip(*_repeat(pair, t0, seconds, 1))
        samples = {name: [t["layers"][name] for t in traced] for name in traced[0]["layers"]}
        ratio = statistics.median(scaled_seconds(t) for t in traced) / (
            statistics.median(scaled_seconds(p) for p in plain))
        samples["trace.overhead_ratio"] = [ratio]
        return samples


def _repeat(step, t0, seconds, minimum):
    """Call ``step`` at least ``minimum`` times, then while the next call,
    at the median duration so far, would end within ``seconds`` of ``t0``."""
    out, took = [], []
    while True:
        t = time.perf_counter()
        out.append(step())
        took.append(time.perf_counter() - t)
        if len(out) >= minimum and time.perf_counter() - t0 + statistics.median(took) > seconds:
            return out


def _loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return " ".join(fh.read().split()[:3])
    except OSError:
        return "unavailable"


def run_workload(workload, seed, seconds, trace, expected):
    """Measure one workload; print its block; return (attempted, failed, metrics)."""
    print("== %s seed=%d seconds=%g trace=%d python=%s nproc=%d loadavg_before=%s" % (
        workload, seed, seconds, trace, sys.version.split()[0], os.cpu_count() or 0, _loadavg()))
    run = Run(workload, seed, expected[workload])
    if trace:
        samples = run.measure_traced(seconds)
        reported = {name: unit for name, unit, _better in spans.PER_LAYER}
        units = reported
    else:
        samples = run.measure(seconds)
        reported = dict(END_TO_END)
        units = dict(reported, host_speed="ratio", **{name: "s" for name in WALL})
    metrics = {}
    for name, values in samples.items():
        q1, med, q3 = quartiles(values)
        if name in reported:
            metrics[name] = {"value": med, "unit": units[name]}
        print("%-34s %.6g %s (q1 %.6g, q3 %.6g, n=%d)" % (name, med, units[name], q1, q3,
                                                        len(values)))
    print("%-34s %.6g ratio (%d of %d jobs failed)" % (
        "failed_frac", run.failed / max(run.attempted, 1), run.failed, run.attempted))
    for problem in run.problems[:20]:
        print("FAILED " + problem)
    print("loadavg_after=%s" % _loadavg())
    return run.attempted, run.failed, metrics


def main(argv=None, expected=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "superdim", "__init__.py")):
        print("error: no superdim source at %s" % SRC, file=sys.stderr)
        return 2
    if expected is None:
        expected = load_expected()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            a, f, m = run_workload(name, args.seed, args.seconds, args.trace, expected)
            attempted += a
            failed += f
            prefix = name + "." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in m.items()})
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    # On SIGTERM, unwind through spawn()'s cleanup, which stops the worker.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    sys.exit(main())
