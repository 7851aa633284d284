"""One benchmark worker: a fresh interpreter that sets up and runs one pass.

Usage: ``python3 worker.py CONFIG_JSON`` (started by ``run.py``).  The
worker imports superdim from ``<root>/src``, writes the workload's
generated inputs into its work directory, prints ``ready`` and, unless it
is a set-up probe, runs the job list once in order, each job as an
in-process ``superdim.cli.main`` call.  It times a calibration kernel
after set-up and after every job.  Its last stdout line is a JSON object
with the calibration times, each job's exit code, wall time and report
text, the peak RSS and, for a traced pass, the per-layer metrics.
"""

import contextlib
import gc
import io
import json
import os
import resource
import sys
import time
import traceback
from fractions import Fraction

import workloads


# Wall time of calibrate() at the reference host speed: a 2-vCPU Xeon
# sandbox running Python 3.11.7, in its quiet periods.
CALIBRATION_REF_S = 0.05


def job_speeds(calibration_s):
    """The host's speed during each job, relative to the reference speed.

    The host's speed drifts by tens of percent over minutes, which no
    amount of repetition within a run averages out.  A worker times
    calibrate() right after set-up and after each job.  A job's speed is
    the reference time over the mean of the two timings around it;
    multiplying its wall time by that speed rescales it to the reference
    speed.
    """
    return [2 * CALIBRATION_REF_S / (a + b) for a, b in zip(calibration_s, calibration_s[1:])]


def calibrate():
    """Wall time of a fixed stdlib-only kernel, with the cyclic GC off.

    The kernel mixes the operations superdim spends its time on: Fraction
    arithmetic, dict updates with int and tuple keys, and building sparse
    columns from dense rows.  With the GC off, the program's heap cannot
    slow the kernel, and the kernel triggers no collection of that heap;
    everything it allocates is freed before it returns.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _kernel()
    finally:
        if enabled:
            gc.enable()


def _kernel():
    t0 = time.perf_counter()
    third = Fraction(1, 3)
    for _ in range(4):
        acc = {}
        for i in range(4000):
            k = (i * 7) % 211
            v = acc.get(k)
            v = third * i if v is None else v + third * i
            if v:
                acc[k] = v
        table = {}
        for i in range(40):
            for j in range(40):
                table[(i, j)] = {(i * j) % 41: i - j} if (i + j) % 3 else {}
        sum(len(table[(j, i)]) for i in range(40) for j in range(40))
        rows = [[(i * j) % 13 for j in range(50)] for i in range(50)]
        [{i: r[c] for i, r in enumerate(rows) if r[c]} for c in range(50)]
    return time.perf_counter() - t0


def _run_job(main, argv, tracer, job_span):
    stdout, stderr = io.StringIO(), io.StringIO()
    error = None
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            if tracer is None:
                code = main(argv)
            else:
                idx = tracer.open(job_span)
                try:
                    code = main(argv)
                finally:
                    tracer.close(idx)
        except SystemExit as exc:  # argparse rejects a malformed argv this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is one failed job, not a failed benchmark
            code = None
            error = traceback.format_exc()
    seconds = time.perf_counter() - t0
    return {
        "exit": code,
        "seconds": seconds,
        "report": stdout.getvalue(),
        "stderr": stderr.getvalue()[-2000:],
        "error": error,
    }


def main():
    cfg = json.loads(sys.argv[1])
    src = os.path.join(cfg["root"], "src")
    sys.path.insert(0, src)
    import superdim
    import superdim.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(superdim.__file__))) != src:
        print("superdim imported from %s, not %s" % (superdim.__file__, src), file=sys.stderr)
        return 2
    files, _jobs = workloads.inputs(cfg["workload"], cfg["seed"])
    work = cfg["work"]
    os.makedirs(work, exist_ok=True)
    for name, text in files.items():
        with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    out = sys.stdout
    out.write("ready\n")
    out.flush()
    result = {"calibration_s": [calibrate()]}
    if cfg["mode"] != "setup":
        result.update(_run_pass(cfg, src, work, result["calibration_s"]))
    out.write(json.dumps(result) + "\n")
    out.flush()
    return 0


def _run_pass(cfg, src, work, calibration_s):
    """Run the jobs in order, appending a calibration after each job."""
    import superdim.cli

    tracer = job_span = None
    if cfg["mode"] == "trace":
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
        job_span = tracer.name_id(spans.JOB_SPAN)
    assets = os.path.join(src, "superdim", "assets")
    results = []
    for k, job in enumerate(cfg["jobs"]):
        argv = [a.format(work=work, assets=assets) for a in job["argv"]]
        if tracer is not None:
            tracer.job_id = k
        results.append(_run_job(superdim.cli.main, argv + ["--format", "report"], tracer, job_span))
        calibration_s.append(calibrate())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layers = None
    if tracer is not None:
        layers = spans.layer_metrics(tracer, job_speeds(calibration_s))
        tracer.write(cfg["spans"])
    return {"jobs": results, "peak_rss_mb": peak_rss_mb, "layers": layers}


if __name__ == "__main__":
    sys.exit(main())
