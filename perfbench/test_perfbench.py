"""Tests of the benchmark itself: inputs, span arithmetic and the correctness gate."""

import json
import os

import run
import spans
import workloads


def test_inputs_are_deterministic_per_seed():
    for name in workloads.WORKLOADS:
        files_a, jobs_a = workloads.inputs(name, 7)
        files_b, jobs_b = workloads.inputs(name, 7)
        assert files_a == files_b
        assert [(j.id, j.argv, j.large) for j in jobs_a] == [
            (j.id, j.argv, j.large) for j in jobs_b]


def test_seed_changes_generated_inputs_but_not_job_ids():
    files_a, jobs_a = workloads.inputs("chain", 1)
    files_b, jobs_b = workloads.inputs("chain", 2)
    assert files_a != files_b
    assert [j.id for j in jobs_a] == [j.id for j in jobs_b]
    # Corpus inputs are indexed by basis position, so the seed leaves them alone.
    assert [j.argv for j in workloads.inputs("corpus-q", 1)[1]] == [
        j.argv for j in workloads.inputs("corpus-q", 2)[1]]


def test_self_times_on_a_synthetic_span_tree():
    # 0 root [0, 10]: children 1 [1, 4] and 2 [3, 6] overlap, covering [1, 6].
    # 3 [4, 5] sits in 2; 4 [4.5, 5.5] sits in 3 but runs past its end.
    # 5 is a second root with the same name as 1.
    name = ["a", "b", "c", "d", "e", "b"]
    start = [0.0, 1.0, 3.0, 4.0, 4.5, 20.0]
    end = [10.0, 4.0, 6.0, 5.0, 5.5, 21.0]
    parent = [-1, 0, 0, 2, 3, -1]
    got = spans.self_times(name, start, end, parent)
    assert got == {"a": 5.0, "b": 4.0, "c": 2.0, "d": 0.5, "e": 1.0}


def test_counts_under_follows_parents():
    name = ["job", "chain", "echelon", "echelon"]
    parent = [-1, 0, 1, 0]
    counts = {(2, "inserts"): 5, (3, "inserts"): 7, (1, "levels"): 3, (-1, "inserts"): 1}
    assert spans.counts_under(name, parent, counts, "inserts", "chain") == 5
    assert spans.counts_under(name, parent, counts, "inserts", "job") == 12


def _one_job(monkeypatch, job_id):
    files, jobs = workloads.inputs("hochschild", 1)
    jobs = [j for j in jobs if j.id == job_id]
    monkeypatch.setattr(run.workloads, "inputs", lambda w, s: (files, jobs))
    monkeypatch.setattr(run, "SETUP_PROBES", 0)
    monkeypatch.setattr(run, "MIN_PASSES", 1)


def _result(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_wrong_expectation_fails_the_job_and_the_exit_status(monkeypatch, capsys):
    _one_job(monkeypatch, "grassmann2.n0")
    argv = ["--workload", "hochschild", "--seed", "1", "--seconds", "0"]
    good = run.load_expected()
    assert run.main(argv, expected=good) == 0
    result = _result(capsys)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 1

    bad = json.loads(json.dumps(good))
    bad["hochschild"]["grassmann2.n0"]["sh_dim"]["even"] += 1
    assert run.main(argv, expected=bad) == 1
    result = _result(capsys)
    assert not result["correct"] and result["failed"] == result["attempted"] == 1


def test_traced_run_reports_every_per_layer_metric(monkeypatch, capsys):
    _one_job(monkeypatch, "grassmann2.cocycle")
    argv = ["--workload", "hochschild", "--seed", "1", "--seconds", "0", "--trace", "1"]
    assert run.main(argv) == 0
    result = _result(capsys)
    assert result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(name for name, _u, _b in spans.PER_LAYER)
    assert result["metrics"]["hochschild.extension_s"]["value"] > 0


def test_benchmark_json_names_the_metrics_the_run_prints():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(
        spans.PER_LAYER)
