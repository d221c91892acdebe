"""Self-tests of the benchmark harness, at levels r <= 3 so they run in seconds.

    python3 -m pytest bench/selftest.py -q
"""
from __future__ import annotations

import json
import os
import signal
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
import run  # noqa: E402

sys.path.insert(0, str(run.SRC))
import jobs  # noqa: E402
import layers  # noqa: E402
import speedprobe  # noqa: E402
import tljhecke.cli  # noqa: E402,F401

SMALL_JOBS = [jobs.Job("verify", 3), jobs.Job("coefficients", 3),
              jobs.Job("coefficients", 2, 3), jobs.Job("infinite-image", 3, 7)]


def traced(job):
    out = run.fork_call(run.job_body(job, True), 60)
    assert out.error is None, out.error
    return out


def test_identical_jobs_report_identical_tet_misses():
    # a memo leaking from one job into the next would lower the second count
    job = jobs.Job("verify", 3)
    first, second = traced(job), traced(job)
    misses = [o.trace["layers"]["recoupling.tet_at"]["misses"] for o in (first, second)]
    assert misses[0] > 0
    assert misses[0] == misses[1]
    assert first.trace["layers"]["recoupling.tet_at"]["calls"] == \
        second.trace["layers"]["recoupling.tet_at"]["calls"]


@pytest.mark.parametrize("job", SMALL_JOBS, ids=lambda j: j.label())
def test_traced_output_is_byte_identical(job):
    plain = run.fork_call(run.job_body(job, False), 60)
    assert plain.error is None and plain.rc == 0
    assert traced(job).output == plain.output
    assert jobs.check_output(job, plain.rc, plain.output, jobs.load_refs()) is None


def test_parent_is_never_wrapped():
    traced(jobs.Job("verify", 2))
    from tljhecke import CycNumber, recoupling, rep_genus2
    assert CycNumber.inverse.__code__.co_name == "inverse"
    assert rep_genus2.tet_at is recoupling.tet_at
    assert recoupling.tet_at.cache_info().currsize == 0   # and nothing computed


def test_absent_name_is_reported_not_failed(monkeypatch):
    monkeypatch.setattr(layers, "TRACED", layers.TRACED + (("recoupling", "no_such_fn", True),
                                                            ("no_such_module", "f", False)))
    out = traced(jobs.Job("verify", 2))
    assert out.trace["absent"] == ["recoupling.no_such_fn", "no_such_module.f"]
    metrics, absent = layers.aggregate([out.trace], 0, 1.0)
    assert absent == ["no_such_module.f", "recoupling.no_such_fn"]


def test_timeout_kills_the_child():
    t0 = time.monotonic()
    out = run.fork_call(lambda: time.sleep(30), 1.0)
    assert out.error.startswith("timeout")
    assert time.monotonic() - t0 < 10


def test_speed_probe_takes_its_time_out_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    t0 = time.perf_counter()
    result, seconds, factor = speedprobe.timed(lambda: time.sleep(0.3) or "done")
    wall = time.perf_counter() - t0
    assert result == "done" and factor > 0
    assert 0.29 <= seconds < wall
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


@pytest.mark.parametrize("body, expect", [
    (lambda: os.kill(os.getpid(), signal.SIGKILL), "child killed by signal"),
    (lambda: os._exit(3), "child exit status 3"),
    (lambda: 1 / 0, "ZeroDivisionError"),
])
def test_crash_exit_and_exception_are_failures(body, expect):
    assert run.fork_call(body, 10).error.startswith(expect)


def test_nonzero_exit_and_mismatch_fail_the_check():
    refs = jobs.load_refs()
    job = jobs.Job("coefficients", 2)
    out = run.fork_call(run.job_body(job, False), 60)
    assert jobs.check_output(job, 2, out.output, refs) == "exit code 2"
    doc = json.loads(out.output)
    doc["tet"]["0,0,0,0,0,0"]["coeffs"][0] = [2, 1]
    assert jobs.check_output(job, 0, json.dumps(doc), refs) is not None
    doc = json.loads(out.output)
    doc["tet"]["0,0,0,0,0,0"]["approx"] = [0.0, 0.0]   # approx is not an exact field
    assert jobs.check_output(job, 0, json.dumps(doc), refs) is None


def test_small_runs_report_every_benchmark_metric(monkeypatch, capsys):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setattr(jobs, "VERIFY_LEVELS", (2, 3))
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        assert run.main(["--workload", "verify", "--seed", "5", "--seconds", "1",
                         "--trace", str(trace)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        meta, result = json.loads(lines[-2])["meta"], json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] == 4 * (2 - trace)
        assert {m["name"] for m in spec[key]} == set(result["metrics"])
        for m in spec[key]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert meta["jobs"] == result["attempted"] and meta["seed"] == 5


def test_per_layer_list_matches_the_tracer():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        layers.metric_names()


def test_job_stream_is_seeded_and_balanced():
    a = jobs.make_jobs("certify", 7, 2)
    assert a == jobs.make_jobs("certify", 7, 2)
    assert a != jobs.make_jobs("certify", 8, 2)
    assert [j.command for j in a[:4]] == ["infinite-image", "sweep"] * 2
    for r in jobs.CERTIFY_LEVELS:
        roots = [j.root for j in a if j.command == "infinite-image" and j.level == r]
        assert roots.count(0) == len(roots) // 2
    assert [run.tail_percentile(n) for n in (8, 24, 32, 36)] == [50, 58, 68, 72]
