"""Cold-job benchmark for tljhecke.

    python3 bench/run.py --workload verify --seed 1 --seconds 35 --trace 0

Generates the workload's job stream from the seed and runs it closed-loop
with one client. Every job runs in a child forked from this process, which
has imported ``tljhecke.cli`` and computed nothing, so every job starts with
all memos cold, as a fresh CLI invocation does after import. Each job is
timed inside the child around the call, and its output is checked against
bench/refs.json. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics, measured without tracing. Their
times are scaled to a reference machine speed by the probe in speedprobe.py,
which runs in the same thread before, during and after each timed call; the
times as measured are in the ``{"meta"}`` line before the result.
``--trace 1`` runs each job of the first ``rounds // 2`` (at least one)
rounds twice, untraced and then traced (see layers.py), and reports the
per-layer metrics and the tracing overhead; a traced output that is not
byte-identical to the untraced one fails the job.

The job count is fixed by ``--seconds`` and a nominal round time measured at
the seed commit (at least two rounds), so a run does the same work on every
commit and the tail percentile stays the same.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import mpmath

import jobs
import layers
import speedprobe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# seconds one balanced round took at the seed commit (2-core x86-64 VM,
# Python 3.11, no gmpy2); with --seconds it fixes the job count. At least
# MIN_ROUNDS rounds, so that every workload has 20 jobs or more and its tail
# percentile lies above the median.
NOMINAL_ROUND_S = {"verify": 13.5, "certify": 24.0, "coefficients": 11.5}
MIN_ROUNDS = 2
SETUP_SAMPLES = 7
JOB_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 150.0
TAIL_BEYOND = 10

IMPORT_PROBE = (
    "import importlib, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import speedprobe\n"
    "cli, seconds, factor = speedprobe.timed(lambda: importlib.import_module('tljhecke.cli'))\n"
    "print(seconds, factor, cli.__file__)\n"
)


@dataclass
class Outcome:
    """What the parent learns about one child run."""

    seconds: float          # timed inside the child, or wall time on failure
    factor: float = 1.0     # to the reference speed (speedprobe)
    rc: int | None = None
    output: str = ""
    trace: dict | None = None
    error: str | None = None
    maxrss_kb: int = 0


def fork_call(fn, timeout: float) -> Outcome:
    """Run ``fn()`` in a forked child and return its outcome.

    ``fn`` returns a JSON-serializable dict with keys seconds, rc, output and
    trace. An exception, a crash, a non-zero child exit or running past
    ``timeout`` (the child is killed) all come back as ``error``.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:  # child
        code = 0
        try:
            os.close(rfd)
            try:
                payload = fn()
            except Exception as exc:  # report it; the parent counts the failure
                payload = {"error": f"{type(exc).__name__}: {exc}"}
            data = json.dumps(payload).encode()
            view = memoryview(data)
            while view:
                view = view[os.write(wfd, view):]
        except BaseException:
            code = 70
        finally:
            os._exit(code)
    os.close(wfd)
    chunks = []
    done = timed_out = False
    deadline = time.monotonic() + timeout
    try:
        while not done:
            left = deadline - time.monotonic()
            if left <= 0:
                timed_out = True
                break
            ready, _, _ = select.select([rfd], [], [], left)
            if ready:
                chunk = os.read(rfd, 1 << 20)
                chunks.append(chunk)
                done = not chunk
    finally:
        os.close(rfd)
        if not done:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    out = Outcome(seconds=wall, maxrss_kb=usage.ru_maxrss)
    if timed_out:
        out.error = f"timeout after {timeout:.0f} s"
    elif os.WIFSIGNALED(status):
        out.error = f"child killed by signal {os.WTERMSIG(status)}"
    elif os.WEXITSTATUS(status) != 0:
        out.error = f"child exit status {os.WEXITSTATUS(status)}"
    else:
        try:
            payload = json.loads(b"".join(chunks))
        except ValueError:
            out.error = "child sent no result"
            return out
        if "error" in payload:
            out.error = payload["error"]
        else:
            out.seconds = payload["seconds"]
            out.factor = payload["factor"]
            out.rc = payload["rc"]
            out.output = payload["output"]
            out.trace = payload.get("trace")
    return out


def job_body(job, trace: bool):
    """The function a child runs for ``job``. An untraced job is timed with
    the speed probe around and inside it; a traced one is timed plainly."""
    def body():
        if not trace:
            (rc, output), seconds, factor = speedprobe.timed(lambda: jobs.run_job(job))
            return {"seconds": seconds, "factor": factor, "rc": rc, "output": output}
        tracer = layers.Tracer()
        tracer.install()
        t0 = time.perf_counter()
        rc, output = jobs.run_job(job)
        seconds = time.perf_counter() - t0
        return {"seconds": seconds, "factor": 1.0, "rc": rc, "output": output,
                "trace": tracer.snapshot()}
    return body


# --------------------------------------------------------------------------
# set-up and metadata

def check_checkout(need_refs: bool = True) -> None:
    if not (SRC / "tljhecke" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'tljhecke'} not found; run from a tljhecke checkout")
    if need_refs and not jobs.REFS_PATH.is_file():
        sys.exit("error: bench/refs.json not found")


def time_import() -> tuple[float, float]:
    """Import time of tljhecke.cli in a fresh interpreter, and its factor to
    the reference speed."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(BENCH)], env=env,
                          cwd=ROOT, capture_output=True, text=True, timeout=20, check=True)
    seconds, factor, path = proc.stdout.split(maxsplit=2)
    if not Path(path.strip()).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported tljhecke from {path.strip()}, not {SRC}")
    return float(seconds), float(factor)


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "tljhecke").glob("*.py")):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    try:
        # the ceiling keeps git from answering for a repository above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def metadata(args, n_jobs: int, rounds: int, tail_pct: int) -> dict:
    import importlib.metadata as im
    import importlib.util

    def version(pkg):
        try:
            return im.version(pkg)
        except im.PackageNotFoundError:
            return None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds, "jobs": n_jobs,
        "tail_percentile": tail_pct,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": version("numpy"), "mpmath": version("mpmath"),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "git_commit": git_commit(), "source_sha256": source_digest(),
        "machine": platform.machine(),
        "speed_probe": {"period_s": speedprobe.PERIOD_S,
                        "reference_s": speedprobe.REFERENCE_PROBE_S},
    }


# --------------------------------------------------------------------------
# statistics

def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least TAIL_BEYOND of n jobs
    beyond it (nearest rank), but never below the median."""
    p = 99
    while p > 50 and n - math.ceil(p * n / 100) < TAIL_BEYOND:
        p -= 1
    return p


def hd_quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted average of
    every order statistic. The job mix puts p50 and the tail on the border
    between two levels' clusters of times, where one order statistic swings
    with the noise of a single job; the weighted average is steadier."""
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    return sum(float(mpmath.betainc(a, b, i / n, (i + 1) / n, regularized=True)) * x
               for i, x in enumerate(xs))


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# --------------------------------------------------------------------------

@dataclass
class Record:
    """One job's result as the run keeps it; outputs are checked and dropped
    at once, so the runner's memory (which every child inherits) stays flat."""

    job: jobs.Job
    seconds: float
    maxrss_kb: int
    failure: str | None
    trace: dict | None = None
    traced_seconds: float = 0.0
    out_bytes: int = 0
    factor: float = 1.0     # to the reference speed (speedprobe)

    @property
    def ref_seconds(self) -> float:
        return self.seconds * self.factor


def run_one(job: jobs.Job, refs: dict, trace: bool, deadline: float) -> Record:
    left = deadline - time.monotonic()
    if left <= 1:
        return Record(job, 0.0, 0, "run deadline passed")
    plain = fork_call(job_body(job, False), min(JOB_TIMEOUT_S, left))
    rec = Record(job, plain.seconds, plain.maxrss_kb, plain.error, factor=plain.factor)
    if rec.failure is None:
        rec.failure = jobs.check_output(job, plain.rc, plain.output, refs)
    if trace and rec.failure is None:
        left = deadline - time.monotonic()
        traced = fork_call(job_body(job, True), max(1.0, min(JOB_TIMEOUT_S, left)))
        rec.failure = traced.error
        if rec.failure is None and traced.output != plain.output:
            rec.failure = "traced output differs from untraced output"
        rec.trace = traced.trace
        rec.traced_seconds = traced.seconds
        if job.command != "sweep":
            rec.out_bytes = len(traced.output.encode())
    return rec


def run(args) -> dict:
    check_checkout()
    sys.path.insert(0, str(SRC))

    rounds = max(MIN_ROUNDS, math.floor(args.seconds / NOMINAL_ROUND_S[args.workload]))
    samples = [time_import() for _ in range(SETUP_SAMPLES)]

    def parent_setup():
        import tljhecke.cli  # noqa: F401  (the parent every job forks from)
        return (jobs.make_jobs(args.workload, args.seed,
                               rounds if not args.trace else max(1, rounds // 2)),
                jobs.load_refs())
    (job_list, refs), own, own_factor = speedprobe.timed(parent_setup)

    deadline = time.monotonic() + RUN_DEADLINE_S
    records = [run_one(job, refs, bool(args.trace), deadline) for job in job_list]
    setup_raw_s = statistics.median(s for s, _ in samples) + own
    setup_s = statistics.median(s * f for s, f in samples) + own * own_factor

    failures = [f"{r.job.label()}: {r.failure}" for r in records if r.failure]
    for line in failures:
        print("FAILED", line, file=sys.stderr)
    n = len(records)
    ok = n - len(failures)
    tail_pct = tail_percentile(n)
    meta = metadata(args, n, rounds, tail_pct)
    if args.trace:
        traced = [r for r in records if r.trace is not None]
        untraced_total = sum(r.seconds for r in traced)
        metrics, meta["absent"] = layers.aggregate(
            [r.trace for r in traced], sum(r.out_bytes for r in traced),
            sum(r.traced_seconds for r in traced) / untraced_total if untraced_total else 0.0)
    else:
        times = [r.ref_seconds for r in records]
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "jobs_per_s": metric(ok / sum(times) if sum(times) else 0.0, "1/s"),
            "job_s.p50": metric(hd_quantile(times, 0.5), "s"),
            "job_s.tail": metric(hd_quantile(times, tail_pct / 100), "s"),
            "success_rate": metric(ok / n, "ratio"),
            "peak_rss_mb": metric(max(r.maxrss_kb for r in records) / 1024, "MB"),
        }
    raw = [r.seconds for r in records]
    meta["raw"] = {"setup_s": setup_raw_s, "jobs_per_s": ok / sum(raw) if sum(raw) else 0.0,
                   "job_s.p50": hd_quantile(raw, 0.5),
                   "job_s.tail": hd_quantile(raw, tail_pct / 100)}
    meta["setup_samples"] = samples + [(own, own_factor)]
    meta["failures"] = failures
    # label, seconds as measured, speed factor
    meta["job_seconds"] = [[r.job.label(), round(r.seconds, 6), round(r.factor, 4)]
                           for r in records]
    return {"meta": meta, "result": {"correct": not failures, "attempted": n,
                                     "failed": len(failures), "metrics": metrics}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    report = run(args)
    print(json.dumps({"meta": report["meta"]}))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
