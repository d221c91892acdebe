"""Job streams for the three workloads, the job bodies run in a child, and
the output checks against the stored references.

A workload is a list of balanced rounds. Within a round every level of the
workload appears equally often, half of its CLI jobs at the default unitary
root and half at another unit k mod N drawn from the seed; the seed also
fixes the order. The code paths (unitarity check, sign pass) are therefore
the same for every seed, while the conjugates and the order vary.
"""
from __future__ import annotations

import hashlib
import io
import json
import math
import random
import re
import sys
from dataclasses import dataclass
from pathlib import Path

REFS_PATH = Path(__file__).resolve().parent / "refs.json"

VERIFY_LEVELS = (2, 3, 4, 5, 6, 7)
COEFF_LEVELS = (2, 3, 4, 5, 6, 7)
CERTIFY_LEVELS = (3, 4, 5, 7)
SWEEP_LEVELS = (5, 7)

# published k=1 traces of J T J T^-1 (trace-table, A = e^(i pi/(r+2)))
K1_TRACES = {3: 4.24, 5: 10.54, 7: 32.16}
K1_TOLERANCE = 0.01
SWEEP_TOLERANCE = 1e-12

WORKLOADS = ("verify", "certify", "coefficients")


@dataclass(frozen=True)
class Job:
    """One job: a CLI command ("verify", "infinite-image", "coefficients")
    at a level and root exponent (0 = the default unitary root), or the
    library call "sweep" = trace_galois_sweep(level)."""

    command: str
    level: int
    root: int = 0

    @property
    def key(self) -> str:
        return f"{self.level}:{self.root}"

    def argv(self) -> list[str]:
        argv = ["--format", "json", self.command]
        if self.command == "verify":
            argv += ["--genus", "0"]
        argv += ["--level", str(self.level)]
        if self.root:
            argv += ["--root", str(self.root)]
        return argv

    def label(self) -> str:
        if self.command == "sweep":
            return f"sweep r={self.level}"
        return f"{self.command} r={self.level} k={self.root or 'default'}"


def other_roots(level: int) -> list[int]:
    """Every unit k mod N except the default unitary exponent."""
    from tljhecke import TheoryParams
    params = TheoryParams(level)
    N = params.root_order
    return [k for k in range(1, N) if math.gcd(k, N) == 1 and k != params.root_exponent]


def _cli_round(command: str, levels, rng: random.Random) -> list[Job]:
    jobs = []
    for r in levels:
        jobs.append(Job(command, r, 0))
        jobs.append(Job(command, r, rng.choice(other_roots(r))))
    rng.shuffle(jobs)
    return jobs


def make_round(workload: str, rng: random.Random) -> list[Job]:
    if workload == "verify":
        return _cli_round("verify", VERIFY_LEVELS, rng)
    if workload == "coefficients":
        return _cli_round("coefficients", COEFF_LEVELS, rng)
    if workload == "certify":
        certs = _cli_round("infinite-image", CERTIFY_LEVELS, rng)
        sweeps = [Job("sweep", r) for r in SWEEP_LEVELS] * (len(certs) // len(SWEEP_LEVELS))
        rng.shuffle(sweeps)
        return [j for pair in zip(certs, sweeps) for j in pair]
    raise ValueError(f"unknown workload {workload!r}")


def make_jobs(workload: str, seed: int, rounds: int) -> list[Job]:
    rng = random.Random(f"{workload}:{seed}")
    return [j for _ in range(rounds) for j in make_round(workload, rng)]


# --------------------------------------------------------------------------
# the job body, run inside a forked child

def run_job(job: Job) -> tuple[int, str]:
    """Run one job and return (exit code, output text)."""
    if job.command == "sweep":
        from tljhecke.rep_genus2 import trace_galois_sweep
        sweep = trace_galois_sweep(job.level)
        return 0, json.dumps([[k, z.real, z.imag] for k, z in sweep])
    from tljhecke import cli
    buf = io.StringIO()
    saved, sys.stdout = sys.stdout, buf
    try:
        rc = cli.main(job.argv())
    finally:
        sys.stdout = saved
    return rc, buf.getvalue()


# --------------------------------------------------------------------------
# output checks

def exact_digest(doc) -> str:
    """sha256 of a coefficients document with every cyclotomic number cut
    down to its exact fields (order, coeffs); the float approx is dropped."""
    def strip(x):
        if isinstance(x, dict):
            if "coeffs" in x and "order" in x:
                return {"order": x["order"], "coeffs": x["coeffs"]}
            return {k: strip(v) for k, v in x.items()}
        if isinstance(x, list):
            return [strip(v) for v in x]
        return x
    canon = json.dumps(strip(doc), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def certify_summary(doc: dict) -> dict:
    certs = doc["certificates"]
    return {"verdict": doc["verdict"],
            "minpoly_fires": certs["minimal_polynomial"]["fires"],
            "trace_fires": certs["trace"]["fires"]}


_TRACE_RE = re.compile(r"tr = (-?[0-9.]+)")


def reference_entry(job: Job, output: str):
    """What the references store for one job's output."""
    if job.command == "coefficients":
        return exact_digest(json.loads(output))
    if job.command == "infinite-image":
        return certify_summary(json.loads(output))
    if job.command == "sweep":
        return json.loads(output)
    raise ValueError(f"no reference kept for {job.command}")


def load_refs() -> dict:
    with open(REFS_PATH) as fh:
        return json.load(fh)


def check_output(job: Job, rc: int, output: str, refs: dict) -> str | None:
    """None when the output is correct, else the reason it is not."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        return _check_doc(job, json.loads(output), refs)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"


def _check_doc(job: Job, doc, refs: dict) -> str | None:
    want = refs.get(job.command, {}).get(job.key)
    if want is None and job.command != "verify":
        return f"no reference for {job.label()}"
    if job.command == "verify":
        bad = [rel["relation"] for rep in doc["reports"] for rel in rep["relations"]
               if rel["pass"] is not True]
        if not doc["reports"] or bad:
            return f"relations not passing: {bad}"
        return None
    if job.command == "coefficients":
        return None if exact_digest(doc) == want else "coefficient tables differ"
    if job.command == "infinite-image":
        if certify_summary(doc) != want:
            return f"certificate verdicts differ: {certify_summary(doc)}"
        if job.level in K1_TRACES:
            m = _TRACE_RE.search(doc["certificates"]["trace"]["details"])
            if m is None or abs(float(m.group(1)) - K1_TRACES[job.level]) > K1_TOLERANCE:
                return "k=1 trace off the published value"
        return None
    if job.command == "sweep":
        if len(doc) != len(want):
            return "sweep has the wrong number of conjugates"
        for (k, re_, im), (wk, wre, wim) in zip(doc, want):
            if k != wk or abs(re_ - wre) > SWEEP_TOLERANCE or abs(im - wim) > SWEEP_TOLERANCE:
                return f"sweep value at k={k} differs"
        k1 = dict((k, re_) for k, re_, _ in doc)[1]
        if abs(k1 - K1_TRACES[job.level]) > K1_TOLERANCE:
            return "k=1 trace off the published value"
        return None
    return f"unknown command {job.command}"
