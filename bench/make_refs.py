"""Regenerate bench/refs.json, the output references of the correctness gate.

    python3 bench/make_refs.py

Runs every job the generators can draw (every level of each workload at the
default root and at every other unit k mod N, and every sweep) in a cold
forked child, as the benchmark does, and stores what the checks compare:
the sha256 of the exact coefficient fields, the certificate verdicts and
fire flags, and the sweep values. Only regenerate at a commit whose outputs
are known to be right; the stored file pins the outputs of the seed commit.
Per-job times go to standard error.
"""
from __future__ import annotations

import json
import sys

import run

sys.path.insert(0, str(run.SRC))
import jobs  # noqa: E402


def every_job() -> list[jobs.Job]:
    out = []
    for command, levels in (("coefficients", jobs.COEFF_LEVELS),
                            ("infinite-image", jobs.CERTIFY_LEVELS)):
        for r in levels:
            out += [jobs.Job(command, r, k) for k in [0] + jobs.other_roots(r)]
    out += [jobs.Job("sweep", r) for r in jobs.SWEEP_LEVELS]
    return out


def main() -> int:
    run.check_checkout(need_refs=False)
    import tljhecke.cli  # noqa: F401
    refs = {"coefficients": {}, "infinite-image": {}, "sweep": {}}
    for job in every_job():
        o = run.fork_call(run.job_body(job, False), 600)
        if o.error or o.rc != 0:
            sys.exit(f"{job.label()}: {o.error or f'exit code {o.rc}'}")
        refs[job.command][job.key] = jobs.reference_entry(job, o.output)
        print(f"{job.label():40s} {o.seconds:8.3f} s", file=sys.stderr, flush=True)
    with open(jobs.REFS_PATH, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
