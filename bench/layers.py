"""Outside-in layer tracing.

The benchmark's traced run wraps public functions of the program from here,
without editing the program: in the forked child that runs a job, each
traced name is rebound on its class, or in every ``tljhecke`` module that
holds the same function object, to a wrapper that records a span. From the
spans come, per name, the call count and the self time (span time minus the
time of wrapped calls made inside it); memoized names also give their cache
misses from the ``cache_info()`` delta. A name the program no longer has is
reported as absent, never as an error. Untraced runs never import this
module's wrappers into the program.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, attribute path, memoized): the names the traced run wraps.
# The end-to-end metric each should move, and on which workload, is in
# bench/README.md.
TRACED = (
    ("exactnum", "CycNumber.inverse", False),
    ("exactnum", "sqrt_in_field", False),
    ("exactnum", "CycNumber.real_sign", False),
    ("exactnum", "specialize", False),
    ("recoupling", "tet_at", True),
    ("recoupling", "sixj_at", True),
    ("recoupling", "theta_at", True),
    ("recoupling", "global_constants", True),
    ("rep_genus2", "coupling_a_at", True),
    ("rep_genus2", "jtilde", True),
    ("rep_genus2", "genus2_rep", True),
    ("rep_genus2", "verify_genus2_relations", False),
    ("rep_genus2", "trace_jtjt", True),
    ("rep_genus2", "minpoly_certificate", False),
    ("rep_genus1", "verify_genus1_relations", False),
    ("matrix", "ExactMatrix.__matmul__", False),
    ("matrix", "char_poly", False),
    ("matrix", "CycPoly.gcd", False),
    ("matrix", "CycPoly.galois_norm", False),
    ("cli", "main", False),
    ("exactnum", "cyc_to_json", False),
)

MATMUL = "matrix.ExactMatrix.__matmul__"
OUT_BYTES = "cli.out_bytes"
OVERHEAD = "trace.overhead_ratio"


def metric_prefix(module: str, attr: str) -> str:
    # cyc_to_json is defined in exactnum but is the CLI's serialization layer
    return f"cli.{attr}" if attr == "cyc_to_json" else f"{module}.{attr}"


def metric_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for module, attr, memoized in TRACED:
        prefix = metric_prefix(module, attr)
        out.append((f"{prefix}.calls", "count", "lower"))
        out.append((f"{prefix}.self_s", "s", "lower"))
        if memoized:
            out.append((f"{prefix}.misses", "count", "lower"))
        if prefix == MATMUL:
            out.append((f"{prefix}.mults", "count", "lower"))
    out.append((OUT_BYTES, "bytes", "lower"))
    out.append((OVERHEAD, "ratio", "lower"))
    return out


class Tracer:
    """Span recorder for one job in one child process."""

    def __init__(self):
        self.stats: dict[str, list] = {}       # prefix -> [calls, self_s]
        self.mults = 0
        self.absent: list[str] = []
        self._caches: dict[str, object] = {}   # prefix -> memoized original
        self._misses0: dict[str, int] = {}
        self._stack: list[float] = []

    def _wrap(self, prefix: str, fn):
        stat = self.stats.setdefault(prefix, [0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        is_matmul = prefix == MATMUL

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_matmul:
                a, b = args[0], args[1]
                self.mults += a.nrows * a.ncols * b.ncols
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = stack.pop()
                stat[0] += 1
                stat[1] += dt - inner
                if stack:
                    stack[-1] += dt
        return wrapper

    def install(self) -> None:
        """Rebind every traced name to its wrapper (call in the child only)."""
        for module, attr, memoized in TRACED:
            prefix = metric_prefix(module, attr)
            try:
                mod = importlib.import_module(f"tljhecke.{module}")
            except ImportError:
                self.absent.append(prefix)
                continue
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            fn = getattr(owner, name, None) if owner is not None else None
            if fn is None:
                self.absent.append(prefix)
                continue
            wrapper = self._wrap(prefix, fn)
            if memoized and hasattr(fn, "cache_info"):
                self._caches[prefix] = fn
                self._misses0[prefix] = fn.cache_info().misses
            if owner_name:
                setattr(owner, name, wrapper)
                continue
            for mname, m in list(sys.modules.items()):
                if mname == "tljhecke" or mname.startswith("tljhecke."):
                    for key, val in list(vars(m).items()):
                        if val is fn:
                            setattr(m, key, wrapper)

    def snapshot(self) -> dict:
        """Per-prefix counts for the job so far, as plain JSON data."""
        out = {}
        for prefix, (calls, self_s) in self.stats.items():
            entry = {"calls": calls, "self_s": self_s}
            if prefix in self._caches:
                entry["misses"] = self._caches[prefix].cache_info().misses - self._misses0[prefix]
            out[prefix] = entry
        return {"layers": out, "mults": self.mults, "absent": self.absent}


def aggregate(snapshots: list[dict], out_bytes: int, overhead: float) -> tuple[dict, list[str]]:
    """Sum per-job snapshots into the per-layer metrics; return them and the
    names reported absent."""
    totals: dict[str, float] = {}
    absent: set[str] = set()
    for snap in snapshots:
        absent.update(snap["absent"])
        for prefix, entry in snap["layers"].items():
            for field, value in entry.items():
                key = f"{prefix}.{field}"
                totals[key] = totals.get(key, 0) + value
        totals[f"{MATMUL}.mults"] = totals.get(f"{MATMUL}.mults", 0) + snap["mults"]
    totals[OUT_BYTES] = out_bytes
    totals[OVERHEAD] = overhead
    metrics = {}
    for name, unit, _ in metric_names():
        metrics[name] = {"value": totals.get(name, 0), "unit": unit}
    return metrics, sorted(absent)
