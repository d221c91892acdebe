"""Timing corrected for the machine's momentary speed.

On a shared host the same cold job can take 25% longer a few seconds later,
because of what other tenants run on the same cores. ``timed`` runs a fixed
pure-Python probe, which does not touch tljhecke, a few times before and
after the timed call and, on a timer signal, every PERIOD_S during it, in the
same thread. It returns the time of the call with the probes taken out, and
the factor REFERENCE_PROBE_S / (mean probe time), which scales that time to
the reference speed. The probe does the kind of work tljhecke does (big
rational numbers reduced by gcds, kept in a dict), so it slows down with the
machine as the job does. Its time is thread CPU time, so a program that
waits for other threads or processes does not make the probe read slow.

Around an import of tljhecke, the probe has pre-loaded only what this module
imports: gc, signal (and enum, which tljhecke also imports) and math.
"""
from __future__ import annotations

import gc
import signal
import time
from math import gcd

PERIOD_S = 0.02
BRACKET = 3
# median probe time on the machine the reference figures were taken on
# (2-core x86-64 VM, Python 3.11); it only fixes the scale of the corrected
# times, which read as seconds at that machine's usual speed
REFERENCE_PROBE_S = 0.00015


class _Q:
    """A bare rational number: the probe's stand-in for Fraction, which it
    must not import, so that it pre-loads nothing tljhecke would load."""

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int):
        g = gcd(num, den)
        self.num, self.den = num // g, den // g

    def __add__(self, other):
        return _Q(self.num * other.den + other.num * self.den, self.den * other.den)

    def __mul__(self, other):
        return _Q(self.num * other.num, self.den * other.den)


def _probe() -> int:
    a = [_Q(i + 1, 2 * i + 3) for i in range(8)]
    x = 3 ** 200
    s = _Q(0, 1)
    seen = {}
    for i in range(8):
        for j in range(8):
            s = s + a[i] * a[j]
        x = (x * 1234567 + i) % (7 ** 230)
        seen[s.den % 97] = x
    return len(seen)


def timed(fn):
    """Run ``fn()`` with the probe around and inside it.

    Returns ``(result, seconds, factor)``: ``seconds`` is the wall time of
    the call less the probes run inside it, and ``seconds * factor`` is that
    time at the reference speed. The caller's SIGALRM handler and timer are
    restored afterwards; ``fn`` must not use them itself.
    """
    samples: list[float] = []
    spent = 0.0

    def sample(*_):
        nonlocal spent
        enabled = gc.isenabled()
        gc.disable()        # the program's gc settings must not change the probe
        w0, c0 = time.perf_counter(), time.thread_time()
        _probe()
        samples.append(time.thread_time() - c0)
        spent += time.perf_counter() - w0
        if enabled:
            gc.enable()

    for _ in range(BRACKET):
        sample()
    previous = signal.signal(signal.SIGALRM, sample)
    spent = 0.0
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    try:
        result = fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - t0 - spent
        signal.signal(signal.SIGALRM, previous)
    for _ in range(BRACKET):
        sample()
    return result, seconds, REFERENCE_PROBE_S / (sum(samples) / len(samples))
