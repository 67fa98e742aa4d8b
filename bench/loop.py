"""The closed loop that times ops: one client, the next op only after the
previous one completes.  Standard library only, so the benchmark process can
drive the cold-CLI workload without importing the program."""
from __future__ import annotations

import resource
import time
from array import array

# A traced phase stops at the first pass boundary past this many spans, so
# the spans it keeps in memory stay within a few tens of MB.
SPAN_CAP = 200_000

# The vCPUs of a shared host switch between speeds up to 1.5x apart, in
# spells of milliseconds to minutes, so a raw time moves from run to run with
# the share of slow spells in it, and a run can fall wholly in a slow spell.
# The loop therefore times a fixed piece of pure-Python work, the probe,
# between ops, at most PROBE_EVERY_S of op time apart, and reports each op's
# time over the mean of the probes before and after it, in units of
# PROBE_REF_S: the probe time of a 2-vCPU Xeon host at its fast speed.  A
# probe is the best of PROBE_REPEATS, so an interrupt does not skew it.
PROBE_LOOPS = 1000
PROBE_REPEATS = 3
PROBE_EVERY_S = 0.002
PROBE_REF_S = 0.00006


class OpFailed(RuntimeError):
    """A CLI call inside an op exited non-zero."""


class _NullTracer:
    spans = ()

    def begin(self, name, start=None):
        return 0

    def end(self, index, count=None):
        pass

    def count(self, name, n):
        pass


NULL_TRACER = _NullTracer()


def cpu_s() -> float:
    """User plus system CPU seconds of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


def run_op(op, item, tr) -> list:
    """The op's output as a list, or ["error", message] if it raised."""
    try:
        return list(op(item, tr))
    except (Exception, SystemExit) as exc:
        return ["error", f"{type(exc).__name__}: {exc}"]


def add_variant(variants: dict, idx, out: list, count: int = 1) -> None:
    """Count `out` under pool index `idx`: one [output, count] entry per
    distinct output."""
    seen = variants.setdefault(idx, [])
    for v in seen:
        if v[0] == out:
            v[1] += count
            return
    seen.append([out, count])


def probe() -> float:
    """Seconds the host takes for the probe now."""
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        t = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOPS):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t)
    return best


def at_ref_speed(seconds: float, before: float, after: float) -> float:
    """`seconds` measured between probes `before` and `after`, at PROBE_REF_S."""
    return seconds * 2.0 * PROBE_REF_S / (before + after)


def run_phase(op, pool: list, tr, seconds: float) -> dict:
    """Cycle through the pool in whole passes for about `seconds`.

    The phase ends on the pass boundary nearest to `seconds`, so every pool
    item runs equally often: the op mix, and the share of hard inputs, do not
    depend on how fast the program is, and per-op counts repeat exactly for
    a seed.  Outputs are kept once per distinct value per pool index, with a
    count.  Op times, elapsed and CPU time leave the probes out and are at
    the reference speed (see PROBE_REF_S); `speed` is their ratio to the raw
    op times.
    """
    raw = array("d")
    durations: list[float] = []
    variants: dict[int, list] = {}
    probes = [probe()]
    probe_s = 0.0
    first, since = 0, 0.0      # the first op not yet scaled, and the op time since
    cpu0 = cpu_s()
    start = time.perf_counter()
    i = passes = 0
    while True:
        idx = i % len(pool)
        root = tr.begin("op")
        t = time.perf_counter()
        out = run_op(op, pool[idx], tr)
        raw.append(time.perf_counter() - t)
        tr.end(root)
        since += raw[-1]
        i += 1
        add_variant(variants, idx, out)
        last_pass = False
        if i % len(pool) == 0:
            passes += 1
            elapsed = time.perf_counter() - start
            last_pass = (elapsed + 0.5 * elapsed / passes >= seconds
                         or len(tr.spans) > SPAN_CAP)
        if last_pass or since >= PROBE_EVERY_S:
            t = time.perf_counter()
            probes.append(probe())
            probe_s += time.perf_counter() - t
            durations.extend(at_ref_speed(d, probes[-2], probes[-1]) for d in raw[first:])
            first, since = i, 0.0
        if last_pass:
            break
    speed = sum(durations) / sum(raw)
    return {
        "ops": i,
        "elapsed_s": (time.perf_counter() - start - probe_s) * speed,
        "cpu_s": (cpu_s() - cpu0 - probe_s) * speed,
        "speed": speed,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "children_maxrss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        "durations": durations,
        "variants": {str(k): v for k, v in variants.items()},
    }
