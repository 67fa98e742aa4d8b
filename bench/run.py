"""The pulsemass benchmark.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run it from the root of a checkout; the program is the `src/` there.  One
run generates the workload's inputs from the seed, measures it for S seconds
in a closed loop (one client, one op at a time), checks every output against
an independent reference, prints a table and, as the last line, one JSON
object {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer metrics: it
runs the untraced loop for S/2 and the traced loop for S/2, both in whole
passes over the input pool, and reports the difference as trace.overhead_pct.
Workloads, metrics and bounds are described in BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import gen
import loop

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cli-cold", "ensemble-large", "library-small", "field-bulk")
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
CHILD_TIMEOUT_S = 120
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
               "GOTO_NUM_THREADS", "OMP_PROC_BIND", "OMP_WAIT_POLICY")


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def spec() -> dict:
    with open(os.path.join(BENCH_DIR, os.pardir, "BENCHMARK.json")) as fh:
        return json.load(fh)


def machine_info() -> dict:
    """Recorded with every result; nothing here is changed."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "platform": platform.platform(),
            "python": platform.python_version(), **versions,
            "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ}}


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _run(argv: list[str], root: str, env: dict, timeout: float) -> subprocess.CompletedProcess:
    """subprocess.run, which kills and reaps the child on timeout."""
    return subprocess.run(argv, cwd=root, env=env, capture_output=True, timeout=timeout)


# -- cli-cold -------------------------------------------------------------------

def _cli_op(root: str, env: dict, work: str, spans: list | None):
    """A cold `python -m pulsemass.cli` call, or the traced child
    (cli_child.py) when `spans` is a list to collect its spans into."""
    span_file = os.path.join(work, "cli_spans.json")

    def op(item, tr):
        if spans is None:
            argv = [sys.executable, "-m", "pulsemass.cli", *item["argv"]]
        else:
            argv = [sys.executable, os.path.join(BENCH_DIR, "cli_child.py"), span_file,
                    *item["argv"]]
        proc = _run(argv, root, env, CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise loop.OpFailed(f"exit {proc.returncode}: {proc.stderr.decode()[-300:]}")
        if spans is not None:
            with open(span_file) as fh:
                child = json.load(fh)
            base = len(spans)
            spans.extend([s[0], s[1], s[2], s[3] + base if s[3] >= 0 else -1, s[4]]
                         for s in child)
        return [proc.stdout.decode()]
    return op


def run_cli_cold(seed: int, seconds: float, trace: bool, root: str, work: str) -> dict:
    env = child_env(root)
    pool = gen.write_cli_cold(seed, work)
    op = _cli_op(root, env, work, None)
    setups, first = [], {}
    for i in range(SETUP_REPEATS if not trace else 1):
        before = loop.probe()
        t = time.perf_counter()
        out = loop.run_op(op, pool[i], loop.NULL_TRACER)
        setups.append(loop.at_ref_speed(time.perf_counter() - t, before, loop.probe()))
        if out[0] != "error":
            first[i] = out[0]
    if trace:
        phases = {"untraced": loop.run_phase(op, pool, loop.NULL_TRACER, seconds / 2)}
        spans: list = []
        phases["traced"] = loop.run_phase(_cli_op(root, env, work, spans), pool,
                                          loop.NULL_TRACER, seconds / 2)
        phases["traced"]["spans"] = spans
    else:
        phases = {"untraced": loop.run_phase(op, pool, loop.NULL_TRACER, seconds)}
    for phase in phases.values():
        phase["maxrss_kb"] = phase["children_maxrss_kb"]

    import check

    def checker(idx: int, out: list):
        text = out[0]
        return check.check_cli(pool[idx], text, first.setdefault(idx, text))
    return {"setups": setups, "phases": phases, "checker": checker, "env": env}


# -- in-process workloads ---------------------------------------------------------

def _worker(workload: str, seed: int, seconds: float, trace: bool, root: str, work: str,
            pool_file: str | None) -> dict:
    out = os.path.join(work, "worker.json")
    argv = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(int(trace)),
            "--out", out]
    if pool_file:
        argv += ["--pool", pool_file]
    env = child_env(root)
    launched = time.monotonic()
    proc = _run(argv + ["--launched", repr(launched)], root, env, 3 * seconds + CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n"
                         f"{proc.stderr.decode()[-2000:]}")
    with open(out) as fh:
        return json.load(fh)


def _merge(phases: list[dict]) -> dict:
    """One phase from the same phase of several worker processes."""
    variants: dict[str, list] = {}
    for phase in phases:
        for idx, vs in phase["variants"].items():
            for out, count in vs:
                loop.add_variant(variants, idx, out, count)
    raw_s = sum(sum(p["durations"]) / p["speed"] for p in phases)
    durations = [d for p in phases for d in p["durations"]]
    return {"ops": sum(p["ops"] for p in phases),
            "elapsed_s": sum(p["elapsed_s"] for p in phases),
            "cpu_s": sum(p["cpu_s"] for p in phases),
            "speed": sum(durations) / raw_s,
            "maxrss_kb": max(p["maxrss_kb"] for p in phases),
            "durations": durations,
            "variants": variants}


def run_in_process(workload: str, seed: int, seconds: float, trace: bool, root: str,
                   work: str) -> dict:
    """The untimed run splits its time over SETUP_REPEATS worker processes,
    which gives SETUP_REPEATS set-up samples and averages out what differs
    from one interpreter process to the next (address layout, hash seed);
    the traced run uses one worker."""
    pool_file, field_pool = None, None
    if workload == "field-bulk":
        field_pool = gen.write_field_bulk(seed, work)
        pool_file = os.path.join(work, "pool.json")
        with open(pool_file, "w") as fh:
            json.dump([{"argvs": p["argvs"], "rows": len(p["rows"])} for p in field_pool], fh)
    n = 1 if trace else SETUP_REPEATS
    results = [_worker(workload, seed, seconds / n, trace, root, work, pool_file)
               for _ in range(n)]
    phases = {k: _merge([r[k] for r in results]) for k in ("untraced", "traced")
              if k in results[0]}
    if trace:
        phases["traced"]["spans"] = results[0]["spans"]

    import check
    refs = {}
    if workload == "ensemble-large":
        def checker(idx, out):
            if idx not in refs:
                item = gen.ensemble(seed, idx)
                refs[idx] = check.ensemble_reference(item["omega"], item["theta"],
                                                     item["phi"], item["weight"])
            return check.check_ensemble(refs[idx], out)
    elif workload == "library-small":
        def checker(idx, out):
            item = gen.library(seed, idx)
            return check.check_library(item, check.library_reference(item), out)
    else:
        def checker(idx, out):
            if idx not in refs:
                refs[idx] = [check.mu_reference(r[4:7], r[7:10]) for r in field_pool[idx]["rows"]]
            return check.check_field(field_pool[idx], refs[idx], out)
    return {"setups": [r["setup_s"] for r in results], "phases": phases, "checker": checker,
            "env": child_env(root)}


# -- metrics ----------------------------------------------------------------------

def tally_outputs(phases: dict, checker) -> dict:
    attempted = failed = values = misses = 0
    for phase in phases.values():
        attempted += phase["ops"]
        for idx, variants in phase["variants"].items():
            for out, count in variants:
                if out and out[0] == "error":
                    failed += count
                    continue
                try:
                    v, m = checker(int(idx), out)
                except ValueError:   # check.Malformed: the output does not parse
                    failed += count
                    continue
                values += v * count
                misses += m * count
    return {"attempted": attempted, "failed": failed, "values": values, "misses": misses}


def end_to_end(run: dict, tally: dict) -> dict:
    phase = run["phases"]["untraced"]
    d = phase["durations"]
    return {
        "setup_s": statistics.median(run["setups"]),
        "op_p50_ms": statistics.median(d) * 1e3,
        "op_p90_ms": statistics.quantiles(d, n=10)[-1] * 1e3,
        "ops_per_s": phase["ops"] / phase["elapsed_s"],
        "cpu_ms_per_op": phase["cpu_s"] / phase["ops"] * 1e3,
        "peak_rss_mb": phase["maxrss_kb"] / 1024.0,
        "ok_ratio": 1.0 - tally["failed"] / tally["attempted"],
        "on_ref_ratio": (tally["values"] - tally["misses"]) / tally["values"]
        if tally["values"] else 0.0,
    }


def import_metrics(root: str, env: dict) -> dict:
    """Interpreter floor (`-c pass` wall time) and `-X importtime` cumulative
    times of pulsemass and scipy.special; medians of IMPORT_REPEATS."""
    floor, pm, sp = [], [], []
    for _ in range(IMPORT_REPEATS):
        t = time.perf_counter()
        _run([sys.executable, "-c", "pass"], root, env, CHILD_TIMEOUT_S).check_returncode()
        floor.append(time.perf_counter() - t)
        proc = _run([sys.executable, "-X", "importtime", "-c", "import pulsemass"],
                    root, env, CHILD_TIMEOUT_S)
        proc.check_returncode()
        cumulative = {}
        for line in proc.stderr.decode().splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]))
        pm.append(cumulative.get("pulsemass", 0) / 1e3)
        sp.append(cumulative.get("scipy.special", 0) / 1e3)
    return {"import.interpreter_ms": statistics.median(floor) * 1e3,
            "import.pulsemass_ms": statistics.median(pm),
            "import.scipy_special_ms": statistics.median(sp)}


def per_layer(run: dict, root: str) -> dict:
    import tracer
    traced, untraced = run["phases"]["traced"], run["phases"]["untraced"]
    metrics = tracer.layer_metrics(traced["spans"], traced["ops"])
    metrics.update(import_metrics(root, run["env"]))
    mean = lambda p: sum(p["durations"]) / p["ops"]  # noqa: E731
    metrics["trace.overhead_pct"] = (mean(traced) / mean(untraced) - 1.0) * 100.0
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool, root: str) -> dict:
    os.makedirs(os.path.join(root, ".bench_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=os.path.join(root, ".bench_work"))
    try:
        if workload == "cli-cold":
            run = run_cli_cold(seed, seconds, trace, root, work)
        else:
            run = run_in_process(workload, seed, seconds, trace, root, work)
        tally = tally_outputs(run["phases"], run["checker"])
        metrics = per_layer(run, root) if trace else end_to_end(run, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, ".bench_work"))
        except OSError:
            pass
    untraced = run["phases"]["untraced"]
    return {**tally, "metrics": metrics, "samples": untraced["ops"], "speed": untraced["speed"]}


def result_line(result: dict, units: dict) -> str:
    return json.dumps({
        "correct": result["failed"] == 0 and result["values"] > 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()},
    })


def print_table(workload: str, result: dict, units: dict) -> None:
    for name, value in result["metrics"].items():
        print(f"{workload:15s} {name:30s} {value:16.6g} {units[name]}")
    a, f, v, m = (result[k] for k in ("attempted", "failed", "values", "misses"))
    print(f"{workload:15s} {'samples':30s} {result['samples']:16d} ops")
    print(f"{workload:15s} {'speed':30s} {result['speed']:16.6g} "
          "(op time at the reference speed over raw op time)")
    print(f"{workload:15s} {'fail_ratio':30s} {f / a:16.6g} ({f} of {a} ops)")
    print(f"{workload:15s} {'off_ref_ratio':30s} {(m / v if v else 0):16.6g} "
          f"({m} of {v} checked values)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "pulsemass", "__init__.py")):
        print(f"run.py: no src/pulsemass under {root}; run from a pulsemass checkout",
              file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in spec()["per_layer" if args.trace else "end_to_end"]}
    print("# machine " + json.dumps(machine_info()))
    results = {}
    try:
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            results[workload] = run_workload(workload, args.seed, args.seconds,
                                             bool(args.trace), root)
            mismatch = set(units) ^ set(results[workload]["metrics"])
            if mismatch:
                raise BenchError(f"metrics do not match BENCHMARK.json: {sorted(mismatch)}")
            print_table(workload, results[workload], units)
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        print(json.dumps({w: json.loads(result_line(r, units)) for w, r in results.items()}))
    else:
        print(result_line(results[args.workload], units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
