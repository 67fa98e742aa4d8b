"""Runs the ops of one in-process workload in a fresh interpreter.

    python3 bench/worker.py --workload W --seed N --seconds S --trace 0|1
        --launched T --out FILE [--pool FILE]

Started by run.py from the root of a checkout, so `src/` holds the program.
`--launched` is the parent's time.monotonic() at spawn: set-up time runs from
there to the end of the untimed warm-up op and covers interpreter start,
`import pulsemass` and the warm-up.  Loading the inputs is not set-up.  Like
the op times, it is taken at the reference speed (loop.PROBE_REF_S), with
probes at the start of the worker and after the warm-up.
"""
import argparse
import json
import os
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--pool")
    args = parser.parse_args()

    import loop
    before = loop.probe()
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    import pulsemass
    from pulsemass import cli  # noqa: F401  (not imported by pulsemass; ops use it)
    imported = time.monotonic()
    if not pulsemass.__file__.startswith(src + os.sep):
        print(f"worker: imported pulsemass from {pulsemass.__file__}, not {src}",
              file=sys.stderr)
        return 2

    import ops
    from tracer import Tracer, install

    pool = ops.load_pool(args.workload, args.seed, args.pool)
    op = ops.OPS[args.workload]
    t = time.perf_counter()
    loop.run_op(op, pool[0], loop.NULL_TRACER)
    setup = imported - args.launched + time.perf_counter() - t
    result = {"setup_s": loop.at_ref_speed(setup, before, loop.probe())}
    if args.trace:
        half = args.seconds / 2.0
        result["untraced"] = loop.run_phase(op, pool, loop.NULL_TRACER, half)
        tracer = Tracer()
        install(tracer)
        result["traced"] = loop.run_phase(op, pool, tracer, half)
        result["spans"] = tracer.spans
    else:
        result["untraced"] = loop.run_phase(op, pool, loop.NULL_TRACER, args.seconds)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
