"""Traced cold CLI call: times `import pulsemass`, installs the spans, runs
cli.main and writes the spans to SPANS.

    python3 bench/cli_child.py SPANS <pulsemass cli arguments>

Run from the root of a checkout.  Stdout and the exit code are the CLI's.
"""
import os
import sys
import time


def main() -> int:
    start = time.perf_counter()
    spans_path, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import pulsemass  # noqa: F401
    from pulsemass import cli
    imported = time.perf_counter()

    from tracer import Tracer, install
    tracer = Tracer()
    root = tracer.begin("op", start)
    tracer.spans.append(["import", start, imported, root, None])
    install(tracer)
    try:
        return cli.main(argv)
    finally:
        tracer.end(root)
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
