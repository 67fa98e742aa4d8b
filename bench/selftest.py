"""Self-test of the output checker.

    python3 bench/selftest.py

Run from the root of a checkout.  For each workload it runs a few real ops
in-process and checks that:

- the checker accepts the unperturbed output (at the known off-reference
  count for field-bulk, whose near-null rows miss at seed);
- an output value perturbed on purpose counts as off-reference;
- output that does not parse, an op that raises and a CLI call that exits
  non-zero count as failed ops, not as off-reference values;

and that the fast large-ensemble reference agrees with a per-mode mpmath
evaluation.  Exits non-zero on the first failed expectation.
"""
import json
import math
import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import check  # noqa: E402
import gen  # noqa: E402
import loop  # noqa: E402
import ops  # noqa: E402
from run import tally_outputs  # noqa: E402


def expect(ok: bool, what: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {what}")
    if not ok:
        raise SystemExit(1)


def malformed(fn, *args) -> bool:
    try:
        fn(*args)
    except check.Malformed:
        return True
    return False


def nudged(values: list, i: int, rel: float = 1e-9) -> list:
    out = list(values)
    out[i] = out[i] * (1.0 + rel)
    return out


def test_ensemble() -> None:
    item = gen.ensemble(1, 0)
    ref = check.ensemble_reference(item["omega"], item["theta"], item["phi"], item["weight"])
    out = loop.run_op(ops.ensemble_op, item, loop.NULL_TRACER)
    expect(check.check_ensemble(ref, out) == (4, 0), "ensemble-large: sphere output on reference")
    expect(check.check_ensemble(ref, nudged(out, 0))[1] == 1,
           "ensemble-large: perturbed mass is off reference")
    expect(malformed(check.check_ensemble, ref, out[:3]), "ensemble-large: short output is malformed")


def test_ensemble_reference() -> None:
    for spread in (math.pi, 1e-3, 1e-6, 1e-8):
        item = gen.ensemble(7, 1)
        n = 300
        modes = list(zip(item["omega"][:n], [t * spread / item["spread"] for t in
                                             item["theta"][:n]], item["phi"][:n],
                         item["weight"][:n]))
        fast = check.ensemble_reference(*zip(*modes))
        slow = check.ensemble_reference_mp(modes)
        rel = max(abs(a - b) / abs(b) for a, b in zip(fast, slow))
        expect(rel < 1e-13, f"fast ensemble reference within 1e-13 of mpmath at spread "
                            f"{spread:.0e} ({float(rel):.1e})")


def test_library() -> None:
    item = gen.library(1, 0)
    ref = check.library_reference(item)
    out = loop.run_op(ops.library_op, item, loop.NULL_TRACER)
    n = 15 + len(item["units"])
    expect(check.check_library(item, ref, out) == (n, 0), "library-small: output on reference")
    for i in (0, 6, 9, 13, 15):
        expect(check.check_library(item, ref, nudged(out, i))[1] == 1,
               f"library-small: perturbed value {i} is off reference")


def test_field(work: str) -> None:
    pool = gen.write_field_bulk(1, work)
    item = pool[0]
    out = loop.run_op(ops.field_op, {"argvs": item["argvs"], "rows": len(item["rows"])},
                      loop.NULL_TRACER)
    mu_refs = [check.mu_reference(r[4:7], r[7:10]) for r in item["rows"]]
    values, misses = check.check_field(item, mu_refs, out)
    expect(values == len(item["rows"]) + gen.FIELD_SAMPLES + 9,
           f"field-bulk: every value checked ({values})")
    expect(0 < misses < len(item["rows"]) // 2,
           f"field-bulk: only near-null rows off reference ({misses})")
    lines = out[0].splitlines()
    cells = lines[1].split(",")                     # row 0 is generic
    cells[-1] = repr(float(cells[-1]) * (1 + 1e-9))
    bad = "\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n"
    expect(check.check_field(item, mu_refs, [bad, out[1], out[2]])[1] == misses + 1,
           "field-bulk: perturbed mu is off reference")
    expect(malformed(check.check_field, item, mu_refs, ["\n".join(lines[:-1]), out[1], out[2]]),
           "field-bulk: missing CSV row is malformed")
    expect(malformed(check.check_field, item, mu_refs, [out[0], out[1], out[2][:-5]]),
           "field-bulk: truncated JSON is malformed")
    missing = {"argvs": [["density", "--config", os.path.join(work, "missing.json")]],
               "rows": 0}
    err = loop.run_op(ops.field_op, missing, loop.NULL_TRACER)
    expect(err[0] == "error" and "exited 4" in err[1],
           f"field-bulk: a CLI call that exits non-zero is an error ({err[1][:40]})")


def test_cli(work: str) -> None:
    import contextlib
    import io
    from pulsemass import cli
    for op in gen.write_cli_cold(1, work):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(op["argv"])
        text = buf.getvalue()
        values, misses = check.check_cli(op, text, text)
        expect(code == 0 and values > 1 and misses == 0,
               f"cli-cold {op['command']} ({op['units']}): {values} values on reference")
        expect(check.check_cli(op, text[:-1] + "\r\n", text)[1] == 1,
               f"cli-cold {op['command']}: a changed byte breaks identity")
        if text.startswith("{"):
            key = next(k for k, v in json.loads(text).items() if isinstance(v, float))
            data = json.loads(text)
            data[key] *= 1 + 1e-9
            bad = json.dumps(data)
        else:
            lines = text.splitlines()
            cells = lines[1].split(",")
            cells[-1] = repr(float(cells[-1]) * (1 + 1e-9))
            bad = "\n".join([lines[0], ",".join(cells)] + lines[2:])
        expect(check.check_cli(op, bad, bad)[1] == 1,
               f"cli-cold {op['command']}: perturbed value is off reference")
        expect(malformed(check.check_cli, op, "nan", "nan"),
               f"cli-cold {op['command']}: unparseable output is malformed")


def test_tally() -> None:
    def failing(item, tr):
        raise loop.OpFailed("exit 3: numerical error")

    outs = [loop.run_op(failing, None, loop.NULL_TRACER), ["good"], ["bad"], ["garbled"]]

    def checker(idx, out):
        if out == ["garbled"]:
            raise check.Malformed("does not parse")
        return 2, int(out == ["bad"])

    phases = {"untraced": {"ops": 10, "variants": {"0": [[outs[0], 2], [outs[1], 5]],
                                                   "1": [[outs[2], 2], [outs[3], 1]]}}}
    t = tally_outputs(phases, checker)
    expect(outs[0][0] == "error", "a raising op is recorded as an error")
    expect(t == {"attempted": 10, "failed": 3, "values": 14, "misses": 2},
           f"failed ops and off-reference values are counted apart ({t})")


def main() -> int:
    os.makedirs(".bench_work", exist_ok=True)
    work = tempfile.mkdtemp(prefix="selftest-", dir=".bench_work")
    try:
        test_tally()
        test_ensemble_reference()
        test_ensemble()
        test_library()
        test_field(work)
        test_cli(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(".bench_work")
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
