"""README's library example runs against the current API and prints the
values its comments show."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

# `expression  # 1.2665e-10 [unit]`: a value to the significant digits shown
_CHECKED = re.compile(r"^(?P<expr>[^#]+?)\s+#\s*(?P<value>[-+]?\d+(?:\.\d+)?(?:e[-+]?\d+)?)"
                      r"(?:\s+\w+)?\s*$")


def python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)


def significant_digits(shown):
    mantissa = shown.lstrip("+-").split("e")[0].replace(".", "")
    return len(mantissa.lstrip("0"))


def test_library_example_values():
    [block] = python_blocks(README.read_text())
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    checked = []
    for line in block.splitlines():
        m = _CHECKED.match(line)
        if m is None:
            continue
        got = eval(m["expr"], namespace)
        digits = significant_digits(m["value"])
        assert float(f"{got:.{digits}g}") == float(m["value"]), line
        checked.append(m["value"])
    assert checked == ["1.77e-21", "1.2665e-10", "1.59"]
