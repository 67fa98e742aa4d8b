"""README's library example runs against the current API and prints the
values its comments show, and every name its library overview cites exists."""

import importlib
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


# `name`, `name(args)`, `Class.attr` or a quoted string such as `"fixed_E0"`
_NAMED = re.compile(r"^(?P<name>[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\(.*\))?$")


def overview_bullets(text):
    """(module, backticked spans) for each bullet of "Library overview"."""
    section = text.split("## Library overview", 1)[1].split("\n## ", 1)[0]
    section = section.split("```", 1)[0]
    for bullet in re.split(r"^- ", section, flags=re.M)[1:]:
        module, *spans = re.findall(r"`([^`]+)`", bullet)
        yield module, spans


def resolves(obj, dotted):
    for part in dotted.split("."):
        fields = getattr(obj, "__dataclass_fields__", {})
        if hasattr(obj, part):
            obj = getattr(obj, part)
        elif part in fields:  # a dataclass field without a class-level default
            obj = fields[part]
        else:
            return False
    return True


def test_library_overview_names_resolve():
    checked = 0
    for module_name, spans in overview_bullets(README.read_text()):
        module = importlib.import_module(module_name)
        for span in spans:
            if span[0] == span[-1] == '"':
                continue
            m = _NAMED.match(span)
            assert m, f"{module_name}: `{span}` is neither a name nor a quoted string"
            assert resolves(module, m["name"]), f"{module_name} has no `{m['name']}`"
            checked += 1
    assert checked >= 20
