"""The ``REPRO_*`` knob table (:mod:`repro.config`) stays the one reader.

Every knob is parsed, defaulted and validated by its table row; the
guard below fails as soon as another module under ``src/repro`` reads or
writes a ``REPRO_*`` variable through ``os.environ`` or ``os.getenv``
itself, and the shape test pins what the table generates.
"""

import ast
import pathlib

import repro
from repro import config
from repro.tools.figures import _parser

SRC = pathlib.Path(repro.__file__).resolve().parent


def _parents(tree):
    parents = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def _is_env_access(node):
    """``os.environ`` / ``os.getenv``, or a bare ``environ``/``getenv``."""
    if isinstance(node, ast.Attribute):
        return (node.attr in ("environ", "getenv")
                and isinstance(node.value, ast.Name)
                and node.value.id == "os")
    return isinstance(node, ast.Name) and node.id in ("environ", "getenv")


def _literal_key(node, parents):
    """The string key of a ``get(...)``/``[...]``/``getenv(...)`` use, or
    ``None`` when the access is anything else (iteration, a computed
    key, ``pop``, ``update``...)."""
    parent = parents.get(node)
    if isinstance(parent, ast.Subscript) and parent.value is node:
        key = parent.slice
    elif isinstance(parent, ast.Call) and parent.func is node:
        key = parent.args[0] if parent.args else None  # getenv(...)
    elif (isinstance(parent, ast.Attribute) and parent.attr == "get"
          and isinstance(parents.get(parent), ast.Call)):
        call = parents[parent]
        key = call.args[0] if call.args else None
    else:
        return None
    if isinstance(key, ast.Constant) and isinstance(key.value, str):
        return key.value
    return None


def test_only_the_config_table_touches_repro_env():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        if path == SRC / "config.py" or not any(
                word in text for word in ("environ", "getenv")):
            continue
        tree = ast.parse(text)
        parents = _parents(tree)
        for node in ast.walk(tree):
            if not _is_env_access(node):
                continue
            key = _literal_key(node, parents)
            if key is None or key.startswith("REPRO_"):
                offenders.append(
                    f"{path.relative_to(SRC.parent)}:{node.lineno}")
    assert offenders == [], (
        "read REPRO_* knobs through repro.config, not os.environ: "
        + ", ".join(offenders))


def test_table_shape():
    assert len(config.KNOBS) == 10
    assert all(name.startswith("REPRO_") for name in config.KNOBS)
    context = [knob.cache_key for knob in config.KNOBS.values()
               if knob.cache_key]
    assert context == ["repro_fast", "repro_kernel"]
    flags = [flag for action in _parser()._actions
             for flag in action.option_strings if flag not in ("-h",
                                                               "--help")]
    assert sorted(flags) == [
        "--cache", "--cache-dir", "--faults", "--kernel", "--no-cache",
        "--parallel", "--trace"]
