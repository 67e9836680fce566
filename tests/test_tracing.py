"""The benchmark tracer in perfbench/tracing.py finds braidhom's entry
points by name and reads their arguments and results.  A name that goes
away turns its per-layer metrics into nulls, and a reader that no longer
fits a call breaks the traced run, so both are pinned here.  The tracer
source is read, never written: it is executed into a fresh module without
leaving bytecode next to it."""

import importlib
import json
import sys
import types
from pathlib import Path

import pytest

from braidhom.cli import main

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

pytestmark = pytest.mark.skipif(not TRACING.exists(), reason="no benchmark tracer")


@pytest.fixture(scope="module")
def tracing():
    module = types.ModuleType("braidhom_bench_tracing")
    module.__file__ = str(TRACING)
    source = TRACING.read_text(encoding="utf-8")
    exec(compile(source, str(TRACING), "exec"), module.__dict__)
    return module


def _resolve(name):
    layer, *rest = name.split(".")
    module = importlib.import_module("braidhom." + layer)
    obj = module
    for part in rest:
        obj = obj.__dict__[part] if isinstance(obj, type) else getattr(obj, part)
    return module, rest, obj


def test_every_needed_name_is_a_public_callable(tracing):
    class_entries = {"%s.%s.%s" % entry for entry in tracing.CLASS_ENTRIES}
    for names in tracing.NEEDS.values():
        for name in names:
            module, rest, obj = _resolve(name)
            if name in class_entries:
                assert not rest[0].startswith("_"), name
                continue
            # the tracer wraps public functions defined in the layer module
            assert len(rest) == 1 and not rest[0].startswith("_"), name
            assert getattr(obj, "__module__", None) == module.__name__, name
            assert isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info"), name


def test_every_class_entry_resolves(tracing):
    for layer, cls_name, meth in tracing.CLASS_ENTRIES:
        cls = getattr(importlib.import_module("braidhom." + layer), cls_name)
        assert not cls_name.startswith("_")
        assert callable(cls.__dict__.get(meth).__get__(None, cls)), (cls_name, meth)


# CLI calls that reach every function the tracer reads arguments of
ARGVS = (
    ["h1", "--catalog", "surface:1", "--char", "@chi"],
    ["abelianize", "--catalog", "surface:2"],
    ["e2", "--space", "genus:1", "--n", "3"],
    ["tangent", "--genus", "2", "--seed", "5"],
    ["verify", "--criteria", "tangent-charvar"],
)


def test_every_reader_accepts_a_real_call(tracing, monkeypatch, tmp_path, capsys):
    seen = {}

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            seen.setdefault(name, (args, kwargs, result))
            return result

        return wrapper

    for name in tracing.ATTRS:
        _, rest, fn = _resolve(name)
        wrapper = recording(name, fn)
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("braidhom"):
                for attr, obj in list(vars(module).items()):
                    if obj is fn:
                        monkeypatch.setattr(module, attr, wrapper)
    chi = tmp_path / "chi.json"
    chi.write_text(json.dumps({"N": 5, "values": {"a": 1, "b": 2}}), encoding="utf-8")
    for argv in ARGVS:
        assert main([str(chi) if a == "@chi" else a for a in argv]) == 0
    capsys.readouterr()
    assert sorted(seen) == sorted(tracing.ATTRS)
    for name, reader in tracing.ATTRS.items():
        args, kwargs, result = seen[name]
        attrs = reader(args, kwargs, result)
        assert isinstance(attrs, dict) and attrs, name
