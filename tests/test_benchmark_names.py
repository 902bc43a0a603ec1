"""The benchmark's per-layer `<module>.<function>.calls` metrics name public
functions of `nanomech`; `perfbench/run.py --trace` exits 3 ("metrics
missing") when one of them is gone, so a rename or deletion fails here
first."""

import importlib
import inspect
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def is_public_function(qualname):
    module_name, name = qualname.split(".")
    module = importlib.import_module(f"nanomech.{module_name}")
    fn = getattr(module, name, None)
    return (inspect.isfunction(fn) and fn.__module__ == module.__name__
            and not name.startswith("_"))


def test_traced_functions_are_public():
    traced = [m["name"].removesuffix(".calls")
              for m in json.loads(BENCHMARK.read_text())["per_layer"]
              if m["name"].endswith(".calls")]
    assert traced
    assert [q for q in traced if not is_public_function(q)] == []
