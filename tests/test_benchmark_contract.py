"""What the benchmark harness in perfbench/ needs from the package, read from the harness itself."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cached_names_are_package_caches():
    # perfbench/run.py --trace 1 calls cache_info() on each of these after every op and
    # cache_clear() on every package cache; a missing cache crashes the traced run.
    spans = _load_spans()
    assert spans.CACHED
    for qual in spans.CACHED:
        layer, name = qual.split(".")
        fn = getattr(importlib.import_module(f"heisenmod.{layer}"), name)
        assert callable(getattr(fn, "cache_info", None)), qual
        assert callable(getattr(fn, "cache_clear", None)), qual


def test_traced_names_are_package_callables():
    # perfbench/run.py --trace 1 wraps each of these where its layer binds it; a name a refactor
    # dropped would only fail there.
    spans = _load_spans()
    assert spans.TRACED
    for qual in spans.TRACED:
        layer, name = qual.split(".")
        assert callable(getattr(importlib.import_module(f"heisenmod.{layer}"), name, None)), qual


def test_every_layer_holding_a_cache_is_loaded_by_the_package_import():
    # perfbench/run.py collects the caches it clears between ops from sys.modules once, right after
    # `import heisenmod` (_package_caches), and `python -m heisenmod.cli` runs heisenmod/__init__ too. A
    # layer that defines a cache but that the package imported lazily would keep a cache the harness
    # never clears.
    package = Path(importlib.import_module("heisenmod").__file__).parent
    layers = [importlib.import_module(f"heisenmod.{path.stem}") for path in sorted(package.glob("*.py"))
              if path.stem != "__init__"]
    holders = {value.__module__ for layer in layers for value in vars(layer).values()
               if callable(getattr(value, "cache_clear", None))}
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(package.parent), os.environ.get("PYTHONPATH", "")]))
    script = "import sys, heisenmod; print(' '.join(sorted(sys.modules)))"
    loaded = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert holders and holders <= set(loaded.stdout.split()), (holders, loaded.stdout)
