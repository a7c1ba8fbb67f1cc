"""The benchmark's tracer hooks ``seqgan`` names given as strings
(``bench/tracer.py``): every class, method and function it names must exist,
so that renaming or deleting one fails here rather than only in the
benchmark's own, slower tests."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def layer(name):
    return importlib.import_module(f"seqgan.{name}")


def test_every_traced_name_exists():
    tracer = load_tracer()
    named = [(layer(mod), cls) for mod, cls in tracer.CLASS_METHODS]
    named += [(getattr(layer(mod), cls), method)
              for (mod, cls), methods in tracer.CLASS_METHODS.items() for method in methods]
    named += [(layer("captioner"), name) for name in tracer.DECODERS]
    named += [(layer(mod), name) for mod, name in tracer.FIRST_WORK]
    missing = [f"{getattr(owner, '__name__', owner)}.{name}" for owner, name in named
               if not callable(getattr(owner, name, None))]
    assert tracer.CLASS_METHODS and tracer.DECODERS and tracer.FIRST_WORK
    assert not missing
