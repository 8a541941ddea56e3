"""Every function the benchmark tracer wraps still exists under its name.

``perfbench/tracer.py`` wraps kcorr functions by module and attribute path,
so a rename or an inlined function would crash every traced benchmark run.
The tracer is loaded by file path and each of its entries is resolved the
way ``Tracer.install`` resolves it: ``Class.attr`` from the class's own
``__dict__``, a plain name with ``getattr`` on the module.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("kcorr_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load_tracer()
ENTRIES = [(kind, *entry) for kind, table in (("span", TRACER.SPANS),
                                               ("count", TRACER.COUNTS))
           for entry in table]


def test_tracer_lists_hooks():
    assert ENTRIES


def _resolve(module_name, path):
    module = importlib.import_module(module_name)
    if "." in path:
        cls_name, attr = path.split(".")
        return getattr(module, cls_name).__dict__[attr]
    return getattr(module, path)


@pytest.mark.parametrize("kind, name, module_name, path", ENTRIES,
                         ids=[f"{kind}:{module}:{path}"
                              for kind, _, module, path in ENTRIES])
def test_hook_resolves(kind, name, module_name, path):
    assert callable(_resolve(module_name, path))


def test_hooks_wrap_distinct_functions():
    """``Tracer._rebind`` rebinds by object identity, so two entries naming
    one function (an alias such as ``f = g``) would wrap it twice and count
    its calls under both entries."""
    originals = {}
    for _, _, module_name, path in ENTRIES:
        originals.setdefault(id(_resolve(module_name, path)), []).append(
            f"{module_name}:{path}")
    shared = [names for names in originals.values() if len(names) > 1]
    assert not shared, f"entries resolving to one function: {shared}"
