"""Every layer the benchmark's traced run wraps must exist in the package.

`bench/tracer.py` names its span and counter targets by dotted path; a
refactor that renames or removes one of them would otherwise surface only
when a traced benchmark run fails to install.  The module is loaded from its
file and nothing in it is changed.
"""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("bench_tracer", _PATH)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


def test_every_traced_target_resolves():
    for name, (module, path) in {**tracer.SPANS, **tracer.COUNTS}.items():
        owner, attr, original = tracer._resolve(module, path)
        assert callable(original) and getattr(owner, attr) is original, name
