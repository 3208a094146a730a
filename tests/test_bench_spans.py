"""The benchmark's tracer wraps library functions by module and name.

``perfbench/tracing.py`` skips a name that no longer exists, so renaming
a wrapped helper would silently drop its per-layer metrics; this test
makes such a rename fail instead.  The tracer is loaded by file path,
as ``conftest`` loads ``inputs.py``, since ``perfbench`` is not a
package.
"""

import importlib
import importlib.util
from pathlib import Path


def _load_tracing():
    path = (Path(__file__).resolve().parent.parent / "perfbench"
            / "tracing.py")
    spec = importlib.util.spec_from_file_location("monowatch_bench_tracing",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    tracing = _load_tracing()
    assert tracing.SPANS
    missing = [(mod, attr) for mod, attr, _ in tracing.SPANS
               if not hasattr(importlib.import_module(f"monowatch.{mod}"),
                              attr)]
    assert missing == []
