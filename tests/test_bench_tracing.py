"""The traced benchmark still finds every public function it wraps.

``bench/tracing.py`` looks each name in its ``LAYERS`` up in its module, so
deleting or renaming one of those functions breaks ``bench/run.py --trace 1``.
"""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracing_installs_and_undoes(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    originals = {(layer, name): getattr(importlib.import_module(f"psdcomplete.{layer}"), name)
                 for layer, names in tracing.LAYERS.items() for name in names}
    undo = tracing.install(tracing.Tracer())
    undo()
    for (layer, name), fn in originals.items():
        assert getattr(importlib.import_module(f"psdcomplete.{layer}"), name) is fn
