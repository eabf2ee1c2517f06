"""The traced benchmark still finds every public function it wraps.

``bench/tracing.py`` looks each name in its ``LAYERS`` up in its module, so
deleting or renaming one of those functions breaks ``bench/run.py --trace 1``.
Its NumPy stand-in for ``linalg`` also counts the clique-block scan's
decompositions, which run through ``linalg``.
"""

import importlib
from collections import Counter
from pathlib import Path

import numpy as np

from psdcomplete import clique_tree, complete_or_certify, rooted_clique_order

from helpers import random_chordal, random_psd_partial

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


def test_tracing_sees_the_block_scan_and_one_alignment_per_level(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    rng = np.random.default_rng(5)
    g = random_chordal(rng, 30)
    part = random_psd_partial(rng, g)
    levels = len(rooted_clique_order(clique_tree(g)))
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        rep, _ = tracer.run_op(lambda: complete_or_certify(g, part))
    finally:
        undo()
    assert rep.verdict == "completed"
    names = Counter(span[0] for span in tracer.spans)
    assert names["linalg.eigh"] >= 1
    assert 0 < names["linalg.align_gram"] <= levels
