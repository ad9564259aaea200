"""The benchmark's outside-in tracer still finds what it wraps.

`perfbench/spans.py` wraps functions and engine methods by name and
attributes work to plan layers by swapping the engine's layer list.  A
rename in `src/` or a walker that stops iterating `engine.plan.layers`
would silently empty its per-layer figures; these tests fail instead.
"""

import importlib
import sys
from pathlib import Path

import numpy as np

from xconv2pc.graph import CellVariant
from xconv2pc.runtime.session import secure_infer_local
from xconv2pc.zoo import model_zoo

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402


def test_every_wrapped_attribute_resolves():
    for modname, path, _ in spans.WRAPPED:
        obj = importlib.import_module(modname)
        for part in path.split("."):
            assert hasattr(obj, part), f"{modname}.{path}"
            obj = getattr(obj, part)
        assert callable(obj), f"{modname}.{path}"


def test_traced_run_opens_one_layer_span_per_plan_layer_per_party():
    g = model_zoo("toynet", CellVariant.DENSE, 16, seed=80)
    x = np.random.default_rng(81).uniform(-1.0, 1.0, size=g.input_shape)
    tracer = spans.Tracer().install()
    try:
        run = secure_infer_local(g, x, seed=82)
    finally:
        tracer.uninstall()
    rows = tracer.drain()
    assert np.array_equal(run.output.words, run.clear_reference.words)
    names = [pl.name for pl in run.plan.layers]
    for party in ("party0", "party1"):
        layers = [r["layer"] for r in rows
                  if r["op"] == "layer" and r["party"] == party]
        assert layers == names, party
        # The walker's calls into the engine reach the wrapped methods, each
        # directly under the span of the layer that made it.
        for op, uses in (("protocol.beaver", lambda pl: pl.mults),
                         ("protocol.trunc", lambda pl: pl.trunc_elems),
                         ("protocol.relu", lambda pl: pl.cmp_elems)):
            seen = {rows[r["parent"]]["layer"] for r in rows
                    if r["party"] == party and r["op"] == op
                    and rows[r["parent"]]["op"] == "layer"}
            assert seen == {pl.name for pl in run.plan.layers if uses(pl)}, op
