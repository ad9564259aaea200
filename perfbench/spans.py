"""Spans recorded from outside the program, around calls into its layers.

`Tracer.install()` replaces public functions and methods of the xconv2pc
modules with wrappers that record one span per call: (party, layer, op,
start, end, parent).  Nothing inside `src/` changes; the wrappers live
only in the process that installed them and `uninstall()` puts the
originals back.

Plan layers have no call of their own inside `PartyEngine.run`, so the
wrapper around `run` hands the engine a copy of its plan whose layer list
opens a `layer` span as each layer is reached and closes it when the next
one is requested.  Every engine call made while a layer is current becomes
that span's child, which attributes local work (patches, sums, permutes)
as well as interactive work to the layer.

Spans stay in memory until `drain()` hands them over.
"""

from __future__ import annotations

import copy
import functools
import inspect
import sys
import threading
import time

from harness import kind_of

# (module, attribute path, span op).  Attribute paths with a dot name a
# method on a class defined in that module.
WRAPPED = (
    ("xconv2pc.zoo", "model_zoo", "zoo.build"),
    ("xconv2pc.graph", "cell_graph", "zoo.build"),
    ("xconv2pc.winograd", "rewrite_winograd", "winograd.rewrite"),
    ("xconv2pc.plan", "build_plan", "plan.build"),
    ("xconv2pc.plan", "execute_plan_clear", "plan.clear"),
    ("xconv2pc.costs", "estimate_comm", "costs.estimate"),
    ("xconv2pc.runtime.material", "generate_material", "material.generate"),
    ("xconv2pc.runtime.material", "write_material", "material.write"),
    ("xconv2pc.runtime.material", "load_material", "material.load"),
    ("xconv2pc.runtime.session", "run_model_party", "session.party"),
    ("xconv2pc.runtime.session", "run_client_party", "session.party"),
    ("xconv2pc.runtime.session", "handshake", "session.handshake"),
    ("xconv2pc.runtime.protocol", "PartyEngine.distribute_weights", "session.weights"),
    ("xconv2pc.runtime.protocol", "PartyEngine.run", "protocol.run"),
    ("xconv2pc.runtime.protocol", "PartyEngine.beaver", "protocol.beaver"),
    ("xconv2pc.runtime.protocol", "PartyEngine.less_than_mask", "protocol.lt"),
    ("xconv2pc.runtime.protocol", "PartyEngine.bits_to_arith", "protocol.b2a"),
    ("xconv2pc.runtime.protocol", "PartyEngine.relu_shares", "protocol.relu"),
    ("xconv2pc.runtime.protocol", "PartyEngine.truncate_shares", "protocol.trunc"),
    ("xconv2pc.runtime.wire", "QueueTransport.send", "wire.send"),
    ("xconv2pc.runtime.wire", "QueueTransport.recv", "wire.wait"),
    ("xconv2pc.runtime.wire", "SocketTransport.send", "wire.send"),
    ("xconv2pc.runtime.wire", "SocketTransport.recv", "wire.wait"),
    ("xconv2pc.runtime.wire", "TranscriptRecorder.on_send", "wire.transcript"),
    ("xconv2pc.runtime.wire", "TranscriptRecorder.on_recv", "wire.transcript"),
)


class Span:
    __slots__ = ("party", "layer", "op", "start", "end", "parent", "nbytes")

    def __init__(self, party, layer, op, start, parent):
        self.party = party
        self.layer = layer
        self.op = op
        self.start = start
        self.end = None
        self.parent = parent
        self.nbytes = 0

    def as_row(self, index: int) -> dict:
        return {"id": index, "party": self.party, "layer": self.layer,
                "op": self.op, "start": self.start, "end": self.end,
                "parent": self.parent, "bytes": self.nbytes}


class Tracer:
    """Span recorder; one instance per process, stacks per thread."""

    def __init__(self, default_party: str = "bench"):
        self.default_party = default_party
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved = []

    # -- span stack -------------------------------------------------------------

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def open(self, op: str, layer: str = None, party=None) -> int:
        st = self._stack()
        parent = st[-1] if st else -1
        if parent >= 0:
            top = self.spans[parent]
            party = top.party if party is None else party
            layer = top.layer if layer is None else layer
        span = Span(self.default_party if party is None else party, layer, op,
                    time.perf_counter(), parent)
        with self._lock:
            self.spans.append(span)
            idx = len(self.spans) - 1
        st.append(idx)
        return idx

    def close(self, idx: int) -> None:
        """Close `idx` and any span left open above it by an exception."""
        now = time.perf_counter()
        st = self._stack()
        while st:
            top = st.pop()
            self.spans[top].end = now
            if top == idx:
                return

    def drain(self) -> list:
        """Hand over every closed span as rows and forget them."""
        with self._lock:
            spans, self.spans = self.spans, []
        return [s.as_row(i) for i, s in enumerate(spans)]

    # -- wrappers -----------------------------------------------------------------

    def _wrapper(self, fn, op: str):
        params = list(inspect.signature(fn).parameters)
        layer_at = params.index("layer") if "layer" in params else None
        is_engine = params[:1] == ["self"] and op.startswith(("protocol.", "session."))
        tracer = self

        if op == "protocol.run":
            @functools.wraps(fn)
            def run_wrapper(engine, *args, **kwargs):
                idx = tracer.open(op, "run", party=f"party{engine.party}")
                original = engine.plan
                engine.plan = copy.copy(original)
                engine.plan.layers = _LayerMarks(original.layers, tracer)
                try:
                    return fn(engine, *args, **kwargs)
                finally:
                    engine.plan = original
                    tracer.close(idx)
            return run_wrapper

        if op == "wire.send":
            @functools.wraps(fn)
            def send_wrapper(transport, frame):
                idx = tracer.open(op)
                tracer.spans[idx].nbytes = len(frame.payload)
                try:
                    return fn(transport, frame)
                finally:
                    tracer.close(idx)
            return send_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            layer = kwargs.get("layer")
            if layer is None and layer_at is not None and len(args) > layer_at:
                layer = args[layer_at]
            party = None
            if is_engine and args and hasattr(args[0], "party"):
                party = f"party{args[0].party}"
            elif op == "session.party":
                party = "party0" if fn.__name__ == "run_model_party" else "party1"
                layer = "session"
            idx = tracer.open(op, layer, party)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)
        return wrapper

    def install(self) -> "Tracer":
        import importlib

        for modname, path, op in WRAPPED:
            mod = importlib.import_module(modname)
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(mod, cls_name)
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrapper(original, op))
                continue
            original = getattr(mod, path)
            wrapped = self._wrapper(original, op)
            # Modules that imported the function by name hold their own
            # reference; replace every one of them.
            for name, other in list(sys.modules.items()):
                if name.startswith("xconv2pc") and getattr(other, path, None) is original:
                    self._saved.append((other, path, original))
                    setattr(other, path, wrapped)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []


class _LayerMarks:
    """Plan layer list whose iteration opens one span per layer."""

    def __init__(self, layers: list, tracer: Tracer):
        self._layers = layers
        self._tracer = tracer

    def __len__(self):
        return len(self._layers)

    def __getitem__(self, i):
        return self._layers[i]

    def __iter__(self):
        # A layer that raises leaves its span open; the `run` wrapper's
        # close unwinds it.
        for pl in self._layers:
            idx = self._tracer.open("layer", pl.name)
            yield pl
            self._tracer.close(idx)


# -- analysis ----------------------------------------------------------------------


def self_times(rows: list) -> list:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(rows)
    for r in rows:
        if r["parent"] >= 0:
            child[r["parent"]] += r["end"] - r["start"]
    return [r["end"] - r["start"] - c for r, c in zip(rows, child)]


def self_by_op(rows: list) -> dict:
    """Self time summed per op."""
    out = {}
    for r, s in zip(rows, self_times(rows)):
        out[r["op"]] = out.get(r["op"], 0.0) + s
    return out


def summarize_party(rows: list, party: str, plan) -> dict:
    """Per-op self times and counts, per-kind time and bytes, for one party."""
    selfs = self_times(rows)
    by_op = {}
    calls = {}
    kind_compute = {}
    kind_wait = {}
    kind_bytes = {}
    frames = 0
    sent = 0
    kinds = {pl.name: kind_of(pl) for pl in plan.layers}
    # Every span's kind is that of its nearest enclosing layer span, or
    # "session" outside the layer walk.
    span_kind = [None] * len(rows)
    for i, r in enumerate(rows):
        if r["op"] == "layer":
            span_kind[i] = kinds[r["layer"]]
        elif r["parent"] >= 0:
            span_kind[i] = span_kind[r["parent"]]
        else:
            span_kind[i] = "session"
    for i, r in enumerate(rows):
        if r["party"] != party:
            continue
        op = r["op"]
        by_op[op] = by_op.get(op, 0.0) + selfs[i]
        calls[op] = calls.get(op, 0) + 1
        kind = span_kind[i]
        if op == "wire.wait":
            kind_wait[kind] = kind_wait.get(kind, 0.0) + (r["end"] - r["start"])
        if op == "wire.send":
            frames += 1
            sent += r["bytes"]
            kind_bytes[kind] = kind_bytes.get(kind, 0) + r["bytes"]
        if op == "session.party":
            kind_compute["session"] = kind_compute.get("session", 0.0) + \
                (r["end"] - r["start"])
        if op == "layer":
            dur = r["end"] - r["start"]
            kind_compute[kind] = kind_compute.get(kind, 0.0) + dur
            kind_compute["session"] = kind_compute.get("session", 0.0) - dur
    # Waits were counted inside the spans above; take them out of compute.
    for kind, w in kind_wait.items():
        kind_compute[kind] = kind_compute.get(kind, 0.0) - w
    return {"self_s": by_op, "calls": calls, "frames": frames, "bytes": sent,
            "kind_compute_s": kind_compute, "kind_wait_s": kind_wait,
            "kind_bytes": kind_bytes}
