"""Graph description files.

JSON document with a ``layers`` array (kind, attributes, input names),
``input_shape``, ``fixedpoint`` settings, and optional weight blobs; the
``metadata`` key of files from older versions is ignored.
Weights ride as ring-tensor serializations (base64 in-document, or a
relative file reference), encoded at the graph's own scale; loading
decodes them back to the real domain.  One save/load roundtrip therefore
quantizes weights to the working precision, after which the file is a
fixed point of the roundtrip.
"""

from __future__ import annotations

import base64
import json
import os

from .errors import ParseError
from .graph import Graph, LayerSpec
from .ring import (
    FixedPointConfig,
    decode_fixed,
    deserialize_tensor,
    encode_fixed,
    serialize_tensor,
)

FORMAT_NAME = "xconv2pc-graph"
FORMAT_VERSION = 1


def graph_to_doc(graph: Graph) -> dict:
    doc = {"format": FORMAT_NAME, "version": FORMAT_VERSION, **graph.architecture()}
    if graph.weights:
        blobs = {}
        for name, values in graph.weights.items():
            t = encode_fixed(values, graph.cfg)
            blobs[name] = {"data": base64.b64encode(
                serialize_tensor(t, graph.cfg)).decode("ascii")}
        doc["weights"] = blobs
    return doc


def save_graph(graph: Graph, path: str) -> None:
    with open(path, "w") as f:
        json.dump(graph_to_doc(graph), f)


def doc_to_graph(doc: dict, base_dir: str = ".") -> Graph:
    try:
        if doc.get("format") != FORMAT_NAME:
            raise ParseError(f"not a {FORMAT_NAME} document")
        fx = doc["fixedpoint"]
        cfg = FixedPointConfig(bitwidth=int(fx["bitwidth"]), scale=int(fx["scale"]))
        layers = [
            LayerSpec(l["name"], l["kind"], list(l["inputs"]), dict(l.get("attrs", {})))
            for l in doc["layers"]
        ]
        weights = {}
        for name, blob in (doc.get("weights") or {}).items():
            if "data" in blob:
                raw = base64.b64decode(blob["data"])
            elif "ref" in blob:
                with open(os.path.join(base_dir, blob["ref"]), "rb") as f:
                    raw = f.read()
            else:
                raise ParseError(f"weight blob {name!r} has neither data nor ref")
            t, t_cfg = deserialize_tensor(raw)
            weights[name] = decode_fixed(t, t_cfg)
        return Graph(layers, doc["input_shape"], cfg, weights)
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"malformed graph document: {e}") from e


def load_graph(path: str) -> Graph:
    try:
        with open(path) as f:
            text = f.read()
    except OSError as e:
        raise ParseError(f"cannot read graph file: {e}") from e
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(
            f"malformed JSON at byte offset {e.pos}: {e.msg}") from e
    return doc_to_graph(doc, base_dir=os.path.dirname(os.path.abspath(path)))
