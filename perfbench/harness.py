"""Shared pieces of the benchmark: workloads, inputs, checks, link model.

Everything here calls xconv2pc through its public modules; the package is
imported from the checkout's `src/` directory, never installed.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

# Workload name -> graph and how the two parties talk.  `zoo` is the
# backbone:variant:size triple the CLI's --zoo takes.
WORKLOADS = {
    "shufflenet-xop-32": {"zoo": "shufflenetv2:xop:32", "winograd": False,
                          "transport": "tcp"},
    "shufflenet-dense-wino-32": {"zoo": "shufflenetv2:dense:32", "winograd": True,
                                 "transport": "inproc"},
    # Self-test graph, about 0.1 s online; not a driver workload.
    "toynet-dense-16": {"zoo": "toynet:dense:16", "winograd": False,
                        "transport": "inproc"},
}

# Plan layer kind -> trace bucket.  Frames outside the layer walk
# (handshake, weights, input share, output open, sync) go to "session".
KINDS = ("conv", "conv-wino", "fc", "relu", "maxpool", "avgpool", "gap",
         "local", "session")
_KIND = {"fully-connected": "fc", "relu": "relu", "maxpool": "maxpool",
         "avgpool": "avgpool", "global-avgpool": "gap", "shuffle": "local",
         "add": "local", "concat": "local"}


def kind_of(pl) -> str:
    if pl.kind == "conv2d":
        return "conv-wino" if pl.attrs.get("winograd") else "conv"
    return _KIND[pl.kind]


def build_graph(workload: str, weight_seed: int):
    """The workload's graph with weights drawn from the benchmark seed."""
    from xconv2pc import winograd, zoo

    w = WORKLOADS[workload]
    backbone, variant, size = w["zoo"].split(":")
    g = zoo.model_zoo(backbone, variant, input_size=int(size), seed=weight_seed)
    tagged = 0
    if w["winograd"]:
        g, decisions = winograd.rewrite_winograd(g)
        tagged = sum(d.eligible for d in decisions)
    return g, tagged


def session_seed(seed: int, i: int) -> int:
    """Dealer/session seed of inference i in a run with benchmark seed `seed`."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1, np.uint32)[0])


def make_input(graph, seed: int, i: int):
    """Fresh encoded input of inference i, uniform in [-1, 1)."""
    from xconv2pc.ring import encode_fixed

    rng = np.random.default_rng(np.random.SeedSequence([seed, i, 7]))
    return encode_fixed(rng.uniform(-1.0, 1.0, size=graph.input_shape), graph.cfg)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def held_mib(store) -> float:
    """Memory one party's dealer material holds."""
    return sum(a.nbytes for a in store.arrays.values()) / 2 ** 20


def expected_cursors(plan) -> dict:
    req = plan.requirements()
    return {"mul": req.mul_triples, "aux": req.aux_triples,
            "trunc": req.trunc_units, "cmp": req.cmp_tuples,
            "bool": req.bool_words}


def ledger_from_rows(rows: list):
    from xconv2pc.runtime.wire import CommLedger, LedgerEntry

    led = CommLedger()
    for r in rows:
        led.entries[(r["layer"], r["op"])] = LedgerEntry(
            bytes_sent=r["bytes_sent"], bytes_recv=r["bytes_recv"],
            rounds=r["rounds"])
    return led


def ledger_rounds(led) -> int:
    return sum(e.rounds for e in led.entries.values())


def check_inference(plan, output_words, clear_words, client_led, model_led,
                    cursors: tuple) -> list:
    """Every correctness check of one inference; returns the failed ones.

    `plan` is the model owner's plan; `cursors` holds both parties'
    material cursors after the run.
    """
    from xconv2pc.runtime.wire import ledgers_mirror

    failed = []
    if not np.array_equal(output_words, clear_words):
        failed.append("output differs from execute_plan_clear")
    if not ledgers_mirror(client_led, model_led):
        failed.append("party ledgers do not mirror")
    mults = sum(pl.mults for pl in plan.layers)
    if client_led.bytes_for(op="mul-open") != 16 * mults:
        failed.append(f"mul-open bytes {client_led.bytes_for(op='mul-open')} "
                      f"!= 16 x {mults} plan mults")
    want = expected_cursors(plan)
    for party, cur in enumerate(cursors):
        if cur != want:
            failed.append(f"party{party} material cursors {cur} != plan {want}")
    return failed


def per_kind_ledger(led, plan) -> dict:
    """Client ledger bytes sent and rounds per trace bucket."""
    kinds = {pl.name: kind_of(pl) for pl in plan.layers}
    out = {k: {"bytes": 0, "rounds": 0} for k in KINDS}
    for (layer, op), e in led.entries.items():
        kind = "session" if op in ("share-weights", "output-open") else \
            kinds.get(layer, "session")
        out[kind]["bytes"] += e.bytes_sent
        out[kind]["rounds"] += e.rounds
    return out


def links() -> dict:
    """The LAN and WAN constants pinned in spec.json."""
    with open(os.path.join(HERE, "spec.json")) as f:
        return json.load(f)["links"]


def metric_units() -> tuple:
    """(end-to-end, per-layer) metric name -> unit, as BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return tuple({m["name"]: m["unit"] for m in bench[key]}
                 for key in ("end_to_end", "per_layer"))


def link_terms(rounds: int, sent: tuple, link: dict) -> tuple:
    """(latency term, bandwidth term) in seconds for one link profile.

    Latency is rounds x RTT; bandwidth is the larger direction's payload
    bytes over the link rate.
    """
    return (rounds * link["rtt_ms"] / 1000.0,
            max(sent) * 8.0 / (link["gbit_per_s"] * 1e9))


def median(values: list) -> float:
    return float(statistics.median(values))
