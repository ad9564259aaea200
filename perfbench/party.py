"""One online party of a TCP session, as `xconv2pc run --role partyN` runs it.

Started by run.py once per inference, the way `run --local` starts its
party processes.  It rebuilds the graph from the workload name and the
weight seed, loads its dealer file, meets the peer on loopback and runs
its side of the protocol.  It writes what it measured to --result as
JSON; the client also writes its reconstructed output to --output.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback

import harness


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--role", choices=("party0", "party1"), required=True)
    ap.add_argument("--weight-seed", type=int, required=True)
    ap.add_argument("--session-seed", type=int, required=True)
    ap.add_argument("--port", type=int, required=True)
    ap.add_argument("--material", required=True)
    ap.add_argument("--input", default=None)
    ap.add_argument("--output", default=None)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    result = {"role": args.role}
    tracer = None
    try:
        if args.trace:
            from spans import Tracer

            tracer = Tracer(default_party=args.role).install()
        from xconv2pc import plan as plan_mod
        from xconv2pc.ring import deserialize_tensor, serialize_tensor
        from xconv2pc.runtime import material, session

        t = time.perf_counter()
        graph, _ = harness.build_graph(args.workload, args.weight_seed)
        plan = plan_mod.build_plan(graph, with_weights=args.role == "party0")
        result["setup_s"] = time.perf_counter() - t

        t = time.perf_counter()
        store = material.load_material(args.material)
        result["load_s"] = time.perf_counter() - t

        if args.role == "party0":
            transport = session.listen_once("127.0.0.1", args.port)
            try:
                t = time.perf_counter()
                res = session.run_model_party(plan, transport, store,
                                              args.session_seed)
                result["online_s"] = time.perf_counter() - t
            finally:
                transport.close()
        else:
            with open(args.input, "rb") as f:
                x, _ = deserialize_tensor(f.read())
            transport = session.connect_with_retry("127.0.0.1", args.port)
            try:
                t = time.perf_counter()
                res = session.run_client_party(plan, transport, store,
                                               args.session_seed, x)
                result["online_s"] = time.perf_counter() - t
            finally:
                transport.close()
            with open(args.output, "wb") as f:
                f.write(serialize_tensor(res.output, graph.cfg))
        result["cursors"] = store.cursors
        result["ledger"] = res.ledger.rows()
        result["rss_mib"] = harness.peak_rss_mib()
        if tracer is not None:
            tracer.uninstall()
            result["spans"] = tracer.drain()
    except Exception:  # reported to run.py, which counts the inference failed
        result["error"] = traceback.format_exc()
    with open(args.result, "w") as f:
        json.dump(result, f)
    return 1 if "error" in result else 0


if __name__ == "__main__":
    sys.exit(main())
