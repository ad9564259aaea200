"""One in-process inference, as `xconv2pc verify` runs it, in a fresh process.

Started by run.py once per inference.  It rebuilds the graph from the
workload name and the weight seed, deals the material
(`generate_material`) and runs both parties over the in-process transport
(`secure_infer_local` with the pre-dealt material and no clear
reference).  It writes what it measured to --result as JSON and the
reconstructed output to --output.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback

import harness

DEALER_REPEATS = 3


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--weight-seed", type=int, required=True)
    ap.add_argument("--session-seed", type=int, required=True)
    ap.add_argument("--input", required=True)
    ap.add_argument("--output", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    result = {}
    try:
        from xconv2pc import plan as plan_mod
        from xconv2pc.ring import deserialize_tensor, serialize_tensor
        from xconv2pc.runtime import material, session

        graph, _ = harness.build_graph(args.workload, args.weight_seed)
        plan = plan_mod.build_plan(graph, with_weights=True)
        with open(args.input, "rb") as f:
            x, _ = deserialize_tensor(f.read())
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer().install()
        # One dealer call varied 0.6-1.5 s within a process (huge-page
        # faults), so the dealer runs DEALER_REPEATS times; the last
        # material is the one used, and each earlier one is dropped before
        # the next call so that peak memory stays that of one.
        dealer = []
        for _ in range(DEALER_REPEATS):
            stores = None
            t0 = time.perf_counter()
            stores = material.generate_material(plan, args.session_seed)
            dealer.append(time.perf_counter() - t0)
        t1 = time.perf_counter()
        run = session.secure_infer_local(graph, x, seed=args.session_seed,
                                         materials=stores, compare_clear=False)
        t2 = time.perf_counter()
        if tracer is not None:
            tracer.uninstall()
            result["spans"] = tracer.drain()
        with open(args.output, "wb") as f:
            f.write(serialize_tensor(run.output, graph.cfg))
        result.update(
            dealer_s=dealer, online_s=t2 - t1,
            cursors=[stores[0].cursors, stores[1].cursors],
            ledgers=[run.model.ledger.rows(), run.client.ledger.rows()],
            held_mib=harness.held_mib(stores[1]), rss_mib=harness.peak_rss_mib())
    except Exception:  # reported to run.py, which counts the inference failed
        result["error"] = traceback.format_exc()
    with open(args.result, "w") as f:
        json.dump(result, f)
    return 1 if "error" in result else 0


if __name__ == "__main__":
    sys.exit(main())
