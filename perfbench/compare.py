"""Planning phase: the 40-row variant table with no secure runtime.

Each call runs in a process of its own, so that its memory and warm
caches stay out of the runtime figures, and writes its result as JSON to
--result.  `--mode table` times `compare_variants` over the whole table
once.  `--mode check` checks, for every row, that the cost profiler's
`count_mults` equals the plan's `mults` for each conv and fc layer
(batchnorm is left out: `costs` charges it unfolded, the plan folds it,
and the totals differ by exactly the batchnorm element count, which is
checked too).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback

import harness  # noqa: F401  (puts the checkout's src/ on sys.path)

BACKBONES = ("densenet121", "resnet50", "resnet18", "mobilenetv3l", "shufflenetv2")
VARIANTS = ("dense", "factorized", "shuffle", "xop")
SIZE = 320

# Rows build_plan rejects at this commit: resnet18's shuffle cell puts a
# batchnorm after a concat, which the plan cannot fold.  They are reported
# by name, not counted as failures; any other rejection is a failure.
KNOWN_PLAN_REJECTIONS = {"resnet18:shuffle", "resnet18:shuffle+wino"}


def table_pairs() -> list:
    return [(b, v, w) for b in BACKBONES for v in VARIANTS for w in (False, True)]


def row_name(backbone, variant, wino) -> str:
    return f"{backbone}:{variant}" + ("+wino" if wino else "")


def check_rows(seed: int) -> dict:
    """count_mults against the plan's mults, per conv and fc layer, per row."""
    from xconv2pc import costs, plan, winograd, zoo
    from xconv2pc.errors import ShapeError

    failed, rejected = [], []
    for backbone, variant, wino in table_pairs():
        name = row_name(backbone, variant, wino)
        try:
            g = zoo.model_zoo(backbone, variant, input_size=SIZE, seed=seed)
            if wino:
                g = winograd.rewrite_winograd(g)[0]
            counted = costs.count_mults(g)
            try:
                p = plan.build_plan(g, with_weights=False)
            except ShapeError as e:
                if name not in KNOWN_PLAN_REJECTIONS:
                    raise
                rejected.append(f"{name}: {e}")
                continue
            bad = [pl.name for pl in p.layers
                   if pl.kind in ("conv2d", "fully-connected")
                   and counted[pl.name] != pl.mults]
            bn = sum(counted[l.name] for l in g.layers if l.kind == "batchnorm")
            gap = sum(counted.values()) - sum(pl.mults for pl in p.layers)
            if bad:
                failed.append(f"{name}: count_mults != plan mults at {bad[:3]}")
            elif gap != bn:
                failed.append(f"{name}: total gap {gap} != batchnorm elements {bn}")
        except Exception as e:  # one row's failure must not stop the others
            failed.append(f"{name}: {type(e).__name__}: {e}")
    return {"rows_checked": len(table_pairs()), "failed": failed,
            "rejected": rejected}


def time_table(seed: int, trace: bool) -> dict:
    """One timed `compare_variants` over the whole table."""
    from xconv2pc import costs, winograd

    tracer = None
    if trace:
        from spans import Tracer, self_by_op

        tracer = Tracer().install()
    pairs = table_pairs()
    t = time.perf_counter()
    rows = costs.compare_variants(
        pairs, input_size=SIZE, seed=seed,
        graph_hook=lambda g: winograd.rewrite_winograd(g)[0])
    result = {"table_s": time.perf_counter() - t}
    if len(rows) != len(pairs) or any(r.mults <= 0 for r in rows):
        raise RuntimeError("variant table is incomplete")
    if tracer is not None:
        tracer.uninstall()
        result["trace_self_s"] = self_by_op(tracer.drain())
    return result


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("check", "table"), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()
    try:
        if args.mode == "check":
            result = {"check": check_rows(args.seed)}
        else:
            result = time_table(args.seed, bool(args.trace))
    except Exception:
        result = {"error": traceback.format_exc()}
    with open(args.result, "w") as f:
        json.dump(result, f)
    return 1 if "error" in result else 0


if __name__ == "__main__":
    sys.exit(main())
