"""Two-party inference benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload shufflenet-xop-32 --seed 1 \
        --seconds 24 --trace 0

A run has three phases, each timed from outside the program:

1. set-up: build the graph from the seed, rewrite it where the workload
   says so, build both parties' plans; repeated at least 3 times and
   for 2 s;
2. inference: a closed loop, one client and one inference in flight.
   Each inference gets fresh dealer material and a fresh input, both
   drawn from the seed.  The first inference is a warm-up: it is checked
   and counted as attempted, but its times stay out of the medians.  Then
   inferences run until --seconds have passed;
3. planning: child processes check the 40-row variant table once and
   time it TABLES times, one process per table (compare.py); it needs no
   secure runtime.  It runs last, so that the memory a table allocates
   and frees stays out of the inference window.

Over TCP each inference is what `xconv2pc run --local` does: the dealer
writes both material files, two party processes (party.py) load them and
meet on loopback.  In process it is `secure_infer_local` with pre-dealt
material, in a fresh process (local.py) per inference.  Every output is
compared bit for bit with `execute_plan_clear`, and the ledgers,
multiplication bytes and material cursors are checked; a failed check
counts the inference failed and the run goes on.

With --trace 1 the program's public calls are wrapped (spans.py), every
other inference runs traced, and the per-layer metrics are printed; the
tracing overhead is traced minus untraced online time.

The last line of standard output is the JSON result; the line before it
carries every figure by name, including the failed share and the link
model's terms.  Files go to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import socket
import subprocess
import sys
import time

import harness
from harness import KINDS, ROOT, WORKLOADS, median
from spans import Tracer, self_by_op, summarize_party

# Set-up repeats until it has run 3 times and 2 s (at most 50 times), so
# that the median of a graph built in hundredths of a second rests on
# many samples.
SETUP_MIN_REPEATS = 3
SETUP_MIN_S = 2.0
SETUP_MAX_REPEATS = 50
CLEAR_REPEATS = 5
TABLES = 4
HARD_LIMIT_S = 170.0      # the whole run must end within 180 s
LOOP_LIMIT_S = 120.0      # leaves time for the tables after the loop
OUT_DIR = os.path.join(ROOT, ".perfbench")


class Run:
    """State of one benchmark run; see the module docstring for phases."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.started = time.perf_counter()
        self.work = os.path.join(OUT_DIR, f"work-{os.getpid()}")
        self.trace_path = os.path.join(
            OUT_DIR, f"trace-{workload}-seed{seed}.jsonl")
        self.tracer = None
        self.attempted = 0
        self.failed = 0             # operations that raised or failed a check
        self.failures = []          # what failed, for the summary
        self.inferences = []        # one dict per measured inference
        self.table_s = []           # one time per variant table
        self.compare_trace = []
        self.figures = {}

    # -- phases -------------------------------------------------------------------

    def planning(self, mode: str) -> None:
        """The variant table's row checks, or one timed table, in a child."""
        out = os.path.join(self.work, "compare.json")
        cmd = [sys.executable, os.path.join(harness.HERE, "compare.py"),
               "--seed", str(self.seed), "--mode", mode,
               "--trace", str(int(self.trace)), "--result", out]
        subprocess.run(cmd, timeout=90)
        with open(out) as f:
            res = json.load(f)
        if "error" in res:
            self.attempted += 1
            self.failed += 1
            self.failures.append(f"variant table {mode}: {res['error']}")
        elif mode == "check":
            rows = res["check"]
            self.attempted += rows["rows_checked"] - len(rows["rejected"])
            self.failed += len(rows["failed"])
            self.failures += rows["failed"]
            self.figures["plan_rejected"] = rows["rejected"]
        else:
            self.attempted += 1
            self.table_s.append(res["table_s"])
            if self.trace:
                self.compare_trace.append(res["trace_self_s"])

    def setup(self) -> None:
        from xconv2pc import plan as plan_mod

        times, layer_self = [], []
        while len(times) < SETUP_MIN_REPEATS or (
                sum(times) < SETUP_MIN_S and len(times) < SETUP_MAX_REPEATS):
            t = time.perf_counter()
            graph, tagged = harness.build_graph(self.workload, self.seed)
            p0 = plan_mod.build_plan(graph, with_weights=True)
            p1 = plan_mod.build_plan(graph, with_weights=False)
            times.append(time.perf_counter() - t)
            if self.tracer is not None:
                layer_self.append(self_by_op(self.tracer.drain()))
        self.graph, self.tagged, self.plan0, self.plan1 = graph, tagged, p0, p1
        self.figures["setup_s"] = median(times)
        self.setup_trace = layer_self

    def loop(self) -> None:
        i = 0
        window = None
        last = 0.0
        while True:
            if time.perf_counter() - self.started + 2 * last > LOOP_LIMIT_S:
                break
            t = time.perf_counter()
            traced = self.trace and i % 2 == 1
            rec = self.inference(i, traced)
            self.attempted += 1
            if rec["failed"]:
                self.failed += 1
                self.failures += [f"inference {i}: {m}" for m in rec["failed"]]
            elif i > 0:
                self.inferences.append(rec)
            last = time.perf_counter() - t
            i += 1
            if window is None:
                window = time.perf_counter()     # warm-up done
            elif time.perf_counter() - window >= self.seconds and (
                    not self.trace or {r["traced"] for r in self.inferences}
                    == {True, False}):
                break

    # -- one inference ---------------------------------------------------------------

    def inference(self, i: int, traced: bool) -> dict:
        sseed = harness.session_seed(self.seed, i)
        x = harness.make_input(self.graph, self.seed, i)
        if traced:
            self.tracer = Tracer().install()
        try:
            run = self._tcp if self.spec["transport"] == "tcp" else self._inproc
            rec = run(sseed, x, traced)
            if "output" in rec:
                rec["failed"] = self._check(rec, x)
        except Exception as e:  # counted failed; the run goes on
            rec = {"failed": [f"{type(e).__name__}: {e}"]}
        finally:
            if traced:
                self.tracer.uninstall()
                rec["bench_spans"] = self.tracer.drain()
                self.tracer = None
        rec["traced"] = traced
        if traced and not rec["failed"]:
            self._trace_inference(i, rec)
        return rec

    def _inproc(self, sseed: int, x, traced: bool) -> dict:
        paths = self._paths(x)
        proc = self._child("local.py", [
            "--workload", self.workload, "--weight-seed", str(self.seed),
            "--session-seed", str(sseed), "--trace", str(int(traced)),
            "--input", paths["input.rtv"], "--output", paths["output.rtv"],
            "--result", paths["local.json"]])
        _wait_all([proc], HARD_LIMIT_S - (time.perf_counter() - self.started))
        res = _read_json(paths["local.json"])
        if "error" in res:
            return {"failed": [res["error"]]}
        model_rows, client_rows = res["ledgers"]
        return {"dealer_s": res["dealer_s"], "online_s": res["online_s"],
                "session_s": res["dealer_s"][-1] + res["online_s"],
                "output": _read_output(paths),
                "client_led": harness.ledger_from_rows(client_rows),
                "model_led": harness.ledger_from_rows(model_rows),
                "cursors": tuple(res["cursors"]), "held_mib": res["held_mib"],
                "rss_mib": res["rss_mib"],
                "spans": {"process": res["spans"]} if traced else None}

    def _tcp(self, sseed: int, x, traced: bool) -> dict:
        from xconv2pc.runtime import material

        paths = self._paths(x)
        t0 = time.perf_counter()
        stores = material.generate_material(self.plan1, sseed)
        material.write_material(stores[0], paths["party0.dlr"])
        material.write_material(stores[1], paths["party1.dlr"])
        t1 = time.perf_counter()
        held = harness.held_mib(stores[1])
        del stores
        port = _free_port()
        common = ["--workload", self.workload, "--weight-seed", str(self.seed),
                  "--session-seed", str(sseed), "--port", str(port),
                  "--trace", str(int(traced))]
        procs = []
        for role in ("party0", "party1"):
            args = ["--role", role, "--material", paths[f"{role}.dlr"],
                    "--result", paths[f"{role}.json"]] + common
            if role == "party1":
                args += ["--input", paths["input.rtv"], "--output", paths["output.rtv"]]
            procs.append(self._child("party.py", args))
        _wait_all(procs, HARD_LIMIT_S - (time.perf_counter() - self.started))
        t2 = time.perf_counter()

        res = [_read_json(paths[f"{role}.json"]) for role in ("party0", "party1")]
        errors = [r["error"] for r in res if "error" in r]
        if errors:
            return {"failed": errors}
        return {"dealer_s": [t1 - t0], "online_s": res[1]["online_s"],
                "session_s": t2 - t0, "output": _read_output(paths),
                "client_led": harness.ledger_from_rows(res[1]["ledger"]),
                "model_led": harness.ledger_from_rows(res[0]["ledger"]),
                "cursors": (res[0]["cursors"], res[1]["cursors"]),
                "held_mib": held, "rss_mib": max(r["rss_mib"] for r in res),
                "load_s": res[1]["load_s"],
                "file_mib": os.path.getsize(paths["party1.dlr"]) / 2 ** 20,
                "spans": ({role: r["spans"] for role, r in zip(("party0", "party1"), res)}
                          if traced else None)}

    def _paths(self, x) -> dict:
        """Files of one inference; writes the input, drops the last outputs."""
        from xconv2pc.ring import serialize_tensor

        paths = {k: os.path.join(self.work, k) for k in
                 ("party0.dlr", "party1.dlr", "input.rtv", "output.rtv",
                  "party0.json", "party1.json", "local.json")}
        for k in ("output.rtv", "party0.json", "party1.json", "local.json"):
            if os.path.exists(paths[k]):
                os.remove(paths[k])
        with open(paths["input.rtv"], "wb") as f:
            f.write(serialize_tensor(x, self.graph.cfg))
        return paths

    @staticmethod
    def _child(script: str, args: list) -> subprocess.Popen:
        return subprocess.Popen([sys.executable, os.path.join(harness.HERE, script)]
                                + args)

    def _check(self, rec: dict, x) -> list:
        from xconv2pc import plan as plan_mod

        # The clear reference takes a few hundredths of a second; it is
        # timed CLEAR_REPEATS times per inference.
        times = []
        for _ in range(CLEAR_REPEATS):
            t = time.perf_counter()
            clear = plan_mod.execute_plan_clear(self.plan0, x, check_ceiling=False)
            times.append(time.perf_counter() - t)
        rec["clear_s"] = times
        client, model = rec["client_led"], rec["model_led"]
        rec["client_sent"] = client.total_sent
        rec["model_sent"] = model.total_sent
        rec["rounds"] = harness.ledger_rounds(client)
        return harness.check_inference(self.plan0, rec["output"], clear.words,
                                       client, model, rec["cursors"])

    # -- tracing ------------------------------------------------------------------------

    def _trace_inference(self, i: int, rec: dict) -> None:
        """Summarize the client's spans and check them against its ledger."""
        bench = rec["bench_spans"]
        # Over TCP each party process kept its own spans; in process both
        # parties' spans come from the one inference process.
        sources = rec["spans"]
        client = summarize_party(sources.get("party1") or sources["process"],
                                 "party1", self.plan0)
        rec["client_trace"] = client
        # The dealer ran in the bench (TCP) or in the inference process,
        # once or DEALER_REPEATS times; its figures are per call.
        dealer_self, calls = {}, 0
        for rows in (bench, sources.get("process", [])):
            calls += sum(r["op"] == "material.generate" for r in rows)
            for op, t in self_by_op(rows).items():
                dealer_self[op] = dealer_self.get(op, 0.0) + t
        rec["dealer_self"] = {op: t / max(calls, 1) for op, t in dealer_self.items()}
        led = rec["client_led"]
        per_kind = harness.per_kind_ledger(led, self.plan0)
        rec["per_kind"] = per_kind
        if client["bytes"] != led.total_sent:
            rec["failed"].append(f"traced wire bytes {client['bytes']} != "
                                 f"ledger total_sent {led.total_sent}")
        for kind in KINDS:
            if client["kind_bytes"].get(kind, 0) != per_kind[kind]["bytes"]:
                rec["failed"].append(
                    f"traced {kind} bytes {client['kind_bytes'].get(kind, 0)} "
                    f"!= ledger {per_kind[kind]['bytes']}")
        if sum(v["rounds"] for v in per_kind.values()) != rec["rounds"]:
            rec["failed"].append("per-kind rounds do not sum to the ledger")
        sources = dict(sources, bench=bench)
        with open(self.trace_path, "a") as f:
            for source, rows in sources.items():
                for r in rows:
                    f.write(json.dumps(dict(r, inference=i, source=source)) + "\n")

    # -- results ------------------------------------------------------------------------

    def end_to_end(self) -> dict:
        recs = self.inferences
        f = dict(self.figures)
        f["compare_s"] = median(self.table_s)
        f["compare_samples"] = len(self.table_s)
        plain = [r for r in recs if not r["traced"]] or recs
        for key in ("online_s", "session_s"):
            f[key] = median([r[key] for r in plain])
        f["clear_s"] = median([t for r in plain for t in r["clear_s"]])
        # One dealer call takes one of two times (about 0.7 or 1.2 s on the
        # byte-bound graph, by whether huge pages were at hand), so a median
        # of a few calls flips between them; dealer_s is the run's dealer
        # time per material dealt.
        calls = [t for r in plain for t in r["dealer_s"]]
        f["dealer_s"] = sum(calls) / len(calls)
        f["samples"] = len(recs)
        f["client_sent"] = median([r["client_sent"] for r in recs])
        f["payload_bytes"] = median([r["client_sent"] + r["model_sent"] for r in recs])
        f["rounds"] = median([r["rounds"] for r in recs])
        f["peak_rss_mib"] = median([r["rss_mib"] for r in recs])
        for name, link in harness.links().items():
            vals = []
            for r in recs:
                lat, bw = harness.link_terms(r["rounds"],
                                             (r["client_sent"], r["model_sent"]), link)
                vals.append(r["online_s"] + lat + bw)
            f[f"{name}_s"] = median(vals)
            f[f"{name}_latency_term_s"] = lat
            f[f"{name}_bandwidth_term_s"] = bw
        f["failed_share"] = self.failed / max(self.attempted, 1)
        return f

    def per_layer(self) -> dict:
        traced = [r for r in self.inferences if r["traced"]]
        plain = [r for r in self.inferences if not r["traced"]]
        if not traced or not plain:
            raise RuntimeError("a traced run needs at least one traced and one "
                               "untraced inference; raise --seconds")

        def med(fn):
            return median([fn(r) for r in traced])

        def self_s(r, op):
            return r["client_trace"]["self_s"].get(op, 0.0)

        m = {}
        setup = self.setup_trace
        m["zoo.build_s"] = median([s.get("zoo.build", 0.0) for s in setup])
        m["winograd.rewrite_s"] = median([s.get("winograd.rewrite", 0.0) for s in setup])
        m["winograd.tagged_convs"] = self.tagged
        m["plan.build_s"] = median([s.get("plan.build", 0.0) for s in setup])
        m["plan.mults"] = sum(pl.mults for pl in self.plan0.layers)
        m["plan.clear_s"] = median([t for r in plain for t in r["clear_s"]])
        m["costs.table_s"] = median(self.table_s)
        tables = self.compare_trace
        m["costs.estimate_s"] = median([t.get("costs.estimate", 0.0) for t in tables])
        m["zoo.table_build_s"] = median([t.get("zoo.build", 0.0) for t in tables])
        m["winograd.table_rewrite_s"] = median(
            [t.get("winograd.rewrite", 0.0) for t in tables])
        m["material.generate_s"] = med(
            lambda r: r["dealer_self"].get("material.generate", 0.0))
        calls = [t for r in plain for t in r["dealer_s"]]
        m["material.dealer_s"] = sum(calls) / len(calls)
        m["material.held_mib"] = med(lambda r: r["held_mib"])
        m["material.write_s"] = med(lambda r: r["dealer_self"].get("material.write", 0.0))
        m["material.load_s"] = med(lambda r: r.get("load_s", 0.0))
        m["material.file_mib"] = med(lambda r: r.get("file_mib", 0.0))
        for name, op in (("session.handshake_s", "session.handshake"),
                         ("session.weights_s", "session.weights"),
                         ("protocol.beaver_s", "protocol.beaver"),
                         ("protocol.lt_s", "protocol.lt"),
                         ("protocol.b2a_s", "protocol.b2a"),
                         ("protocol.relu_s", "protocol.relu"),
                         ("protocol.trunc_s", "protocol.trunc"),
                         ("wire.send_s", "wire.send"),
                         ("wire.wait_s", "wire.wait"),
                         ("wire.transcript_s", "wire.transcript")):
            m[name] = med(lambda r, op=op: self_s(r, op))
        m["protocol.beaver_calls"] = med(
            lambda r: r["client_trace"]["calls"].get("protocol.beaver", 0))
        m["protocol.lt_calls"] = med(
            lambda r: r["client_trace"]["calls"].get("protocol.lt", 0))
        m["protocol.local_s"] = med(
            lambda r: self_s(r, "protocol.run") + self_s(r, "layer"))
        m["wire.frames"] = med(lambda r: r["client_trace"]["frames"])
        m["wire.bytes"] = med(lambda r: r["client_trace"]["bytes"])
        m["ledger.bytes"] = med(lambda r: r["client_sent"])
        m["ledger.rounds"] = med(lambda r: r["rounds"])
        for kind in KINDS:
            m[f"layer.{kind}.compute_s"] = med(
                lambda r: r["client_trace"]["kind_compute_s"].get(kind, 0.0))
            m[f"layer.{kind}.wait_s"] = med(
                lambda r: r["client_trace"]["kind_wait_s"].get(kind, 0.0))
            m[f"layer.{kind}.bytes"] = med(lambda r: r["per_kind"][kind]["bytes"])
            m[f"layer.{kind}.rounds"] = med(lambda r: r["per_kind"][kind]["rounds"])
        m["trace.traced_online_s"] = med(lambda r: r["online_s"])
        m["trace.untraced_online_s"] = median([r["online_s"] for r in plain])
        m["trace.overhead_s"] = m["trace.traced_online_s"] - m["trace.untraced_online_s"]
        return m


_PER_INFERENCE = ("traced", "dealer_s", "online_s", "session_s", "clear_s",
                  "load_s", "rss_mib", "client_sent", "model_sent", "rounds")


def _read_json(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


def _read_output(paths: dict):
    from xconv2pc.ring import deserialize_tensor

    with open(paths["output.rtv"], "rb") as f:
        return deserialize_tensor(f.read())[0].words


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _wait_all(procs: list, budget: float) -> None:
    """Wait for every process; past the budget, kill the rest and reap them."""
    deadline = time.perf_counter() + max(budget, 1.0)
    try:
        for p in procs:
            p.wait(timeout=max(deadline - time.perf_counter(), 0.1))
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
                p.wait()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        import xconv2pc
    except ImportError as e:
        print(f"error: the xconv2pc sources are not in this checkout: {e}",
              file=sys.stderr)
        return 2
    if not os.path.abspath(xconv2pc.__file__).startswith(harness.SRC + os.sep):
        print(f"error: xconv2pc was imported from {xconv2pc.__file__}, not from "
              f"{harness.SRC}", file=sys.stderr)
        return 2

    # Everything the run starts inherits one CPU, so both parties share it
    # (see README.md, "Noise").
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    os.makedirs(run.work, exist_ok=True)
    if run.trace and os.path.exists(run.trace_path):
        os.remove(run.trace_path)
    try:
        if run.trace:
            run.tracer = Tracer().install()
        run.setup()
        if run.tracer is not None:
            run.tracer.uninstall()
            run.tracer = None
        run.loop()
        run.planning("check")
        for _ in range(TABLES):
            run.planning("table")
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    if not run.inferences or not run.table_s:
        print("error: no inference or no table succeeded:\n  "
              + "\n  ".join(run.failures),
              file=sys.stderr)
        return 1

    figures = run.end_to_end()
    end_to_end, per_layer = harness.metric_units()
    units = dict(end_to_end, dealer_s="s", clear_s="s", compare_s="s",
                 failed_share="share", client_sent="B",
                 lan_latency_term_s="s", lan_bandwidth_term_s="s",
                 wan_latency_term_s="s", wan_bandwidth_term_s="s",
                 samples="count", compare_samples="count")
    summary = {"workload": args.workload, "seed": args.seed,
               "figures": {k: {"value": figures[k], "unit": u} for k, u in units.items()},
               "plan_rejected": figures.get("plan_rejected", []),
               "failures": run.failures[:20]}
    values, units = (run.per_layer(), per_layer) if run.trace else (figures, end_to_end)
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}"
                           f"{'-trace' if run.trace else ''}.json"), "w") as f:
        json.dump({"summary": summary, "metrics": metrics,
                   "tables_s": run.table_s,
                   "inferences": [{k: r[k] for k in _PER_INFERENCE if k in r}
                                  for r in run.inferences]}, f, indent=1)
    print("summary " + json.dumps(summary))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
