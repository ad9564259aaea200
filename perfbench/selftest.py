"""Self-tests of the benchmark on toynet:dense:16 (about 0.1 s online).

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is printed with its unit,
that the failed count rises when the harness corrupts its own copy of an
output (the program is never touched), that the traced bytes and rounds
sum to the ledger over both transports, and the link model's arithmetic.
Exits 1 if any check fails.  Takes about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import harness
import run as bench

TOY = "toynet-dense-16"


def _main_output(trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(harness.HERE, "run.py"), "--workload", TOY,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1])


def test_every_metric_printed_with_unit():
    for trace, names in zip((0, 1), harness.metric_units()):
        res = _main_output(trace)
        assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        assert set(res["metrics"]) == set(names), set(res["metrics"]) ^ set(names)
        for name, unit in names.items():
            m = res["metrics"][name]
            assert m["unit"] == unit, (name, m)
            assert isinstance(m["value"], (int, float)), (name, m)


class _CorruptingRun(bench.Run):
    """Flips one bit of the harness's copy of every secure output."""

    def _inproc(self, sseed, x, traced):
        rec = super()._inproc(sseed, x, traced)
        rec["output"] = rec["output"].copy()
        rec["output"].reshape(-1)[0] ^= 1
        return rec


def _short_run(cls, transport="inproc", trace=False) -> bench.Run:
    r = cls(TOY, seed=5, seconds=1, trace=trace)
    r.spec = dict(r.spec, transport=transport)
    os.makedirs(r.work, exist_ok=True)
    try:
        r.setup()
        r.loop()
    finally:
        shutil.rmtree(r.work, ignore_errors=True)
    return r


def test_failed_share_rises_on_corrupted_output():
    clean = _short_run(bench.Run)
    assert clean.failed == 0 and clean.attempted >= 2, clean.failures
    bad = _short_run(_CorruptingRun)
    inferences = sum(f.startswith("inference") for f in bad.failures)
    assert bad.failed >= 2 and bad.failed == inferences, (bad.failed, bad.failures)
    assert all("differs from execute_plan_clear" in f for f in bad.failures)
    assert bad.failed / bad.attempted > clean.failed / clean.attempted


def test_trace_sums_equal_ledger():
    for transport in ("inproc", "tcp"):
        r = _short_run(bench.Run, transport=transport, trace=True)
        assert r.failed == 0, r.failures
        # The short run skips set-up tracing and the tables.
        r.setup_trace = [{}]
        r.compare_trace = [{}]
        r.table_s = [0.0]
        m = r.per_layer()
        kinds = harness.KINDS
        assert sum(m[f"layer.{k}.bytes"] for k in kinds) == m["ledger.bytes"]
        assert sum(m[f"layer.{k}.rounds"] for k in kinds) == m["ledger.rounds"]
        assert m["wire.bytes"] == m["ledger.bytes"]
        assert m["protocol.beaver_calls"] > 0 and m["wire.frames"] > 0
        if transport == "tcp":
            assert m["material.load_s"] > 0 and m["material.file_mib"] > 0


def test_link_model():
    # shufflenetv2:xop:32 at this commit: 3,272 client rounds; the client
    # sends 66,134,060 B and the model owner 83,353,636 B (its opens plus
    # 17.2 MB of weight shares).
    lat, bw = harness.link_terms(3272, (66134060, 83353636), harness.links()["wan"])
    assert abs(lat - 130.88) < 1e-9, lat
    assert abs(bw - 6.66829088) < 1e-9, bw
    # The client's direction alone is the ~5.3 s of the roadmap's estimate.
    _, client_bw = harness.link_terms(3272, (66134060,), harness.links()["wan"])
    assert abs(client_bw - 5.2907248) < 1e-9, client_bw
    lat, bw = harness.link_terms(3272, (66134060, 83353636), harness.links()["lan"])
    assert abs(lat - 3.272) < 1e-9 and abs(bw - 0.666829088) < 1e-9


def main() -> int:
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    failed = 0
    for t in tests:
        try:
            t()
            print(f"PASS {t.__name__}")
        except Exception as e:
            failed += 1
            print(f"FAIL {t.__name__}: {type(e).__name__}: {e}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
