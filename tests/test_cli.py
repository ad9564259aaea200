"""Command-line surface: outputs, files, exit codes, orchestration."""

import json
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from xconv2pc.cli import bench_graph, main
from xconv2pc.costs import count_mults
from xconv2pc.errors import (
    EXIT_HANDSHAKE,
    EXIT_MATERIAL,
    EXIT_PARSE,
    HandshakeError,
    MaterialError,
    ParseError,
    ShapeError,
    TransportError,
    VerificationError,
)
from xconv2pc.graph import CellVariant
from xconv2pc.graphio import load_graph, save_graph
from xconv2pc.ring import (
    FixedPointConfig,
    RingTensor,
    deserialize_tensor,
    encode_fixed,
    serialize_tensor,
)
from xconv2pc.zoo import model_zoo


# Bound on each child process, far above what the tests take, so that a hung
# party fails its test instead of stalling the suite.
CHILD_TIMEOUT = 120


def _spec(g, name):
    """The graph's layer spec called ``name``."""
    return next(l for l in g.layers if l.name == name)


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def toynet_file(tmp_path):
    g = model_zoo("toynet", CellVariant.DENSE, 16, seed=3)
    p = tmp_path / "toynet.json"
    save_graph(g, str(p))
    return str(p)


def test_exit_codes_are_distinct():
    codes = {ParseError.exit_code, ShapeError.exit_code, HandshakeError.exit_code,
             TransportError.exit_code, MaterialError.exit_code,
             VerificationError.exit_code}
    assert len(codes) == 6
    assert 0 not in codes


def test_describe_graph_file(runner, toynet_file):
    result = runner.invoke(main, ["describe", "--graph", toynet_file])
    assert result.exit_code == 0, result.output
    assert "conv1" in result.output
    assert "90,112" in result.output  # toynet total multiplications


def test_describe_zoo_spec(runner):
    result = runner.invoke(main, ["describe", "--zoo", "shufflenetv2:xop:64"])
    assert result.exit_code == 0, result.output
    g = model_zoo("shufflenetv2", CellVariant.XOP, 64, seed=0)
    total = sum(count_mults(g).values())
    assert f"{total:,}" in result.output


def test_describe_channel_mismatch_exit_shape(runner, tmp_path):
    from xconv2pc.graph import INPUT, GraphBuilder

    b = GraphBuilder((1, 3, 8, 8), seed=0)
    b.conv("c1", INPUT, 3, 4, 3)
    b.conv("c2", "c1", 8, 4, 3)  # wrong: c1 yields 4 channels
    p = tmp_path / "bad.json"
    save_graph(b.build(), str(p))
    result = runner.invoke(main, ["describe", "--graph", str(p)])
    assert result.exit_code == ShapeError.exit_code == 3
    assert "error: c2: expects 8 input channels, got 4" in result.output


def test_describe_zoo_size_without_valid_shapes_exits_shape(runner):
    result = runner.invoke(main, ["describe", "--zoo", "densenet121:xop:16"])
    assert result.exit_code == ShapeError.exit_code == 3
    assert "larger than map 1x1" in result.output


def test_describe_malformed_json_exit_parse(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    result = runner.invoke(main, ["describe", "--graph", str(bad)])
    assert result.exit_code == EXIT_PARSE
    assert "byte offset" in result.output


@pytest.mark.parametrize("args", [
    ["describe", "--zoo", "toynet:dense:abc"],
    ["describe", "--zoo", "toynet:dense:0"],
    ["winograd", "--zoo", "toynet:dense:16", "--tiles", "4,x"],
    ["bench-op", "--op", "dense", "--sizes", "8,y"],
    ["compare", "--backbones", "toynet", "--variants", "dense", "--size", "0"],
    ["verify", "--zoo", "toynet:dense:16", "--trials", "0"],
    ["verify", "--zoo", "toynet:dense:16", "--trials", "-1"],
])
def test_integer_options_exit_parse_before_any_work(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == EXIT_PARSE, result.output
    assert "expects integers of at least 1" in result.output
    assert "dense,8," not in result.output  # bench-op ran no size


def test_winograd_command_writes_graph_and_report(runner, toynet_file, tmp_path):
    out = tmp_path / "rw.json"
    rep = tmp_path / "tiles.json"
    result = runner.invoke(main, ["winograd", "--graph", toynet_file,
                                  "--out", str(out), "--report", str(rep)])
    assert result.exit_code == 0, result.output
    assert "skipped (stride)" in result.output
    rewritten = load_graph(str(out))
    assert _spec(rewritten, "conv2").attrs["winograd"] is True
    rows = json.loads(rep.read_text())
    by = {r["layer"]: r for r in rows}
    assert by["conv1"]["reason"] == "stride"
    assert by["conv2"]["n"] in (4, 6)
    assert {"eligible", "reason", "n", "T", "beta1", "beta2", "dense",
            "gamma"} <= set(by["conv2"])


def test_winograd_forced_tiles(runner, toynet_file, tmp_path):
    out = tmp_path / "rw4.json"
    result = runner.invoke(main, ["winograd", "--graph", toynet_file,
                                  "--tiles", "4", "--out", str(out)])
    assert result.exit_code == 0
    assert _spec(load_graph(str(out)), "conv2").attrs["tile"] == 4


def test_infer_and_verify_roundtrip(runner, toynet_file, tmp_path):
    out = tmp_path / "y.rtv"
    result = runner.invoke(main, ["infer", "--graph", toynet_file, "--seed", "9",
                                  "--fixed", "--out", str(out)])
    assert result.exit_code == 0, result.output
    t, cfg = deserialize_tensor(out.read_bytes())
    assert t.shape == (1, 10)
    result = runner.invoke(main, ["verify", "--graph", toynet_file,
                                  "--trials", "3", "--seed", "9"])
    assert result.exit_code == 0, result.output
    assert "all 3 trials bitwise-equal" in result.output


def test_verify_builds_the_weighted_plan_once(runner, toynet_file, monkeypatch):
    import xconv2pc.cli as cli_mod
    import xconv2pc.runtime.session as session_mod

    weighted = []

    def counting(build):
        def wrapper(graph, with_weights=True):
            weighted.append(with_weights)
            return build(graph, with_weights=with_weights)
        return wrapper

    monkeypatch.setattr(cli_mod, "build_plan", counting(cli_mod.build_plan))
    monkeypatch.setattr(session_mod, "build_plan", counting(session_mod.build_plan))
    result = runner.invoke(main, ["verify", "--graph", toynet_file, "--trials", "3"])
    assert result.exit_code == 0, result.output
    assert weighted.count(True) == 1 and weighted.count(False) == 3


def test_infer_rejects_an_input_word_outside_the_ring(runner, toynet_file, tmp_path):
    zeros = RingTensor(np.zeros((1, 3, 16, 16), np.uint64), 60)
    buf = serialize_tensor(zeros, FixedPointConfig())
    bad = tmp_path / "bad.rtv"
    bad.write_bytes(buf[:-8] + (1 << 60).to_bytes(8, "little"))
    result = runner.invoke(main, ["infer", "--graph", toynet_file, "--input", str(bad)])
    assert result.exit_code == EXIT_PARSE, result.output
    assert "exceeds the 60-bit ring" in result.output


def test_dealer_and_verify_material(runner, toynet_file, tmp_path):
    mat = tmp_path / "mat"
    result = runner.invoke(main, ["dealer", "--graph", toynet_file,
                                  "--seed", "4", "--material", str(mat)])
    assert result.exit_code == 0, result.output
    assert (mat / "party0.dlr").exists() and (mat / "party1.dlr").exists()
    result = runner.invoke(main, ["verify", "--graph", toynet_file,
                                  "--trials", "1", "--seed", "4",
                                  "--material", str(mat)])
    assert result.exit_code == 0, result.output
    # Corrupt one file: the integrity check must fail with the material code.
    blob = bytearray((mat / "party0.dlr").read_bytes())
    blob[-40] ^= 0xFF                   # a byte of party 0's key
    (mat / "party0.dlr").write_bytes(bytes(blob))
    result = runner.invoke(main, ["verify", "--graph", toynet_file,
                                  "--trials", "1", "--seed", "4",
                                  "--material", str(mat)])
    assert result.exit_code == EXIT_MATERIAL


def test_report_formats(runner, toynet_file, tmp_path):
    result = runner.invoke(main, ["report", "--graph", toynet_file])
    assert result.exit_code == 0
    assert "layer,kind,mults,est_bytes,meas_bytes,category" in result.output
    out = tmp_path / "r.json"
    result = runner.invoke(main, ["report", "--graph", toynet_file,
                                  "--format", "json", "--out", str(out)])
    assert result.exit_code == 0
    rows = json.loads(out.read_text())
    assert any(r["layer"] == "conv2" for r in rows)


def test_report_predicts_each_layer_of_a_client_ledger(runner, tmp_path):
    # A ReLU fused into the truncation before it books its sign test under
    # that layer; the prediction does the same, so every layer agrees.
    from xconv2pc.runtime.session import secure_infer_local

    g = model_zoo("toynet", CellVariant.DENSE, 16, seed=0)
    run = secure_infer_local(g, np.random.default_rng(1).uniform(
        -1, 1, g.input_shape), seed=0)
    led = tmp_path / "client.csv"
    run.client.ledger.to_csv(str(led))
    out = tmp_path / "r.json"
    result = runner.invoke(main, ["report", "--zoo", "toynet:dense:16",
                                  "--ledger", str(led), "--format", "json",
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    rows = json.loads(out.read_text())
    assert [r["layer"] for r in rows] == [pl.name for pl in run.plan.layers]
    for r in rows:
        assert r["pred_bytes"] == r["meas_bytes"], r["layer"]


@pytest.mark.parametrize("ledger, message", [
    (None, "cannot read ledger file"),
    ("op,bytes_sent\nconv1,8\n", "has no 'layer' column"),
    ("layer,bytes\nconv1,8\n", "has no 'bytes_sent' column"),
    ("layer,bytes_sent\nconv1,abc\n", "could not convert string to float"),
])
def test_report_ledger_failures_exit_parse_naming_the_file(runner, tmp_path, ledger,
                                                           message):
    led = tmp_path / "client.csv"
    if ledger is not None:
        led.write_text(ledger)
    result = runner.invoke(main, ["report", "--zoo", "toynet:dense:16",
                                  "--ledger", str(led)])
    assert result.exit_code == EXIT_PARSE, result.output
    assert message in result.output and str(led) in result.output


@pytest.mark.parametrize("args, option", [
    (["infer", "--input", "{gone}/x.rtv"], "--input"),
    (["infer", "--out", "{gone}/o.rtv"], "--out"),
    (["run", "--local", "--input", "{gone}/x.rtv"], "--input"),
    (["run", "--local", "--out", "{gone}/o.rtv"], "--out"),
    (["run", "--local", "--ledger", "{gone}/led"], "--ledger"),
    (["run", "--role", "party1", "--connect", "127.0.0.1:9", "--material", "p.dlr",
      "--input", "{gone}/x.rtv"], "--input"),
    (["run", "--role", "party1", "--connect", "127.0.0.1:9", "--material", "p.dlr",
      "--out", "{gone}/o.rtv"], "--out"),
    (["report", "--out", "{gone}/r.csv"], "--out"),
    (["winograd", "--out", "{gone}/g.json"], "--out"),
    (["winograd", "--report", "{gone}/r.json"], "--report"),
], ids=["infer-input", "infer-out", "local-input", "local-out", "local-ledger",
        "party1-input", "party1-out", "report-out", "winograd-out", "winograd-report"])
def test_missing_paths_exit_parse_naming_the_option_before_any_work(
        runner, tmp_path, monkeypatch, args, option):
    import xconv2pc.cli as cli_mod

    worked = []
    for name in ("infer_fixed", "_run_local", "connect_with_retry", "estimate_comm",
                 "rewrite_winograd"):
        monkeypatch.setattr(cli_mod, name, lambda *a, **k: worked.append(a))
    gone = tmp_path / "gone"
    result = runner.invoke(main, [args[0], "--zoo", "toynet:dense:16"]
                           + [a.format(gone=gone) for a in args[1:]])
    assert result.exit_code == EXIT_PARSE, result.output
    assert option in result.output and str(gone) in result.output
    assert worked == []


def test_bench_op_with_a_missing_out_directory_runs_no_session(runner, tmp_path,
                                                                monkeypatch):
    import xconv2pc.cli as cli_mod

    sessions = []
    monkeypatch.setattr(cli_mod, "secure_infer_local", lambda *a, **k: sessions.append(a))
    out = tmp_path / "gone" / "b.csv"
    result = runner.invoke(main, ["bench-op", "--op", "dense", "--sizes", "8",
                                  "--out", str(out)])
    assert result.exit_code == EXIT_PARSE, result.output
    assert "--out" in result.output and str(out) in result.output
    assert sessions == []


@pytest.mark.parametrize("port", ["0", "65536", "99999", "\u00b2"])
@pytest.mark.parametrize("role, flag", [("party0", "--listen"), ("party1", "--connect")])
def test_endpoint_ports_out_of_range_exit_parse_before_any_socket_opens(
        runner, monkeypatch, role, flag, port):
    import xconv2pc.cli as cli_mod

    opened = []
    for name in ("listen_once", "connect_with_retry"):
        monkeypatch.setattr(cli_mod, name, lambda *a, **k: opened.append(a))
    result = runner.invoke(main, ["run", "--zoo", "toynet:dense:16", "--role", role,
                                  flag, f"127.0.0.1:{port}", "--material", "p.dlr"])
    assert result.exit_code == EXIT_PARSE, result.output
    assert "port 1 to 65535" in result.output
    assert opened == []


def test_bench_graph_shapes_and_counts():
    from xconv2pc.graph import infer_shapes

    for op in ("dense", "factorized", "shuffle"):
        g = bench_graph(op, 16)
        out_shape = infer_shapes(g)[g.output_name]
        assert out_shape == (1, 64, 16, 16)
    dense = sum(count_mults(bench_graph("dense", 16)).values())
    fact = sum(count_mults(bench_graph("factorized", 16)).values())
    shuf = sum(count_mults(bench_graph("shuffle", 16)).values())
    assert dense / fact == pytest.approx(64 * 9 / (9 + 64))
    assert shuf < fact < dense


def test_bench_byte_ratio_equals_mult_ratio_exactly(tmp_path):
    # Multiplication-opening bytes are 16 x #MULT, so their two-operator
    # ratio equals the count ratio exactly; totals favor the permuted-copy
    # operator at every size.
    from fractions import Fraction

    from xconv2pc.runtime.session import secure_infer_local

    per_op = {}
    for op in ("dense", "factorized", "shuffle"):
        g = bench_graph(op, 16, seed=1)
        x = np.random.default_rng(42).uniform(-1, 1, g.input_shape)
        run = secure_infer_local(g, x, seed=43)
        mul_bytes = sum(e.bytes_sent for (l, o), e in
                        run.client.ledger.entries.items() if o == "mul-open")
        per_op[op] = (sum(count_mults(g).values()), mul_bytes,
                      run.client.ledger.total_sent)
    for a, b in (("dense", "factorized"), ("factorized", "shuffle")):
        assert Fraction(per_op[a][1], per_op[b][1]) == \
            Fraction(per_op[a][0], per_op[b][0])
    assert per_op["shuffle"][2] < per_op["factorized"][2] < per_op["dense"][2]


def test_winograd_report_csv(runner, toynet_file, tmp_path):
    rep = tmp_path / "tiles.csv"
    result = runner.invoke(main, ["winograd", "--graph", toynet_file,
                                  "--report", str(rep)])
    assert result.exit_code == 0
    header = rep.read_text().splitlines()[0]
    assert header == "layer,eligible,reason,n,T,beta1,beta2,dense,gamma"


def test_bench_op_command(runner, tmp_path):
    out = tmp_path / "bench.csv"
    result = runner.invoke(main, ["bench-op", "--op", "factorized",
                                  "--sizes", "8,16", "--out", str(out)])
    assert result.exit_code == 0, result.output
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "op,size,mults,payload_bytes"
    assert len(lines) == 3


def test_compare_command(runner):
    result = runner.invoke(main, ["compare", "--backbones", "toynet",
                                  "--variants", "dense", "--size", "16",
                                  "--baseline", "TD"])
    assert result.exit_code == 0, result.output
    assert "TD" in result.output
    assert "1.00x" in result.output


def test_compare_default_table_keeps_its_columns_apart(runner):
    # RD's 10.3 TB estimate once ran into its mults column.
    result = runner.invoke(main, ["compare"])
    assert result.exit_code == 0, result.output
    lines = result.output.splitlines()
    assert len(lines) == 21
    for line in lines:
        assert len(line.split()) == 4, line
    rd = next(line.split() for line in lines if line.startswith("RD "))
    assert rd[1] == "8,359,116,800"


@pytest.mark.slow
def test_local_three_process_run_matches_infer(tmp_path, toynet_file, child_kwargs):
    # Without --input party 1 draws its input from --seed, as infer does;
    # with it, both read the given file.
    cfg = FixedPointConfig()
    given = tmp_path / "in.rtv"
    given.write_bytes(serialize_tensor(encode_fixed(np.full((1, 3, 16, 16), 0.25), cfg),
                                       cfg))
    led = tmp_path / "led"
    outputs = []
    for extra in ([], ["--input", str(given)]):
        out = tmp_path / "secure.rtv"
        rc = subprocess.run(
            [sys.executable, "-m", "xconv2pc", "run", "--local",
             "--graph", toynet_file, "--seed", "6",
             "--material", str(tmp_path / "mat"),
             "--out", str(out), "--ledger", str(led)] + extra,
            **child_kwargs, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
        assert rc.returncode == 0, rc.stderr
        clear = tmp_path / "clear.rtv"
        rc2 = subprocess.run(
            [sys.executable, "-m", "xconv2pc", "infer", "--graph", toynet_file,
             "--seed", "6", "--fixed", "--out", str(clear)] + extra,
            **child_kwargs, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
        assert rc2.returncode == 0, rc2.stderr
        assert out.read_bytes() == clear.read_bytes(), extra
        outputs.append(out.read_bytes())
    assert outputs[0] != outputs[1]
    # Both parties' ledgers mirror each other per (layer, op) tag.
    import csv

    def load_ledger(path):
        with open(path) as f:
            return {(r["layer"], r["op"]): (int(r["bytes_sent"]), int(r["bytes_recv"]))
                    for r in csv.DictReader(f)}

    l0 = load_ledger(str(led) + ".party0.csv")
    l1 = load_ledger(str(led) + ".party1.csv")
    # Mirror symmetry: whatever one side sent under a tag, the other
    # received (zero-byte local notes may exist on a single side only).
    for key in set(l0) | set(l1):
        sent0, recv0 = l0.get(key, (0, 0))
        sent1, recv1 = l1.get(key, (0, 0))
        assert sent0 == recv1 and sent1 == recv0, key


@pytest.mark.slow
def test_handshake_mismatch_exit_code(tmp_path, child_kwargs):
    g1 = model_zoo("toynet", CellVariant.DENSE, 16, seed=3)
    g2 = model_zoo("toynet", CellVariant.DENSE, 16, seed=3)
    _spec(g2, "fc").attrs["bias"] = False
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_graph(g1, str(p1))
    save_graph(g2, str(p2))
    mat = tmp_path / "mat"
    rc = subprocess.run([sys.executable, "-m", "xconv2pc", "dealer", "--graph",
                         str(p1), "--seed", "2", "--material", str(mat)],
                        **child_kwargs, capture_output=True, text=True,
                        timeout=CHILD_TIMEOUT)
    assert rc.returncode == 0, rc.stderr
    import socket

    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    srv = subprocess.Popen(
        [sys.executable, "-m", "xconv2pc", "run", "--role", "party0",
         "--graph", str(p1), "--listen", f"127.0.0.1:{port}",
         "--material", str(mat / "party0.dlr"), "--seed", "2"],
        **child_kwargs, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        cli = subprocess.run(
            [sys.executable, "-m", "xconv2pc", "run", "--role", "party1",
             "--graph", str(p2), "--connect", f"127.0.0.1:{port}",
             "--material", str(mat / "party1.dlr"), "--seed", "2"],
            **child_kwargs, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
        _, srv_err = srv.communicate(timeout=60)
    finally:
        if srv.poll() is None:  # a wait above timed out: end party0 too
            srv.kill()
            srv.communicate()
    assert cli.returncode == EXIT_HANDSHAKE, cli.stderr
    assert srv.returncode == EXIT_HANDSHAKE, srv_err


@pytest.mark.slow
def test_party_material_mismatch_exit_code(tmp_path, toynet_file, child_kwargs):
    mat = tmp_path / "mat"
    rc = subprocess.run([sys.executable, "-m", "xconv2pc", "dealer", "--graph",
                         toynet_file, "--seed", "2", "--material", str(mat)],
                        **child_kwargs, capture_output=True, text=True,
                        timeout=CHILD_TIMEOUT)
    assert rc.returncode == 0, rc.stderr
    import socket

    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    srv = subprocess.Popen(
        [sys.executable, "-m", "xconv2pc", "run", "--role", "party0",
         "--graph", toynet_file, "--listen", f"127.0.0.1:{port}",
         "--material", str(mat / "party1.dlr"), "--seed", "2"],
        **child_kwargs, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        cli = subprocess.run(
            [sys.executable, "-m", "xconv2pc", "run", "--role", "party1",
             "--graph", toynet_file, "--connect", f"127.0.0.1:{port}",
             "--material", str(mat / "party1.dlr"), "--seed", "2"],
            **child_kwargs, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
        _, srv_err = srv.communicate(timeout=60)
    finally:
        if srv.poll() is None:  # a wait above timed out: end party0 too
            srv.kill()
            srv.communicate()
    assert srv.returncode == EXIT_MATERIAL, srv_err
    assert "party 1's, this is party 0" in srv_err
    assert cli.returncode != 0, cli.stderr


@pytest.mark.slow
@pytest.mark.parametrize("bad", ["party0", "party1"])
def test_a_dealer_file_failing_its_digest_ends_both_parties_with_the_material_exit_code(
        tmp_path, toynet_file, child_kwargs, bad):
    # The party holding the flipped file loads it once its peer is
    # connected, fails the digest and aborts; the peer, in its hello,
    # exits with the same code within seconds, not after its 60 s wait.
    import socket
    import time

    mat = tmp_path / "mat"
    rc = subprocess.run([sys.executable, "-m", "xconv2pc", "dealer", "--graph",
                         toynet_file, "--seed", "2", "--material", str(mat)],
                        **child_kwargs, capture_output=True, text=True,
                        timeout=CHILD_TIMEOUT)
    assert rc.returncode == 0, rc.stderr
    path = mat / f"{bad}.dlr"
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 1
    path.write_bytes(bytes(blob))
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    common = ["--graph", toynet_file, "--seed", "2"]
    procs = [subprocess.Popen(
        [sys.executable, "-m", "xconv2pc", "run", "--role", role, endpoint,
         f"127.0.0.1:{port}", "--material", str(mat / f"{role}.dlr")] + common,
        **child_kwargs, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for role, endpoint in (("party0", "--listen"), ("party1", "--connect"))]
    ended = {}
    try:
        deadline = time.monotonic() + CHILD_TIMEOUT
        while len(ended) < 2 and time.monotonic() < deadline:
            for i, p in enumerate(procs):
                if i not in ended and p.poll() is not None:
                    ended[i] = time.monotonic()
            time.sleep(0.05)
    finally:
        errs = []
        for p in procs:
            if p.poll() is None:  # still waiting: end it
                p.kill()
            errs.append(p.communicate()[1])
    assert len(ended) == 2, errs
    assert abs(ended[0] - ended[1]) < 5, errs
    for p, err in zip(procs, errs):
        assert p.returncode == EXIT_MATERIAL, err
    bad_err = errs[int(bad[-1])]
    assert "dealer material failed its integrity check" in bad_err
