"""Operator-facing command line.

Subcommands cover the whole workflow: build or inspect networks, plan the
transform rewrite, generate dealer material, run either party's role
(or dealer and both parties as three local processes), verify bitwise
equivalence, and emit cost or bench reports.  Exit codes are stable per
failure family: 2 parse, 3 shape, 4 handshake, 5 transport, 6 material, 7
verification mismatch.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys

import click
import numpy as np

from .clear import infer_fixed, infer_float
from .costs import (
    compare_variants,
    count_mults,
    estimate_comm,
    emit_report,
    merge_measured,
    merge_predicted,
)
from .errors import EXIT_GENERIC, ParseError, VerificationError, XConvError
from .graph import INPUT, CellVariant, Graph, GraphBuilder, cell_graph, infer_shapes
from .graphio import load_graph, save_graph
from .plan import build_plan
from .ring import (
    FixedPointConfig,
    RingTensor,
    decode_fixed,
    deserialize_tensor,
    encode_fixed,
    serialize_tensor,
)
from .runtime.material import deal_material, load_material, verify_material_pair
from .runtime.session import (
    connect_with_retry,
    listen_once,
    load_party_material,
    run_client_party,
    run_model_party,
    secure_infer_local,
)
from .winograd import TILE_CANDIDATES, rewrite_winograd
from .zoo import model_zoo


def _positive_int(text: str, what: str) -> int:
    """``text`` as an integer of at least 1, else a ParseError naming ``what``."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise ParseError(f"{what} expects integers of at least 1, got {text!r}")
    return value


def _load_or_build(graph_path, zoo_spec, bitwidth, scale, seed) -> Graph:
    if (graph_path is None) == (zoo_spec is None):
        raise ParseError("give exactly one of --graph or --zoo")
    if graph_path is not None:
        return load_graph(graph_path)
    parts = zoo_spec.split(":")
    if len(parts) not in (2, 3):
        raise ParseError(f"--zoo expects backbone:variant[:size], got {zoo_spec!r}")
    backbone, variant = parts[0], CellVariant.parse(parts[1])
    size = _positive_int(parts[2], "--zoo size") if len(parts) == 3 else 320
    try:
        return model_zoo(backbone, variant, input_size=size, seed=seed,
                         cfg=FixedPointConfig(bitwidth=bitwidth, scale=scale))
    except ValueError as e:
        raise ParseError(str(e)) from e


def _parse_endpoint(text: str) -> tuple:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise ParseError(f"endpoint must be host:port, got {text!r}")
    return host, int(port)


def _load_input(path, plan_shape, cfg, seed) -> RingTensor:
    if path:
        with open(path, "rb") as f:
            t, t_cfg = deserialize_tensor(f.read())
        if t_cfg != cfg:
            raise ParseError("input tensor fixed-point config mismatch")
        return t
    return encode_fixed(_random_input(plan_shape, seed), cfg)


def _random_input(shape, seed) -> np.ndarray:
    """Reals in [-1, 1) drawn from ``seed``: the input when none is given."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(300,)))
    return rng.uniform(-1.0, 1.0, size=shape)


@click.group()
def main():
    """Secure two-party CNN inference with multiplication-lean operators."""


def _cli_errors(fn):
    import functools

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except XConvError as e:
            click.echo(f"error: {e}", err=True)
            sys.exit(e.exit_code)
        except Exception as e:  # pragma: no cover - last resort
            click.echo(f"unexpected error: {e}", err=True)
            sys.exit(EXIT_GENERIC)
    return wrapper


_graph_opts = [
    click.option("--graph", "graph_path", type=click.Path(), default=None,
                 help="Graph description file."),
    click.option("--zoo", "zoo_spec", default=None,
                 help="backbone:variant[:size], e.g. shufflenetv2:xop:320."),
    click.option("--bitwidth", default=60, show_default=True),
    click.option("--scale", default=23, show_default=True),
    click.option("--seed", default=0, show_default=True),
]


def _add_opts(opts):
    def deco(fn):
        for opt in reversed(opts):
            fn = opt(fn)
        return fn
    return deco


@main.command()
@_add_opts(_graph_opts)
@_cli_errors
def describe(graph_path, zoo_spec, bitwidth, scale, seed):
    """Per-layer shapes and multiplication counts."""
    g = _load_or_build(graph_path, zoo_spec, bitwidth, scale, seed)
    shapes = infer_shapes(g)
    mults = count_mults(g)
    total = sum(mults.values())
    click.echo(f"{'layer':<24}{'kind':<18}{'shape':<22}{'mults':>14}")
    for l in g.layers:
        click.echo(f"{l.name:<24}{l.kind:<18}{str(shapes[l.name]):<22}"
                   f"{mults[l.name]:>14,}")
    click.echo(f"{'total':<64}{total:>14,}")


@main.command()
@_add_opts(_graph_opts)
@click.option("--tiles", default=",".join(map(str, TILE_CANDIDATES)),
              show_default=True, help="Candidate tile extents.")
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="Rewritten graph file.")
@click.option("--report", "report_path", type=click.Path(), default=None,
              help="Tiling report (JSON).")
@_cli_errors
def winograd(graph_path, zoo_spec, bitwidth, scale, seed, tiles, out_path,
             report_path):
    """Tag eligible convolutions for transform execution."""
    candidates = tuple(_positive_int(t, "--tiles") for t in tiles.split(","))
    g = _load_or_build(graph_path, zoo_spec, bitwidth, scale, seed)
    before = sum(count_mults(g).values())
    rewritten, decisions = rewrite_winograd(g, candidates=candidates)
    after = sum(count_mults(rewritten).values())
    for d in decisions:
        state = f"tile {d.n}" if d.eligible else f"skipped ({d.reason})"
        click.echo(f"{d.layer:<28}{state}")
    click.echo(f"total multiplications: {before:,} -> {after:,} "
               f"({before / after:.2f}x)" if after else "no layers")
    if out_path:
        save_graph(rewritten, out_path)
        click.echo(f"wrote {out_path}")
    if report_path:
        rows = [d.as_row() for d in decisions]
        with open(report_path, "w") as f:
            if report_path.endswith(".csv"):
                import csv as csvmod

                w = csvmod.DictWriter(f, fieldnames=list(rows[0]) if rows else
                                      ["layer", "eligible", "reason", "n", "T",
                                       "beta1", "beta2", "dense", "gamma"])
                w.writeheader()
                w.writerows(rows)
            else:
                json.dump(rows, f, indent=2)
        click.echo(f"wrote {report_path}")


@main.command()
@_add_opts(_graph_opts)
@click.option("--material", "material_dir", type=click.Path(), required=True,
              help="Directory for party0.dlr / party1.dlr.")
@_cli_errors
def dealer(graph_path, zoo_spec, bitwidth, scale, seed, material_dir):
    """Generate both parties' preprocessed randomness files."""
    g = _load_or_build(graph_path, zoo_spec, bitwidth, scale, seed)
    plan = build_plan(g, with_weights=False)
    os.makedirs(material_dir, exist_ok=True)
    p0 = os.path.join(material_dir, "party0.dlr")
    p1 = os.path.join(material_dir, "party1.dlr")
    deal_material(plan, seed, (p0, p1))
    req = plan.requirements()
    click.echo(f"wrote {p0} and {p1} "
               f"(mul={req.mul_triples:,} aux={req.aux_triples:,} "
               f"trunc={req.trunc_units:,} cmp={req.cmp_tuples:,} "
               f"bool={req.bool_words:,})")


@main.command()
@_add_opts(_graph_opts)
@click.option("--input", "input_path", type=click.Path(), default=None,
              help="Input tensor (ring format); random from seed otherwise.")
@click.option("--fixed/--float", "fixed_mode", default=True, show_default=True)
@click.option("--out", "out_path", type=click.Path(), default=None)
@_cli_errors
def infer(graph_path, zoo_spec, bitwidth, scale, seed, input_path, fixed_mode,
          out_path):
    """Clear-text reference inference."""
    g = _load_or_build(graph_path, zoo_spec, bitwidth, scale, seed)
    x = _load_input(input_path, g.input_shape, g.cfg, seed)
    if fixed_mode:
        out = infer_fixed(g, x)
        if out_path:
            with open(out_path, "wb") as f:
                f.write(serialize_tensor(out, g.cfg))
        shown = decode_fixed(out, g.cfg)
    else:
        shown = infer_float(g, decode_fixed(x, g.cfg))
        if out_path:
            np.save(out_path, shown)
    flat = np.asarray(shown).ravel()
    click.echo(f"output shape {tuple(np.asarray(shown).shape)}; "
               f"first values {np.array2string(flat[:8], precision=5)}")
    if out_path:
        click.echo(f"wrote {out_path}")


@main.command()
@_add_opts(_graph_opts)
@click.option("--role", type=click.Choice(["party0", "party1"]),
              default=None, help="Protocol role (omit with --local).")
@click.option("--listen", "listen_ep", default=None, help="host:port to accept on.")
@click.option("--connect", "connect_ep", default=None, help="host:port to reach.")
@click.option("--material", "material_path", type=click.Path(), default=None,
              help="This party's .dlr file (a directory with --local).")
@click.option("--input", "input_path", type=click.Path(), default=None)
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="Client output tensor file.")
@click.option("--ledger", "ledger_path", type=click.Path(), default=None,
              help="Ledger CSV path.")
@click.option("--local", is_flag=True,
              help="Spawn dealer and both parties as child processes.")
@_cli_errors
def run(graph_path, zoo_spec, bitwidth, scale, seed, role, listen_ep,
        connect_ep, material_path, input_path, out_path, ledger_path, local):
    """Run one protocol role, or a whole session with --local."""
    if local:
        sys.exit(_run_local(graph_path, zoo_spec, bitwidth, scale, seed,
                            material_path, out_path, ledger_path))
    if role is None:
        raise ParseError("--role is required unless --local is given")
    g = _load_or_build(graph_path, zoo_spec, bitwidth, scale, seed)
    if material_path is None:
        raise ParseError("party roles need --material FILE")
    model = role == "party0"
    plan = build_plan(g, with_weights=model)
    endpoint = listen_ep if model else connect_ep
    if endpoint is None:
        raise ParseError(f"{role} needs {'--listen' if model else '--connect'} host:port")
    host, port = _parse_endpoint(endpoint)
    transport = listen_once(host, port) if model else connect_with_retry(host, port)
    try:
        x = None if model else _load_input(input_path, plan.input_shape, g.cfg, seed)
        material = load_party_material(material_path, transport)
        result = (run_model_party(plan, transport, material, seed) if model
                  else run_client_party(plan, transport, material, seed, x))
    finally:
        transport.close()
    if out_path and not model:
        with open(out_path, "wb") as f:
            f.write(serialize_tensor(result.output, g.cfg))
    if ledger_path:
        result.ledger.to_csv(ledger_path)
    click.echo(f"{role} done; sent {result.ledger.total_sent:,} payload bytes "
               f"in {sum(e.rounds for e in result.ledger.entries.values())} rounds")


def _free_port() -> int:
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return port


def _run_local(graph_path, zoo_spec, bitwidth, scale, seed, material_dir,
               out_path, ledger_path) -> int:
    """Three child processes: dealer, then both online parties."""
    import tempfile

    workdir = material_dir or tempfile.mkdtemp(prefix="xconv2pc-")
    os.makedirs(workdir, exist_ok=True)
    base = [sys.executable, "-m", "xconv2pc"]
    common = (["--graph", graph_path] if graph_path else ["--zoo", zoo_spec]) + [
        "--bitwidth", str(bitwidth), "--scale", str(scale), "--seed", str(seed)]
    dealer_rc = subprocess.run(
        base + ["dealer", "--material", workdir] + common).returncode
    if dealer_rc:
        return dealer_rc
    port = _free_port()
    p0 = subprocess.Popen(base + ["run", "--role", "party0", "--listen",
                                  f"127.0.0.1:{port}", "--material",
                                  os.path.join(workdir, "party0.dlr")]
                          + common + (["--ledger", ledger_path + ".party0.csv"]
                                      if ledger_path else []))
    p1_cmd = base + ["run", "--role", "party1", "--connect",
                     f"127.0.0.1:{port}", "--material",
                     os.path.join(workdir, "party1.dlr")] + common
    if out_path:
        p1_cmd += ["--out", out_path]
    if ledger_path:
        p1_cmd += ["--ledger", ledger_path + ".party1.csv"]
    p1 = subprocess.Popen(p1_cmd)
    rc1 = p1.wait()
    rc0 = p0.wait()
    return rc0 or rc1


@main.command()
@_add_opts(_graph_opts)
@click.option("--trials", default=10, show_default=True)
@click.option("--material", "material_dir", type=click.Path(), default=None,
              help="Check integrity of a dealer file pair first.")
@_cli_errors
def verify(graph_path, zoo_spec, bitwidth, scale, seed, trials, material_dir):
    """Bitwise secure-vs-clear equivalence over random (seed, input) pairs."""
    g = _load_or_build(graph_path, zoo_spec, bitwidth, scale, seed)
    if material_dir:
        m0 = load_material(os.path.join(material_dir, "party0.dlr"))
        m1 = load_material(os.path.join(material_dir, "party1.dlr"))
        verify_material_pair(m0, m1, g.cfg)
        click.echo("dealer material pair verifies")
    plan = build_plan(g, with_weights=True)
    failures = 0
    for t in range(trials):
        trial_seed = seed + 1000 * t + 17
        x = _random_input(g.input_shape, trial_seed)
        result = secure_infer_local(g, x, seed=trial_seed, plan=plan)
        ok = np.array_equal(result.output.words, result.clear_reference.words)
        click.echo(f"trial {t}: {'ok' if ok else 'MISMATCH'}")
        failures += 0 if ok else 1
    if failures:
        raise VerificationError(
            f"{failures}/{trials} trials produced mismatching bits")
    click.echo(f"all {trials} trials bitwise-equal")


_BENCH_OPS = ("dense", "factorized", "shuffle", "xop-cell", "bottleneck")


def bench_graph(op: str, size: int, seed: int = 0) -> Graph:
    """Single-operator graphs used by the scaling bench.

    dense/factorized/shuffle take a 3-channel image to 64 channels with a
    3x3 spatial kernel; the two cells use the reference bottleneck
    dimensions 16 -> (48 wide) -> 64.
    """
    if op in ("xop-cell", "bottleneck"):
        variant = CellVariant.XOP if op == "xop-cell" else CellVariant.DENSE
        return cell_graph(variant, 16, 48, 64, hw=size, seed=seed)
    b = GraphBuilder((1, 3, size, size), seed=seed)
    if op == "dense":
        b.conv("op", INPUT, 3, 64, 3, bias=False)
    elif op == "factorized":
        d = b.conv("op_dw", INPUT, 3, 3, 3, groups=3, bias=False)
        b.conv("op_pw", d, 3, 64, 1, padding=0, bias=False)
    elif op == "shuffle":
        # Half of the output channels come from the pointwise conv, the
        # other half are a free permuted copy: compute shared between the
        # convolution and the shuffle.
        d = b.conv("op_dw", INPUT, 3, 3, 3, groups=3, bias=False)
        h = b.conv("op_pw", d, 3, 32, 1, padding=0, bias=False)
        s = b.shuffle("op_perm", h, 32)
        b.concat("op_cat", h, s)
    else:
        raise ParseError(f"unknown bench operator {op!r}; "
                         f"choose from {_BENCH_OPS}")
    return b.build()


@main.command("bench-op")
@click.option("--op", "op_name", type=click.Choice(_BENCH_OPS), required=True)
@click.option("--sizes", default="16,32,64", show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--out", "out_path", type=click.Path(), default=None)
@_cli_errors
def bench_op(op_name, sizes, seed, out_path):
    """Measured secure-session bytes per image size for one operator."""
    rows = ["op,size,mults,payload_bytes"]
    for size in [_positive_int(s, "--sizes") for s in sizes.split(",")]:
        g = bench_graph(op_name, size, seed=seed)
        plan = build_plan(g, with_weights=True)
        mults = plan.requirements().mul_triples
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                           spawn_key=(301, size)))
        x = rng.uniform(-1.0, 1.0, size=g.input_shape)
        result = secure_infer_local(g, x, seed=seed + size, plan=plan)
        sent = result.client.ledger.total_sent
        rows.append(f"{op_name},{size},{mults},{sent}")
        click.echo(rows[-1])
    if out_path:
        with open(out_path, "w") as f:
            f.write("\n".join(rows) + "\n")


@main.command()
@_add_opts(_graph_opts)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True)
@click.option("--out", "out_path", type=click.Path(), default=None)
@click.option("--ledger", "ledger_path", type=click.Path(), default=None,
              help="Merge measured bytes from a session ledger CSV.")
@_cli_errors
def report(graph_path, zoo_spec, bitwidth, scale, seed, fmt, out_path,
           ledger_path):
    """Per-layer cost report: modeled estimate, plan prediction, measurement."""
    g = _load_or_build(graph_path, zoo_spec, bitwidth, scale, seed)
    est = estimate_comm(g)
    reports = merge_predicted(est.reports, g)
    if ledger_path:
        import csv as csvmod

        per_layer = {}
        with open(ledger_path) as f:
            for row in csvmod.DictReader(f):
                per_layer[row["layer"]] = per_layer.get(row["layer"], 0.0) + \
                    float(row["bytes_sent"])
        reports = merge_measured(reports, per_layer)
    text = emit_report(reports, fmt=fmt, path=out_path)
    if out_path:
        click.echo(f"wrote {out_path}")
    else:
        click.echo(text)
    pct = est.split_percentages()
    click.echo(f"# linear {pct['linear_pct']:.2f}% | nonlinear "
               f"{pct['nonlinear_pct']:.2f}% | conv share of linear "
               f"{pct['conv_pct_of_linear']:.2f}%", err=True)


@main.command()
@click.option("--backbones", default="densenet121,resnet50,resnet18,"
              "mobilenetv3l,shufflenetv2", show_default=False)
@click.option("--variants", default="dense,factorized,shuffle,xop",
              show_default=True)
@click.option("--winograd/--no-winograd", "with_wino", default=False,
              help="Add transform-rewritten rows.")
@click.option("--size", default="320", show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--baseline", default="DD", show_default=True)
@_cli_errors
def compare(backbones, variants, with_wino, size, seed, baseline):
    """Cost table across backbone x variant (x transform) combinations."""
    size = _positive_int(size, "--size")
    pairs = []
    for bb in backbones.split(","):
        for var in variants.split(","):
            pairs.append((bb.strip(), CellVariant.parse(var), False))
            if with_wino:
                pairs.append((bb.strip(), CellVariant.parse(var), True))
    rows = compare_variants(pairs, input_size=size, baseline=baseline, seed=seed,
                            graph_hook=lambda g: rewrite_winograd(g)[0])
    click.echo(f"{'mnemonic':<10} {'mults':>16} {'est_bytes':>22} {'reduction':>10}")
    for r in rows:
        click.echo(f"{r.mnemonic:<10} {r.mults:>16,} {r.est_bytes:>22,.0f} "
                   f"{r.reduction_vs_baseline:>9.2f}x")


if __name__ == "__main__":
    main()
