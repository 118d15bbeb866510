"""Command line front end: parse the text formats, run the analyses, and
emit versioned line-oriented reports with stable bytes.

Exit codes: 0 for YES/valid/success, 1 for NO/invalid/failed criteria, 2 for
input errors (malformed files, mismatched hashes, instances over a cap), 3 for
internal errors (a library call failed in a way its input does not explain).
"""

from __future__ import annotations

import sys

import click

from . import decomp
from .check import verify_certificate
from .cycles import DEFAULT_CYCLE_CAP, cycle_hypergraph
from .dtw1 import recognize_dtw1
from .errors import CapExceeded, InstanceTooLarge
from .formats import (
    digraph_hash,
    format_certificate,
    format_cycles,
    format_dbd,
    format_ghd,
    format_transcript,
    header_lines,
    parse_certificate,
    parse_dbd,
    parse_digraph,
    parse_dtd,
    parse_hypergraph,
    read_document,
)
from .games import play_transcript, solve_game
from .hypergraph import hypertree_witness, is_alpha_acyclic


_format_option = click.option(
    "--format",
    "output_format",
    type=click.Choice(("text", "structured")),
    default="text",
    show_default=True,
    help="`text` adds `#` comment lines; `structured` is records only.",
)
_cap_option = click.option(
    "--cap",
    type=click.IntRange(min=1),
    default=DEFAULT_CYCLE_CAP,
    show_default=True,
    help="Cycle enumeration cap.",
)
_seed_option = click.option(
    "--seed",
    default=0,
    show_default=True,
    help="Random seed of the generated instances.",
)


def _die(message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        _die(str(exc))


def _guarded(fn, *args, **kwargs):
    """Run a library call, mapping its input rejections to exit code 2 and
    any other failure to exit code 3, so a broken invariant never reads as NO.

    The exit is raised inside the handler, which keeps the original exception
    as its `__context__`.
    """
    try:
        return fn(*args, **kwargs)
    except (ValueError, CapExceeded, InstanceTooLarge) as exc:
        _die(str(exc))
    except Exception as exc:
        click.echo(f"internal error: {type(exc).__name__}: {exc}", err=True)
        sys.exit(3)


def _load_digraph(path: str):
    return _guarded(parse_digraph, _read_file(path))


def _note(output_format: str, lines: list, text: str):
    if output_format == "text":
        lines.append(f"# {text}")


def _emit(lines):
    click.echo("\n".join(lines))


def _report_lines(lines, verdict_key, verdict, report):
    lines.append(f"{verdict_key}={verdict}")
    lines.append(f"result={'valid' if report.valid else 'invalid'}")
    if report.valid and report.width is not None:
        lines.append(f"width={report.width}")
    for violation in report.violations:
        lines.append(f"violation={violation}")


def _load_decomposition_document(path: str, d):
    """The document's records, and d's digest for the output header."""
    kv, records = _guarded(read_document, _read_file(path))
    digest = digraph_hash(d)
    if "digraph" in kv and kv["digraph"] != digest:
        _die("decomposition was produced for a different digraph")
    return records, digest


@click.group()
def main():
    """Directed treewidth one: recognition with certificates, cycle
    hypergraphs, decomposition conversions and the robber game."""


@main.command("recognize")
@click.argument("digraph_file", type=click.Path(exists=True, dir_okay=False))
@_format_option
def cmd_recognize(digraph_file, output_format):
    """Decide directed treewidth one; print a certificate either way."""
    d, names = _load_digraph(digraph_file)
    cert = _guarded(recognize_dtw1, d)
    lines = header_lines("recognize", digest=digraph_hash(d))
    if cert.verdict == "YES":
        _note(output_format, lines, "directed treewidth one: the decomposition below "
                                    "has width 1")
    else:
        w = cert.witness
        pattern = f"Bicycle({w.length})" if w.kind == "bicycle" else "A4"
        _note(output_format, lines, f"directed treewidth exceeds one: butterfly minor "
                                    f"{pattern}, which implies an order-3 haven")
    _emit(format_certificate(cert, names, lines))
    sys.exit(0 if cert.verdict == "YES" else 1)


@main.command("verify-cert")
@click.argument("digraph_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("certificate_file", type=click.Path(exists=True, dir_okay=False))
@_format_option
def cmd_verify_cert(digraph_file, certificate_file, output_format):
    """Re-check a previously emitted certificate against its digraph."""
    d, names = _load_digraph(digraph_file)
    name_to_id = {name: i for i, name in enumerate(names)}
    kv, records = _guarded(read_document, _read_file(certificate_file))
    digest = digraph_hash(d)
    if kv.get("digraph") != digest:
        _die("certificate was issued for a different digraph")
    cert = _guarded(parse_certificate, (kv, records), name_to_id)
    report = _guarded(verify_certificate, d, cert)
    lines = header_lines("verify-cert", digest=digest)
    lines.append(f"verdict={cert.verdict}")
    lines.append(f"result={'valid' if report.valid else 'invalid'}")
    if cert.verdict == "YES" and report.valid and report.width is not None:
        lines.append(f"width={report.width}")
    for violation in report.violations:
        lines.append(f"violation={violation}")
    _note(output_format, lines, "certificate is sound" if report.valid
                                else "certificate FAILED verification")
    _emit(lines)
    sys.exit(0 if report.valid else 1)


@main.command("cycles")
@click.argument("digraph_file", type=click.Path(exists=True, dir_okay=False))
@_format_option
@_cap_option
def cmd_cycles(digraph_file, cap, output_format):
    """Enumerate the simple directed cycles, one `c ...` line each."""
    d, names = _load_digraph(digraph_file)
    ch = _guarded(cycle_hypergraph, d, cap)
    lines = header_lines("cycles", cap=cap, digest=digraph_hash(d))
    lines.append(f"count={len(ch.cycles)}")
    _note(output_format, lines, f"{len(ch.cycles)} simple directed cycle(s) in "
                                f"canonical rotation")
    lines.extend(format_cycles(ch, names))
    _emit(lines)
    sys.exit(0)


@main.command("hypergraph")
@click.argument("hypergraph_file", type=click.Path(exists=True, dir_okay=False))
@_format_option
def cmd_hypergraph(hypergraph_file, output_format):
    """Analyse a standalone hypergraph: acyclicity and hypertree structure."""
    h = _guarded(parse_hypergraph, _read_file(hypergraph_file))
    acyclic = _guarded(is_alpha_acyclic, h)
    witness = _guarded(hypertree_witness, h)
    lines = header_lines("hypergraph")
    lines.append(f"vertices={len(h.vertices)}")
    lines.append(f"edges={len(h.edges)}")
    lines.append(f"alpha_acyclic={'true' if acyclic else 'false'}")
    lines.append(f"hypertree={'true' if witness is not None else 'false'}")
    if witness is not None:
        _note(output_format, lines, "host tree edges follow; every hyperedge induces "
                                    "a subtree")
        pos = {v: i for i, v in enumerate(h.vertices)}
        tree_edges = [tuple(sorted(e, key=pos.get)) for e in witness.tree.edges]
        for u, v in sorted(tree_edges, key=lambda e: (pos[e[0]], pos[e[1]])):
            lines.append(f"tree {u} {v}")
    else:
        _note(output_format, lines, "not a hypertree")
    _emit(lines)
    sys.exit(0)


@main.command("validate-dtd")
@click.argument("digraph_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("decomposition_file", type=click.Path(exists=True, dir_okay=False))
@_format_option
def cmd_validate_dtd(digraph_file, decomposition_file, output_format):
    """Validate a directed tree decomposition against its digraph."""
    d, names = _load_digraph(digraph_file)
    name_to_id = {name: i for i, name in enumerate(names)}
    records, digest = _load_decomposition_document(decomposition_file, d)
    dec = _guarded(parse_dtd, records, name_to_id)
    report = _guarded(decomp.validate_dtd, d, dec)
    lines = header_lines("validate-dtd", digest=digest)
    _report_lines(lines, "kind", "dtd", report)
    _emit(lines)
    sys.exit(0 if report.valid else 1)


@main.command("validate-dbd")
@click.argument("digraph_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("decomposition_file", type=click.Path(exists=True, dir_okay=False))
@_format_option
@_cap_option
def cmd_validate_dbd(digraph_file, decomposition_file, cap, output_format):
    """Validate a directed branch decomposition against its digraph."""
    d, names = _load_digraph(digraph_file)
    name_to_id = {name: i for i, name in enumerate(names)}
    records, digest = _load_decomposition_document(decomposition_file, d)
    dec = _guarded(parse_dbd, records, name_to_id)
    report = _guarded(decomp.validate_dbd, d, dec, cap=cap)
    lines = header_lines("validate-dbd", cap=cap, digest=digest)
    _report_lines(lines, "kind", "dbd", report)
    _emit(lines)
    sys.exit(0 if report.valid else 1)


@main.command("convert")
@click.argument("digraph_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("decomposition_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("target", type=click.Choice(("dbd", "hbd", "ghd")))
@_format_option
@_cap_option
def cmd_convert(digraph_file, decomposition_file, target, cap, output_format):
    """Convert decompositions: dtd to dbd, dbd to hbd, dtd to ghd."""
    d, names = _load_digraph(digraph_file)
    name_to_id = {name: i for i, name in enumerate(names)}
    records, digest = _load_decomposition_document(decomposition_file, d)
    dec = _guarded(parse_dbd if target == "hbd" else parse_dtd, records, name_to_id)
    if target == "hbd":
        report = _guarded(decomp.validate_dbd, d, dec, cap=cap)
    else:
        report = _guarded(decomp.validate_dtd, d, dec)
    if not report.valid:
        _die("input decomposition invalid: " + "; ".join(report.violations))
    if target == "dbd":
        out = _guarded(decomp.dtd_to_dbd, d, dec, cap)
        body, width = format_dbd(out, names), out.width()
    elif target == "hbd":
        out = _guarded(decomp.dbd_to_hbd, d, dec, cap)
        body, width = format_dbd(out), out.width()
    else:
        out = _guarded(decomp.dtd_to_ghd, d, dec, cap)
        body, width = format_ghd(out), out.width
    lines = header_lines("convert", cap=cap, digest=digest)
    lines.append(f"convert={target}")
    lines.append(f"width={width}")
    _note(output_format, lines, f"converted to a {target} of width {width}")
    lines.extend(body)
    _emit(lines)
    sys.exit(0)


@main.command("game")
@click.argument("digraph_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("cops", type=click.IntRange(min=0))
@_format_option
def cmd_game(digraph_file, cops, output_format):
    """Solve the robber game with the given cop budget; print one play."""
    d, names = _load_digraph(digraph_file)
    result = _guarded(solve_game, d, cops)
    lines = header_lines("game", digest=digraph_hash(d))
    lines.append(f"cops={cops}")
    lines.append(f"cops_win={'true' if result.cops_win else 'false'}")
    if result.cops_win:
        moves = _guarded(play_transcript, d, result.strategy)
        _note(output_format, lines, f"capture after {len(moves) - 1} cop move(s) "
                                    f"against the least-component robber")
        lines.extend(format_transcript(moves, names))
    else:
        _note(output_format, lines, f"{cops} cop(s) never catch the robber")
    _emit(lines)
    sys.exit(0)


@main.command("suite")
@_format_option
@_cap_option
@_seed_option
def cmd_suite(seed, cap, output_format):
    """Run the acceptance criteria; nonzero exit when any of them fail."""
    from .suite import run_all

    results = _guarded(run_all, seed=seed, cycle_cap=cap)
    lines = header_lines("suite", seed=seed, cap=cap)
    all_pass = True
    for r in results:
        all_pass &= r.passed
        _note(output_format, lines, f"criterion {r.index}: {r.name}")
        lines.append(
            f"criterion {r.index} status={'pass' if r.passed else 'fail'} "
            f"checked={r.checked} skipped={r.skipped} time={r.seconds:.1f}"
        )
        for failure in r.failures[:5]:
            lines.append(f"failure={failure}")
    lines.append(f"suite={'pass' if all_pass else 'fail'}")
    _emit(lines)
    sys.exit(0 if all_pass else 1)
