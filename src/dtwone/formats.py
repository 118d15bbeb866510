"""Line-oriented text formats shared by the command line front end.

Reading is lenient about blank lines and `#` comments; writing is canonical,
so equal values always serialize to identical bytes (sets print their
elements in ascending id order, records are sorted).
"""

from __future__ import annotations

import hashlib
import re

from .decomp import (
    DirectedBranchDecomposition,
    DirectedTreeDecomposition,
)
from .digraph import Digraph, digraph_from_edges
from .dtw1 import Dtw1Certificate, MinorWitness
from .hypergraph import Hypergraph

FORMAT_VERSION = "dtwone v1"

_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[0-9]+")
_KEY_VALUE = re.compile(r"([A-Za-z_][A-Za-z0-9_.]*)=(.*)")


class ParseError(ValueError):
    """A malformed input file; carries the 1-based offending line number."""

    def __init__(self, line, message):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


# ---------------------------------------------------------------- digraphs


def parse_digraph(text: str) -> tuple[Digraph, tuple]:
    """Read an edge list, one `u v` pair per line with `#` comments.

    Vertex ids may be non-negative integers or bare identifiers; both are
    mapped to dense ids in first-seen order.  Returns the digraph together
    with the original names indexed by dense id.
    """
    ids: dict = {}
    names: list = []
    edges = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(
                line_no, f"expected `u v`, got {len(tokens)} token(s)"
            )
        pair = []
        for tok in tokens:
            if not _TOKEN.fullmatch(tok):
                raise ParseError(line_no, f"bad vertex id {tok!r}")
            if tok not in ids:
                ids[tok] = len(names)
                names.append(tok)
            pair.append(ids[tok])
        if pair[0] == pair[1]:
            raise ParseError(line_no, f"self-loop at {tokens[0]!r}")
        edges.append(tuple(pair))
    return digraph_from_edges(len(names), edges), tuple(names)


def vertex_names(d: Digraph, names=None) -> tuple:
    """The given name table, or decimal ids when none is supplied."""
    if names is None:
        return tuple(str(v) for v in range(d.n))
    assert len(names) == d.n, "one name per vertex"
    return tuple(names)


def format_digraph(d: Digraph, names=None) -> list:
    names = vertex_names(d, names)
    return [f"{names[u]} {names[v]}" for (u, v) in d.sorted_edges()]


def digraph_hash(d: Digraph) -> str:
    """Canonical-form digest: names are forgotten, only the dense sorted
    edge list and the vertex count enter the hash."""
    body = f"{d.n};" + ",".join(f"{u}>{v}" for (u, v) in d.sorted_edges())
    return "sha256:" + hashlib.sha256(body.encode("ascii")).hexdigest()


# -------------------------------------------------------------------- sets


def format_set(items, names=None) -> str:
    """Canonical `{a,b}` form, elements ascending by id."""
    ordered = sorted(items)
    if names is None:
        return "{" + ",".join(str(i) for i in ordered) + "}"
    return "{" + ",".join(names[i] for i in ordered) + "}"


def parse_set(text: str, line_no, name_to_id=None) -> frozenset:
    """Read a `{a,b}` set; elements resolve through the name table when one
    is given and must be non-negative integers otherwise."""
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ParseError(line_no, f"expected a {{...}} set, got {text!r}")
    inner = text[1:-1].strip()
    if not inner:
        return frozenset()
    out = set()
    for tok in inner.split(","):
        tok = tok.strip()
        if name_to_id is not None:
            if tok not in name_to_id:
                raise ParseError(line_no, f"unknown vertex {tok!r}")
            out.add(name_to_id[tok])
        elif tok.isdigit():
            out.add(int(tok))
        else:
            raise ParseError(line_no, f"expected an integer, got {tok!r}")
    return frozenset(out)


# --------------------------------------------------------------- documents


def header_lines(command: str, seed=None, cap=None, digraph=None) -> list:
    """The versioned header opening every emitted document; `seed` and `cap`
    appear only when given, for the commands that read them."""
    out = [FORMAT_VERSION, f"command={command}"]
    if seed is not None:
        out.append(f"seed={seed}")
    if cap is not None:
        out.append(f"cap={cap}")
    if digraph is not None:
        out.append(f"digraph={digraph_hash(digraph)}")
    return out


def read_document(text: str) -> tuple[dict, list]:
    """Split a versioned document into `key=value` pairs and record lines.

    The first content line must announce the format version.  Whole-line
    `#` comments and blank lines are dropped; records come back as
    (line_no, line) pairs in file order.
    """
    lines = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            lines.append((line_no, line))
    if not lines or lines[0][1] != FORMAT_VERSION:
        raise ParseError(
            lines[0][0] if lines else 1,
            f"expected a `{FORMAT_VERSION}` header line",
        )
    kv: dict = {}
    records = []
    for line_no, line in lines[1:]:
        m = _KEY_VALUE.fullmatch(line)
        if m:
            if m.group(1) in kv:
                raise ParseError(line_no, f"duplicate key {m.group(1)!r}")
            kv[m.group(1)] = m.group(2)
        else:
            records.append((line_no, line))
    return kv, records


# ----------------------------------------------------- decomposition records


def _scan_node_arc_records(records, name_to_id, node_fields, arc_fields):
    """Shared reader for `node <id> ...` / `arc <from> <to> ...` records.

    Field specs map a `name=` prefix to True (resolve through the name
    table) or False (integer set).  Returns nodes in file order, their
    field dicts, arcs in file order, and the arcs' field dicts.
    """
    nodes, node_data, arcs, arc_data = [], {}, [], {}
    for line_no, line in records:
        tokens = line.split()
        if tokens[0] == "node":
            if len(tokens) != 2 + len(node_fields) or not tokens[1].isdigit():
                raise ParseError(
                    line_no,
                    "expected `node <id>"
                    + "".join(f" {f}=<set>" for f in node_fields)
                    + "`",
                )
            t = int(tokens[1])
            if t in node_data:
                raise ParseError(line_no, f"node {t} repeats")
            fields = {}
            for tok, (field, named) in zip(tokens[2:], node_fields.items()):
                if not tok.startswith(f"{field}="):
                    raise ParseError(line_no, f"expected `{field}=<set>`")
                fields[field] = parse_set(
                    tok[len(field) + 1 :], line_no, name_to_id if named else None
                )
            nodes.append(t)
            node_data[t] = fields
        elif tokens[0] == "arc":
            if (
                len(tokens) != 3 + len(arc_fields)
                or not tokens[1].isdigit()
                or not tokens[2].isdigit()
            ):
                raise ParseError(
                    line_no,
                    "expected `arc <from> <to>"
                    + "".join(f" {f}=<set>" for f in arc_fields)
                    + "`",
                )
            a = (int(tokens[1]), int(tokens[2]))
            if a in arc_data:
                raise ParseError(line_no, f"arc {a} repeats")
            fields = {}
            for tok, (field, named) in zip(tokens[3:], arc_fields.items()):
                if not tok.startswith(f"{field}="):
                    raise ParseError(line_no, f"expected `{field}=<set>`")
                fields[field] = parse_set(
                    tok[len(field) + 1 :], line_no, name_to_id if named else None
                )
            arcs.append(a)
            arc_data[a] = fields
        else:
            raise ParseError(line_no, f"unexpected record {tokens[0]!r}")
    if not nodes:
        raise ParseError(None, "decomposition has no nodes")
    known = set(nodes)
    for (p, c) in arcs:
        if p not in known or c not in known:
            raise ParseError(None, f"arc ({p},{c}) names an unknown node")
    return nodes, node_data, arcs, arc_data


def format_dtd(dec: DirectedTreeDecomposition, names) -> list:
    assert all(isinstance(t, int) for t in dec.nodes), "serializable node ids"
    out = [
        f"node {t} bag={format_set(dec.bags[t], names)}"
        for t in sorted(dec.nodes)
    ]
    for (p, c) in sorted(dec.arcs):
        out.append(f"arc {p} {c} guard={format_set(dec.guards[(p, c)], names)}")
    return out


def parse_dtd(records, name_to_id) -> DirectedTreeDecomposition:
    nodes, node_data, arcs, arc_data = _scan_node_arc_records(
        records, name_to_id, {"bag": True}, {"guard": True}
    )
    return DirectedTreeDecomposition(
        nodes=tuple(nodes),
        arcs=tuple(arcs),
        bags={t: node_data[t]["bag"] for t in nodes},
        guards={a: arc_data[a]["guard"] for a in arcs},
    )


def format_dbd(dec: DirectedBranchDecomposition, names) -> list:
    """Branch decompositions reuse the node/arc records: leaves carry their
    vertex as a singleton bag, tree edges carry the hitting set as guard."""
    assert all(isinstance(t, int) for t in dec.nodes), "serializable node ids"
    out = []
    for t in sorted(dec.nodes):
        bag = (
            frozenset({dec.leaf_vertex[t]})
            if t in dec.leaf_vertex
            else frozenset()
        )
        out.append(f"node {t} bag={format_set(bag, names)}")
    for e in sorted(dec.edges):
        out.append(
            f"arc {e[0]} {e[1]} guard={format_set(dec.hitting_sets[e], names)}"
        )
    return out


def parse_dbd(records, name_to_id) -> DirectedBranchDecomposition:
    nodes, node_data, arcs, arc_data = _scan_node_arc_records(
        records, name_to_id, {"bag": True}, {"guard": True}
    )
    degree: dict = {}
    for (a, b) in arcs:
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
    leaf_vertex = {}
    for t in nodes:
        bag = node_data[t]["bag"]
        if len(bag) == 1 and degree.get(t, 0) <= 1:
            leaf_vertex[t] = next(iter(bag))
        elif bag:
            raise ParseError(
                None, f"node {t} is internal but its bag is not empty"
            )
    return DirectedBranchDecomposition(
        nodes=tuple(nodes),
        edges=tuple(arcs),
        leaf_vertex=leaf_vertex,
        hitting_sets={tuple(sorted(a)): arc_data[a]["guard"] for a in arcs},
    )


def format_hbd(dec) -> list:
    """Same records over the dual ground: leaf bags hold the dual hyperedge
    index, guards hold the cover sets (all integer ids)."""
    assert all(isinstance(t, int) for t in dec.nodes), "serializable node ids"
    out = []
    for t in sorted(dec.nodes):
        bag = (
            frozenset({dec.leaf_edge[t]}) if t in dec.leaf_edge else frozenset()
        )
        out.append(f"node {t} bag={format_set(bag)}")
    for e in sorted(dec.edges):
        out.append(f"arc {e[0]} {e[1]} guard={format_set(dec.cover_sets[e])}")
    return out


def format_ghd(dec) -> list:
    """Hypertree decompositions guard nodes, not arcs: the node record gains
    a guard field (hyperedge indices) and arcs carry none."""
    assert all(isinstance(t, int) for t in dec.nodes), "serializable node ids"
    out = [
        f"node {t} bag={format_set(dec.bags[t])}"
        f" guard={format_set(dec.guards[t])}"
        for t in sorted(dec.nodes)
    ]
    for (p, c) in sorted(dec.arcs):
        out.append(f"arc {p} {c}")
    return out


# ------------------------------------------------------------- hypergraphs


def parse_hypergraph(text: str) -> Hypergraph:
    """Read `v <names...>` vertex declarations followed by one `e <names...>`
    line per hyperedge."""
    vertices: list = []
    seen: set = set()
    edges = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "v":
            for tok in tokens[1:]:
                if not _TOKEN.fullmatch(tok):
                    raise ParseError(line_no, f"bad vertex id {tok!r}")
                if tok in seen:
                    raise ParseError(line_no, f"vertex {tok!r} repeats")
                vertices.append(tok)
                seen.add(tok)
        elif tokens[0] == "e":
            if len(tokens) == 1:
                raise ParseError(line_no, "empty hyperedge")
            for tok in tokens[1:]:
                if tok not in seen:
                    raise ParseError(line_no, f"unknown vertex {tok!r}")
            edges.append(frozenset(tokens[1:]))
        else:
            raise ParseError(
                line_no, f"expected a `v` or `e` line, got {tokens[0]!r}"
            )
    covered = frozenset().union(*edges) if edges else frozenset()
    for v in vertices:
        if v not in covered:
            raise ParseError(None, f"vertex {v!r} lies in no hyperedge")
    return Hypergraph(tuple(vertices), tuple(edges))


def format_hypergraph(h: Hypergraph) -> list:
    pos = {v: i for i, v in enumerate(h.vertices)}
    out = ["v " + " ".join(str(v) for v in h.vertices)] if h.vertices else []
    for e in h.edges:
        out.append("e " + " ".join(str(v) for v in sorted(e, key=pos.get)))
    return out


# ------------------------------------------------------------------ cycles


def format_cycles(ch, names=None) -> list:
    """One `c v1 v2 ... vk` line per cycle in canonical rotation."""
    names = vertex_names(ch.host, names)
    return [
        "c " + " ".join(names[v] for v in c.sequence) for c in ch.cycles
    ]


# ------------------------------------------------------------------- games


def format_transcript(moves, names) -> list:
    return [
        f"move {i} cops={format_set(x, names)} robber={format_set(r, names)}"
        for i, (x, r) in enumerate(moves)
    ]


# ------------------------------------------------------------ certificates


def format_certificate(cert: Dtw1Certificate, names, header) -> list:
    """Serialize a recognition certificate below the given header lines:
    the decomposition records for YES; for NO the pattern, its replay
    script, the branch sets and `haven_order=3`, the order of the haven the
    witness implies.  The haven itself is not written: `verify-cert`
    derives it from the witness."""
    out = list(header)
    out.append(f"verdict={cert.verdict}")
    if cert.verdict == "YES":
        out.extend(format_dtd(cert.decomposition, names))
        return out
    w = cert.witness
    out.append(f"pattern={w.kind}")
    if w.length is not None:
        out.append(f"length={w.length}")
    for (op, u, v) in w.script:
        out.append(f"{op} {names[u]} {names[v]}")
    for p in sorted(w.branch_sets):
        out.append(f"branchset {p}: {format_set(w.branch_sets[p], names)}")
    out.append("haven_order=3")
    return out


_BRANCHSET = re.compile(r"branchset ([0-9]+): (\{[^{}]*\})")


def parse_certificate(document, name_to_id) -> Dtw1Certificate:
    """Rebuild a certificate from the `(kv, records)` pair that
    `read_document` returned for its serialized form."""
    kv, records = document
    verdict = kv.get("verdict")
    if verdict == "YES":
        return Dtw1Certificate("YES", parse_dtd(records, name_to_id), None)
    if verdict != "NO":
        raise ParseError(None, "certificate must declare verdict=YES or verdict=NO")

    kind = kv.get("pattern")
    if kind not in ("bicycle", "a4"):
        raise ParseError(None, f"unknown pattern {kind!r}")
    length = None
    if kind == "bicycle":
        if not kv.get("length", "").isdigit():
            raise ParseError(None, "a bicycle pattern needs `length=<int>`")
        length = int(kv["length"])
    elif "length" in kv:
        raise ParseError(None, "only bicycle patterns carry a length")

    script = []
    branch_sets: dict = {}
    for line_no, line in records:
        head = line.split(maxsplit=1)[0]
        if head in ("del", "contract"):
            tokens = line.split()
            if len(tokens) != 3:
                raise ParseError(line_no, f"expected `{head} <u> <v>`")
            pair = []
            for tok in tokens[1:]:
                if tok not in name_to_id:
                    raise ParseError(line_no, f"unknown vertex {tok!r}")
                pair.append(name_to_id[tok])
            script.append((head, pair[0], pair[1]))
        elif head == "branchset":
            m = _BRANCHSET.fullmatch(line)
            if not m:
                raise ParseError(line_no, "expected `branchset <p>: <set>`")
            p = int(m.group(1))
            if p in branch_sets:
                raise ParseError(line_no, f"branch set {p} repeats")
            branch_sets[p] = parse_set(m.group(2), line_no, name_to_id)
        elif head == "haven":
            raise ParseError(
                line_no, "unexpected `haven` record: havens are derived from "
                "the witness, not read"
            )
        else:
            raise ParseError(line_no, f"unexpected record {head!r}")
    if kv.get("haven_order") != "3":
        raise ParseError(None, "a NO certificate needs `haven_order=3`")
    witness = MinorWitness(kind, length, tuple(script), branch_sets)
    return Dtw1Certificate("NO", None, witness)
