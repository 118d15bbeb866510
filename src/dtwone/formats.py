"""Line-oriented text formats shared by the command line front end.

Reading is lenient about blank lines and `#` comments; writing is canonical,
so equal values always serialize to identical bytes (sets print their
elements in ascending id order, records are sorted).
"""

from __future__ import annotations

import hashlib
import re

from .check import DirectedTreeDecomposition, Dtw1Certificate, RootedSets
from .decomp import BranchDecomposition
from .digraph import Digraph, digraph_from_edges
from .hypergraph import Hypergraph

FORMAT_VERSION = "dtwone v1"

_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[0-9]+")
_KEY_VALUE = re.compile(r"([A-Za-z_][A-Za-z0-9_.]*)=(.*)")
_NUMBER = re.compile(r"[0-9]+")


class ParseError(ValueError):
    """A malformed input file; carries the 1-based offending line number."""

    def __init__(self, line, message):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


# ---------------------------------------------------------------- digraphs


def parse_digraph(text: str) -> tuple[Digraph, tuple]:
    """Read an edge list, one `u v` pair per line with `#` comments.

    Vertex ids may be non-negative integers or bare identifiers; both are
    mapped to dense ids in first-seen order, and checked against the id
    pattern when first seen.  Returns the digraph together with the
    original names indexed by dense id.
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
            if tok not in ids:
                if not _TOKEN.fullmatch(tok):
                    raise ParseError(line_no, f"bad vertex id {tok!r}")
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
        elif _NUMBER.fullmatch(tok):
            out.add(int(tok))
        else:
            raise ParseError(line_no, f"expected an integer, got {tok!r}")
    return frozenset(out)


# --------------------------------------------------------------- documents


class _KeyValues(dict):
    """A document's `key=value` pairs; `line` maps each key to its line."""

    def __init__(self):
        super().__init__()
        self.line = {}


def header_lines(command: str, seed=None, cap=None, digest=None) -> list:
    """The versioned header opening every emitted document; `seed`, `cap`
    and the input digraph's `digest` (its `digraph_hash`) appear only when
    given, for the commands that read them."""
    out = [FORMAT_VERSION, f"command={command}"]
    if seed is not None:
        out.append(f"seed={seed}")
    if cap is not None:
        out.append(f"cap={cap}")
    if digest is not None:
        out.append(f"digraph={digest}")
    return out


def read_document(text: str) -> tuple[dict, list]:
    """Split a versioned document into `key=value` pairs and record lines.

    The first content line must announce the format version.  Whole-line
    `#` comments and blank lines are dropped; records come back as
    (line_no, line) pairs in file order.  The `key=value` dict's `line`
    attribute maps each key to its line number.
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
    kv = _KeyValues()
    records = []
    for line_no, line in lines[1:]:
        m = _KEY_VALUE.fullmatch(line)
        if m:
            if m.group(1) in kv:
                raise ParseError(line_no, f"duplicate key {m.group(1)!r}")
            kv[m.group(1)] = m.group(2)
            kv.line[m.group(1)] = line_no
        else:
            records.append((line_no, line))
    return kv, records


# ----------------------------------------------------- decomposition records


_RECORDS = {"node": ("node <id>", 1, "bag"), "arc": ("arc <from> <to>", 2, "guard")}


def _scan_node_arc_records(records, name_to_id):
    """Shared reader for `node <id> bag=<set>` / `arc <from> <to>
    guard=<set>` records, sets resolved through the name table.  Returns
    each node's bag and each arc's guard, both in file order."""
    found = {"node": {}, "arc": {}}
    for line_no, line in records:
        kind, *tokens = line.split()
        if kind not in _RECORDS:
            raise ParseError(line_no, f"unexpected record {kind!r}")
        form, ids, field = _RECORDS[kind]
        if len(tokens) != ids + 1 or not all(map(_NUMBER.fullmatch, tokens[:ids])):
            raise ParseError(line_no, f"expected `{form} {field}=<set>`")
        key = int(tokens[0]) if ids == 1 else (int(tokens[0]), int(tokens[1]))
        if key in found[kind]:
            raise ParseError(line_no, f"{kind} {key} repeats")
        if not tokens[ids].startswith(f"{field}="):
            raise ParseError(line_no, f"expected `{field}=<set>`")
        found[kind][key] = parse_set(tokens[ids][len(field) + 1 :], line_no, name_to_id)
    bags, guards = found["node"], found["arc"]
    if not bags:
        raise ParseError(None, "decomposition has no nodes")
    for (p, c) in guards:
        if p not in bags or c not in bags:
            raise ParseError(None, f"arc ({p},{c}) names an unknown node")
    return bags, guards


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
    bags, guards = _scan_node_arc_records(records, name_to_id)
    return DirectedTreeDecomposition(
        nodes=tuple(bags), arcs=tuple(guards), bags=bags, guards=guards
    )


def format_dbd(dec: BranchDecomposition, names=None) -> list:
    """Branch decompositions reuse the node/arc records: leaves carry their
    label as a singleton bag, tree edges carry their set as guard.  Without
    names the ids print as integers, as for a decomposition of the dual."""
    assert all(isinstance(t, int) for t in dec.nodes), "serializable node ids"
    out = []
    for t in sorted(dec.nodes):
        bag = (
            frozenset({dec.leaf_label[t]})
            if t in dec.leaf_label
            else frozenset()
        )
        out.append(f"node {t} bag={format_set(bag, names)}")
    for e in sorted(dec.edges):
        out.append(
            f"arc {e[0]} {e[1]} guard={format_set(dec.edge_sets[e], names)}"
        )
    return out


def parse_dbd(records, name_to_id) -> BranchDecomposition:
    bags, guards = _scan_node_arc_records(records, name_to_id)
    degree: dict = {}
    for (a, b) in guards:
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
    leaf_label = {}
    for t, bag in bags.items():
        if len(bag) == 1 and degree.get(t, 0) <= 1:
            leaf_label[t] = next(iter(bag))
        elif bag:
            raise ParseError(
                None, f"node {t} is internal but its bag is not empty"
            )
    return BranchDecomposition(
        nodes=tuple(bags),
        edges=tuple(guards),
        leaf_label=leaf_label,
        edge_sets={tuple(sorted(a)): g for a, g in guards.items()},
    )


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
    the decomposition records for YES; for NO the pattern, one `rootset <p>
    root=<v> <set>` record for each of the three rooted sets, and
    `haven_order=3`, the order of the haven they give.  The haven itself is
    not written: `verify-cert` checks it from the rooted sets."""
    out = list(header)
    out.append(f"verdict={cert.verdict}")
    if cert.verdict == "YES":
        out.extend(format_dtd(cert.decomposition, names))
        return out
    rooted = cert.rooted_sets
    out.append(f"pattern={rooted.kind}")
    if rooted.length is not None:
        out.append(f"length={rooted.length}")
    for p in sorted(rooted.sets):
        out.append(f"rootset {p} root={names[rooted.roots[p]]} "
                   f"{format_set(rooted.sets[p], names)}")
    out.append("haven_order=3")
    return out


_ROOTSET = re.compile(r"rootset ([0-9]+) root=(\S+) (\{[^{}]*\})")


def parse_certificate(document, name_to_id) -> Dtw1Certificate:
    """Rebuild a certificate from the `(kv, records)` pair that
    `read_document` returned for its serialized form.  A NO certificate in
    the older form, a minor's script and branch sets, or one that still
    carries its haven table, is refused."""
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
        if not _NUMBER.fullmatch(kv.get("length", "")):
            raise ParseError(kv.line.get("length"), "a bicycle pattern needs `length=<int>`")
        length = int(kv["length"])
    elif "length" in kv:
        raise ParseError(kv.line["length"], "only bicycle patterns carry a length")

    sets: dict = {}
    roots: dict = {}
    for line_no, line in records:
        head = line.split(maxsplit=1)[0]
        if head == "rootset":
            m = _ROOTSET.fullmatch(line)
            if not m:
                raise ParseError(line_no, "expected `rootset <p> root=<v> <set>`")
            p = int(m.group(1))
            if p in sets:
                raise ParseError(line_no, f"rooted set {p} repeats")
            if m.group(2) not in name_to_id:
                raise ParseError(line_no, f"unknown vertex {m.group(2)!r}")
            roots[p] = name_to_id[m.group(2)]
            sets[p] = parse_set(m.group(3), line_no, name_to_id)
        elif head in ("del", "contract", "branchset"):
            raise ParseError(
                line_no, f"unexpected `{head}` record: a NO certificate in the older "
                "form, a minor's script and branch sets, is not read; it now gives "
                "three rooted sets"
            )
        elif head == "haven":
            raise ParseError(
                line_no, "unexpected `haven` record: havens are derived from "
                "the rooted sets, not read"
            )
        else:
            raise ParseError(line_no, f"unexpected record {head!r}")
    if kv.get("haven_order") != "3":
        raise ParseError(kv.line.get("haven_order"), "a NO certificate needs `haven_order=3`")
    return Dtw1Certificate("NO", None, RootedSets(kind, length, sets, roots))
