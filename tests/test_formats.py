"""Round trips and error reporting for the text interchange formats."""

from __future__ import annotations

import pytest

from dtwone.cycles import cycle_hypergraph
from dtwone.decomp import dtd_to_dbd, dbd_to_hbd
from dtwone.check import Dtw1Certificate, RootedSets
from dtwone.dtw1 import recognize_dtw1
from dtwone.formats import (
    FORMAT_VERSION,
    ParseError,
    digraph_hash,
    format_certificate,
    format_cycles,
    format_dbd,
    format_dtd,
    format_set,
    format_transcript,
    header_lines,
    parse_certificate,
    parse_dbd,
    parse_digraph,
    parse_dtd,
    parse_hypergraph,
    parse_set,
    read_document,
)
from dtwone.games import play_transcript, solve_game


def doc(*body):
    return "\n".join([FORMAT_VERSION, *body]) + "\n"


def hypergraph_lines(h):
    """The `v` and `e` lines that `parse_hypergraph` reads back as h: each
    edge lists its vertices in the order of the `v` line."""
    pos = {v: i for i, v in enumerate(h.vertices)}
    out = ["v " + " ".join(str(v) for v in h.vertices)] if h.vertices else []
    for e in h.edges:
        out.append("e " + " ".join(str(v) for v in sorted(e, key=pos.get)))
    return out


class TestDigraphParsing:
    def test_integer_tokens_dense_ids(self):
        d, names = parse_digraph("0 1\n1 0\n")
        assert d.n == 2 and set(d.edges) == {(0, 1), (1, 0)}
        assert names == ("0", "1")

    def test_identifiers_first_seen_order(self):
        d, names = parse_digraph("b a\na b\na c\nc a\n")
        assert names == ("b", "a", "c")
        assert (0, 1) in d.edges and (1, 2) in d.edges

    def test_comments_and_blanks(self):
        d, _ = parse_digraph("# a digon\n\n0 1  # forward\n1 0\n")
        assert d.n == 2 and len(d.edges) == 2

    @pytest.mark.parametrize(
        "text,lineno",
        [
            ("0\n", 1),
            ("0 1 2\n", 1),
            ("0 1\nx; y\n", 2),
            ("0 1\n1 1\n", 2),
        ],
    )
    def test_errors_carry_line_numbers(self, text, lineno):
        with pytest.raises(ParseError) as err:
            parse_digraph(text)
        assert f"line {lineno}" in str(err.value)

    def test_round_trip(self):
        d, names = parse_digraph("a b\nb c\nc a\n")
        lines = [f"{names[u]} {names[v]}" for (u, v) in d.sorted_edges()]
        d2, names2 = parse_digraph("\n".join(lines) + "\n")
        assert d2 == d and names2 == names

    def test_hash_forgets_names(self):
        d1, _ = parse_digraph("a b\nb a\n")
        d2, _ = parse_digraph("x y\ny x\n")
        d3, _ = parse_digraph("x y\ny x\nx z\nz x\n")
        assert digraph_hash(d1) == digraph_hash(d2) != digraph_hash(d3)
        assert digraph_hash(d1).startswith("sha256:")


class TestSetsAndDocuments:
    def test_set_round_trip(self):
        s = frozenset({2, 0, 5})
        assert format_set(s) == "{0,2,5}"
        assert parse_set("{0,2,5}", 1) == s
        assert parse_set("{}", 1) == frozenset()

    def test_set_with_names(self):
        names = ("a", "b", "c")
        lookup = {n: i for i, n in enumerate(names)}
        assert format_set(frozenset({2, 0}), names) == "{a,c}"
        assert parse_set("{a,c}", 1, lookup) == frozenset({0, 2})

    def test_header_and_document(self):
        d, _ = parse_digraph("0 1\n1 0\n")
        lines = header_lines("recognize", 7, cap=99, digest=digraph_hash(d))
        kv, records = read_document("\n".join(lines) + "\nnode 0 bag={}\n")
        assert kv["command"] == "recognize"
        assert kv["seed"] == "7"
        assert kv["cap"] == "99"
        assert kv["digraph"] == digraph_hash(d)
        assert records == [(6, "node 0 bag={}")]

    @pytest.mark.parametrize(
        "options, middle",
        [
            ({}, []),
            ({"cap": 55}, ["cap=55"]),
            ({"seed": 0}, ["seed=0"]),
            ({"seed": 3, "cap": 100000}, ["seed=3", "cap=100000"]),
        ],
    )
    def test_header_lines_write_seed_and_cap_only_when_given(self, options, middle):
        assert header_lines("x", **options) == [FORMAT_VERSION, "command=x", *middle]
        assert header_lines("x", **options, digest="abc") == [
            FORMAT_VERSION, "command=x", *middle, "digraph=abc"
        ]

    def test_version_line_required(self):
        with pytest.raises(ParseError):
            read_document("command=x\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ParseError):
            read_document(doc("seed=1", "seed=2"))

    def test_comment_lines_skipped(self):
        kv, records = read_document(doc("# note", "seed=1", "# more"))
        assert kv["seed"] == "1" and records == []


class TestDecompositionRecords:
    def digon_dtd(self):
        d, names = parse_digraph("0 1\n1 0\n")
        cert = recognize_dtw1(d)
        return d, names, cert.decomposition

    def test_dtd_round_trip(self):
        d, names, dec = self.digon_dtd()
        lines = format_dtd(dec, names)
        _, records = read_document(doc(*lines))
        back = parse_dtd(records, {n: i for i, n in enumerate(names)})
        assert sorted(back.nodes) == sorted(dec.nodes)
        assert sorted(back.arcs) == sorted(dec.arcs)
        assert back.bags == dec.bags and back.guards == dec.guards

    def test_dbd_round_trip(self):
        d, names, dec = self.digon_dtd()
        dbd = dtd_to_dbd(d, dec, 1000)
        lines = format_dbd(dbd, names)
        _, records = read_document(doc(*lines))
        back = parse_dbd(records, {n: i for i, n in enumerate(names)})
        assert sorted(back.nodes) == sorted(dbd.nodes)
        assert sorted(back.edges) == sorted(dbd.edges)
        assert back.leaf_label == dbd.leaf_label
        assert back.edge_sets == dbd.edge_sets

    def test_internal_node_with_bag_rejected(self):
        _, records = read_document(
            doc("node 0 bag={0}", "node 1 bag={1}", "node 2 bag={2}",
                "arc 0 1 guard={}", "arc 0 2 guard={}")
        )
        with pytest.raises(ParseError):
            parse_dbd(records, {"0": 0, "1": 1, "2": 2})

    def test_hbd_uses_integer_ids(self):
        d, names, dec = self.digon_dtd()
        dbd = dtd_to_dbd(d, dec, 1000)
        hbd = dbd_to_hbd(d, dbd, 1000)
        lines = format_dbd(hbd)
        assert all(line.startswith(("node ", "arc ")) for line in lines)
        # dual hyperedge indices, not vertex names
        import re

        for line in lines:
            for group in re.findall(r"\{([^}]*)\}", line):
                assert re.fullmatch(r"[0-9,]*", group), line

    def test_arc_to_unknown_node_rejected(self):
        _, records = read_document(doc("node 0 bag={}", "arc 0 9 guard={}"))
        with pytest.raises(ParseError):
            parse_dtd(records, {})

    def test_duplicate_node_rejected(self):
        _, records = read_document(doc("node 0 bag={}", "node 0 bag={}"))
        with pytest.raises(ParseError):
            parse_dtd(records, {})


class TestHypergraphFormat:
    def test_round_trip(self):
        h = parse_hypergraph("v a b c\ne a b\ne b c\n")
        lines = hypergraph_lines(h)
        h2 = parse_hypergraph("\n".join(lines) + "\n")
        assert sorted(h2.edges) == sorted(h.edges)

    @pytest.mark.parametrize(
        "text",
        [
            "v a a\ne a\n",          # repeated vertex
            "v a b\ne a c\n",        # unknown vertex in an edge
            "v a b\ne\n",            # empty edge
            "v a b\ne a\n",          # isolated vertex b
            "w a\n",                 # unknown record
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse_hypergraph(text)


class TestCyclesAndTranscripts:
    def test_cycle_lines(self):
        d, names = parse_digraph("a b\nb a\nb c\nc b\n")
        ch = cycle_hypergraph(d, 100)
        lines = format_cycles(ch, names)
        assert lines == ["c a b", "c b c"]

    def test_transcript_lines(self):
        d, names = parse_digraph("0 1\n1 0\n")
        result = solve_game(d, 2)
        assert result.cops_win
        moves = play_transcript(d, result.strategy)
        lines = format_transcript(moves, names)
        assert lines[0].startswith("move 0 cops={")
        assert lines[-1].endswith("robber={}")


class TestCertificates:
    def test_yes_round_trip(self):
        d, names = parse_digraph("0 1\n1 0\n")
        cert = recognize_dtw1(d)
        lines = format_certificate(cert, names, header_lines("recognize", digest=digraph_hash(d)))
        document = read_document("\n".join(lines) + "\n")
        back = parse_certificate(document, {n: i for i, n in enumerate(names)})
        assert document[0]["digraph"] == digraph_hash(d)
        assert back.verdict == "YES"
        assert back.decomposition.bags == cert.decomposition.bags

    def test_no_round_trip(self):
        d, names = parse_digraph("a b\nb a\nb c\nc b\nc a\na c\n")
        cert = recognize_dtw1(d)
        lines = format_certificate(cert, names, header_lines("recognize", digest=digraph_hash(d)))
        back = parse_certificate(read_document("\n".join(lines) + "\n"),
                                 {n: i for i, n in enumerate(names)})
        assert back == cert
        assert back.rooted_sets.kind == "bicycle" and back.rooted_sets.length == 3
        assert lines[-4:] == ["rootset 0 root=a {a}", "rootset 1 root=b {b}",
                              "rootset 2 root=c {c}", "haven_order=3"]
        assert not [line for line in lines if line.startswith("haven ")]

    def test_rooted_sets_round_trip(self):
        # serialization is exercised independently of the sets' soundness
        rooted = RootedSets(
            kind="bicycle",
            length=3,
            sets={0: frozenset({0, 3}), 1: frozenset({1}), 2: frozenset({2, 4})},
            roots={0: 3, 1: 1, 2: 4},
        )
        cert = Dtw1Certificate("NO", None, rooted)
        names = tuple("abcde")
        lines = format_certificate(cert, names, [FORMAT_VERSION])
        assert lines[4:7] == ["rootset 0 root=d {a,d}", "rootset 1 root=b {b}",
                              "rootset 2 root=e {c,e}"]
        back = parse_certificate(read_document("\n".join(lines) + "\n"),
                                 {n: i for i, n in enumerate(names)})
        assert back.rooted_sets == rooted

    @pytest.mark.parametrize("record", ["del a b", "contract b a", "branchset 0: {a}"])
    def test_the_older_no_form_is_refused(self, record):
        """A NO certificate that still gives a minor's script and branch
        sets is refused, and the message names the older form."""
        text = doc("verdict=NO", "pattern=bicycle", "length=3", record,
                   "rootset 0 root=a {a}", "haven_order=3")
        with pytest.raises(ParseError) as err:
            parse_certificate(read_document(text), {"a": 0, "b": 1})
        head = record.split()[0]
        assert str(err.value) == (
            f"line 5: unexpected `{head}` record: a NO certificate in the older "
            "form, a minor's script and branch sets, is not read; it now gives "
            "three rooted sets"
        )

    @pytest.mark.parametrize("record, message", [
        ("rootset 0 {a}", "line 4: expected `rootset <p> root=<v> <set>`"),
        ("rootset 0 root=a", "line 4: expected `rootset <p> root=<v> <set>`"),
        ("rootset \u00b3 root=a {a}", "line 4: expected `rootset <p> root=<v> <set>`"),
        ("rootset 0 root=z {a}", "line 4: unknown vertex 'z'"),
        ("rootset 0 root=a {a,z}", "line 4: unknown vertex 'z'"),
    ], ids=["no-root", "no-set", "superscript", "unknown-root", "unknown-member"])
    def test_a_malformed_rootset_names_its_line(self, record, message):
        text = doc("verdict=NO", "pattern=a4", record, "haven_order=3")
        with pytest.raises(ParseError) as err:
            parse_certificate(read_document(text), {"a": 0, "b": 1})
        assert str(err.value) == message

    def test_bicycle_requires_length(self):
        text = doc("verdict=NO", "pattern=bicycle", "rootset 0 root=0 {0}",
                   "haven_order=3")
        with pytest.raises(ParseError, match="length"):
            parse_certificate(read_document(text), {"0": 0})

    @pytest.mark.parametrize("digit", ["\u00b3", "\uff13"], ids=["superscript", "fullwidth"])
    def test_length_takes_ascii_digits_only(self, digit):
        """`length=³` used to reach `int()` and fail without a line number,
        and `length=３` (fullwidth) read as 3."""
        text = doc("verdict=NO", "pattern=bicycle", f"length={digit}",
                   "rootset 0 root=0 {0}", "haven_order=3")
        with pytest.raises(ParseError, match="line 4: a bicycle pattern needs") as err:
            parse_certificate(read_document(text), {"0": 0})
        assert err.value.line == 4

    @pytest.mark.parametrize("record", ["node \u00b3 bag={0}", "node \uff13 bag={0}",
                                        "arc \u00b3 0 guard={}", "arc 0 \uff13 guard={}"])
    def test_node_and_arc_ids_take_ascii_digits_only(self, record):
        text = doc("verdict=YES", "node 0 bag={0}", record)
        with pytest.raises(ParseError, match="line 4: expected `(node|arc) ") as err:
            parse_certificate(read_document(text), {"0": 0})
        assert err.value.line == 4

    @pytest.mark.parametrize("record,field", [("node 1 bog={0}", "bag"),
                                              ("arc 0 1 gaurd={}", "guard")])
    def test_a_misnamed_field_is_named(self, record, field):
        text = doc("verdict=YES", "node 0 bag={0}", record)
        with pytest.raises(ParseError) as err:
            parse_certificate(read_document(text), {"0": 0})
        assert str(err.value) == f"line 4: expected `{field}=<set>`"

    @pytest.mark.parametrize("digit", ["\u00b3", "\uff13"], ids=["superscript", "fullwidth"])
    def test_integer_sets_take_ascii_digits_only(self, digit):
        with pytest.raises(ParseError, match="line 7: expected an integer"):
            parse_set("{1," + digit + "}", 7)

    def test_misplaced_length_and_wrong_haven_order_name_their_lines(self):
        text = doc("verdict=NO", "pattern=a4", "length=4", "haven_order=3")
        with pytest.raises(ParseError, match="line 4: only bicycle patterns carry a length"):
            parse_certificate(read_document(text), {})
        text = doc("verdict=NO", "pattern=a4", "haven_order=2")
        with pytest.raises(ParseError, match="line 4: a NO certificate needs `haven_order=3`"):
            parse_certificate(read_document(text), {})

    def test_unknown_verdict_rejected(self):
        with pytest.raises(ParseError):
            parse_certificate(read_document(doc("verdict=MAYBE")), {})

    def test_duplicate_rootset_rejected(self):
        text = doc("verdict=NO", "pattern=a4", "rootset 0 root=0 {0}",
                   "rootset 0 root=1 {1}", "haven_order=3")
        with pytest.raises(ParseError, match="line 5: rooted set 0 repeats"):
            parse_certificate(read_document(text), {"0": 0, "1": 1})
