"""Document layer: round trips, canonical layout, and parse failures."""

import copy
import json
import random
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spohn import (
    INF,
    OCF,
    DocumentError,
    EvidenceSpec,
    InfluenceDiagram,
    InvalidTarget,
    SpaceMismatch,
    SpohnianNetwork,
    StateSpace,
    Variable,
    parse_evidence,
    parse_network,
    propagate,
    serialize_network,
)

from generators import random_instance, random_value_evidence

DOCS = Path(__file__).resolve().parent.parent / "docs"


def doc_dict(net):
    return json.loads(serialize_network(net))


def json_error(text):
    """The running interpreter's json.loads message for text, with its line
    and column. From Python 3.13 a trailing comma is reported at the comma,
    as "Illegal trailing comma before end of array" (or "of object")."""
    with pytest.raises(json.JSONDecodeError) as caught:
        json.loads(text)
    exc = caught.value
    return f"{exc.msg} (line {exc.lineno}, column {exc.colno})"


def permuted_orders(doc, rng):
    """The document with every table of two or more variables rewritten in
    a random order of its variables."""
    variables = {v["name"]: Variable(v["name"], tuple(v["domain"])) for v in doc["variables"]}
    out = copy.deepcopy(doc)
    for entry in out["tables"].values():
        order = entry["order"][:]
        rng.shuffle(order)
        given = StateSpace(tuple(variables[n] for n in entry["order"]))
        wanted = StateSpace(tuple(variables[n] for n in order))
        entry["ranks"] = [
            entry["ranks"][given.index_of(dict(zip(order, state)))] for state in wanted.states()
        ]
        entry["order"] = order
    return out


def built_by_hand(doc):
    """The document's network built through the public constructors only."""
    variables = tuple(Variable(v["name"], tuple(v["domain"])) for v in doc["variables"])
    diagram = InfluenceDiagram(variables, tuple(tuple(e) for e in doc["edges"]))
    tables = {}
    for node, entry in doc["tables"].items():
        ranks = [INF if r == "inf" else r for r in entry["ranks"]]
        given = StateSpace(tuple(diagram.variable(n) for n in entry["order"]))
        family = StateSpace(tuple(diagram.variable(n) for n in diagram.family_variables(node)))
        cells = [ranks[given.index_of(dict(zip(family.names, s)))] for s in family.states()]
        tables[node] = OCF(family, tuple(cells))
    return SpohnianNetwork(diagram, tables)


class TestRoundTrip:
    def test_parse_serialize_parse_is_identity(self, five_node_net):
        text = serialize_network(five_node_net)
        parsed = parse_network(text)
        assert parsed == five_node_net
        assert serialize_network(parsed) == text

    def test_the_cold_path_builds_no_digit_map_and_no_joint_space(self):
        # Parse, validate, propagate and serialize: each family space keeps
        # its layout in slots, no instance dict, and the parse builds no
        # name positions. Only the observed family's space builds its
        # per-value digit maps, to read the evidence's values; nothing
        # builds the diagram's joint space.
        rng = random.Random(71)
        for n in (1, 4, 12, 40):
            net = parse_network(serialize_network(random_instance(rng, n)))
            spaces = [table.space for table in net.tables.values()]
            assert all(space._positions is None for space in spaces)
            assert net.validate().ok
            assert all(space._digit_maps is None for space in spaces)
            evidence = random_value_evidence(rng, net)
            out = propagate(net, [evidence])
            serialize_network(out)
            spaces += [table.space for table in out.tables.values()]
            for space in spaces:
                assert not hasattr(space, "__dict__")
                assert space._digit_maps is None or space.names == (evidence.variable,)
            assert "space" not in net.diagram.__dict__
            assert "_children" not in net.diagram.__dict__

    def test_parsed_family_spaces_are_the_public_constructors_spaces(self):
        # The parser lays out each family's space without re-checking the
        # names the diagram has checked; slot for slot it is StateSpace's.
        rng = random.Random(83)
        texts = []
        for n in (1, 3, 12, 60):
            text = serialize_network(random_instance(rng, n, p_inf=0.25))
            for d in (json.loads(text), permuted_orders(json.loads(text), rng)):
                texts.append(json.dumps(d))
                parsed = parse_network(texts[-1])
                families = parsed.diagram._families
                for node, table in parsed.tables.items():
                    space, want = table.space, StateSpace(families[node][1])
                    assert space._positions is None
                    for slot in ("variables", "names", "_position", "size", "strides"):
                        assert getattr(space, slot) == getattr(want, slot)
                    # Built on first use, to its definition, and kept.
                    assert space._position == {v.name: i for i, v in enumerate(space.variables)}
                    assert space._positions is space._position
                    assert space._proj_cache == {} and space._digit_maps is None
                    assert not hasattr(space, "__dict__")
                assert parsed == built_by_hand(d)
                assert serialize_network(parsed) == text
        assert '"inf"' in texts[-1] and texts[-1] != texts[-2]

    def test_a_table_over_another_space_is_still_refused(self):
        rng = random.Random(89)
        net = parse_network(serialize_network(random_instance(rng, 12, p_detach=0.0)))
        for node in net.diagram.names:
            table = net.tables[node]
            family = net.diagram.family_variables(node)
            wider = tuple(Variable(v.name, v.domain + ("extra",)) for v in table.space.variables)
            others = [StateSpace(wider)]
            if len(family) > 1:
                others.append(StateSpace(table.space.variables[::-1]))
            for space in others:
                tables = dict(net.tables)
                tables[node] = OCF(space, (0,) * space.size)
                with pytest.raises(SpaceMismatch) as caught:
                    SpohnianNetwork(net.diagram, tables)
                assert str(caught.value) == (
                    f"table for {node} is over {space.names}, expected {family}"
                )

    def test_infinite_ranks_survive(self, penguin_space):
        a = Variable("A", ("a0", "a1"))
        dia = InfluenceDiagram((a,), ())
        net = SpohnianNetwork(dia, {"A": OCF(StateSpace((a,)), (0, INF))})
        text = serialize_network(net)
        assert '"inf"' in text
        assert parse_network(text) == net

    def test_permuted_table_order_is_remapped(self, five_node_net):
        doc = doc_dict(five_node_net)
        old = doc["tables"]["D"]["ranks"]
        # canonical layout is (B, C, D) row-major; rewrite it as (D, B, C)
        permuted = [
            old[b * 4 + c * 2 + d]
            for d in range(2)
            for b in range(2)
            for c in range(2)
        ]
        doc["tables"]["D"] = {"order": ["D", "B", "C"], "ranks": permuted}
        parsed = parse_network(json.dumps(doc))
        assert parsed == five_node_net
        # the serializer always emits declaration order
        assert parse_network(serialize_network(parsed)).tables["D"].space.names == (
            "B",
            "C",
            "D",
        )

    def test_parse_checks_each_cell_once(self, five_node_net, monkeypatch):
        # The parser checks every cell itself, so it builds its tables
        # without OCF.__post_init__ checking them again: valid documents with
        # INF cells and with a permuted order included.
        rng = random.Random(31)
        nets = [five_node_net] + [random_instance(rng, 12, p_inf=0.2) for _ in range(6)]
        texts = [serialize_network(net) for net in nets]
        doc = doc_dict(five_node_net)
        old = doc["tables"]["D"]["ranks"]
        permuted = [old[b * 4 + c * 2 + d] for d in range(2) for c in range(2) for b in range(2)]
        doc["tables"]["D"] = {"order": ["D", "C", "B"], "ranks": permuted}
        texts.append(json.dumps(doc))
        nets.append(five_node_net)
        real = OCF.__post_init__
        calls = 0

        def counted(self):
            nonlocal calls
            calls += 1
            real(self)

        monkeypatch.setattr(OCF, "__post_init__", counted)
        parsed = [parse_network(text) for text in texts]
        assert calls == 0
        monkeypatch.undo()
        assert parsed == nets
        assert any(INF in t.ranks for net in parsed for t in net.tables.values())

    def test_shipped_sample_documents_load(self):
        penguin = parse_network((DOCS / "penguin.json").read_text())
        five = parse_network((DOCS / "five_node.json").read_text())
        assert penguin.validate().ok
        assert five.validate().ok
        for name, net in [
            ("evidence_bird.json", penguin),
            ("evidence_penguin.json", penguin),
            ("evidence_certain.json", five),
            ("evidence_target.json", five),
        ]:
            assert parse_evidence((DOCS / name).read_text(), net)

    def test_cyclic_document_parses_but_fails_validation(self):
        doc = {
            "variables": [
                {"name": "A", "domain": ["a0", "a1"]},
                {"name": "B", "domain": ["b0", "b1"]},
            ],
            "edges": [["A", "B"], ["B", "A"]],
            "tables": {
                "A": {"order": ["B", "A"], "ranks": [0, 0, 0, 0]},
                "B": {"order": ["A", "B"], "ranks": [0, 0, 0, 0]},
            },
        }
        net = parse_network(json.dumps(doc))
        assert not net.validate().ok


def json_module_layout(net):
    """The canonical document as json.dumps(indent=2) lays it out: the
    reference the hand-written serializer must match byte for byte."""
    doc = {
        "variables": [{"name": v.name, "domain": list(v.domain)} for v in net.diagram.variables],
        "edges": [[a, b] for a, b in net.diagram.edges],
        "tables": {
            node: {
                "order": list(net.tables[node].space.names),
                "ranks": ["inf" if r is INF else r for r in net.tables[node].ranks],
            }
            for node in net.diagram.names
        },
    }
    return json.dumps(doc, indent=2) + "\n"


class TestSerializerLayout:
    def test_no_edges(self):
        a, b = Variable("A", ("a0", "a1")), Variable("B", ("b0", "b1", "b2"))
        net = SpohnianNetwork(
            InfluenceDiagram((a, b), ()),
            {"A": OCF(StateSpace((a,)), (0, 3)), "B": OCF(StateSpace((b,)), (1, 0, 2))},
        )
        text = serialize_network(net)
        assert '\n  "edges": [],\n' in text
        assert text == json_module_layout(net)

    def test_infinite_cells(self):
        a, b = Variable("A", ("a0", "a1")), Variable("B", ("b0", "b1"))
        net = SpohnianNetwork(
            InfluenceDiagram((a, b), (("A", "B"),)),
            {
                "A": OCF(StateSpace((a,)), (0, INF)),
                "B": OCF(StateSpace((a, b)), (0, INF, INF, INF)),
            },
        )
        text = serialize_network(net)
        assert '        "inf"' in text
        assert text == json_module_layout(net)
        assert parse_network(text) == net

    def test_names_and_values_that_need_escaping(self):
        odd = Variable('sa"y \\ hi', ("café", "☃", 'q"'))
        plain = Variable("nün", ("x", "a\\b"))
        net = SpohnianNetwork(
            InfluenceDiagram((odd, plain), ((odd.name, plain.name),)),
            {
                odd.name: OCF(StateSpace((odd,)), (0, 1, INF)),
                plain.name: OCF(StateSpace((odd, plain)), (0, 1, 1, 2, INF, INF)),
            },
        )
        text = serialize_network(net)
        assert '"sa\\"y \\\\ hi"' in text and '"caf\\u00e9"' in text
        assert text.isascii()
        assert text == json_module_layout(net)
        assert parse_network(text) == net

    def test_generated_networks(self):
        rng = random.Random(71)
        for _ in range(60):
            net = random_instance(rng, rng.randint(1, 7), p_inf=0.2, p_detach=rng.random())
            assert serialize_network(net) == json_module_layout(net)

    def test_a_rank_past_the_digit_limit_is_a_document_error(self):
        # Every input rank has exactly as many digits as str() allows, so the
        # network parses, validates and serializes; learning a0 at a finite
        # strength lifts B's a1 row past the limit.
        limit = sys.get_int_max_str_digits()
        five, nine = 5 * 10 ** (limit - 1), 9 * 10 ** (limit - 1)
        a, b = Variable("A", ("a0", "a1")), Variable("B", ("b0", "b1"))
        net = SpohnianNetwork(
            InfluenceDiagram((a, b), (("A", "B"),)),
            {
                "A": OCF(StateSpace((a,)), (0, five)),
                "B": OCF(StateSpace((a, b)), (0, 0, five, nine)),
            },
        )
        assert net.validate().ok
        assert parse_network(serialize_network(net)) == net
        evidence = [EvidenceSpec("A", values=("a0",), strength=99 * 10 ** (limit - 2))]
        out = propagate(net, evidence)
        assert out.tables["A"].ranks == (0, 99 * 10 ** (limit - 2))
        message = f"^table for B holds a rank of more than {limit} digits, too long to write$"
        with pytest.raises(DocumentError, match=message) as err:
            serialize_network(out)
        assert isinstance(err.value.__cause__, ValueError)


class TestNetworkParseErrors:
    def base(self, five_node_net):
        return doc_dict(five_node_net)

    def test_invalid_json_reports_location(self, penguin_net):
        with pytest.raises(DocumentError) as caught:
            parse_network("{")
        assert str(caught.value) == f"network document is not valid JSON: {json_error('{')}"
        trailing = '{"evidence": [\n  1,\n]}'
        with pytest.raises(DocumentError) as caught:
            parse_evidence(trailing, penguin_net)
        assert str(caught.value) == f"evidence document is not valid JSON: {json_error(trailing)}"

    def test_deeply_nested_json_is_a_document_error(self, penguin_net):
        deep = "[" * 100000
        with pytest.raises(DocumentError, match="network document is nested too deeply"):
            parse_network(deep)
        with pytest.raises(DocumentError, match="evidence document is nested too deeply"):
            parse_evidence(deep, penguin_net)

    def test_an_integer_past_the_digit_limit_is_a_document_error(self, penguin_net):
        limit = sys.get_int_max_str_digits()
        huge = "1" * (limit + 700)
        message = f"document holds an integer of more than {limit} digits"
        with pytest.raises(DocumentError, match=f"network {message}"):
            parse_network(f"[{huge}]")
        evidence = f'{{"evidence": [{{"variable": "species", "values": ["PENGUIN"], "strength": {huge}}}]}}'
        with pytest.raises(DocumentError, match=f"evidence {message}"):
            parse_evidence(evidence, penguin_net)

    def test_a_repeated_table_key_keeps_its_last_value(self):
        # JSON leaves repeated keys open; the json module keeps the last, and
        # so does the parser: a bogus first "A" is overridden, not refused.
        text = (DOCS / "five_node.json").read_text()
        bogus = '"tables": {\n    "A": {"order": ["A"], "ranks": [7, 7, 7]},'
        doubled = text.replace('"tables": {', bogus, 1)
        assert doubled.count('"A": {"order"') == 2
        net = parse_network(doubled)
        assert net.validate().ok
        assert net == parse_network(text)
        assert serialize_network(net) == serialize_network(parse_network(text))

    def test_top_level_must_be_object(self):
        with pytest.raises(DocumentError, match="JSON object"):
            parse_network("[]")

    def test_unknown_top_level_key(self, five_node_net):
        doc = self.base(five_node_net)
        doc["notes"] = "x"
        with pytest.raises(DocumentError, match=r"unknown keys \['notes'\]"):
            parse_network(json.dumps(doc))

    def test_missing_top_level_key(self, five_node_net):
        doc = self.base(five_node_net)
        del doc["tables"]
        with pytest.raises(DocumentError, match=r"missing keys \['tables'\]"):
            parse_network(json.dumps(doc))

    def test_empty_variables(self, five_node_net):
        doc = self.base(five_node_net)
        doc["variables"] = []
        with pytest.raises(DocumentError, match="non-empty list"):
            parse_network(json.dumps(doc))

    def test_duplicate_domain_values(self, five_node_net):
        doc = self.base(five_node_net)
        doc["variables"][0]["domain"] = ["a0", "a0"]
        with pytest.raises(DocumentError, match=r"variables\[0\]"):
            parse_network(json.dumps(doc))

    def test_repeated_variable_name(self, five_node_net):
        # Reported at the repeated entry, not under "edges:", where the
        # diagram's own check would put it.
        doc = self.base(five_node_net)
        doc["variables"].insert(1, {"name": "A", "domain": ["x", "y", "z"]})
        with pytest.raises(DocumentError, match=r"^variables\[1\]: duplicate variable name 'A'$"):
            parse_network(json.dumps(doc))

    def test_edges_must_be_a_list(self, five_node_net):
        doc = self.base(five_node_net)
        doc["edges"] = {"A": "B"}
        with pytest.raises(DocumentError, match="^edges: expected a list$"):
            parse_network(json.dumps(doc))

    def test_malformed_edge(self, five_node_net):
        doc = self.base(five_node_net)
        doc["edges"][0] = ["A"]
        with pytest.raises(DocumentError, match=r"edges\[0\]"):
            parse_network(json.dumps(doc))

    def test_edge_to_unknown_node(self, five_node_net):
        doc = self.base(five_node_net)
        doc["edges"][0] = ["A", "Z"]
        with pytest.raises(DocumentError, match="edges"):
            parse_network(json.dumps(doc))

    def test_missing_table(self, five_node_net):
        doc = self.base(five_node_net)
        del doc["tables"]["A"]
        with pytest.raises(DocumentError, match=r"missing table for \['A'\]"):
            parse_network(json.dumps(doc))

    def test_table_for_unknown_node(self, five_node_net):
        doc = self.base(five_node_net)
        doc["tables"]["Z"] = {"order": ["Z"], "ranks": [0]}
        with pytest.raises(DocumentError, match=r"unknown nodes \['Z'\]"):
            parse_network(json.dumps(doc))

    def test_order_must_be_family_permutation(self, five_node_net):
        doc = self.base(five_node_net)
        doc["tables"]["D"]["order"] = ["B", "C"]
        with pytest.raises(DocumentError, match="permutation"):
            parse_network(json.dumps(doc))

    def test_order_entries_must_be_names(self, five_node_net):
        doc = self.base(five_node_net)
        doc["tables"]["D"]["order"] = [["B"], "C", "D"]
        with pytest.raises(DocumentError, match="permutation"):
            parse_network(json.dumps(doc))

    def test_wrong_rank_count(self, five_node_net):
        doc = self.base(five_node_net)
        doc["tables"]["D"]["ranks"] = [0, 1, 2]
        with pytest.raises(DocumentError, match="expected 8 entries"):
            parse_network(json.dumps(doc))

    def test_a_wide_family_is_refused_by_its_length_before_any_allocation(self):
        parents = [f"P{i}" for i in range(40)]
        doc = json.dumps({
            "variables": [{"name": x, "domain": ["0", "1"]} for x in parents + ["C"]],
            "edges": [[p, "C"] for p in parents],
            "tables": {
                **{p: {"order": [p], "ranks": [0, 0]} for p in parents},
                "C": {"order": parents + ["C"], "ranks": [0]},
            },
        })
        tracemalloc.start()
        try:
            with pytest.raises(DocumentError) as caught:
                parse_network(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(caught.value) == "tables.C.ranks: expected 2199023255552 entries, got 1"
        assert peak < 2**20, peak

    def test_a_huge_domain_with_a_one_cell_table_is_refused(self):
        domain = ", ".join(f'"{i}"' for i in range(10**6))
        doc = f'{{"variables": [{{"name": "A", "domain": [{domain}]}}], "edges": [], "tables": {{"A": {{"order": ["A"], "ranks": [0]}}}}}}'
        with pytest.raises(DocumentError) as caught:
            parse_network(doc)
        assert str(caught.value) == "tables.A.ranks: expected 1000000 entries, got 1"

    @pytest.mark.parametrize("bad, shown", [("NaN", "nan"), ("1e400", "inf")])
    def test_json_floats_past_the_integers_are_refused(self, bad, shown):
        doc = '{"variables": [{"name": "A", "domain": ["a0", "a1"]}], "edges": [], "tables": {"A": {"order": ["A"], "ranks": [0, %s]}}}'
        with pytest.raises(DocumentError) as caught:
            parse_network(doc % bad)
        assert str(caught.value) == f'tables.A.ranks[1]: expected a non-negative integer or "inf", got {shown}'

    def test_an_empty_domain_is_refused(self):
        doc = {"variables": [{"name": "A", "domain": []}], "edges": [], "tables": {"A": {"order": ["A"], "ranks": []}}}
        with pytest.raises(DocumentError) as caught:
            parse_network(json.dumps(doc))
        assert str(caught.value) == "variables[0]: variable 'A' needs at least two values"

    @pytest.mark.parametrize("bad", [-1, 1.5, True, "infinite", None])
    def test_rank_entries_must_be_counting_numbers_or_inf(self, five_node_net, bad):
        doc = self.base(five_node_net)
        doc["tables"]["A"]["ranks"] = [0, bad]
        with pytest.raises(DocumentError, match=r"tables\.A\.ranks\[1\]"):
            parse_network(json.dumps(doc))

    @pytest.mark.parametrize("bad", [-1, 1.5, True, False, "INF", None, [0]])
    @pytest.mark.parametrize("at", [0, 3, 7])
    @pytest.mark.parametrize("with_inf", [False, True])
    def test_each_bad_cell_is_named_by_its_position(self, five_node_net, bad, at, with_inf):
        # Tables of plain non-negative ints skip the per-cell parse; any other
        # cell, with or without an "inf" beside it, is named exactly.
        doc = self.base(five_node_net)
        ranks = doc["tables"]["D"]["ranks"]
        if with_inf:
            ranks[(at - 1) % len(ranks)] = "inf"
        ranks[at] = bad
        with pytest.raises(DocumentError) as caught:
            parse_network(json.dumps(doc))
        assert str(caught.value) == (
            f'tables.D.ranks[{at}]: expected a non-negative integer or "inf", got {bad!r}'
        )

    def test_a_table_of_booleans_is_refused(self, five_node_net):
        doc = self.base(five_node_net)
        doc["tables"]["D"]["ranks"] = [True, False] * 4
        with pytest.raises(DocumentError, match=r"^tables\.D\.ranks\[0\]: .* got True$"):
            parse_network(json.dumps(doc))

    def test_table_without_a_zero_names_the_node(self, five_node_net):
        # Integer cells, "inf" cells and permuted orders alike.
        for node, order, ranks in [
            ("C", ["C"], [1, 3]),
            ("C", ["C"], ["inf", 2]),
            ("C", ["C"], ["inf", "inf"]),
            ("D", ["D", "C", "B"], [4, "inf", 1, 2, 3, 3, 1, 5]),
            ("D", ["C", "D", "B"], [4, 2, 1, 2, 3, 3, 1, 5]),
        ]:
            doc = self.base(five_node_net)
            doc["tables"][node] = {"order": order, "ranks": ranks}
            with pytest.raises(DocumentError) as caught:
                parse_network(json.dumps(doc))
            assert str(caught.value) == f"tables.{node}: table has no rank-0 entry"

    @pytest.mark.parametrize("path, value, text", [
        # variables[i]: the record, its keys, its name and domain, the Variable
        (("variables", 2), "C", "variables[2]: expected an object"),
        (("variables", 2, "label"), "x", "variables[2]: unknown keys ['label']"),
        (("variables", 2, "domain"), None, "variables[2]: missing keys ['domain']"),
        (("variables", 2, "name"), 3, "variables[2].name: expected a string"),
        (("variables", 2, "domain"), "c0c1", "variables[2].domain: expected a list of strings"),
        (("variables", 2, "domain"), ["c0", 1], "variables[2].domain: expected a list of strings"),
        (("variables", 2, "domain"), ["c0", "c0"], "variables[2]: variable 'C' has duplicate values"),
        (("variables", 2, "domain"), ["c0"], "variables[2]: variable 'C' needs at least two values"),
        (("variables", 0, "name"), "", "variables[0]: variable name must be non-empty"),
        # tables.X: the record, its keys, its order, its ranks and its cells
        (("tables", "D"), [0], "tables.D: expected an object"),
        (("tables", "D", "note"), "x", "tables.D: unknown keys ['note']"),
        (("tables", "D", "order"), None, "tables.D: missing keys ['order']"),
        (("tables", "D", "order"), ["B", "C"],
         "tables.D.order: expected a permutation of ['B', 'C', 'D'], got ['B', 'C']"),
        (("tables", "D", "order"), "BCD",
         "tables.D.order: expected a permutation of ['B', 'C', 'D'], got 'BCD'"),
        (("tables", "E", "order"), [["C"], "E"],
         "tables.E.order: expected a permutation of ['C', 'E'], got [['C'], 'E']"),
        (("tables", "D", "ranks"), [0, 1, 2], "tables.D.ranks: expected 8 entries, got 3"),
        (("tables", "D", "ranks"), "0", "tables.D.ranks: expected 8 entries, got str"),
        (("tables", "B", "ranks", 3), -1,
         'tables.B.ranks[3]: expected a non-negative integer or "inf", got -1'),
        (("tables", "B", "ranks", 0), "INF",
         "tables.B.ranks[0]: expected a non-negative integer or \"inf\", got 'INF'"),
        (("tables", "E", "ranks", 0), 5, "tables.E: table has no rank-0 entry"),
    ])
    def test_each_located_error_keeps_its_exact_text(self, five_node_net, path, value, text):
        # One edit to the five-node document (None deletes the key); the
        # record's location string is part of each message.
        doc = record = self.base(five_node_net)
        *parents, last = path
        for key in parents:
            record = record[key]
        if value is None:
            del record[last]
        else:
            record[last] = value
        with pytest.raises(DocumentError) as caught:
            parse_network(json.dumps(doc))
        assert str(caught.value) == text


class TestEvidenceParsing:
    def test_value_entries(self, penguin_net):
        text = json.dumps(
            {
                "evidence": [
                    {
                        "variable": "species",
                        "values": ["PENGUIN", "TYPICAL-BIRD"],
                        "strength": 1,
                    }
                ]
            }
        )
        (spec,) = parse_evidence(text, penguin_net)
        assert spec.variable == "species"
        assert spec.values == ("PENGUIN", "TYPICAL-BIRD")
        assert spec.strength == 1
        assert spec.target is None

    def test_infinite_and_negative_strengths(self, penguin_net):
        text = json.dumps(
            {
                "evidence": [
                    {"variable": "species", "values": ["PENGUIN"], "strength": "inf"},
                    {"variable": "species", "values": ["PENGUIN"], "strength": -2},
                ]
            }
        )
        certain, signed = parse_evidence(text, penguin_net)
        assert certain.strength is INF
        assert signed.strength == -2

    def test_target_entries(self, five_node_net):
        text = json.dumps(
            {"evidence": [{"variable": "C", "target": [2, 0]}]}
        )
        (spec,) = parse_evidence(text, five_node_net)
        assert spec.values is None
        assert spec.target == (2, 0)

    def test_infinite_target_entries(self, five_node_net):
        text = json.dumps(
            {"evidence": [{"variable": "C", "target": [0, "inf"]}]}
        )
        (spec,) = parse_evidence(text, five_node_net)
        assert spec.target == (0, INF)

    @pytest.mark.parametrize(
        "entry, expect",
        [
            ({"variable": "C"}, "exactly one of values or target"),
            (
                {"variable": "C", "values": ["c0"], "target": [0, 1], "strength": 0},
                "exactly one of values or target",
            ),
            ({"variable": "C", "values": ["c0"]}, "needs a strength"),
            (
                {"variable": "C", "target": [0, 1], "strength": 2},
                "takes no strength",
            ),
            ({"variable": "Z", "values": ["c0"], "strength": 0}, r"evidence\[0\]\.variable"),
            ({"variable": "C", "values": ["zz"], "strength": 0}, "not a value of"),
            ({"variable": "C", "values": [], "strength": 0}, "non-empty list"),
            ({"variable": "C", "target": [0]}, "expected 2 entries"),
            ({"variable": "C", "values": ["c0"], "strength": 0, "note": 1}, "unknown keys"),
        ],
    )
    def test_malformed_entries(self, five_node_net, entry, expect):
        with pytest.raises(DocumentError, match=expect):
            parse_evidence(json.dumps({"evidence": [entry]}), five_node_net)

    def test_target_needs_a_zero(self, five_node_net):
        text = json.dumps({"evidence": [{"variable": "C", "target": [1, 2]}]})
        with pytest.raises(InvalidTarget, match="no entry has rank 0"):
            parse_evidence(text, five_node_net)

    def test_empty_evidence_list(self, five_node_net):
        with pytest.raises(DocumentError, match="non-empty"):
            parse_evidence(json.dumps({"evidence": []}), five_node_net)

    def test_top_level_shape(self, five_node_net):
        with pytest.raises(DocumentError, match="JSON object"):
            parse_evidence("[]", five_node_net)


# Mutation fuzz of the shipped five-node documents. Each example applies up
# to three edits (replace, delete, duplicate or insert a node of the JSON
# tree) and may truncate the text; derandomized, so every run replays the
# same examples.
FUZZ = settings(
    derandomize=True,
    database=None,
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
FUZZ_NAMES = [
    "A", "B", "C", "D", "E", "Z", "", "inf", "a0", "b1", "c0", "c1", "e1",
    "variables", "edges", "tables", "name", "domain", "order", "ranks",
    "evidence", "variable", "values", "target", "strength",
]
FUZZ_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 8)
    | st.sampled_from([1.5, 1e300, -0.0])
    | st.sampled_from(FUZZ_NAMES),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(FUZZ_NAMES), inner, max_size=3),
    max_leaves=8,
)


def _slots(node, out):
    if isinstance(node, dict):
        for key, value in node.items():
            out.append((node, key))
            _slots(value, out)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            out.append((node, i))
            _slots(value, out)
    return out


def _mutated_text(data, path):
    doc = json.loads(path.read_text())
    for _ in range(data.draw(st.integers(1, 3))):
        slots = _slots(doc, [])
        if not slots:
            break
        parent, key = data.draw(st.sampled_from(slots))
        op = data.draw(st.sampled_from(["replace", "delete", "duplicate", "insert"]))
        if op == "replace":
            parent[key] = data.draw(FUZZ_VALUES)
        elif op == "delete":
            del parent[key]
        elif isinstance(parent, list):
            item = copy.deepcopy(parent[key]) if op == "duplicate" else data.draw(FUZZ_VALUES)
            parent.insert(key, item)
        else:
            item = copy.deepcopy(parent[key]) if op == "duplicate" else data.draw(FUZZ_VALUES)
            parent[data.draw(st.sampled_from(FUZZ_NAMES))] = item
    text = json.dumps(doc)
    cut = data.draw(st.none() | st.integers(0, len(text)))
    return text if cut is None else text[:cut]


class TestMutationFuzz:
    @FUZZ
    @given(st.data())
    def test_network_parses_or_fails_cleanly(self, data):
        text = _mutated_text(data, DOCS / "five_node.json")
        try:
            net = parse_network(text)
        except DocumentError:
            return
        assert isinstance(net, SpohnianNetwork)

    @FUZZ
    @given(st.data(), st.sampled_from(["evidence_certain.json", "evidence_target.json"]))
    def test_evidence_parses_or_fails_cleanly(self, data, name):
        net = parse_network((DOCS / "five_node.json").read_text())
        text = _mutated_text(data, DOCS / name)
        try:
            evidence = parse_evidence(text, net)
        except (DocumentError, InvalidTarget):
            return
        assert evidence and all(ev.variable in net.diagram.names for ev in evidence)
