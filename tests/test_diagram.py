import random

import pytest

from spohn import InfluenceDiagram, Variable, parse_network, serialize_network
from spohn.diagram import ValidationReport
from spohn.errors import UnknownVariable

from generators import random_diagram, random_instance, topological


def v(name):
    return Variable(name, (name.lower() + "0", name.lower() + "1"))


def diagram(edges, names="ABCDE"):
    used = sorted({n for e in edges for n in e}, key=names.index)
    return InfluenceDiagram(tuple(v(n) for n in used), tuple(edges))


@pytest.fixture
def polytree():
    # A -> B, B -> D, C -> D, C -> E
    return diagram([("A", "B"), ("B", "D"), ("C", "D"), ("C", "E")])


def test_accessors(polytree):
    assert polytree.parents("D") == ("B", "C")
    assert polytree.children("C") == ("D", "E")
    assert polytree.neighbors("B") == ("A", "D")
    assert polytree.family_variables("D") == ("B", "C", "D")
    assert polytree.incident_edges("C") == (("C", "D"), ("C", "E"))
    assert polytree.ancestors("D") == ("A", "B", "C")
    assert polytree.ancestors("A") == ()


def test_family_variables_is_the_declaration_order_scan():
    def scan(d, child):
        members = {*d.parents(child), child}
        return tuple(n for n in d.names if n in members)

    rng = random.Random(7)
    for _ in range(60):
        base = random_diagram(rng, rng.randint(1, 12), p_detach=0.2)
        declared = list(base.variables)
        rng.shuffle(declared)
        for d in (base, InfluenceDiagram(tuple(declared), base.edges)):
            for child in d.names:
                assert d.family_variables(child) == scan(d, child)


def test_family_variables_edge_cases():
    # Child declared before its parents, and a constructible self-loop.
    d = InfluenceDiagram((v("D"), v("B"), v("A")), (("A", "D"), ("B", "D")))
    assert d.family_variables("D") == ("D", "B", "A")
    loop = InfluenceDiagram((v("A"), v("B")), (("A", "A"), ("B", "A")))
    assert loop.family_variables("A") == ("A", "B")
    assert loop.family_variables("B") == ("B",)
    # Parents and children come in declaration order, whatever the edge order;
    # a self-loop makes a node its own parent and child.
    assert (d.parents("D"), d.children("A"), d.children("D")) == (("B", "A"), ("D",), ())
    assert (loop.parents("A"), loop.children("A"), loop.children("B")) == (("A", "B"), ("A",), ("A",))
    with pytest.raises(UnknownVariable):
        d.family_variables("Z")


def test_unknown_endpoint_raises():
    with pytest.raises(UnknownVariable):
        InfluenceDiagram((v("A"),), (("A", "Z"),))
    with pytest.raises(UnknownVariable, match="^edge endpoint 'Z' is not a variable$"):
        InfluenceDiagram((v("A"),), (("Z", "A"),))


def test_duplicate_edge_raises():
    with pytest.raises(ValueError):
        InfluenceDiagram((v("A"), v("B")), (("A", "B"), ("A", "B")))


def test_duplicate_name_raises():
    with pytest.raises(ValueError):
        InfluenceDiagram((v("A"), v("A")), ())


class TestValidate:
    def test_polytree_is_fine(self, polytree):
        report = polytree.validate()
        assert report.ok and bool(report)

    def test_directed_cycle_is_named(self):
        report = diagram([("A", "B"), ("B", "C"), ("C", "A")]).validate()
        assert not report.ok
        assert any("directed cycle" in p for p in report.problems)

    def test_diamond_is_multiply_connected(self):
        report = diagram([("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")]).validate()
        assert not report.ok
        assert any(p.startswith("multiply-connected") for p in report.problems)

    def test_undirected_loop_caught_even_when_acyclic(self):
        # A -> B, A -> C, B -> C: acyclic but two paths from A to C
        report = diagram([("A", "B"), ("A", "C"), ("B", "C")]).validate()
        assert not report.ok
        assert any("multiply-connected" in p for p in report.problems)

    def test_cycle_above_a_dead_end_is_named(self):
        # A hangs below the cycle and is declared first; the walk must not
        # start from it.
        d = InfluenceDiagram((v("A"), v("B"), v("C")), (("B", "C"), ("C", "B"), ("B", "A")))
        assert "directed cycle: B -> C -> B" in d.validate().problems

    def test_long_cycle_is_named_from_its_first_node(self):
        n = 2000
        names = [f"N{i}" for i in range(n)]
        edges = [(names[i], names[(i + 1) % n]) for i in range(n)]
        d = InfluenceDiagram(tuple(Variable(x, ("0", "1")) for x in names), tuple(edges))
        cycle = d.validate().problems[0]
        assert cycle == "directed cycle: " + " -> ".join(names + ["N0"])

    def test_forest_is_valid(self):
        d = InfluenceDiagram((v("A"), v("B"), v("C")), (("A", "B"),))
        assert d.validate().ok

    def test_report_matches_running_both_searches(self):
        # The reference always runs the cycle search and union-find, in the
        # report's order; validate() runs the cycle search only after a clash.
        def reference(d):
            problems = []
            cycle = d._find_directed_cycle()
            if cycle:
                problems.append("directed cycle: " + " -> ".join(cycle))
            clash = d._find_multiply_connected_pair()
            if clash:
                a, b = clash
                problems.append(
                    f"multiply-connected: more than one undirected path between {a} and {b}"
                )
            return ValidationReport(not problems, tuple(problems))

        def with_extra_edges(rng, base, kind):
            edges, names = list(base.edges), list(base.names)
            if kind == "self-loop":
                extra = [(x, x) for x in rng.sample(names, rng.randint(1, 2))]
            elif kind == "two-cycle" and edges:
                extra = [(b, a) for a, b in rng.sample(edges, rng.randint(1, min(2, len(edges))))]
            elif kind == "cycle":
                ring = rng.sample(names, rng.randint(3, len(names)))
                extra = list(zip(ring, ring[1:] + ring[:1]))
            elif kind == "dag":
                order = topological(base)
                extra = []
                for _ in range(rng.randint(1, 3)):
                    i, j = sorted(rng.sample(range(len(order)), 2))
                    extra.append((order[i], order[j]))
            else:  # anything, self-loops included
                extra = [(rng.choice(names), rng.choice(names)) for _ in range(rng.randint(1, 4))]
            for e in extra:
                if e not in edges:
                    edges.append(e)
            return InfluenceDiagram(base.variables, tuple(edges))

        rng = random.Random(113)
        seen = {"ok": 0, "cycle": 0, "loop only": 0}
        for _ in range(400):
            base = random_diagram(rng, rng.randint(3, 14), p_detach=0.3)
            kind = rng.choice(["forest", "self-loop", "two-cycle", "cycle", "dag", "any"])
            d = base if kind == "forest" else with_extra_edges(rng, base, kind)
            want = reference(d)
            assert d.validate() == want
            if want.ok:
                seen["ok"] += 1
            elif want.problems[0].startswith("directed cycle"):
                seen["cycle"] += 1
                assert len(want.problems) == 2
            else:
                seen["loop only"] += 1
        assert min(seen.values()) >= 40, seen

    def test_cycle_search_matches_a_reachability_reference(self):
        # The reference knows only reachability: a node is on a cycle when
        # it reaches itself, and kept when a cycle node reaches it and it
        # reaches a cycle node. The walk starts at the first declared kept
        # node and takes each node's first kept child until a node repeats.
        def reference(d):
            children = {n: [b for a, b in d.edges if a == n] for n in d.names}
            reach = {}
            for n in d.names:
                seen, stack = set(), list(children[n])
                while stack:
                    m = stack.pop()
                    if m not in seen:
                        seen.add(m)
                        stack.extend(children[m])
                reach[n] = seen
            cyclic = {n for n in d.names if n in reach[n]}
            kept = [n for n in d.names
                    if reach[n] & cyclic and any(n in reach[c] for c in cyclic)]
            if not kept:
                return None
            trail = [kept[0]]
            while True:
                nxt = next(m for m in d.names if m in kept and m in children[trail[-1]])
                if nxt in trail:
                    return trail[trail.index(nxt):] + [nxt]
                trail.append(nxt)

        rng = random.Random(131)
        cyclic = 0
        for _ in range(2000):
            names = rng.sample("ABCDEFGH", rng.randint(1, 8))
            edges = {(rng.choice(names), rng.choice(names)) for _ in range(rng.randint(0, 2 * len(names)))}
            d = InfluenceDiagram(tuple(v(n) for n in names), tuple(sorted(edges)))
            want = reference(d)
            got = d._find_directed_cycle()
            assert got == want, (names, d.edges)
            problems = []
            if want:
                cyclic += 1
                assert want[0] == want[-1] and len(set(want)) == len(want) - 1
                assert all(e in edges for e in zip(want, want[1:]))
                problems.append("directed cycle: " + " -> ".join(want))
            clash = d._find_multiply_connected_pair()
            if clash:
                problems.append(
                    f"multiply-connected: more than one undirected path between {clash[0]} and {clash[1]}"
                )
            assert d.validate().problems == tuple(problems)
        assert 500 <= cyclic <= 1800, cyclic

    def test_a_polytree_is_parsed_and_gated_without_a_cycle_search(self, monkeypatch):
        calls = []
        search = InfluenceDiagram._find_directed_cycle

        def counted(self):
            calls.append(self)
            return search(self)

        monkeypatch.setattr(InfluenceDiagram, "_find_directed_cycle", counted)
        rng = random.Random(29)
        for n in (1, 5, 40, 300):
            net = parse_network(serialize_network(random_instance(rng, n, p_detach=0.2)))
            assert net.validate().ok
            assert calls == []
        cyclic = diagram([("A", "B"), ("B", "C"), ("C", "A")])
        assert not cyclic.validate().ok
        assert calls == [cyclic]


class TestSeparation:
    def test_collider_never_separates(self, polytree):
        # the only B-C path meets head-to-head at D
        assert not polytree.separated("B", "C", ("D",))
        assert not polytree.separated("B", "C", ())
        assert not polytree.separated("B", "C", ("A", "D"))

    def test_parents_screen_off_the_rest(self, polytree):
        assert polytree.separated("D", "A", ("B", "C"))
        assert polytree.separated("D", "E", ("B", "C"))
        assert polytree.separated("D", "A", ("B",))
        assert polytree.separated("D", "E", ("C",))

    def test_chain_blocks_at_the_middle(self):
        d = diagram([("A", "B"), ("B", "C")])
        assert d.separated("A", "C", ("B",))
        assert not d.separated("A", "C", ())

    def test_common_cause_blocks_at_the_cause(self, polytree):
        assert polytree.separated("D", "E", ("C",))
        assert not polytree.separated("D", "E", ())

    def test_adjacent_variables_are_never_separated(self, polytree):
        assert not polytree.separated("A", "B", ())
        assert not polytree.separated("B", "D", ("A", "C", "E"))

    def test_distinct_components_are_separated_by_anything(self):
        d = InfluenceDiagram((v("A"), v("B")), ())
        assert d.separated("A", "B", ())

    def test_gamma_containing_an_endpoint_raises(self, polytree):
        with pytest.raises(ValueError):
            polytree.separated("A", "B", ("A",))
        with pytest.raises(ValueError):
            polytree.separated("A", "A", ())

    def test_blocking_agrees_with_per_path_enumeration(self):
        # on random polytrees, separated() must equal "every path blocked"
        # with blocking checked by brute force over the path's interior
        rng = random.Random(5)
        for _ in range(40):
            d = random_diagram(rng, rng.randint(3, 7))
            names = list(d.names)
            x, y = rng.sample(names, 2)
            rest = [n for n in names if n not in (x, y)]
            gamma = rng.sample(rest, rng.randint(0, len(rest)))
            expect = True
            for path in d.undirected_paths(x, y):
                blocked = False
                for i in range(1, len(path) - 1):
                    m = path[i]
                    head_to_head = (path[i - 1], m) in set(d.edges) and (
                        path[i + 1],
                        m,
                    ) in set(d.edges)
                    if m in gamma and not head_to_head:
                        blocked = True
                        break
                if not blocked:
                    expect = False
                    break
            assert d.separated(x, y, gamma) == expect


class TestUniqueConnector:
    def test_observed_inside_the_family_is_its_own_connector(self, polytree):
        fam = polytree.family_variables("D")
        assert polytree.unique_connector(fam, "D") == "D"
        assert polytree.unique_connector(fam, "B") == "B"

    def test_entry_point_from_outside(self, polytree):
        fam = polytree.family_variables("D")
        assert polytree.unique_connector(fam, "A") == "B"
        assert polytree.unique_connector(fam, "E") == "C"
        fam_e = polytree.family_variables("E")
        assert polytree.unique_connector(fam_e, "A") == "C"

    def test_disconnected_observation_has_no_connector(self):
        d = InfluenceDiagram((v("A"), v("B"), v("C")), (("A", "B"),))
        assert d.unique_connector(d.family_variables("B"), "C") is None

    def test_single_member_family(self, polytree):
        fam = polytree.family_variables("A")
        assert fam == ("A",)
        assert polytree.unique_connector(fam, "E") == "A"
