import random

import pytest

from spohn import Family, InfluenceDiagram, Variable
from spohn.errors import UnknownVariable

from generators import random_diagram


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
    assert polytree.family("D").members == ("B", "C", "D")
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
    with pytest.raises(UnknownVariable):
        d.family_variables("Z")


def test_unknown_endpoint_raises():
    with pytest.raises(UnknownVariable):
        InfluenceDiagram((v("A"),), (("A", "Z"),))


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
        fam = polytree.family("D")
        assert polytree.unique_connector(fam, "D") == "D"
        assert polytree.unique_connector(fam, "B") == "B"

    def test_entry_point_from_outside(self, polytree):
        fam = polytree.family("D")
        assert polytree.unique_connector(fam, "A") == "B"
        assert polytree.unique_connector(fam, "E") == "C"
        fam_e = polytree.family("E")
        assert polytree.unique_connector(fam_e, "A") == "C"

    def test_disconnected_observation_has_no_connector(self):
        d = InfluenceDiagram((v("A"), v("B"), v("C")), (("A", "B"),))
        assert d.unique_connector(d.family("B"), "C") is None

    def test_single_member_family(self, polytree):
        fam = polytree.family("A")
        assert fam.members == ("A",)
        assert polytree.unique_connector(fam, "E") == "A"


def test_family_is_a_plain_value():
    f = Family("D", ("B", "C"))
    assert f.members == ("B", "C", "D")
    assert f == Family("D", ("B", "C"))
