import copy
import math
import pickle
import random

import pytest

import spohn.network
from spohn import (
    INF,
    OCF,
    EvidenceSpec,
    InfluenceDiagram,
    Schedule,
    SpohnianNetwork,
    StateSpace,
    Variable,
    compare,
    oracle_posterior,
    oracle_revise,
    propagate,
)
from spohn.errors import InconsistentTables, SpaceMismatch, UnknownVariable

from generators import (
    random_certain_evidence,
    random_diagram,
    random_instance,
    random_network,
    random_ocf,
)


def test_tables_must_cover_exactly_the_diagram(penguin_net):
    dia = penguin_net.diagram
    with pytest.raises(ValueError, match="missing"):
        SpohnianNetwork(dia, {"species": penguin_net.tables["species"]})
    extra = {**penguin_net.tables, "wings": penguin_net.tables["species"]}
    with pytest.raises(ValueError, match=r"^tables for unknown variables \['wings'\]$"):
        SpohnianNetwork(dia, extra)
    with pytest.raises(SpaceMismatch):
        SpohnianNetwork(
            dia,
            {
                "species": penguin_net.tables["flight"],
                "flight": penguin_net.tables["flight"],
            },
        )


def test_marginal_reads_off_the_node_table(penguin_net):
    assert penguin_net.marginal("species").ranks == (1, 0, 0)
    assert penguin_net.marginal("flight").ranks == (0, 0)
    with pytest.raises(UnknownVariable, match="^unknown variable 'nope'$"):
        penguin_net.marginal("nope")


def test_marginal_is_the_table_and_joint_projection():
    # On generated networks and on engine posteriors, whose certain
    # evidence leaves INF cells: a root's marginal is its own table, and
    # every marginal equals the table's and the joint's projection.
    rng = random.Random(29)
    for _ in range(40):
        net = random_instance(rng, rng.randint(1, 6), p_inf=0.3)
        nets = [net]
        for ev in random_certain_evidence(rng, net, 1):
            nets.append(propagate(net, [ev]))
            assert INF in nets[-1].tables[ev.variable].ranks
        for m in nets:
            joint = m.joint()
            for name in m.diagram.names:
                table = m.tables[name]
                marg = m.marginal(name)
                if not m.diagram.parents(name):
                    assert marg is table
                assert marg == table.marginalize((name,)) == joint.marginalize((name,))


def test_a_table_shared_by_two_diagrams_reads_its_own_marginal_in_each():
    # One OCF over (A, B) is B's table under A -> B and A's table under
    # B -> A; the marginal memo on it must never answer for the other node.
    a, b = Variable("A", ("a0", "a1")), Variable("B", ("b0", "b1", "b2"))
    pair = OCF(StateSpace((a, b)), (0, 3, 1, 2, INF, 4))
    a_to_b = SpohnianNetwork(
        InfluenceDiagram((a, b), (("A", "B"),)), {"A": pair.marginalize(("A",)), "B": pair}
    )
    b_to_a = SpohnianNetwork(
        InfluenceDiagram((a, b), (("B", "A"),)), {"A": pair, "B": pair.marginalize(("B",))}
    )
    again = SpohnianNetwork(InfluenceDiagram((a, b), (("A", "B"),)), dict(a_to_b.tables))
    reads = [(a_to_b, "B"), (b_to_a, "A"), (a_to_b, "B"), (again, "B"), (b_to_a, "A")]
    for net, name in reads:
        marg = net.marginal(name)
        assert marg == pair.marginalize((name,)) == net.joint().marginalize((name,))
        assert marg.space is net.diagram._unit_space(name)
        assert net.marginal(name) is marg
    assert a_to_b.marginal("B").ranks == (0, 3, 1)
    assert b_to_a.marginal("A").ranks == (0, 2)


def test_a_kept_marginal_answers_only_its_own_diagram():
    # The memo is read before anything else, but only when it lies on the
    # reading diagram's own space for the name: an unknown name still
    # raises, and an equal diagram built apart reads its own marginal.
    a, b = Variable("A", ("a0", "a1")), Variable("B", ("b0", "b1", "b2"))
    pair = OCF(StateSpace((a, b)), (0, 3, 1, 2, INF, 4))
    tables = {"A": pair.marginalize(("A",)), "B": pair}
    first = SpohnianNetwork(InfluenceDiagram((a, b), (("A", "B"),)), tables)
    second = SpohnianNetwork(InfluenceDiagram((a, b), (("A", "B"),)), tables)
    kept = first.marginal("B")
    assert pair._marginal is kept and first.marginal("B") is kept
    for net in (first, second):
        with pytest.raises(UnknownVariable, match="^unknown variable 'nope'$"):
            net.marginal("nope")
    own = second.marginal("B")
    assert own is not kept and own == kept
    assert own.space is second.diagram._unit_space("B")
    assert own.space is not kept.space
    assert second.marginal("B") is own
    # the memo now lies on the second diagram's space, so the first reads anew
    again = first.marginal("B")
    assert again is not own and again.space is first.diagram._unit_space("B")
    assert again.ranks == (0, 3, 1)


class TestReadOnlyTables:
    def test_assignment_raises(self, five_node_net):
        with pytest.raises(TypeError):
            five_node_net.tables["A"] = five_node_net.tables["B"]
        with pytest.raises(TypeError):
            del five_node_net.tables["A"]
        assert five_node_net.validate().ok

    def test_callers_dict_does_not_leak_in(self, penguin_net):
        tables = dict(penguin_net.tables)
        net = SpohnianNetwork(penguin_net.diagram, tables)
        tables["species"] = OCF(penguin_net.tables["species"].space, (0, 0, 0))
        del tables["flight"]
        assert net == penguin_net
        assert net.validate().ok

    def test_pickle_and_copies_round_trip(self, five_node_net):
        for twin in (
            pickle.loads(pickle.dumps(five_node_net)),
            copy.deepcopy(five_node_net),
            copy.copy(five_node_net),
        ):
            assert type(twin) is SpohnianNetwork
            assert twin == five_node_net
            assert twin.validate().ok
            with pytest.raises(TypeError):
                twin.tables["A"] = twin.tables["B"]
        # The dataclass compares diagram and tables; the read-only tables
        # mapping is unhashable, so the network is too.
        assert five_node_net.__eq__(object()) is NotImplemented
        with pytest.raises(TypeError):
            hash(five_node_net)

    def test_use_does_not_grow_the_pickle(self):
        # Diagrams and state spaces pickle through their constructors, so
        # the caches that reads and engine calls fill stay out of the bytes.
        net = random_instance(random.Random(71), 40, p_detach=0.0)
        fresh = len(pickle.dumps(net))
        for name in net.diagram.names:
            net.marginal(name)
        name = net.diagram.names[-1]
        evidence = [EvidenceSpec(name, values=(net.diagram.variable(name).domain[0],))]
        out = propagate(net, evidence)
        assert len(pickle.dumps(net)) == fresh
        rebuilt = SpohnianNetwork(out.diagram, dict(out.tables))
        assert out == rebuilt
        assert len(pickle.dumps(out)) == len(pickle.dumps(rebuilt))
        for obj in (net, out, net.diagram, net.diagram.space, net.tables[name].space):
            for twin in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
                assert type(twin) is type(obj)
                assert twin == obj
        # OCFs pickle through their constructor too, so a table keeps its
        # marginal's memo out of the bytes and out of its twins.
        read = net.tables[name]
        assert read._marginal is net.marginal(name)
        assert len(pickle.dumps(read)) == len(pickle.dumps(OCF(read.space, read.ranks)))
        for twin in (pickle.loads(pickle.dumps(read)), copy.deepcopy(read), copy.copy(read)):
            assert twin == read
            assert twin._marginal is None

    def test_tables_still_compare_equal_to_a_dict(self, penguin_net):
        assert penguin_net.tables == dict(penguin_net.tables)
        assert dict(penguin_net.tables) == penguin_net.tables


def test_joint_of_a_chain_is_the_conditional_sum(penguin_net):
    # two-node chain: joint(s, f) = k(s) + [k(s,f) - k(s)] = the flight table
    assert penguin_net.joint().ranks == penguin_net.tables["flight"].ranks


def test_joint_on_a_hand_worked_chain():
    a = Variable("A", ("a0", "a1"))
    b = Variable("B", ("b0", "b1", "b2"))
    c = Variable("C", ("c0", "c1"))
    dia = InfluenceDiagram((a, b, c), (("A", "B"), ("B", "C")))
    net = SpohnianNetwork(
        dia,
        {
            "A": OCF(StateSpace((a,)), (0, 2)),
            "B": OCF(StateSpace((a, b)), (0, 1, 3, 4, 2, 3)),
            "C": OCF(StateSpace((b, c)), (0, 1, 2, 1, 5, 3)),
        },
    )
    # k(a,b,c) = k(a,b) + k(c|b); rows of C given b: (0,1), (1,0), (2,0)
    assert net.joint().ranks == (0, 1, 2, 1, 5, 3, 4, 5, 3, 2, 5, 3)


def test_five_term_decomposition(five_node_net):
    net = five_node_net
    joint = net.joint()
    kb = net.tables["B"].marginalize(("B",))
    kc = net.tables["C"].marginalize(("C",))
    full = joint.space
    p_ab = full.projection(("A", "B"))
    p_bcd = full.projection(("B", "C", "D"))
    p_ce = full.projection(("C", "E"))
    p_b = full.projection(("B",))
    p_c = full.projection(("C",))
    t_ab = net.tables["B"].ranks
    t_bcd = net.tables["D"].ranks
    t_ce = net.tables["E"].ranks
    for i in range(full.size):
        want = (
            t_ab[p_ab[i]]
            + t_bcd[p_bcd[i]]
            + t_ce[p_ce[i]]
            - kb.ranks[p_b[i]]
            - kc.ranks[p_c[i]]
        )
        assert joint.ranks[i] == want


def _joint_by_cells(net):
    """The joint cell by cell, read through state_at: the sum of the family
    tables less each node's own marginal once per child; INF where any
    table holds INF."""
    d = net.diagram
    margs = {n: net.tables[n].marginalize((n,)) for n in d.names}
    out = []
    for i in range(d.space.size):
        state = dict(zip(d.space.names, d.space.state_at(i)))

        def cell(table):
            return table.ranks[table.space.index_of([state[n] for n in table.space.names])]

        cells = [cell(net.tables[n]) for n in d.names]
        if any(c is INF for c in cells):
            out.append(INF)
            continue
        shared = [len(d.children(n)) * cell(margs[n]) for n in d.names]
        out.append(sum(cells) - sum(shared))
    return out


MALFORMED = ("self-loop", "two-cycle", "chord")


def _malformed_diagram(rng, shape):
    """A chain of binary or ternary variables with one edge too many: a
    self-loop, a two-cycle (one edge reversed), or a chord that makes the
    skeleton multiply connected."""
    d = random_diagram(rng, rng.randint(3, 6), shape="chain")
    names, edges = d.names, list(d.edges)
    if shape == "self-loop":
        a = rng.choice(names)
        edges.append((a, a))
    elif shape == "two-cycle":
        a, b = rng.choice(edges)
        edges.append((b, a))
    else:
        i = rng.randrange(len(names) - 2)
        chord = (names[i], names[rng.randrange(i + 2, len(names))])
        edges.append(chord if rng.random() < 0.5 else chord[::-1])
    return InfluenceDiagram(d.variables, tuple(edges))


def test_joint_is_the_cell_by_cell_sum_less_shared_marginals():
    # Valid networks with INF cells, and tables drawn one by one, which
    # need not compose: then the error names what the checked constructor
    # names for the summed cells. Drawn tables also go on malformed
    # diagrams, whose families the declared-order walk adds all the same.
    rng = random.Random(71)
    for trial in range(90):
        if trial % 3 == 1:
            net = random_instance(rng, rng.randint(1, 7), p_inf=0.2)
        else:
            if trial % 3 == 0:
                d = random_diagram(rng, rng.randint(1, 6))
            else:
                d = _malformed_diagram(rng, MALFORMED[trial // 3 % 3])
                assert not d.validate().ok
            net = SpohnianNetwork(
                d, {n: random_ocf(rng, d.space.subspace(d.family_variables(n)), 3, 0.2) for n in d.names}
            )
        want = _joint_by_cells(net)
        try:
            expected = OCF(net.diagram.space, tuple(want))
        except ValueError as exc:
            with pytest.raises(InconsistentTables, match=f"^node tables do not compose: {exc}$"):
                net.joint()
        else:
            assert net.joint() == expected


def _families_by_cells(kappa, d):
    """Each family's table read off the joint cell by cell: per family
    state, the least rank of the joint states that agree with it."""
    out = {}
    for node in d.names:
        space = d.space.subspace(d.family_variables(node))
        least = [INF] * space.size
        for i, r in enumerate(kappa.ranks):
            state = dict(zip(d.names, d.space.state_at(i)))
            j = space.index_of([state[n] for n in space.names])
            if r is not INF and (least[j] is INF or r < least[j]):
                least[j] = r
        out[node] = OCF(space, tuple(least))
    return out


def test_from_joint_projects_any_joint_cell_by_cell():
    # Random joints with INF cells, which need not factorize over the
    # diagram: one-variable diagrams, forests of several components,
    # parents declared after their children, and malformed shapes.
    rng = random.Random(79)
    seen = set()
    for trial in range(60):
        if trial % 4 == 3:
            d = _malformed_diagram(rng, MALFORMED[trial % 3])
        else:
            d = random_diagram(rng, 1 if trial % 10 == 0 else rng.randint(2, 6), p_detach=0.4)
        position = {n: i for i, n in enumerate(d.names)}
        if len(d.names) == 1:
            seen.add("one variable")
        if len(d.names) - len(d.edges) > 1:
            seen.add("several components")
        if any(position[a] > position[b] for a, b in d.edges):
            seen.add("parent declared after its child")
        kappa = random_ocf(rng, d.space, 5, 0.3)
        rebuilt = SpohnianNetwork.from_joint(kappa, d)
        assert dict(rebuilt.tables) == _families_by_cells(kappa, d)
        for node, table in rebuilt.tables.items():
            assert table.space.names == d.family_variables(node)
    assert seen == {"one variable", "several components", "parent declared after its child"}


def test_from_joint_round_trips(five_node_net):
    joint = five_node_net.joint()
    rebuilt = SpohnianNetwork.from_joint(joint, five_node_net.diagram)
    assert rebuilt == five_node_net
    assert rebuilt.joint() == joint


def test_from_joint_requires_matching_spaces(five_node_net):
    x = Variable("X", ("x0", "x1"))
    with pytest.raises(SpaceMismatch):
        SpohnianNetwork.from_joint(
            OCF(StateSpace((x,)), (0, 1)), five_node_net.diagram
        )


def test_random_generated_networks_round_trip():
    rng = random.Random(21)
    for _ in range(30):
        net = random_instance(rng, rng.randint(2, 6))
        joint = net.joint()
        rebuilt = SpohnianNetwork.from_joint(joint, net.diagram)
        assert rebuilt.joint() == joint
        assert rebuilt == net  # family factorization is exactly recoverable


def test_validate_flags_marginal_disagreement():
    a = Variable("A", ("a0", "a1"))
    b = Variable("B", ("b0", "b1"))
    dia = InfluenceDiagram((a, b), (("A", "B"),))
    net = SpohnianNetwork(
        dia,
        {
            "A": OCF(StateSpace((a,)), (0, 2)),
            "B": OCF(StateSpace((a, b)), (0, 1, 0, 1)),  # claims k(A) = (0, 0)
        },
    )
    report = net.validate()
    assert not report.ok
    assert any("disagree on the marginal of A" in p for p in report.problems)


def test_validate_reports_diagram_problems_too():
    a = Variable("A", ("a0", "a1"))
    b = Variable("B", ("b0", "b1"))
    dia = InfluenceDiagram((a, b), (("A", "B"), ("B", "A")))
    net = SpohnianNetwork(
        dia,
        {
            "A": OCF(StateSpace((a, b)), (0, 1, 1, 0)),
            "B": OCF(StateSpace((a, b)), (0, 1, 1, 0)),
        },
    )
    report = net.validate()
    assert not report.ok
    assert any("directed cycle" in p for p in report.problems)


def test_incompatible_certainty_claims_do_not_compose():
    a = Variable("A", ("a0", "a1"))
    b = Variable("B", ("b0", "b1"))
    dia = InfluenceDiagram((a, b), (("A", "B"),))
    net = SpohnianNetwork(
        dia,
        {
            # A says a1 is impossible; B's table says a0 is
            "A": OCF(StateSpace((a,)), (0, INF)),
            "B": OCF(StateSpace((a, b)), (INF, INF, 0, 1)),
        },
    )
    with pytest.raises(InconsistentTables, match="^node tables do not compose: no state has rank 0$"):
        net.joint()


def test_tables_that_sum_to_a_negative_rank_do_not_compose():
    # A root (0, 2) shared with two children: its a1 cell less twice its
    # own marginal is -2, and both children add 0 at (a1, b0, c0).
    a, b, c = (Variable(n, (n.lower() + "0", n.lower() + "1")) for n in "ABC")
    dia = InfluenceDiagram((a, b, c), (("A", "B"), ("A", "C")))
    net = SpohnianNetwork(
        dia,
        {
            "A": OCF(StateSpace((a,)), (0, 2)),
            "B": OCF(StateSpace((a, b)), (0, 1, 0, 1)),
            "C": OCF(StateSpace((a, c)), (0, 1, 0, 1)),
        },
    )
    with pytest.raises(InconsistentTables, match="^node tables do not compose: invalid rank -2$"):
        net.joint()


def test_single_node_network():
    a = Variable("A", ("a0", "a1", "a2"))
    dia = InfluenceDiagram((a,), ())
    net = SpohnianNetwork(dia, {"A": OCF(StateSpace((a,)), (2, 0, INF))})
    assert net.joint().ranks == (2, 0, INF)
    assert net.validate().ok


def test_generated_networks_validate():
    rng = random.Random(22)
    for _ in range(25):
        net = random_instance(rng, rng.randint(2, 7), p_inf=0.15)
        assert net.validate().ok


def test_the_gate_shares_digit_maps_by_shape(monkeypatch):
    # A variable's digit map in a table depends only on the table's size,
    # the variable's stride and its cardinality, so a cold gate builds one
    # map per such shape, and a parent's own marginal once for all children.
    rng = random.Random(24)
    net = random_instance(rng, 80, max_domain=3, p_detach=0.0)
    edges = net.diagram.edges
    shapes = {}
    for a, b in edges:
        for node in (a, b):
            space = net.tables[node].space
            cards = [len(v.domain) for v in space.variables]
            p = space.names.index(a)
            key = (math.prod(cards), math.prod(cards[p + 1 :]), cards[p])
            shapes[key] = [(i // key[1]) % key[2] for i in range(key[0])]
    assert len({c for _, _, c in shapes}) == 2 and len(shapes) < len(edges)
    calls = {"projection": 0, "_least_ranks": 0}
    real_projection, real_least = StateSpace.projection, spohn.network._least_ranks

    def projection(self, names):
        calls["projection"] += 1
        return real_projection(self, names)

    def least(*args):
        calls["_least_ranks"] += 1
        return real_least(*args)

    monkeypatch.setattr(StateSpace, "projection", projection)
    monkeypatch.setattr(spohn.network, "_least_ranks", least)
    report, links = net._check()
    assert report.ok
    assert calls["projection"] <= len(shapes)
    assert calls["_least_ranks"] == len(edges) + len({a for a, _ in edges})
    maps = {id(link[2]): link[2] for node_links in links.values() for link in node_links}
    assert len(maps) == len(shapes)
    assert sorted(maps.values()) == sorted(shapes.values())


def test_joint_handles_infinite_cells():
    rng = random.Random(23)
    for _ in range(25):
        net = random_instance(rng, rng.randint(2, 6), p_inf=0.2)
        joint = net.joint()
        assert min(joint.ranks) == 0
        rebuilt = SpohnianNetwork.from_joint(joint, net.diagram)
        assert rebuilt.joint() == joint


def _collider(c_ranks):
    """A -> C <- B with A (0, 1), B (0, 2) and the given (A, B, C) table."""
    a, b, c = (Variable(n, (n.lower() + "0", n.lower() + "1")) for n in "ABC")
    dia = InfluenceDiagram((a, b, c), (("A", "C"), ("B", "C")))
    return SpohnianNetwork(
        dia,
        {
            "A": OCF(StateSpace((a,)), (0, 1)),
            "B": OCF(StateSpace((b,)), (0, 2)),
            "C": OCF(StateSpace((a, b, c)), c_ranks),
        },
    )


def _parent_block(net, node):
    return net.tables[node].marginalize(net.diagram.parents(node)).ranks


def _check_updates(rng, net):
    """One update per regime on net, each checked against the oracle."""
    joint = net.joint()
    name = rng.choice(net.diagram.names)
    var = net.diagram.variable(name)
    marg = net.marginal(name).ranks
    possible = [v for v, r in zip(var.domain, marg) if r is not INF]
    # single: a finite lesson about some of the still-possible values
    values = tuple(rng.sample(possible, rng.randint(1, len(possible))))
    if len(values) < len(var.domain):
        ev = EvidenceSpec(name, values=values, strength=rng.randint(0, 4))
        post = propagate(net, [ev])
        report = compare(post, oracle_revise(joint, [ev]))
        assert report.passed, ("single", report.first_divergence)
    # certain: one or two jointly possible observations
    evidence = random_certain_evidence(rng, net, rng.randint(1, min(2, len(net.diagram.names))))
    post = propagate(net, evidence, Schedule.seeded(rng.randrange(99)))
    report = compare(post, oracle_revise(joint, evidence))
    assert report.passed, ("certain", report.first_divergence)
    # uncertain: a target that leaves impossible values impossible
    target = [INF if r is INF else rng.randint(0, 4) for r in marg]
    target[var.domain.index(rng.choice(possible))] = 0
    evidence = [EvidenceSpec(name, target=target)]
    post = propagate(net, evidence, Schedule.fifo())
    report = compare(post, oracle_posterior(net, evidence))
    assert report.passed, ("uncertain", report.first_divergence)


def _valid_implies_exact(rng, net):
    assert net.validate().ok
    assert SpohnianNetwork.from_joint(net.joint(), net.diagram) == net
    _check_updates(rng, net)


def _perturbed(rng, net):
    """net with one cell of one table changed, or None if that breaks the table."""
    node = rng.choice(net.diagram.names)
    table = net.tables[node]
    ranks = list(table.ranks)
    i = rng.randrange(len(ranks))
    ranks[i] = rng.choice([r for r in (0, 1, 2, 3, 5, INF) if r != ranks[i]])
    if 0 not in ranks:
        return None
    return SpohnianNetwork(net.diagram, {**net.tables, node: OCF(table.space, tuple(ranks))})


class TestValidImpliesExact:
    """validate().ok must mean: the tables are the family marginals of
    joint(), and the engine agrees with the oracle in every regime."""

    def test_dependent_parents_of_a_valid_table(self):
        # C's parent block (0, 2, 1, 2) is not the sum (0, 2, 1, 3) of the
        # parents' marginals; the edges agree, so the network is valid.
        net = _collider((0, 1, 2, 3, 1, 2, 2, 4))
        assert _parent_block(net, "C") == (0, 2, 1, 2)
        assert net.joint().ranks == net.tables["C"].ranks
        _valid_implies_exact(random.Random(1), net)
        for name in net.diagram.names:
            for value in net.diagram.variable(name).domain:
                evidence = [EvidenceSpec(name, values=(value,))]
                post = propagate(net, evidence)
                report = compare(post, oracle_revise(net.joint(), evidence))
                assert report.passed, report.first_divergence

    def test_evidence_at_a_collider_couples_its_parents(self):
        # The prior's parents are independent; certain evidence on C makes
        # them dependent, and the engine's output must still compose.
        net = _collider((0, 3, 2, 3, 1, 1, 3, 5))
        assert _parent_block(net, "C") == (0, 2, 1, 3)
        post = propagate(net, [EvidenceSpec("C", values=("c1",))])
        assert _parent_block(post, "C") == (2, 2, 0, 4)
        sums = [a + b for a in post.marginal("A").ranks for b in post.marginal("B").ranks]
        assert sums == [2, 4, 0, 2]
        _valid_implies_exact(random.Random(2), post)

    def test_generated_networks(self):
        rng = random.Random(31)
        for _ in range(100):
            net = random_instance(rng, rng.randint(2, 6), p_inf=0.15)
            _valid_implies_exact(rng, net)

    def test_engine_results_after_certain_evidence(self):
        rng = random.Random(32)
        for _ in range(100):
            net = random_instance(rng, rng.randint(3, 6), p_inf=0.1)
            evidence = random_certain_evidence(rng, net, rng.randint(1, 2))
            post = propagate(net, evidence, Schedule.seeded(rng.randrange(99)))
            _valid_implies_exact(rng, post)

    def test_one_cell_perturbations_that_still_validate(self):
        rng = random.Random(33)
        checked = 0
        while checked < 150:
            net = random_instance(rng, rng.randint(2, 5), p_inf=0.1)
            if rng.random() < 0.5:
                evidence = random_certain_evidence(rng, net, 1)
                net = propagate(net, evidence)
            bent = _perturbed(rng, net)
            if bent is None or bent == net or not bent.validate().ok:
                continue
            _valid_implies_exact(rng, bent)
            checked += 1
