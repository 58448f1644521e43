import copy
import dataclasses
import itertools
import math
import pickle
import random
import re
import tracemalloc

import pytest

from spohn import INF, NEG_INF, OCF, Proposition, StateSpace, Variable
from spohn.errors import (
    EmptyCondition,
    EmptyProposition,
    FullProposition,
    ImpossibleEvidence,
    SpaceMismatch,
    UnknownValue,
    UnknownVariable,
)
from spohn.ocf import _cell_bits, _least_ranks
from spohn.ranks import is_rank

from conftest import AFTER_BIRD, AFTER_PENGUIN, FLIGHT, PRIOR, SPECIES
from generators import random_ocf


def bird(space):
    return Proposition.constrain(space, {"species": ("PENGUIN", "TYPICAL-BIRD")})


def penguin(space):
    return Proposition.constrain(space, {"species": ("PENGUIN",)})


def flys(space):
    return Proposition.constrain(space, {"flight": ("FLYS",)})


class TestStateSpace:
    def test_states_enumerate_last_variable_fastest(self, penguin_space):
        states = list(penguin_space.states())
        assert states[0] == ("PENGUIN", "FLYS")
        assert states[1] == ("PENGUIN", "NOT-FLYS")
        assert states[2] == ("TYPICAL-BIRD", "FLYS")
        assert len(states) == 6

    def test_index_of_inverts_state_at(self, penguin_space):
        for i in range(penguin_space.size):
            assert penguin_space.index_of(penguin_space.state_at(i)) == i

    def test_index_of_accepts_mappings(self, penguin_space):
        i = penguin_space.index_of({"flight": "NOT-FLYS", "species": "NOT-BIRD"})
        assert penguin_space.state_at(i) == ("NOT-BIRD", "NOT-FLYS")

    def test_domain_needs_at_least_two_values(self):
        with pytest.raises(ValueError):
            Variable("X", ("only",))
        with pytest.raises(ValueError):
            Variable("X", ("a", "a"))

    def test_a_domain_is_stored_as_a_tuple(self):
        values = ("a", "b")
        assert Variable("X", values).domain is values
        for given in (["a", "b"], iter(values), {"a": 0, "b": 1}):
            x = Variable("X", given)
            assert type(x.domain) is tuple and x == Variable("X", values)
        with pytest.raises(ValueError, match="^variable 'X' needs at least two values$"):
            Variable("X", iter(["only"]))
        with pytest.raises(ValueError, match="^variable 'X' has duplicate values$"):
            Variable("X", ["a", "a"])

    def test_projection_maps_onto_the_subspace(self, penguin_space):
        proj = penguin_space.projection(("flight",))
        sub = penguin_space.subspace(("flight",))
        for i in range(penguin_space.size):
            assert sub.state_at(proj[i]) == (penguin_space.state_at(i)[1],)

    def test_projection_is_the_index_of_the_restricted_state(self):
        # Definition: state i maps to the index, in subspace(keep), of
        # state_at(i) restricted to keep, whatever order the names come in.
        rng = random.Random(41)
        for _ in range(40):
            variables = [
                Variable(f"V{k}", tuple(f"v{k}_{j}" for j in range(rng.randint(2, 3))))
                for k in range(rng.randint(1, 5))
            ]
            rng.shuffle(variables)
            space = StateSpace(tuple(variables))
            for width in range(1, len(variables) + 1):
                for keep in itertools.combinations(space.names, width):
                    asked = list(keep)
                    rng.shuffle(asked)
                    sub = space.subspace(keep)
                    pos = [space.names.index(n) for n in keep]
                    want = [
                        sub.index_of(tuple(space.state_at(i)[p] for p in pos))
                        for i in range(space.size)
                    ]
                    assert space.projection(asked) == want
                    # Shuffled and duplicated names, as a tuple or a list,
                    # get the canonical map itself.
                    canonical = space.projection(keep)
                    assert space.projection(tuple(asked)) is canonical
                    assert space.projection(tuple(asked + asked)) is canonical
                    assert space.projection(asked + asked) is canonical
                    with pytest.raises(UnknownVariable, match="unknown variable 'nope'"):
                        space.projection(tuple(asked) + ("nope",))


def _random_space(rng):
    """1 to 6 variables of 2 to 4 values, names in a shuffled order."""
    variables = [
        Variable(f"V{k}", tuple(f"v{k}_{j}" for j in range(rng.randint(2, 4))))
        for k in range(rng.randint(1, 6))
    ]
    rng.shuffle(variables)
    return StateSpace(tuple(variables))


class TestStateSpaceLayout:
    """The layout a space computes at construction, against its definitions."""

    def test_size_strides_names_and_positions_match_their_definitions(self):
        rng = random.Random(53)
        for _ in range(60):
            space = _random_space(rng)
            cards = [len(v.domain) for v in space.variables]
            assert space.size == math.prod(cards)
            assert space.strides == tuple(math.prod(cards[i + 1:]) for i in range(len(cards)))
            assert space.names == tuple(v.name for v in space.variables)
            for v in space.variables:
                assert space.variable(v.name) is v

    def test_index_of_and_state_at_round_trip(self):
        rng = random.Random(59)
        for _ in range(30):
            space = _random_space(rng)
            states = list(itertools.product(*(v.domain for v in space.variables)))
            assert list(space.states()) == states
            for i, state in enumerate(states):
                assert space.state_at(i) == state
                assert space.index_of(state) == i
                assert space.index_of(dict(zip(space.names, state))) == i
            with pytest.raises(IndexError):
                space.state_at(space.size)

    def test_equality_hash_repr_pickle_and_copy(self):
        rng = random.Random(61)
        for _ in range(20):
            space = _random_space(rng)
            space.projection(space.names[:1])
            space.index_of(space.state_at(0))
            twin = StateSpace(list(space.variables))
            assert twin == space and twin is not space
            assert hash(twin) == hash(space) == hash((space.variables,))
            assert repr(space) == f"StateSpace(variables={space.variables!r})"
            assert space.__reduce__() == (StateSpace, (space.variables,))
            assert space != StateSpace(space.variables[::-1]) or len(space.variables) == 1
            assert space.__eq__(space.variables) is NotImplemented
            for other in (
                pickle.loads(pickle.dumps(space)),
                copy.copy(space),
                copy.deepcopy(space),
            ):
                assert other == space and hash(other) == hash(space)
                assert (other.names, other.size, other.strides) == (space.names, space.size, space.strides)
                # Rebuilt through the constructor: no cache comes along.
                assert other._proj_cache == {}
            with pytest.raises(dataclasses.FrozenInstanceError):
                space.size = 0
            assert not hasattr(space, "__dict__")

    def test_construction_errors_keep_their_texts(self):
        a = Variable("A", ("y", "n"))
        with pytest.raises(ValueError, match="^state space needs at least one variable$"):
            StateSpace(())
        with pytest.raises(ValueError, match="^duplicate variable names in state space$"):
            StateSpace((a, Variable("B", ("y", "n")), Variable("A", ("x", "z"))))

    def test_lookup_errors_keep_their_texts(self, penguin_space):
        for call in (
            lambda: penguin_space.variable("wings"),
            lambda: penguin_space.value_digit("wings", "YES"),
        ):
            with pytest.raises(UnknownVariable, match="^unknown variable 'wings'$"):
                call()
        with pytest.raises(UnknownVariable, match=r"^assignment missing variables \['flight'\]$"):
            penguin_space.index_of({"species": "PENGUIN"})
        with pytest.raises(ValueError, match="^assignment length does not match variable count$"):
            penguin_space.index_of(("PENGUIN",))
        with pytest.raises(UnknownValue, match="^variable 'species' has no value 'DODO'$"):
            penguin_space.index_of(("DODO", "FLYS"))
        with pytest.raises(UnknownValue, match="^variable 'flight' has no value 'DODO'$"):
            penguin_space.index_of({"species": "PENGUIN", "flight": "DODO"})

    def test_no_names_are_refused(self, penguin_space, prior):
        with pytest.raises(ValueError, match="^subspace needs at least one variable$"):
            penguin_space.subspace(())
        with pytest.raises(ValueError, match="^projection needs at least one variable$"):
            penguin_space.projection(())
        with pytest.raises(ValueError, match="^must keep at least one variable$"):
            prior.marginalize([])

    def test_a_space_keeps_only_its_layout(self):
        assert StateSpace.__slots__ == ("variables", "names", "size", "strides", "_proj_cache")
        assert [f.name for f in dataclasses.fields(StateSpace)] == list(StateSpace.__slots__)

    def test_a_lookup_leaves_the_slots_as_they_were(self):
        a, b = Variable("A", ("y", "n")), Variable("B", ("x", "y", "z"))
        space = StateSpace((a, b))
        before = [getattr(space, slot) for slot in StateSpace.__slots__]
        assert space.variable("B") is b
        assert space.value_digit("B", "z") == 2
        assert space.index_of(("n", "y")) == 4
        assert space.index_of({"B": "y", "A": "n"}) == 4
        assert space.canonical_subset(("B", "A", "B")) == ("A", "B")
        assert Proposition.constrain(space, {"B": ("x", "z")}).mask == 0b101101
        with pytest.raises(UnknownValue):
            space.value_digit("A", "z")
        after = [getattr(space, slot) for slot in StateSpace.__slots__]
        assert all(x is y for x, y in zip(before, after)) and space._proj_cache == {}

    def test_an_assignment_naming_a_variable_the_space_lacks_is_refused(self):
        space = StateSpace((Variable("A", ("a0", "a1")), Variable("B", ("b0", "b1", "b2"))))
        assert space.index_of({"A": "a1", "B": "b2"}) == 5
        for extra in ({"Z": "anything"}, {"Z": "anything", "Y": "y"}):
            with pytest.raises(UnknownVariable, match="^unknown variable 'Z'$"):
                space.index_of({"A": "a1", **extra, "B": "b2"})
        with pytest.raises(UnknownVariable, match=r"^assignment missing variables \['B'\]$"):
            space.index_of({"A": "a1", "Z": "anything"})


class TestProposition:
    def test_set_algebra(self, penguin_space):
        b = bird(penguin_space)
        f = flys(penguin_space)
        assert (b & f).count() == 2
        assert (b | f).count() == 5
        assert (~b).count() == 2
        assert (b & ~b).is_empty
        assert (b | ~b).is_full

    def test_constrain_on_unknown_value_raises(self, penguin_space):
        with pytest.raises(Exception):
            Proposition.constrain(penguin_space, {"species": ("DOG",)})

    def test_constrain_refuses_a_bare_string(self):
        # "yn" would split into the values y and n, the full proposition.
        a = Variable("A", ("y", "n"))
        space = StateSpace((a,))
        with pytest.raises(ValueError, match="not a string: 'yn'"):
            Proposition.constrain(space, {"A": "yn"})
        assert Proposition.constrain(space, {"A": ("y",)}).mask == 1

    @pytest.mark.parametrize("value", [["y"], {"y"}, {"y": 1}, []])
    def test_constrain_names_an_unhashable_value_as_unknown(self, value):
        # The same error, and text, as a string outside the domain.
        space = StateSpace((Variable("A", ("y", "n")),))
        with pytest.raises(UnknownValue, match=re.escape(f"variable 'A' has no value {value!r}")):
            Proposition.constrain(space, {"A": ("n", value)})
        with pytest.raises(UnknownValue, match=re.escape("variable 'A' has no value 'x'")):
            Proposition.constrain(space, {"A": ("y", "x", value)})

    def test_mixed_space_operations_raise(self, penguin_space):
        other = StateSpace((SPECIES,))
        with pytest.raises(SpaceMismatch):
            bird(penguin_space) & Proposition.full(other)

    def test_a_mask_outside_the_space_is_refused(self, penguin_space):
        with pytest.raises(ValueError, match="^proposition mask outside the state space$"):
            Proposition(penguin_space, 1 << 6)
        with pytest.raises(ValueError, match="^proposition mask outside the state space$"):
            Proposition(penguin_space, -1)

    def test_a_proposition_is_a_frozen_slotted_value(self, penguin_space):
        prop = Proposition.of_states(penguin_space, (0, 3, 4))
        assert not hasattr(prop, "__dict__")
        for name in ("space", "mask"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(prop, name, 1)
        same = Proposition(StateSpace(penguin_space.variables), 0b11001)
        assert prop == same and hash(prop) == hash(same) == hash((penguin_space, 0b11001))
        assert prop != Proposition(penguin_space, 0b11000)
        assert prop != Proposition.of_states(StateSpace((FLIGHT, SPECIES)), (0, 3, 4))
        for twin in (pickle.loads(pickle.dumps(prop)), copy.copy(prop), copy.deepcopy(prop)):
            assert twin == prop and hash(twin) == hash(prop)
            assert (twin.space, twin.mask) == (penguin_space, prop.mask)

    def test_of_states_checks_each_index(self, penguin_space):
        assert Proposition.of_states(penguin_space, ()) == Proposition.empty(penguin_space)
        assert Proposition.of_states(penguin_space, range(6)) == Proposition.full(penguin_space)
        assert Proposition.of_states(penguin_space, (5, 1, 1)).mask == 0b100010
        for bad in (6, -1):
            with pytest.raises(ValueError, match=f"^state index {bad} out of range$"):
                Proposition.of_states(penguin_space, (0, bad))

    def test_of_states_is_the_same_through_an_instance(self, penguin_space):
        other = Proposition.full(StateSpace((FLIGHT, SPECIES)))
        for indices in ((), (0,), (5, 1, 1), range(6)):
            through_class = Proposition.of_states(penguin_space, indices)
            through_instance = other.of_states(penguin_space, indices)
            assert type(through_instance) is Proposition
            assert through_instance == through_class
            assert (through_instance.space, through_instance.mask) == (penguin_space, through_class.mask)
        for bad in (6, -1):
            with pytest.raises(ValueError, match=f"^state index {bad} out of range$"):
                other.of_states(penguin_space, (bad,))

    def test_set_operations_equal_the_checked_constructor(self):
        rng = random.Random(67)
        for _ in range(40):
            space = _random_space(rng)
            full = (1 << space.size) - 1
            a = Proposition(space, rng.randint(0, full))
            b = Proposition(StateSpace(space.variables), rng.randint(0, full))
            for got, want in (
                (a & b, Proposition(space, a.mask & b.mask)),
                (a | b, Proposition(space, a.mask | b.mask)),
                (~a, Proposition(space, full ^ a.mask)),
            ):
                assert type(got) is Proposition and got.space is space
                assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
        other = Proposition.full(StateSpace((Variable("W", ("w0", "w1")),)))
        for op in (lambda p, q: p & q, lambda p, q: p | q):
            with pytest.raises(SpaceMismatch, match="^propositions live in different state spaces$"):
                op(a, other)


class TestOCFValue:
    def test_an_ocf_is_a_frozen_slotted_value(self, prior):
        assert [f.name for f in dataclasses.fields(OCF)] == ["space", "ranks"]
        for table in (OCF(prior.space, list(prior.ranks)), OCF._trusted(prior.space, prior.ranks)):
            assert not hasattr(table, "__dict__")
            assert table._marginal is None
            for name in ("space", "ranks", "_marginal"):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(table, name, None)
            assert table == prior and hash(table) == hash(prior) == hash((prior.space, prior.ranks))
            assert repr(table) == f"OCF(space={prior.space!r}, ranks={prior.ranks!r})"
            assert table.__reduce__() == (OCF, (prior.space, prior.ranks))
            for twin in (pickle.loads(pickle.dumps(table)), copy.copy(table), copy.deepcopy(table)):
                assert type(twin) is OCF and twin == table and hash(twin) == hash(table)
                assert twin._marginal is None


class TestTrustedConstructors:
    """Each trusted constructor builds the value its checked one builds."""

    def test_each_equals_the_checked_constructor(self):
        rng = random.Random(73)
        for _ in range(40):
            checked = _random_space(rng)
            variables = checked.variables
            space = StateSpace._trusted(variables, tuple(v.name for v in variables))
            assert type(space) is StateSpace
            assert space == checked and hash(space) == hash(checked) and repr(space) == repr(checked)
            assert (space.names, space.size, space.strides) == (checked.names, checked.size, checked.strides)
            assert space._proj_cache == {} and space._proj_cache is not checked._proj_cache

            indices = rng.sample(range(space.size), rng.randint(0, space.size))
            prop = Proposition.of_states(space, indices)
            want = Proposition(checked, sum(1 << i for i in indices))
            assert type(prop) is Proposition and prop.space is space
            assert prop == want and hash(prop) == hash(want) and repr(prop) == repr(want)

            table = random_ocf(rng, checked, p_inf=0.2)
            fast = OCF._trusted(space, table.ranks)
            assert type(fast) is OCF and fast._marginal is None
            assert fast == table and hash(fast) == hash(table) and repr(fast) == repr(table)


class TestWorkedExample:
    """The bird/penguin revision sequence, column by column."""

    def test_prior_column_is_a_valid_ranking(self, prior):
        assert min(prior.ranks) == 0

    def test_learning_bird_then_penguin(self, prior, penguin_space):
        after_bird = prior.revise(bird(penguin_space), 1)
        assert after_bird.ranks == AFTER_BIRD
        after_penguin = after_bird.revise(penguin(penguin_space), 1)
        assert after_penguin.ranks == AFTER_PENGUIN

    def test_beliefs_along_the_way(self, prior, penguin_space):
        f = flys(penguin_space)
        after_bird = prior.revise(bird(penguin_space), 1)
        assert after_bird.is_believed(f)
        assert after_bird.belief_strength(f) == 1
        after_penguin = after_bird.revise(penguin(penguin_space), 1)
        assert after_penguin.is_believed(~f)
        assert after_penguin.belief_strength(~f) == 1
        assert after_penguin.belief_strength(f) == -1

    def test_prior_is_agnostic_about_flight(self, prior, penguin_space):
        f = flys(penguin_space)
        assert not prior.is_believed(f)
        assert not prior.is_believed(~f)
        assert prior.belief_strength(f) == 0


class TestBelief:
    def test_rank_zero_proposition_can_still_be_unbelieved(self, prior, penguin_space):
        # FLYS has rank 0 but so does NOT-FLYS; neither is believed
        f = flys(penguin_space)
        assert prior.rank_of(f) == 0
        assert not prior.is_believed(f)

    def test_impossible_proposition_has_strength_neg_inf(self):
        x = Variable("X", ("a", "b", "c"))
        space = StateSpace((x,))
        k = OCF(space, (0, 1, INF))
        c = Proposition.constrain(space, {"X": ("c",)})
        assert k.belief_strength(c) is NEG_INF
        assert k.rank_of(c) is INF

    def test_full_and_empty_have_no_strength(self, prior, penguin_space):
        with pytest.raises(FullProposition):
            prior.belief_strength(Proposition.full(penguin_space))
        with pytest.raises(EmptyProposition):
            prior.belief_strength(Proposition.empty(penguin_space))

    def test_the_full_space_is_always_believed(self, prior, penguin_space):
        assert prior.is_believed(Proposition.full(penguin_space))

    def test_strength_matches_its_rank_definition(self):
        # beta(A) is -inf when A is impossible, -rank(A) when A is
        # disbelieved, and rank(not A) otherwise; checked on every proper
        # non-empty proposition of random OCFs with about 30% INF cells.
        rng = random.Random(23)
        checked = 0
        while checked < 60:
            space = StateSpace(tuple(
                Variable(f"V{k}", tuple(f"v{j}" for j in range(rng.randint(2, 3))))
                for k in range(rng.randint(1, 3))
            ))
            if space.size > 12:
                continue
            kappa = random_ocf(rng, space, p_inf=0.3)
            for mask in range(1, (1 << space.size) - 1):
                prop = Proposition(space, mask)
                k = kappa.rank_of(prop)
                if k is INF:
                    want = NEG_INF
                elif k > 0:
                    want = -k
                else:
                    want = kappa.rank_of(~prop)
                assert kappa.belief_strength(prop) == want
            checked += 1


class TestRevision:
    def test_learning_the_full_space_changes_nothing(self, prior, penguin_space):
        assert prior.revise(Proposition.full(penguin_space), 3) == prior

    def test_min_of_the_posterior_is_zero(self, prior, penguin_space):
        for strength in (0, 1, 5):
            post = prior.revise(penguin(penguin_space), strength)
            assert min(post.ranks) == 0

    def test_posterior_complement_rank_equals_the_strength(self, prior, penguin_space):
        p = penguin(penguin_space)
        for strength in (0, 1, 4):
            post = prior.revise(p, strength)
            assert post.rank_of(~p) == strength
            assert post.rank_of(p) == 0

    def test_certain_revision_excludes_the_complement(self, prior, penguin_space):
        p = penguin(penguin_space)
        post = prior.revise(p, INF)
        assert post.ranks == (1, 0, INF, INF, INF, INF)

    def test_impossible_states_stay_impossible(self):
        x = Variable("X", ("a", "b", "c"))
        space = StateSpace((x,))
        k = OCF(space, (0, 2, INF))
        not_c = Proposition.constrain(space, {"X": ("a", "b")})
        post = k.revise(not_c, 7)
        # complement already at inf: no finite strength can bring it back
        assert post.ranks == (0, 2, INF)

    def test_learning_a_ruled_out_proposition_raises(self):
        x = Variable("X", ("a", "b"))
        space = StateSpace((x,))
        k = OCF(space, (0, INF))
        b = Proposition.constrain(space, {"X": ("b",)})
        with pytest.raises(ImpossibleEvidence):
            k.revise(b, 3)
        with pytest.raises(ImpossibleEvidence):
            k.revise(b, INF)

    def test_negative_strength_is_the_complement_lesson(self, prior, penguin_space):
        p = penguin(penguin_space)
        assert prior.revise(p, -2) == prior.revise(~p, 2)
        assert prior.revise(p, NEG_INF) == prior.revise(~p, INF)

    def test_reversibility(self, penguin_space):
        rng = random.Random(11)
        p = bird(penguin_space)
        for _ in range(50):
            k1 = random_ocf(rng, penguin_space)
            alpha = rng.randint(0, 6)
            k2 = k1.revise(p, alpha)
            back = k2.revise(~p, k1.belief_strength(~p))
            assert back == k1

    def test_commutes_for_independent_variables(self):
        rng = random.Random(12)
        x = Variable("X", ("a", "b", "c"))
        y = Variable("Y", ("u", "v"))
        space = StateSpace((x, y))
        for _ in range(50):
            fx = [rng.randint(0, 5) for _ in x.domain]
            gy = [rng.randint(0, 5) for _ in y.domain]
            fx[rng.randrange(3)] = 0
            gy[rng.randrange(2)] = 0
            k = OCF(space, tuple(fx[i] + gy[j] for i in range(3) for j in range(2)))
            a = Proposition.constrain(space, {"X": ("a",)})
            b = Proposition.constrain(space, {"Y": ("v",)})
            s, t = rng.randint(0, 4), rng.randint(0, 4)
            assert k.revise(a, s).revise(b, t) == k.revise(b, t).revise(a, s)

    def test_empty_proposition_cannot_be_learned(self, prior, penguin_space):
        with pytest.raises(EmptyProposition):
            prior.revise(Proposition.empty(penguin_space), 1)

    def test_a_proposition_already_certain_stays_certain_at_any_strength(self):
        # Its complement is impossible, so a finite lesson conditions, as inf does.
        space = StateSpace((Variable("X", ("a", "b", "c")),))
        k = OCF(space, (1, 0, INF))
        ab = Proposition.constrain(space, {"X": ("a", "b")})
        for strength in (0, 2, INF):
            assert k.revise(ab, strength).ranks == (1, 0, INF)


class TestSpaceMismatch:
    """Each query of an OCF refuses a proposition over another space."""

    def test_each_query_names_the_mismatch(self, prior):
        other = Proposition.full(StateSpace((SPECIES,)))
        text = "^proposition is over a different state space$"
        for call in (
            lambda: prior.rank_of(other),
            lambda: prior.is_believed(other),
            lambda: prior.belief_strength(other),
            lambda: prior.revise(other, 1),
        ):
            with pytest.raises(SpaceMismatch, match=text):
                call()
        own = Proposition.full(prior.space)
        for args in ((other, own), (own, other)):
            with pytest.raises(SpaceMismatch, match="^propositions are over a different state space$"):
                prior.cond_rank(*args)

    def test_the_empty_proposition_has_no_rank(self, prior, penguin_space):
        with pytest.raises(EmptyProposition, match="^the empty proposition has no rank$"):
            prior.rank_of(Proposition.empty(penguin_space))


class TestBasicLaws:
    """Spohn's laws of ranks, on seeded random OCFs with impossible cells."""

    @staticmethod
    def draws(seed, count=300):
        rng = random.Random(seed)
        for _ in range(count):
            space = StateSpace(tuple(
                Variable(f"X{i}", ("a", "b", "c")[: rng.randint(2, 3)])
                for i in range(rng.randint(1, 3))
            ))
            kappa = random_ocf(rng, space, p_inf=rng.choice([0.1, 0.3, 0.6]))
            full = (1 << space.size) - 1
            yield rng, kappa, full

    def test_disjunction_takes_the_lesser_rank(self):
        for rng, kappa, full in self.draws(1):
            a = Proposition(kappa.space, rng.randint(1, full))
            b = Proposition(kappa.space, rng.randint(1, full))
            assert kappa.rank_of(a | b) == min(kappa.rank_of(a), kappa.rank_of(b))

    def test_negation_leaves_one_side_at_zero(self):
        for rng, kappa, full in self.draws(2):
            a = Proposition(kappa.space, rng.randint(1, full - 1))
            assert min(kappa.rank_of(a), kappa.rank_of(~a)) == 0

    def test_firmness_is_antisymmetric(self):
        seen = set()
        for rng, kappa, full in self.draws(3):
            a = Proposition(kappa.space, rng.randint(1, full - 1))
            strength = kappa.belief_strength(a)
            assert kappa.belief_strength(~a) == -strength
            seen.add(strength if strength in (INF, NEG_INF) else (strength > 0) - (strength < 0))
        assert seen == {INF, NEG_INF, 1, 0, -1}  # every case of the law was drawn


def _revised_by_definition(ranks, inside, strength):
    """Revision cell by cell: the A-cells less rank(A), the others less
    rank(not A) plus the strength, or INF at strength inf; a negative
    strength is the complement's lesson at the opposite strength."""
    if strength is NEG_INF or (strength is not INF and strength < 0):
        inside, strength = [not x for x in inside], -strength
    k_in = min((r for r, x in zip(ranks, inside) if x), default=INF)
    k_out = min((r for r, x in zip(ranks, inside) if not x), default=INF)
    if k_in is INF:
        return ImpossibleEvidence
    return tuple(
        r - k_in if x else INF if strength is INF else r if k_out is INF else r - k_out + strength
        for r, x in zip(ranks, inside)
    )


class TestLinearPasses:
    def test_revision_and_constrain_match_their_definitions(self):
        # Random OCFs of up to 4096 cells with about 30% INF, and a
        # proposition from constraints on one to three variables; the
        # condition for cond_rank comes from its own generator.
        rng = random.Random(29)
        rng_given = random.Random(31)
        checked = 0
        while checked < 40:
            space = StateSpace(tuple(
                Variable(f"V{k}", tuple(f"v{j}" for j in range(rng.randint(2, 4))))
                for k in range(rng.randint(1, 8))
            ))
            if space.size > 4096:
                continue
            kappa = random_ocf(rng, space, p_inf=0.3)
            constraints = {}
            for var in rng.sample(space.variables, rng.randint(1, min(3, len(space.variables)))):
                constraints[var.name] = rng.sample(var.domain, rng.randint(1, len(var.domain) - 1))
            prop = Proposition.constrain(space, constraints)
            inside = [
                all(state[space.names.index(n)] in vals for n, vals in constraints.items())
                for state in space.states()
            ]
            assert prop == Proposition.of_states(space, (i for i, x in enumerate(inside) if x))
            assert _cell_bits(prop.mask, space.size) == "".join("1" if x else "0" for x in inside)
            assert kappa.belief_strength(prop) == _beta_by_definition(
                min((r for r, x in zip(kappa.ranks, inside) if x), default=INF),
                min((r for r, x in zip(kappa.ranks, inside) if not x), default=INF),
            )
            for strength in (0, rng.randint(1, 6), -rng.randint(1, 6), INF, NEG_INF):
                want = _revised_by_definition(kappa.ranks, inside, strength)
                if want is ImpossibleEvidence:
                    with pytest.raises(ImpossibleEvidence, match="^the proposition is already ruled out$"):
                        kappa.revise(prop, strength)
                else:
                    assert kappa.revise(prop, strength).ranks == want
            assert kappa.rank_of(prop) == min((r for r, x in zip(kappa.ranks, inside) if x), default=INF)
            assert kappa.rank_of(~prop) == min(
                (r for r, x in zip(kappa.ranks, inside) if not x), default=INF
            )
            # Believed: every rank-0 state lies inside, the empty and the full proposition too.
            for p, p_inside in (
                (prop, inside),
                (Proposition.empty(space), [False] * space.size),
                (Proposition.full(space), [True] * space.size),
            ):
                assert kappa.is_believed(p) == all(x for r, x in zip(kappa.ranks, p_inside) if r == 0)
            given_constraints = {}
            for var in rng_given.sample(space.variables, rng_given.randint(1, min(3, len(space.variables)))):
                given_constraints[var.name] = rng_given.sample(
                    var.domain, rng_given.randint(1, len(var.domain) - 1)
                )
            given = Proposition.constrain(space, given_constraints)
            in_given = [
                all(state[space.names.index(n)] in vals for n, vals in given_constraints.items())
                for state in space.states()
            ]
            k_given = min((r for r, g in zip(kappa.ranks, in_given) if g), default=INF)
            if k_given is INF:
                with pytest.raises(EmptyCondition):
                    kappa.cond_rank(prop, given)
            elif not any(x and g for x, g in zip(inside, in_given)):
                assert kappa.cond_rank(prop, given) is INF
            else:
                k_both = min(r for r, x, g in zip(kappa.ranks, inside, in_given) if x and g)
                assert kappa.cond_rank(prop, given) == k_both - k_given
            checked += 1


def _least_by_walk(ranks, mask):
    """Least rank inside the bitset and outside it, one cell at a time."""
    inside = [r for i, r in enumerate(ranks) if mask >> i & 1 and r is not INF]
    outside = [r for i, r in enumerate(ranks) if not mask >> i & 1 and r is not INF]
    return min(inside, default=INF), min(outside, default=INF)


def _beta_by_definition(k_in, k_out):
    """β from the least ranks inside and outside: -k_in when the proposition
    is disbelieved (NEG_INF when it is ruled out), else k_out."""
    if k_in is INF:
        return NEG_INF
    return -k_in if k_in > 0 else k_out


class TestSelectorKernels:
    @pytest.mark.parametrize("size", (63, 64, 65, 128, 4096))
    def test_belief_strength_and_revise_match_a_plain_walk(self, size):
        # Tables on both sides of the word-size switch; sides with no INF,
        # about half INF and only INF; masks of random, low, high and single
        # cells, and the empty and the full mask.
        rng = random.Random(size)
        space = StateSpace((Variable("X", tuple(f"x{i}" for i in range(size))),))
        full = (1 << size) - 1
        for p_inf in (0.0, 0.5, 1.0):
            for _ in range(6):
                ranks = [INF if rng.random() < p_inf else rng.randint(0, 9) for _ in range(size)]
                masks = [
                    rng.getrandbits(size),
                    rng.getrandbits(min(size, 8)) | 1,  # low cells only
                    full ^ (full >> 2),  # the top two cells
                    1 << rng.randrange(size),
                    0,
                    full,
                ]
                # The walk reads any table, one with no 0 or no finite cell too.
                self.check_belief_strength(OCF._trusted(space, tuple(ranks)), masks, full)
                # The queries on a valid table: one cell made 0.
                ranks[rng.randrange(size)] = 0
                kappa = OCF(space, ranks)
                self.check_belief_strength(kappa, masks, full)
                for mask in masks:
                    k_in, k_out = _least_by_walk(ranks, mask)
                    prop = Proposition(space, mask)
                    if mask:
                        assert kappa.rank_of(prop) == k_in
                    assert kappa.is_believed(prop) == (k_out is INF or k_out > 0)
                    inside = [bool(mask >> i & 1) for i in range(size)]
                    for strength in (0, 3, INF):
                        if not mask:
                            with pytest.raises(EmptyProposition):
                                kappa.revise(prop, strength)
                        elif mask == full:
                            assert kappa.revise(prop, strength) is kappa
                        elif k_in is INF:
                            with pytest.raises(ImpossibleEvidence):
                                kappa.revise(prop, strength)
                        else:
                            want = _revised_by_definition(ranks, inside, strength)
                            assert kappa.revise(prop, strength).ranks == want

    @staticmethod
    def check_belief_strength(kappa, masks, full):
        for mask in masks:
            prop = Proposition(kappa.space, mask)
            if mask == 0:
                with pytest.raises(EmptyProposition):
                    kappa.belief_strength(prop)
            elif mask == full:
                with pytest.raises(FullProposition):
                    kappa.belief_strength(prop)
            else:
                want = _beta_by_definition(*_least_by_walk(kappa.ranks, mask))
                assert kappa.belief_strength(prop) == want

    def test_constrain_matches_the_projection_built_mask(self):
        # Spaces of up to 4096 cells over variables of 2 to 5 values; the
        # first, a middle and the last variable constrained alone, then
        # several at once.
        rng = random.Random(43)
        checked = 0
        while checked < 60:
            space = StateSpace(tuple(
                Variable(f"V{k}", tuple(f"v{j}" for j in range(rng.randint(2, 5))))
                for k in range(rng.randint(1, 7))
            ))
            if space.size > 4096:
                continue
            names = space.names
            picks = [[names[0]], [names[len(names) // 2]], [names[-1]]]
            picks.append(rng.sample(names, rng.randint(1, len(names))))
            for chosen in picks:
                constraints = {
                    n: rng.sample(space.variable(n).domain, rng.randint(1, len(space.variable(n).domain)))
                    for n in chosen
                }
                want = (1 << space.size) - 1
                for n, values in constraints.items():
                    digits = {space.value_digit(n, v) for v in values}
                    want &= sum(1 << i for i, d in enumerate(space.projection((n,))) if d in digits)
                assert Proposition.constrain(space, constraints).mask == want
            checked += 1

    def test_constrain_on_a_wide_domain_matches_the_per_state_definition(self):
        # Thousands of values: the mask is laid out in one pass over the
        # domain, and still equals the per-state definition.
        rng = random.Random(47)
        wide = Variable("W", tuple(f"w{j}" for j in range(3000)))
        space = StateSpace((Variable("A", ("y", "n")), wide, Variable("C", ("p", "q", "r"))))
        for count in (1, 1500, 2999):
            values = rng.sample(wide.domain, count)
            allowed, chosen = {"W": values, "C": ("r", "p")}, set(values)
            want = sum(
                1 << i for i, (_, w, c) in enumerate(space.states()) if w in chosen and c != "q"
            )
            assert Proposition.constrain(space, allowed).mask == want
        with pytest.raises(UnknownValue, match="^variable 'W' has no value 'w3000'$"):
            Proposition.constrain(space, {"W": ("w0", "w3000", "w3001")})


def _projection_by_prefix_expansion(space, keep):
    """The projection built from the first variable to the last: a kept
    variable with c values turns each entry p into p*c + d for every digit
    d, a dropped one repeats each entry c times."""
    kept, proj = set(keep), [0]
    for v in space.variables:
        digits = range(len(v.domain))
        if v.name in kept:
            proj = [p * len(digits) + d for p in proj for d in digits]
        else:
            proj = [p for p in proj for _ in digits]
    return proj


def _rank_check_by_walk(ranks):
    """The constructor's rank checks cell by cell: the first bad cell's
    text, else the missing zero's, else None."""
    has_zero = False
    for r in ranks:
        if not is_rank(r):
            return f"invalid rank {r!r}"
        if r is not INF and r == 0:
            has_zero = True
    return None if has_zero else "no state has rank 0"


def _constrained_by_bools(space, constraints):
    """Proposition.constrain's mask from one list of bools per constraint."""
    inside = [True] * space.size
    for name, values in constraints.items():
        digits = {space.value_digit(name, v) for v in values}
        proj = _projection_by_prefix_expansion(space, (name,))
        inside = [keep and d in digits for keep, d in zip(inside, proj)]
    return int("".join("1" if keep else "0" for keep in reversed(inside)), 2)


def test_whole_table_kernels_match_their_cell_by_cell_references():
    # Spaces of 1 to 7 variables of 2 to 4 values, declared in a shuffled
    # order, and their states; keep-sets of any subset, asked in any order;
    # constraints on any subset; rank tables with INF, some with no zero,
    # some all INF and some with bad cells.
    rng = random.Random(97)
    bad = (-1, -7, 1.0, 2.5, True, False, NEG_INF, "0", None)
    for _ in range(150):
        variables = [
            Variable(f"V{k}", tuple(f"v{k}_{j}" for j in range(rng.randint(2, 4))))
            for k in range(rng.randint(1, 7))
        ]
        rng.shuffle(variables)
        space = StateSpace(tuple(variables))
        assert list(space.states()) == [space.state_at(i) for i in range(space.size)]
        asked = rng.sample(space.names, rng.randint(1, len(space.names)))
        want = _projection_by_prefix_expansion(space, asked)
        assert space.projection(asked) == want
        assert space.projection(tuple(asked)) == want

        constraints = {
            v.name: rng.sample(v.domain, rng.randint(0, len(v.domain)))
            for v in rng.sample(variables, rng.randint(0, len(variables)))
        }
        assert Proposition.constrain(space, constraints).mask == _constrained_by_bools(space, constraints)

        p_inf = rng.choice((0.0, 0.3, 1.0))
        ranks = [INF if rng.random() < p_inf else rng.randint(0, 5) for _ in range(space.size)]
        if rng.random() < 0.5:
            ranks[rng.randrange(space.size)] = 0
        for _ in range(rng.choice((0, 0, 1, 3))):
            ranks[rng.randrange(space.size)] = rng.choice(bad)
        text = _rank_check_by_walk(ranks)
        if text is None:
            assert OCF(space, ranks).ranks == tuple(ranks)
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
                OCF(space, ranks)


class TestConditionalRank:
    def test_matches_the_subtraction_definition(self, prior, penguin_space):
        p = penguin(penguin_space)
        f = flys(penguin_space)
        assert prior.cond_rank(f, p) == prior.rank_of(f & p) - prior.rank_of(p)

    def test_incompatible_pair_is_inf(self):
        x = Variable("X", ("a", "b"))
        space = StateSpace((x,))
        k = OCF(space, (0, 1))
        a = Proposition.constrain(space, {"X": ("a",)})
        assert k.cond_rank(~a, a) is INF

    def test_conditioning_on_the_impossible_raises(self):
        x = Variable("X", ("a", "b"))
        space = StateSpace((x,))
        k = OCF(space, (0, INF))
        b = Proposition.constrain(space, {"X": ("b",)})
        with pytest.raises(EmptyCondition):
            k.cond_rank(b, b)
        with pytest.raises(EmptyCondition):
            k.cond_rank(b, Proposition.empty(space))


class TestMarginalize:
    def test_keeps_the_best_rank_per_reduced_state(self, prior):
        m = prior.marginalize(("species",))
        assert m.ranks == (1, 0, 0)
        m2 = prior.marginalize(("flight",))
        assert m2.ranks == (0, 0)

    def test_name_order_is_canonicalized(self, prior):
        assert prior.marginalize(("flight", "species")) is prior

    def test_projection_of_everything_is_identity(self, prior):
        assert prior.marginalize(("species", "flight")) is prior

    def test_unknown_names_are_reported_in_the_callers_order(self, five_node_net):
        # The first unknown name the caller gave, whatever the hash seed.
        table = five_node_net.tables["A"]
        for asked in itertools.permutations(("Q", "R", "S", "T")):
            for names in (asked, ("A", *asked), asked + ("A",)):
                with pytest.raises(UnknownVariable, match=f"^unknown variable '{asked[0]}'$"):
                    table.marginalize(names)
                with pytest.raises(UnknownVariable, match=f"^unknown variable '{asked[0]}'$"):
                    table.space.projection(list(names))

    def test_a_bare_string_is_not_a_collection_of_names(self, prior):
        # "AB" would split into A and B, a different marginal than the
        # variable AB, and "species" into letters that are no variables.
        a, b, ab = (Variable(n, ("x", "y")) for n in ("A", "B", "AB"))
        kappa = OCF(StateSpace((a, b, ab)), (0, 1, 2, 3, 1, 2, 3, 4))
        for call in (
            lambda: kappa.marginalize("AB"),
            lambda: kappa.space.projection("AB"),
            lambda: kappa.space.subspace("AB"),
            lambda: kappa.is_independent("A", "B", given="AB"),
            lambda: prior.marginalize("species"),
        ):
            with pytest.raises(ValueError, match="not a string: '(AB|species)'"):
                call()
        assert kappa.marginalize(("AB",)).space.names == ("AB",)

    def test_least_ranks_is_the_min_over_matching_states(self):
        # Brute force from the definition: for each reduced state, the least
        # rank among the full states that restrict to it. Ranks are signed,
        # as in the engine's working vectors, and some cells are INF.
        rng = random.Random(17)
        for _ in range(40):
            space = StateSpace(tuple(
                Variable(f"V{k}", tuple(f"v{j}" for j in range(rng.randint(2, 3))))
                for k in range(rng.randint(1, 3))
            ))
            ranks = [INF if rng.random() < 0.3 else rng.randint(-3, 5) for _ in range(space.size)]
            for width in range(1, len(space.names) + 1):
                for keep in itertools.combinations(space.names, width):
                    sub = space.subspace(keep)
                    pos = [space.names.index(n) for n in keep]
                    want = [
                        min(
                            (ranks[i] for i in range(space.size)
                             if tuple(space.state_at(i)[p] for p in pos) == state),
                            default=INF,
                        )
                        for state in sub.states()
                    ]
                    assert _least_ranks(ranks, space.projection(keep), sub.size) == want
        # A reduced state nothing maps to stays INF.
        assert _least_ranks([3, INF, -1], [0, 0, 2], 4) == [3, INF, -1, INF]

    def test_least_ranks_on_any_digit_map(self):
        # Digit maps drawn at random, not from a projection: reduced states
        # that no cell maps to, groups whose cells are all INF, and INF cells
        # before and after finite ones in a group. Ranks are signed.
        rng = random.Random(67)
        for _ in range(300):
            cells, size = rng.randint(0, 12), rng.randint(1, 6)
            ranks = [INF if rng.random() < 0.4 else rng.randint(-4, 6) for _ in range(cells)]
            digit_of = [rng.randrange(size) for _ in range(cells)]
            want = [
                min((r for r, j in zip(ranks, digit_of) if j == k and r is not INF), default=INF)
                for k in range(size)
            ]
            got = _least_ranks(ranks, digit_of, size)
            assert got == want
            assert all(g is INF for g, w in zip(got, want) if w is INF)


class TestIndependence:
    def test_additive_tables_make_variables_independent(self):
        x = Variable("X", ("a", "b"))
        y = Variable("Y", ("u", "v", "w"))
        space = StateSpace((x, y))
        k = OCF(space, tuple(i + j for i in (0, 2) for j in (0, 1, 3)))
        assert k.is_independent("X", "Y")

    def test_coupled_tables_are_dependent(self, prior):
        # penguins mostly do not fly; species and flight are linked
        assert not prior.is_independent("species", "flight")

    def test_jointly_impossible_conditioners_carry_no_constraint(self):
        # Y = w is impossible: only u and v, where X's ranks move alike or not, decide.
        x = Variable("X", ("a", "b"))
        y = Variable("Y", ("u", "v", "w"))
        space = StateSpace((x, y))
        assert OCF(space, (0, 1, INF, 2, 3, INF)).is_independent("X", "Y")
        assert not OCF(space, (0, 0, INF, 1, 2, INF)).is_independent("X", "Y")
        # Given Z, with (Y, Z) = (v, p) and (w, q) impossible: cells X * 6 + Y * 2 + Z.
        z = Variable("Z", ("p", "q"))
        ranks = [INF if i % 6 in (2, 5) else i // 6 + i % 2 for i in range(12)]
        assert OCF(StateSpace((x, y, z)), tuple(ranks)).is_independent("X", "Y", ("Z",))
        ranks[1] = 3  # X = b is now less surprising at (u, q) than at (v, q)
        assert not OCF(StateSpace((x, y, z)), tuple(ranks)).is_independent("X", "Y", ("Z",))

    def test_overlapping_arguments_raise(self, prior):
        with pytest.raises(ValueError):
            prior.is_independent("species", "species")
        with pytest.raises(ValueError):
            prior.is_independent("species", "flight", ("species",))


def test_ocf_constructor_rejects_bad_tables(penguin_space):
    for ranks, text in [
        ((1, 1, 1, 1, 1, 1), "no state has rank 0"),
        ((INF,) * 6, "no state has rank 0"),
        ((0, 1, 2), "rank table has 3 entries, space has 6 states"),
        ((0, 1, 2, 3, 4, -1), "invalid rank -1"),
        ((0, 1, 2, 3, 4, 1.5), "invalid rank 1.5"),
        ((0, 1, 2, 3, 4, True), "invalid rank True"),
        ((0, INF, NEG_INF, 3, 4, 5), "invalid rank -inf"),
        ((0, 1, "2", 3, 4, 5), "invalid rank '2'"),
        # several bad cells: the first one is named, before a missing zero
        ((1, INF, 2.5, -3, True, 1), "invalid rank 2.5"),
        ((1, INF, -3, 2.5, True, 1), "invalid rank -3"),
        ((1, INF, False, -3, 2.5, 1), "invalid rank False"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            OCF(penguin_space, ranks)


def test_revise_and_marginalize_outputs_pass_the_public_checks():
    # Both build their outputs unchecked; the constructor must accept each.
    rng = random.Random(83)
    for _ in range(300):
        space = StateSpace(
            tuple(Variable(f"X{i}", ("a", "b", "c")[: rng.randint(2, 3)]) for i in range(rng.randint(1, 3)))
        )
        kappa = random_ocf(rng, space, p_inf=0.2)
        mask = rng.randrange(1, (1 << space.size) - 1)
        prop = Proposition(space, mask)
        strength = rng.choice([INF, NEG_INF, 0, rng.randint(-5, 5)])
        try:
            posterior = kappa.revise(prop, strength)
        except ImpossibleEvidence:
            posterior = kappa
        keep = rng.sample(space.names, rng.randint(1, len(space.names)))
        for out in (posterior, kappa.marginalize(keep), posterior.marginalize(keep)):
            assert OCF(out.space, out.ranks) == out


def test_revise_still_refuses_a_strength_that_is_not_a_rank(prior, penguin_space):
    with pytest.raises(ValueError, match="invalid rank"):
        prior.revise(flys(penguin_space), 1.5)


def test_a_trusted_build_takes_no_more_memory_than_a_public_one(penguin_space):
    ranks = (0, 1, 2, 3, 4, INF)

    def allocated(build):
        # The least of three counts, so a one-off allocation is not counted.
        sizes = []
        for _ in range(3):
            tracemalloc.start()
            try:
                kept = [build(penguin_space, ranks) for _ in range(1000)]
                sizes.append(tracemalloc.get_traced_memory()[0])
            finally:
                tracemalloc.stop()
            assert all(k == kept[0] for k in kept)
        return min(sizes)

    assert allocated(OCF._trusted) <= allocated(OCF)
