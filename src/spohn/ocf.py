"""Ordinal conditional functions over finite multivariate state spaces.

An OCF assigns every state a rank: how implausible it is, 0 meaning fully
plausible and INF meaning impossible. At least one state always has rank 0.
The rank of a proposition is the rank of its least implausible state, a
proposition is believed when every rank-0 state satisfies it, and learning
is rank shifting: learning (A, alpha) makes the best A-state rank 0 and the
best non-A-state rank alpha. That shift is exactly reversible, which is the
point of using ranks instead of probabilities here.

States are value tuples in declared variable order; tables are dense,
row-major with the last variable varying fastest. A state space keeps
only its layout: its names, size and strides, laid out once, at
construction, in slots (every family table has one, so one is built on
every parse), and a cache of projections per subset. A lookup by name or
value reads the names and the domains. Propositions are bitsets over state
indices. Everything is immutable; operations return new objects.

StateSpace, Proposition and OCF are slotted frozen dataclasses: they are
built by the thousand (a proposition per belief read, an OCF per marginal
or revision), and a slot is a member descriptor. The trusted constructors,
for callers that have made the checks (parsing, revision, marginals,
belief reads), write fields through those descriptors' __set__, bound
once at import, at about half the cost of the object.__setattr__ that a
frozen class otherwise needs.

The whole-table kernels (projections, the checked constructor, constrain,
revise, and the joint in network.py) run on joints of up to 4096 cells in
the oracle, so they keep their per-cell work in list operations that run
in C: repetition, comprehensions, compress, min and join. Comprehensions
test cells against INF by identity; min over the selected cells compares
each INF cell through _Infinity's Python-level __lt__ or __gt__.

A belief read's least-rank walk lives in OCF.belief_strength and nowhere
else: a marginal of up to 64 cells is walked once, in place, and a wider
table is read through the byte selectors of _least, as revise reads both
sides of its proposition.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    EmptyCondition,
    EmptyProposition,
    FullProposition,
    ImpossibleEvidence,
    SpaceMismatch,
    UnknownValue,
    UnknownVariable,
)
from .ranks import (
    INF,
    NEG_INF,
    BeliefStrength,
    Rank,
    _Infinity,
    _NegInfinity,
    is_rank,
)


@dataclass(frozen=True)
class Variable:
    """A named variable with a finite domain of at least two value labels."""

    name: str
    domain: tuple[str, ...]

    def __post_init__(self):
        if not self.name:
            raise ValueError("variable name must be non-empty")
        if type(self.domain) is not tuple:
            object.__setattr__(self, "domain", tuple(self.domain))
        if len(self.domain) < 2:
            raise ValueError(f"variable {self.name!r} needs at least two values")
        if len(set(self.domain)) != len(self.domain):
            raise ValueError(f"variable {self.name!r} has duplicate values")


_new = object.__new__


def _slot_setters(cls: type, *names: str) -> tuple:
    """The named slots' member-descriptor __set__ methods, bound once: the
    trusted constructors write a frozen instance's fields through them."""
    return tuple(vars(cls)[name].__set__ for name in names)


def _lay_out(space: StateSpace, variables: tuple[Variable, ...], names: tuple[str, ...]) -> None:
    """Fill a new StateSpace's slots: one helper for both of its constructors."""
    size = 1
    strides = []  # last variable first
    for v in variables[::-1]:
        strides.append(size)
        size *= len(v.domain)
    set_variables, set_names, set_size, set_strides, set_cache = _SPACE_SLOTS
    set_variables(space, variables)
    set_names(space, names)
    set_size(space, size)
    set_strides(space, tuple(strides[::-1]))
    set_cache(space, {})


def _digit(var: Variable, value: str) -> int:
    """The value's position in the variable's domain."""
    if value not in var.domain:
        raise UnknownValue(f"variable {var.name!r} has no value {value!r}")
    return var.domain.index(value)


@dataclass(frozen=True, slots=True)
class StateSpace:
    """Cartesian product of variable domains, with mixed-radix indexing.

    Only the variables are compared. The layout (names, size, strides) is
    computed once at construction, into slots; lookups read the names and
    the domains, and projections are cached per subset.
    """

    variables: tuple[Variable, ...]
    names: tuple[str, ...] = field(init=False, compare=False, repr=False)
    size: int = field(init=False, compare=False, repr=False)
    strides: tuple[int, ...] = field(init=False, compare=False, repr=False)
    _proj_cache: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        variables = tuple(self.variables)
        if not variables:
            raise ValueError("state space needs at least one variable")
        names = tuple([v.name for v in variables])
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names in state space")
        _lay_out(self, variables, names)

    @classmethod
    def _trusted(cls, variables: tuple[Variable, ...], names: tuple[str, ...]) -> StateSpace:
        """A space without __post_init__'s checks, for a caller that has made
        them: variables is a non-empty tuple, names their distinct names."""
        out = _new(cls)
        _lay_out(out, variables, names)
        return out

    def __reduce__(self):
        # Rebuild through the constructor, so the layout and the projection
        # cache are neither pickled nor copied.
        return type(self), (self.variables,)

    def variable(self, name: str) -> Variable:
        if name not in self.names:
            raise UnknownVariable(f"unknown variable {name!r}")
        return self.variables[self.names.index(name)]

    def value_digit(self, name: str, value: str) -> int:
        return _digit(self.variable(name), value)

    def index_of(self, assignment: Sequence[str] | Mapping[str, str]) -> int:
        if isinstance(assignment, Mapping):
            missing = set(self.names) - set(assignment)
            if missing:
                raise UnknownVariable(f"assignment missing variables {sorted(missing)}")
            self.canonical_subset(assignment)  # names the first key the space lacks
            assignment = [assignment[n] for n in self.names]
        if len(assignment) != len(self.variables):
            raise ValueError("assignment length does not match variable count")
        cells = zip(self.variables, assignment, self.strides)
        return sum(_digit(v, value) * stride for v, value, stride in cells)

    def state_at(self, index: int) -> tuple[str, ...]:
        if not 0 <= index < self.size:
            raise IndexError(f"state index {index} out of range")
        out = []
        for v, stride in zip(self.variables, self.strides):
            digit, index = divmod(index, stride)
            out.append(v.domain[digit])
        return tuple(out)

    def states(self) -> Iterator[tuple[str, ...]]:
        """Every state in index order: the product of the domains, whose
        last variable varies fastest."""
        return itertools.product(*(v.domain for v in self.variables))

    def canonical_subset(self, names: Iterable[str]) -> tuple[str, ...]:
        """The given names, deduplicated and put in declared order.

        An unknown name raises UnknownVariable naming the first one in the
        caller's order. A bare string is refused, not split into letters.
        """
        if isinstance(names, str):
            raise ValueError(f"expected a collection of variable names, not a string: {names!r}")
        names = tuple(names)
        for n in names:
            if n not in self.names:
                raise UnknownVariable(f"unknown variable {n!r}")
        wanted = set(names)
        return tuple(n for n in self.names if n in wanted)

    def subspace(self, names: Iterable[str]) -> StateSpace:
        keep = self.canonical_subset(names)
        if not keep:
            raise ValueError("subspace needs at least one variable")
        return StateSpace(tuple(self.variable(n) for n in keep))

    def projection(self, names: Iterable[str]) -> list[int]:
        """Map each full state index to its index in subspace(names).

        Built over the variables from the last to the first, so each step
        prepends one digit: a dropped variable with c values repeats the
        whole list c times, and a kept one lays c copies end to end, the
        d-th shifted by d times the size of the kept suffix. Both are list
        operations that run in C, O(size) in all, and the result is cached
        per subset. The cache is keyed by canonical tuples, so a caller's
        tuple that is one is looked up before canonicalising.
        """
        if type(names) is tuple:
            cached = self._proj_cache.get(names)
            if cached is not None:
                return cached
        keep = self.canonical_subset(names)
        if not keep:
            raise ValueError("projection needs at least one variable")
        cached = self._proj_cache.get(keep)
        if cached is not None:
            return cached
        kept_set = set(keep)
        proj, sub = [0], 1
        for v in reversed(self.variables):
            c = len(v.domain)
            if v.name in kept_set:
                proj = [p + d for d in range(0, c * sub, sub) for p in proj]
                sub *= c
            else:
                proj *= c
        self._proj_cache[keep] = proj
        return proj


@dataclass(frozen=True, slots=True)
class Proposition:
    """A set of states, stored as a bitset over state indices."""

    space: StateSpace
    mask: int

    def __post_init__(self):
        if not 0 <= self.mask < (1 << self.space.size):
            raise ValueError("proposition mask outside the state space")

    @classmethod
    def empty(cls, space: StateSpace) -> Proposition:
        return cls(space, 0)

    @classmethod
    def full(cls, space: StateSpace) -> Proposition:
        return cls(space, (1 << space.size) - 1)

    @staticmethod
    def of_states(space: StateSpace, indices: Iterable[int]) -> Proposition:
        # A staticmethod, not a classmethod: belief reads build one
        # proposition each, and a classmethod binds its class on every call.
        size, mask = space.size, 0
        for i in indices:
            if not 0 <= i < size:
                raise ValueError(f"state index {i} out of range")
            mask |= 1 << i
        # Every bit is a state of the space: __post_init__'s check holds.
        # _trusted's body, inlined, for the same reason.
        out = _new(Proposition)
        _set_prop_space(out, space)
        _set_mask(out, mask)
        return out

    @classmethod
    def _trusted(cls, space: StateSpace, mask: int) -> Proposition:
        """A proposition without __post_init__'s check, for a caller whose
        mask lies in the space by construction."""
        out = _new(cls)
        _set_prop_space(out, space)
        _set_mask(out, mask)
        return out

    @classmethod
    def constrain(cls, space: StateSpace, constraints: Mapping[str, Iterable[str]]) -> Proposition:
        """States whose value for every constrained variable is among those allowed.

        A variable's mask is laid out from its stride: one run of stride
        characters per digit, last digit first, and that block once per
        value of the variables declared before it, read last cell first.
        """
        mask = (1 << space.size) - 1
        for name, values in constraints.items():
            if isinstance(values, str):
                raise ValueError(f"values of {name} must be a collection, not a string: {values!r}")
            var, values = space.variable(name), tuple(values)
            try:
                allowed = set(values)
            except TypeError:  # an unhashable value, which no domain holds
                allowed = None
            if allowed is None or not allowed <= set(var.domain):
                _digit(var, next(v for v in values if v not in var.domain))
            stride = space.strides[space.names.index(name)]
            block = "".join(("1" if v in allowed else "0") * stride for v in reversed(var.domain))
            mask &= int(block * (space.size // (len(var.domain) * stride)), 2)
        return cls(space, mask)

    def _check_space(self, other: Proposition) -> None:
        if self.space != other.space:
            raise SpaceMismatch("propositions live in different state spaces")

    def __and__(self, other: Proposition) -> Proposition:
        self._check_space(other)
        return Proposition._trusted(self.space, self.mask & other.mask)

    def __or__(self, other: Proposition) -> Proposition:
        self._check_space(other)
        return Proposition._trusted(self.space, self.mask | other.mask)

    def __invert__(self) -> Proposition:
        return Proposition._trusted(self.space, self.mask ^ ((1 << self.space.size) - 1))

    @property
    def is_empty(self) -> bool:
        return self.mask == 0

    @property
    def is_full(self) -> bool:
        return self.mask == (1 << self.space.size) - 1

    def count(self) -> int:
        return bin(self.mask).count("1")


def _least_ranks(ranks: Sequence[Rank], digit_of: Sequence[int], size: int) -> list[Rank]:
    """Least rank per reduced state: out[j] = min of ranks[i] with digit_of[i] == j.

    digit_of maps each cell to a reduced state, as StateSpace.projection
    does; a reduced state nothing maps to keeps INF. Ranks may be signed.
    The identity tests spare INF's Python-level comparisons on every cell.
    """
    out: list[Rank] = [INF] * size
    for r, j in zip(ranks, digit_of):
        o = out[j]
        if o is INF or (r is not INF and r < o):
            out[j] = r
    return out


def _cell_bits(mask: int, size: int) -> str:
    """The bitset as one character per cell, "1" inside, cell 0 first.

    One linear pass; testing the bits of a big int one shift at a time
    would cost O(size) per bit.
    """
    return bin(mask)[:1:-1].ljust(size, "0")


_INSIDE = bytes.maketrans(b"01", b"\x00\x01")
_OUTSIDE = bytes.maketrans(b"01", b"\x01\x00")


def _selector(mask: int, size: int, side: bytes = _INSIDE) -> bytes:
    """One 0/1 byte per cell, cell 0 first, as itertools.compress reads it:
    1 for the cells inside the bitset, or with _OUTSIDE for the rest."""
    return _cell_bits(mask, size).encode().translate(side)


def _least(ranks: Sequence[Rank], selector: bytes) -> Rank:
    """Least rank among the selected cells; INF when none is finite. The
    selection must not be empty: min's default= keyword would cost more
    than the walk on a small table."""
    return min(itertools.compress(ranks, selector))


_RANK_TYPES = frozenset((int, _Infinity))


@dataclass(frozen=True)
class OCF:
    """A ranking of all states: dense, min 0, possibly infinite entries."""

    # _marginal is SpohnianNetwork.marginal's memo, set on a table's
    # instance on first read: a slot, not a field.
    __slots__ = ("space", "ranks", "_marginal")

    space: StateSpace
    ranks: tuple[Rank, ...]

    def __post_init__(self):
        object.__setattr__(self, "ranks", tuple(self.ranks))
        if len(self.ranks) != self.space.size:
            raise ValueError(
                f"rank table has {len(self.ranks)} entries, space has {self.space.size} states"
            )
        # One type pass and one min over the finite cells; the identity test
        # spares INF's Python-level comparisons. Walk the cells only to name
        # the first bad one.
        low = -1
        if set(map(type, self.ranks)) <= _RANK_TYPES:
            low = min([r for r in self.ranks if r is not INF], default=1)
        if low < 0:
            bad = next(r for r in self.ranks if not is_rank(r))
            raise ValueError(f"invalid rank {bad!r}")
        if low:
            raise ValueError("no state has rank 0")
        _set_marginal(self, None)

    def __reduce__(self):
        # Rebuild through the constructor, so the memo is neither pickled nor copied.
        return type(self), (self.space, self.ranks)

    @classmethod
    def _trusted(cls, space: StateSpace, ranks: tuple[Rank, ...]) -> OCF:
        """An OCF without __post_init__'s checks, for a caller that has made
        them: ranks is a tuple of space.size ranks, one of them 0."""
        out = _new(cls)
        _set_space(out, space)
        _set_ranks(out, ranks)
        _set_marginal(out, None)
        return out

    def rank_of(self, prop: Proposition) -> Rank:
        """Rank of a proposition: the rank of its best state."""
        if prop.space != self.space:
            raise SpaceMismatch("proposition is over a different state space")
        if prop.is_empty:
            raise EmptyProposition("the empty proposition has no rank")
        return _least(self.ranks, _selector(prop.mask, self.space.size))

    def is_believed(self, prop: Proposition) -> bool:
        """True when every rank-0 state satisfies the proposition, that is,
        when every state outside it has a positive rank."""
        if prop.space != self.space:
            raise SpaceMismatch("proposition is over a different state space")
        if prop.is_full:
            return True  # no state lies outside
        k_out = _least(self.ranks, _selector(prop.mask, self.space.size, _OUTSIDE))
        return k_out is INF or k_out > 0

    def belief_strength(self, prop: Proposition) -> BeliefStrength:
        """How firmly the proposition is held: negative when disbelieved.

        Defined only for proper non-empty propositions.
        """
        # A marginal and a proposition built on it share their space; the
        # identity test spares the dataclass comparison on every read.
        space, mask = prop.space, prop.mask
        if space is not self.space and space != self.space:
            raise SpaceMismatch("proposition is over a different state space")
        if mask == 0:
            raise EmptyProposition("belief strength of the empty proposition is undefined")
        if mask == (1 << space.size) - 1:
            raise FullProposition("belief strength of the full space is undefined")
        # The least rank inside the mask and outside it; a side with no finite
        # cell keeps INF. A table that fits a machine word (a one-variable
        # marginal, as a belief read takes) is walked once, shifting the mask
        # as the walk goes; a wider one is read through one selector per
        # side, since each shift of a big int costs O(size).
        ranks = self.ranks
        if len(ranks) > 64:
            k_in = _least(ranks, _selector(mask, space.size))
            k_out = _least(ranks, _selector(mask, space.size, _OUTSIDE))
        else:
            k_in = k_out = INF
            for r in ranks:
                if r is not INF:
                    if mask & 1:
                        if k_in is INF or r < k_in:
                            k_in = r
                    elif k_out is INF or r < k_out:
                        k_out = r
                mask >>= 1
        if k_in is INF:
            return NEG_INF
        if k_in > 0:
            return -k_in
        return k_out

    def revise(self, prop: Proposition, strength: BeliefStrength) -> OCF:
        """Learn (prop, strength): best prop-state to 0, best complement-state to strength.

        A negative strength is the same lesson about the complement: learning
        A at -n is learning not-A at n, and the tables come out identical.
        Infinite strength conditions on prop, excluding everything else;
        states already impossible stay impossible no matter what.
        """
        if prop.space != self.space:
            raise SpaceMismatch("proposition is over a different state space")
        if prop.is_empty:
            raise EmptyProposition("cannot learn the empty proposition")
        if isinstance(strength, (int, _NegInfinity)) and strength < 0:
            return self.revise(~prop, -strength)
        if prop.is_full:
            return self
        ranks = self.ranks
        inside = _selector(prop.mask, self.space.size)
        k_in = _least(ranks, inside)
        # Conditioning reads no k_out; it also covers a prop already certain,
        # whose complement is INF.
        if isinstance(strength, _Infinity):
            k_out = strength
        else:
            k_out = _least(ranks, _selector(prop.mask, self.space.size, _OUTSIDE))
        if isinstance(k_in, _Infinity):
            raise ImpossibleEvidence("the proposition is already ruled out")
        # The identity tests spare INF's Python-level arithmetic on every cell.
        if isinstance(k_out, _Infinity):
            out = [INF if not s or r is INF else r - k_in for r, s in zip(ranks, inside)]
        else:
            shift = strength - k_out
            out = [r if r is INF else r - k_in if s else r + shift for r, s in zip(ranks, inside)]
        if type(strength) is not int and strength is not INF:
            return OCF(self.space, tuple(out))  # no rank: the checks name the bad cell
        # Valid: k_in, the least rank in prop, is subtracted there, and outside
        # it the least rank k_out becomes strength >= 0 (or stays INF).
        return OCF._trusted(self.space, tuple(out))

    def cond_rank(self, prop: Proposition, given: Proposition) -> Rank:
        """Rank of prop conditional on given; INF when they are incompatible."""
        if prop.space != self.space or given.space != self.space:
            raise SpaceMismatch("propositions are over a different state space")
        if given.is_empty:
            raise EmptyCondition("cannot condition on the empty proposition")
        k_given = self.rank_of(given)
        if isinstance(k_given, _Infinity):
            raise EmptyCondition("cannot condition on an impossible proposition")
        both = prop & given
        if both.is_empty:
            return INF
        return self.rank_of(both) - k_given

    def marginalize(self, names: Iterable[str]) -> OCF:
        """Project onto the named variables; each reduced state keeps its best rank."""
        keep = self.space.canonical_subset(names)
        if not keep:
            raise ValueError("must keep at least one variable")
        if keep == self.space.names:
            return self
        sub = self.space.subspace(keep)
        ranks = _least_ranks(self.ranks, self.space.projection(keep), sub.size)
        # Valid: each reduced state keeps the least of its cells, so the 0 survives.
        return OCF._trusted(sub, tuple(ranks))

    def is_independent(self, x: str, y: str, given: Iterable[str] = ()) -> bool:
        """Variable-level conditional independence of x and y given a set.

        Holds when conditioning on y never changes x's conditional ranks,
        cell by cell, at every jointly possible value of the conditioners.
        """
        z = self.space.canonical_subset(given)
        if x in z or y in z or x == y:
            raise ValueError("x, y and the conditioning set must be disjoint")
        self.space.variable(x)
        self.space.variable(y)
        m_xyz = self.marginalize((x, y, *z))
        m_yz = m_xyz.marginalize((y, *z))
        m_xz = m_xyz.marginalize((x, *z))
        m_z = m_xyz.marginalize(z) if z else None
        p_yz = m_xyz.space.projection((y, *z))
        p_xz = m_xyz.space.projection((x, *z))
        p_z = m_xyz.space.projection(z) if z else None
        for i, k_xyz in enumerate(m_xyz.ranks):
            k_yz = m_yz.ranks[p_yz[i]]
            if isinstance(k_yz, _Infinity):
                continue  # jointly impossible conditioners carry no constraint
            k_z = m_z.ranks[p_z[i]] if m_z is not None else 0
            k_xz = m_xz.ranks[p_xz[i]]
            left = k_xyz - k_yz
            right = k_xz - k_z
            if left != right:
                return False
        return True


_SPACE_SLOTS = _slot_setters(StateSpace, "variables", "names", "size", "strides", "_proj_cache")
_set_prop_space, _set_mask = _slot_setters(Proposition, "space", "mask")
_set_space, _set_ranks, _set_marginal = _slot_setters(OCF, "space", "ranks", "_marginal")
