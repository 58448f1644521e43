"""Network and evidence documents.

Both formats are JSON. Ranks are non-negative integers, with the string
"inf" standing for the infinite rank; nothing is ever a float. A network
document lists variables (name plus domain), directed edges, and one table
per node giving the variable order its ranks are laid out in (row-major,
last variable fastest). The serializer always emits the canonical layout:
diagram declaration order everywhere, so parse -> serialize -> parse is
the identity and equal networks produce byte-identical documents.

Evidence documents hold a list of observations. A value observation names
a variable, the accepted values, and a strength (integer or "inf"); a
target observation instead carries a whole replacement marginal for the
variable, in domain order.
"""

from __future__ import annotations

import json
import sys
from json.encoder import encode_basestring_ascii
from typing import Any

from .diagram import InfluenceDiagram
from .errors import DocumentError, InvalidTarget, UnknownVariable
from .network import SpohnianNetwork
from .ocf import OCF, StateSpace, Variable
from .propagation import EvidenceSpec
from .ranks import INF, Rank, _rank_texts


def _rank_from_json(value: Any, where: str, *, signed: bool = False) -> Rank:
    if value == "inf":
        return INF
    if type(value) is int and (signed or value >= 0):
        return value
    kind = "an integer" if signed else "a non-negative integer"
    raise DocumentError(f'{where}: expected {kind} or "inf", got {value!r}')


def _load_json(text: str, what: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{what} is not valid JSON: {exc.msg} (line {exc.lineno}, column {exc.colno})") from exc
    except RecursionError as exc:
        raise DocumentError(f"{what} is nested too deeply") from exc
    except ValueError as exc:
        # The one other ValueError json.loads raises: an integer past
        # sys.get_int_max_str_digits(), 4300 digits by default.
        raise DocumentError(
            f"{what} holds an integer of more than {sys.get_int_max_str_digits()} digits"
        ) from exc


def _require_keys(obj: dict, allowed: set[str], required: set[str], where: str) -> None:
    extra = set(obj) - allowed
    if extra:
        raise DocumentError(f"{where}: unknown keys {sorted(extra)}")
    missing = required - set(obj)
    if missing:
        raise DocumentError(f"{where}: missing keys {sorted(missing)}")


# Each record's keys; a record's location string is formatted only for an error.
_NETWORK_KEYS = frozenset(("variables", "edges", "tables"))
_VARIABLE_KEYS = frozenset(("name", "domain"))
_TABLE_KEYS = frozenset(("order", "ranks"))


def parse_network(text: str) -> SpohnianNetwork:
    doc = _load_json(text, "network document")
    if not isinstance(doc, dict):
        raise DocumentError("network document must be a JSON object")
    _require_keys(doc, _NETWORK_KEYS, _NETWORK_KEYS, "network document")

    raw_vars = doc["variables"]
    if not isinstance(raw_vars, list) or not raw_vars:
        raise DocumentError("variables: expected a non-empty list")
    variables: list[Variable] = []
    declared: set[str] = set()
    for i, item in enumerate(raw_vars):
        if not isinstance(item, dict):
            raise DocumentError(f"variables[{i}]: expected an object")
        if item.keys() != _VARIABLE_KEYS:
            _require_keys(item, _VARIABLE_KEYS, _VARIABLE_KEYS, f"variables[{i}]")
        name, domain = item["name"], item["domain"]
        if not isinstance(name, str):
            raise DocumentError(f"variables[{i}].name: expected a string")
        if name in declared:
            raise DocumentError(f"variables[{i}]: duplicate variable name {name!r}")
        declared.add(name)
        if not isinstance(domain, list) or not all(isinstance(v, str) for v in domain):
            raise DocumentError(f"variables[{i}].domain: expected a list of strings")
        try:
            variables.append(Variable(name, tuple(domain)))
        except ValueError as exc:
            raise DocumentError(f"variables[{i}]: {exc}") from exc

    raw_edges = doc["edges"]
    if not isinstance(raw_edges, list):
        raise DocumentError("edges: expected a list")
    edges: list[tuple[str, str]] = []
    for i, item in enumerate(raw_edges):
        if not isinstance(item, list) or len(item) != 2 or not all(isinstance(e, str) for e in item):
            raise DocumentError(f"edges[{i}]: expected a [parent, child] pair of names")
        edges.append((item[0], item[1]))
    try:
        diagram = InfluenceDiagram(tuple(variables), tuple(edges))
    except (ValueError, UnknownVariable) as exc:
        raise DocumentError(f"edges: {exc}") from exc

    raw_tables = doc["tables"]
    if not isinstance(raw_tables, dict):
        raise DocumentError("tables: expected an object keyed by node name")
    missing = set(diagram.names) - set(raw_tables)
    if missing:
        raise DocumentError(f"tables: missing table for {sorted(missing)}")
    extra = set(raw_tables) - set(diagram.names)
    if extra:
        raise DocumentError(f"tables: unknown nodes {sorted(extra)}")

    families = diagram._families
    tables: dict[str, OCF] = {}
    for node in diagram.names:
        entry = raw_tables[node]
        if not isinstance(entry, dict):
            raise DocumentError(f"tables.{node}: expected an object")
        if entry.keys() != _TABLE_KEYS:
            _require_keys(entry, _TABLE_KEYS, _TABLE_KEYS, f"tables.{node}")
        order = entry["order"]
        family, members = families[node]
        canonical = order == list(family)
        if not canonical and (
            not isinstance(order, list)
            or not all(isinstance(n, str) for n in order)
            or sorted(order) != sorted(family)
        ):
            raise DocumentError(
                f"tables.{node}.order: expected a permutation of {list(family)}, got {order!r}"
            )
        # The diagram has checked the family: non-empty, distinct names.
        space = StateSpace._trusted(members, family)
        raw_ranks = entry["ranks"]
        # Any order is a permutation of the family, so its space has the same size.
        if not isinstance(raw_ranks, list) or len(raw_ranks) != space.size:
            raise DocumentError(
                f"tables.{node}.ranks: expected {space.size} entries, got "
                f"{len(raw_ranks) if isinstance(raw_ranks, list) else type(raw_ranks).__name__}"
            )
        # Plain non-negative ints (bools are not int here) are ranks as they
        # stand; anything else goes cell by cell, which names the first bad one.
        # Either way one min gives the least rank, which no reordering changes.
        least = min(raw_ranks) if set(map(type, raw_ranks)) == {int} else -1
        if least >= 0:
            ranks = raw_ranks
        else:
            ranks = [_rank_from_json(v, f"tables.{node}.ranks[{i}]") for i, v in enumerate(raw_ranks)]
            least = min(ranks)
        if not canonical:
            doc_space = StateSpace(tuple(diagram.variable(n) for n in order))
            at = [family.index(n) for n in order]
            ranks = [ranks[doc_space.index_of([s[p] for p in at])] for s in space.states()]
        if least != 0:
            raise DocumentError(f"tables.{node}: table has no rank-0 entry")
        # Every cell is a checked rank, there are space.size of them and one
        # is 0: exactly what OCF.__post_init__ would check again.
        tables[node] = OCF._trusted(space, tuple(ranks))

    return SpohnianNetwork(diagram, tables)


_SEP = ",\n        "
_VARIABLE = '    {\n      "name": %s,\n      "domain": [\n        %s\n      ]\n    }'
_EDGE = "    [\n      %s,\n      %s\n    ]"
_TABLE = '    %s: {\n      "order": [\n        %s\n      ],\n      "ranks": [\n        %s\n      ]\n    }'


def _block(items: list[str], brackets: str) -> str:
    """Records already rendered at depth 2, bracketed at depth 1."""
    if not items:
        return brackets
    return brackets[0] + "\n" + ",\n".join(items) + "\n  " + brackets[1]


def serialize_network(net: SpohnianNetwork) -> str:
    """The canonical document, byte for byte what json.dumps(doc, indent=2)
    gives, written directly from one template per variable, edge and table:
    for a dict json.dumps with indent falls back to its pure-Python encoder.
    Strings are quoted by encode_basestring_ascii, the function json.dumps
    itself returns through for a str, so their escaping is the json
    module's."""
    d = net.diagram
    quoted = {v.name: encode_basestring_ascii(v.name) for v in d.variables}
    variables = [
        _VARIABLE % (quoted[v.name], _SEP.join(map(encode_basestring_ascii, v.domain)))
        for v in d.variables
    ]
    edges = [_EDGE % (quoted[a], quoted[b]) for a, b in d.edges]
    tables = []
    for node in d.names:
        table = net.tables[node]
        order = _SEP.join([quoted[n] for n in table.space.names])
        ranks = _SEP.join(_rank_texts(table.ranks, f"table for {node}", '"inf"'))
        tables.append(_TABLE % (quoted[node], order, ranks))
    blocks = (_block(variables, "[]"), _block(edges, "[]"), _block(tables, "{}"))
    return '{\n  "variables": %s,\n  "edges": %s,\n  "tables": %s\n}\n' % blocks


def parse_evidence(text: str, net: SpohnianNetwork) -> list[EvidenceSpec]:
    doc = _load_json(text, "evidence document")
    if not isinstance(doc, dict):
        raise DocumentError("evidence document must be a JSON object")
    _require_keys(doc, {"evidence"}, {"evidence"}, "evidence document")
    raw = doc["evidence"]
    if not isinstance(raw, list) or not raw:
        raise DocumentError("evidence: expected a non-empty list")
    out: list[EvidenceSpec] = []
    for i, item in enumerate(raw):
        where = f"evidence[{i}]"
        if not isinstance(item, dict):
            raise DocumentError(f"{where}: expected an object")
        _require_keys(item, {"variable", "values", "target", "strength"}, {"variable"}, where)
        name = item["variable"]
        if not isinstance(name, str):
            raise DocumentError(f"{where}.variable: expected a string")
        try:
            var = net.diagram.variable(name)
        except UnknownVariable as exc:
            raise DocumentError(f"{where}.variable: {exc}") from exc
        has_values = "values" in item
        has_target = "target" in item
        if has_values == has_target:
            raise DocumentError(f"{where}: exactly one of values or target is required")
        if has_values:
            values = item["values"]
            if (
                not isinstance(values, list)
                or not values
                or not all(isinstance(v, str) for v in values)
            ):
                raise DocumentError(f"{where}.values: expected a non-empty list of strings")
            bad = [v for v in values if v not in var.domain]
            if bad:
                raise DocumentError(
                    f"{where}.values: {bad[0]!r} is not a value of {name!r}"
                )
            if "strength" not in item:
                raise DocumentError(f"{where}: value evidence needs a strength")
            strength = _rank_from_json(item["strength"], f"{where}.strength", signed=True)
            out.append(EvidenceSpec(name, values=tuple(values), strength=strength))
        else:
            if "strength" in item:
                raise DocumentError(f"{where}: target evidence takes no strength")
            target = item["target"]
            if not isinstance(target, list) or len(target) != len(var.domain):
                raise DocumentError(
                    f"{where}.target: expected {len(var.domain)} entries in domain order"
                )
            ranks = tuple(
                _rank_from_json(v, f"{where}.target[{j}]") for j, v in enumerate(target)
            )
            if min(ranks) != 0:
                raise InvalidTarget(f"{where}.target: no entry has rank 0")
            out.append(EvidenceSpec(name, target=ranks))
    return out
