"""One JSON-path mutator for the fuzz suites of the document layer and the CLI.

mutated(data, path) reads a bundled document and changes it in one place,
drawing every choice from hypothesis's data, so a derandomized suite
replays the same documents on every run. evidence_edit(data, path,
network) changes an evidence document so that it still parses against its
network, so the call goes on to the engine.
"""

from __future__ import annotations

import copy
import json

from hypothesis import strategies as st

# Stands for an integer of 5000 digits, past the int-to-str limit, which
# json.dumps cannot write.
HUGE = "<5000 digits>"
NAMES = [
    "A", "B", "C", "D", "E", "Z", "", "inf", "a0", "b1", "c0", "c1", "e1",
    "species", "PENGUIN", "flight", "extra",
    "variables", "edges", "tables", "name", "domain", "order", "ranks",
    "evidence", "variable", "values", "target", "strength",
]
VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 8)
    | st.sampled_from([2 ** 64, HUGE, 0.5, 1e300, -0.0])
    | st.sampled_from(NAMES),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(NAMES), inner, max_size=3),
    max_leaves=8,
)


def _slots(parent, key, out):
    """Every (container, key) below parent[key], that slot first."""
    out.append((parent, key))
    node = parent[key]
    for child in node if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else ():
        _slots(node, child, out)
    return out


def mutated(data, path) -> str:
    """The document at path, with one edit: a value swapped, a key or item
    deleted, an item appended or a key added, a record (an object or list
    in a list) duplicated in place, or the text cut short."""
    box = [json.loads(path.read_text())]
    op = data.draw(st.sampled_from(["swap", "delete", "append", "duplicate", "truncate"]))
    if op == "truncate":
        text = json.dumps(box[0])
        return text[:data.draw(st.integers(0, len(text) - 1))]
    slots = _slots(box, 0, [])
    if op == "delete":
        slots = slots[1:]
    elif op == "append":
        slots = [(parent, key) for parent, key in slots if isinstance(parent[key], (dict, list))]
    elif op == "duplicate":
        slots = [(parent, key) for parent, key in slots[1:]
                 if isinstance(parent, list) and isinstance(parent[key], (dict, list))]
    # A field is drawn first, list items counting as one field, so the
    # many rank cells and domain values do not crowd out the rest.
    fields = {}
    for parent, key in slots:
        fields.setdefault(key if isinstance(key, str) else "", []).append((parent, key))
    parent, key = data.draw(st.sampled_from(fields[data.draw(st.sampled_from(sorted(fields)))]))
    if op == "swap":
        parent[key] = data.draw(VALUES)
    elif op == "delete":
        del parent[key]
    elif op == "duplicate":
        parent.insert(key, copy.deepcopy(parent[key]))
    elif isinstance(parent[key], list):
        parent[key].append(data.draw(VALUES))
    else:
        parent[key][data.draw(st.sampled_from(NAMES))] = data.draw(VALUES)
    return json.dumps(box[0]).replace(json.dumps(HUGE), "1" * 5000)


RANKS = [*range(9), "inf"]


def evidence_edit(data, path, network) -> str:
    """The evidence document at path with one edit that keeps it parseable
    against the network document at network: an observed value becomes
    another value of its own variable, or a strength, or a target cell
    other than the first 0, becomes one of 0..8 or "inf"."""
    doc = json.loads(path.read_text())
    domains = {v["name"]: v["domain"] for v in json.loads(network.read_text())["variables"]}
    slots = []
    for item in doc["evidence"]:
        domain = domains[item["variable"]]
        slots += [(item["values"], i, domain) for i in range(len(item.get("values", ())))]
        if "strength" in item:
            slots.append((item, "strength", RANKS))
        target = item.get("target", [])
        slots += [(target, j, RANKS) for j in range(len(target)) if j != target.index(0)]
    parent, key, choices = data.draw(st.sampled_from(slots))
    parent[key] = data.draw(st.sampled_from([c for c in choices if c != parent[key]]))
    return json.dumps(doc)
