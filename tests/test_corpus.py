"""Same bytes: a seeded corpus of in-process `spohn` calls, checked against
a manifest.

Each case runs spohn.cli.main(argv) on documents written to a temporary
directory and records four fields: the exit code, stdout, stderr and the
--out file. tests/corpus_manifest.json keeps, per group and per call, the
exit code and the SHA-256 of each other field (null for no --out file).
Paths are written as <tmp> and <docs> before hashing. A group fails on its
first differing call, naming the call and the field.

The networks are seeded generator networks of 8 to 200 variables and the
bundled docs/. A change to the manifest is a change of behaviour; rewrite
it with

    PYTHONPATH=src python tests/test_corpus.py --write

and name each group whose digests changed.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from spohn import INF, serialize_network
from spohn.cli import main

from generators import random_diagram, random_network, random_target

HERE = Path(__file__).resolve().parent
DOCS = HERE.parent / "docs"
MANIFEST = HERE / "corpus_manifest.json"
GROUPS = ("propagate", "compare", "query", "validate", "errors")
MODES = ("single", "certain", "uncertain")


def _rank(r) -> object:
    return "inf" if r is INF else r


def _write(root: Path, name: str, doc) -> str:
    path = root / name
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
    return str(path)


def _evidence(rng: random.Random, net, mode: str) -> dict:
    """A seeded evidence document of the mode's kind. Certain items may
    contradict a network with impossible cells; that is a case too."""
    names = net.diagram.names
    items = []
    if mode == "uncertain":
        for name in rng.sample(names, rng.randint(1, min(3, len(names)))):
            target = random_target(rng, net.diagram.variable(name).domain, p_inf=0.2)
            items.append({"variable": name, "target": [_rank(r) for r in target]})
    else:
        for _ in range(1 if mode == "single" else rng.randint(1, 8)):
            name = rng.choice(names)
            dom = net.diagram.variable(name).domain
            values = rng.sample(dom, rng.randint(1, len(dom) - 1) if mode == "single" else 1)
            strength = rng.choice(["inf", 0, 1, 3, -2]) if mode == "single" else "inf"
            items.append({"variable": name, "values": values, "strength": strength})
    return {"evidence": items}


def _networks(root: Path, rng: random.Random, sizes, max_domain: int, prefix: str):
    """(network path, network) per seeded generator network."""
    out = []
    for n in sizes:
        for shape in ("forest", "chain", "star"):
            p_inf = rng.choice([0.0, 0.15])
            diagram = random_diagram(rng, n, max_domain=max_domain, p_detach=0.1, shape=shape)
            net = random_network(rng, diagram, max_rank=4, p_inf=p_inf)
            path = _write(root, f"{prefix}_{shape}{n}.json", serialize_network(net))
            out.append((path, net))
    return out


def _malformed_networks() -> list[str]:
    five = json.loads((DOCS / "five_node.json").read_text())

    def edited(path, value):
        doc = json.loads(json.dumps(five))
        *head, last = path
        node = doc
        for key in head:
            node = node[key]
        if value is KeyError:
            del node[last]
        else:
            node[last] = value
        return json.dumps(doc)

    return [
        "", "[]", "{", '{"variables": [}', "null", "{\n  \"variables\": 1,\n}",
        "[" * 100_000, '{"a": 1e400}',
        edited(("variables",), []),
        edited(("variables", 0, "domain"), ["a0", "a0"]),
        edited(("variables", 0, "domain"), []),
        edited(("variables", 0, "name"), 7),
        edited(("edges",), {}),
        edited(("edges", 0), ["A"]),
        edited(("edges", 0), ["A", "Z"]),
        edited(("edges", 0), ["B", "A"]),
        edited(("edges",), [["A", "B"], ["B", "D"], ["C", "D"], ["C", "E"], ["A", "C"]]),
        edited(("tables", "A"), KeyError),
        edited(("tables", "Z"), {"order": ["Z"], "ranks": [0, 1]}),
        edited(("tables", "B", "order"), ["B", "C"]),
        edited(("tables", "B", "order"), ["A", 1]),
        edited(("tables", "B", "ranks"), [0, 2, 2]),
        edited(("tables", "B", "ranks"), [0, 2, -2, 1]),
        edited(("tables", "B", "ranks"), [0, 2, "x", 1]),
        edited(("tables", "B", "ranks"), [True, 2, 2, 1]),
        edited(("tables", "B", "ranks"), [1, 2, 2, 1]),
        edited(("tables", "B", "ranks"), [0, 2, 2, 0]),
        edited(("tables", "D", "ranks"), [0, 1, 5, 3, 1, 1, 5, 5]),
        edited(("tables", "E", "ranks"), [0, 2, "inf", "inf"]),
        edited(("tables", "A", "ranks"), [0, 1.5]),
        edited(("surplus",), 1),
        edited(("edges",), KeyError),
    ]


def _malformed_evidence() -> list[str]:
    return [
        "", "[]", "{}", '{"evidence": []}', '{"evidence": [1]}', '{"evidence": {}}',
        '{"evidence": [{"variable": "Z", "values": ["z"], "strength": 1}]}',
        '{"evidence": [{"variable": "B", "values": ["b9"], "strength": 1}]}',
        '{"evidence": [{"variable": "B", "values": [], "strength": 1}]}',
        '{"evidence": [{"variable": "B", "values": "b0", "strength": 1}]}',
        '{"evidence": [{"variable": "B", "values": ["b0"]}]}',
        '{"evidence": [{"variable": "B", "values": ["b0"], "strength": 1.5}]}',
        '{"evidence": [{"variable": "B", "values": ["b0"], "strength": "-inf2"}]}',
        '{"evidence": [{"variable": "B", "target": [0, 1], "strength": 1}]}',
        '{"evidence": [{"variable": "B", "target": [0]}]}',
        '{"evidence": [{"variable": "B", "target": [1, 2]}]}',
        '{"evidence": [{"variable": "B", "target": [0, -1]}]}',
        '{"evidence": [{"variable": "B", "values": ["b0"], "target": [0, 1], "strength": 1}]}',
        '{"evidence": [{"variable": "B"}]}',
        '{"evidence": [{"variable": "B", "values": ["b0"], "strength": 1, "x": 0}]}',
        '{"evidence": [{"variable": 3, "values": ["b0"], "strength": 1}]}',
        '{"evidence": [{"variable": "B", "target": [0, 1]}, {"variable": "B", "target": [1, 0]}]}',
        '{"evidence": [{"variable": "B", "values": ["b0"], "strength": "inf"},'
        ' {"variable": "B", "values": ["b1"], "strength": "inf"}]}',
        '{"evidence": [{"variable": "B", "values": ["b0", "b1"], "strength": "-inf"}]}',
        '{"evidence": [\n  {"variable": "B",\n}',
    ]


def build(root: Path) -> dict[str, list[list[str]]]:
    """Write the corpus's documents under root; its argv lists per group."""
    rng = random.Random(2604)
    groups: dict[str, list[list[str]]] = {g: [] for g in GROUPS}
    large = _networks(root, rng, (8, 40, 200), 3, "net")
    small = _networks(root, rng, (8, 10), 2, "small")
    docs = {name: str(DOCS / name) for name in sorted(p.name for p in DOCS.glob("*.json"))}

    for i, (path, net) in enumerate(large + small):
        for mode in MODES:
            ev = _write(root, f"ev{i}_{mode}.json", _evidence(rng, net, mode))
            for order in ([], ["--seed", "1"]):
                for trace in ([], ["--trace"]):
                    groups["propagate"].append(["propagate", path, ev, "--mode", mode, *order, *trace])
            if i >= len(large):
                for order in ([], ["--seed", "1"]):
                    groups["compare"].append(["compare", path, ev, "--mode", mode, *order])
        mixed = {"evidence": [item for mode in MODES for item in _evidence(rng, net, mode)["evidence"]]}
        ev = _write(root, f"ev{i}_mixed.json", mixed)
        for mode in MODES:
            groups["errors"].append(["propagate", path, ev, "--mode", mode])
            groups["errors"].append(["compare", path, ev, "--mode", mode])
        out = str(root / f"out{i}.json")
        groups["propagate"].append(
            ["propagate", path, str(root / f"ev{i}_certain.json"), "--mode", "certain", "--out", out]
        )
        groups["validate"].append(["validate", path])
        a, b = net.diagram.names[:2]
        dom = net.diagram.variable(b).domain
        groups["query"] += [
            ["query", path, "--marginal", a],
            ["query", path, "--marginal", "Z"],
            ["query", path, "--joint"],
            ["query", path, "--believe", f"{b}={dom[0]}"],
            ["query", path, "--believe", f"{b}={','.join(dom[1:])}"],
            ["query", path, "--believe", f"{b}={','.join(dom)}"],
            ["query", path, "--beta", f"{b}={dom[-1]}"],
            ["query", path, "--beta", f"{b}={','.join(dom)}"],
            ["query", path, "--beta", f"{b}=nope"],
            ["query", path, "--believe", f"{b}"],
        ]

    # Each generated network with one table cell raised: mostly invalid.
    for i, (path, net) in enumerate(large):
        doc = json.loads(Path(path).read_text())
        table = doc["tables"][net.diagram.names[-1]]
        table["ranks"][-1] = 9 if table["ranks"][-1] == "inf" else table["ranks"][-1] + 1
        bad = _write(root, f"bad{i}.json", doc)
        groups["validate"].append(["validate", bad])
        groups["errors"].append(["propagate", bad, str(root / f"ev{i}_single.json"), "--mode", "single"])
        groups["errors"].append(["query", bad, "--marginal", net.diagram.names[0]])

    # The bundled documents.
    networks = [docs["penguin.json"], docs["five_node.json"]]
    for net_doc in networks:
        groups["validate"].append(["validate", net_doc])
        groups["query"].append(["query", net_doc, "--joint"])
    for var in ("species", "flight"):
        groups["query"].append(["query", docs["penguin.json"], "--marginal", var])
    groups["query"] += [
        ["query", docs["penguin.json"], "--believe", "flight=FLYS"],
        ["query", docs["penguin.json"], "--beta", "species=PENGUIN,NOT-BIRD"],
        ["query", docs["five_node.json"], "--believe", "D=d0"],
    ]
    bundled = [
        (docs["penguin.json"], docs["evidence_bird.json"], "single"),
        (docs["penguin.json"], docs["evidence_penguin.json"], "single"),
        (docs["five_node.json"], docs["evidence_certain.json"], "certain"),
        (docs["five_node.json"], docs["evidence_target.json"], "uncertain"),
    ]
    for net_doc, ev_doc, mode in bundled:
        for other in MODES:
            for command in ("propagate", "compare"):
                group = command if other == mode else "errors"
                groups[group].append([command, net_doc, ev_doc, "--mode", other])
        groups["propagate"].append(["propagate", net_doc, ev_doc, "--mode", mode, "--seed", "1", "--trace"])
    # Two lessons in a row, the README's walk-through.
    t1 = str(root / "t1.json")
    groups["propagate"] += [
        ["propagate", docs["penguin.json"], docs["evidence_bird.json"], "--mode", "single", "--out", t1],
        ["propagate", t1, docs["evidence_penguin.json"], "--mode", "single", "--trace"],
    ]

    # Malformed documents, and files that are not there or not writable.
    for i, text in enumerate(_malformed_networks()):
        path = _write(root, f"malformed{i}.json", text)
        groups["errors"].append(["validate", path])
        if i % 4 == 0:
            groups["errors"].append(["propagate", path, docs["evidence_certain.json"], "--mode", "certain"])
    for i, text in enumerate(_malformed_evidence()):
        path = _write(root, f"malformed_ev{i}.json", text)
        for mode in MODES:
            groups["errors"].append(["propagate", docs["five_node.json"], path, "--mode", mode])
    (root / "latin1.json").write_bytes(b'{"evidence": "\xe9"}')
    groups["errors"] += [
        ["validate", str(root / "absent.json")],
        ["propagate", docs["five_node.json"], str(root / "absent.json"), "--mode", "certain"],
        ["propagate", docs["five_node.json"], str(root / "latin1.json"), "--mode", "certain"],
        ["propagate", docs["five_node.json"], docs["evidence_certain.json"], "--mode", "certain",
         "--out", str(root)],
        ["query", docs["five_node.json"], "--believe", "=b0"],
        ["query", docs["five_node.json"], "--beta", "B=b0,"],
    ]
    return groups


def _normal(text: str, root: Path) -> str:
    return text.replace(str(root), "<tmp>").replace(str(DOCS), "<docs>")


def record(argv: list[str], root: Path) -> tuple[int, str, str, str | None]:
    """Run the call in process: exit code, stdout, stderr and --out file."""
    out, err = io.BytesIO(), io.BytesIO()
    stdout = io.TextIOWrapper(out, encoding="utf-8", newline="", write_through=True)
    stderr = io.TextIOWrapper(err, encoding="utf-8", newline="", write_through=True)
    target = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
    if target is not None and target.is_file():
        target.unlink()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(argv)
    written = target.read_text(encoding="utf-8") if target is not None and target.is_file() else None
    texts = [_normal(b.getvalue().decode("utf-8"), root) for b in (out, err)]
    return code, *texts, written


def _sha(text: str | None) -> str | None:
    return None if text is None else hashlib.sha256(text.encode()).hexdigest()


def digests(argv: list[str], root: Path) -> dict:
    code, out, err, written = record(argv, root)
    return {"exit": code, "stdout": _sha(out), "stderr": _sha(err), "file": _sha(written)}


def key(argv: list[str], root: Path) -> str:
    return _normal(" ".join(argv), root)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    return root, build(root)


@pytest.fixture(scope="module")
def manifest():
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


@pytest.mark.parametrize("group", GROUPS)
def test_every_call_keeps_its_bytes(corpus, manifest, group):
    root, groups = corpus
    want = manifest[group]
    calls = groups[group]
    assert [key(argv, root) for argv in calls] == list(want), f"{group}: the calls changed"
    for argv in calls:
        got = digests(argv, root)
        expected = want[key(argv, root)]
        differs = [field for field in expected if got[field] != expected[field]]
        assert not differs, f"{group}: `spohn {key(argv, root)}` differs in {', '.join(differs)}"


def test_the_corpus_reaches_every_exit_and_output(manifest):
    cases = [case for group in manifest.values() for case in group.values()]
    assert {case["exit"] for case in cases} == {0, 1, 2}
    assert any(case["file"] for case in cases)
    assert len(manifest["propagate"]) >= 200


def test_the_manifest_names_no_path(manifest):
    text = json.dumps(manifest)
    assert "/tmp" not in text and str(DOCS) not in text


def write_manifest() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp).resolve()
        groups = build(root)
        lines = []
        for group, calls in groups.items():
            cases = (f"  {json.dumps(key(argv, root))}: {json.dumps(digests(argv, root))}" for argv in calls)
            lines.append(f"{json.dumps(group)}: {{\n" + ",\n".join(cases) + "\n}")
    # One line per call, so a changed call is one changed line.
    MANIFEST.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python tests/test_corpus.py --write")
    write_manifest()
