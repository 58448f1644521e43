"""Command-line front end, driven in process through main(argv), and in a
subprocess where a closed pipe must be the process's own stream."""

import gc
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import spohn.cli
from spohn import (
    INF,
    OCF,
    InfluenceDiagram,
    RankArithmeticError,
    SpohnianNetwork,
    StateSpace,
    Variable,
    parse_network,
    serialize_network,
)
from spohn.cli import main

from generators import random_instance, random_value_evidence

DOCS = Path(__file__).resolve().parent.parent / "docs"
PENGUIN = str(DOCS / "penguin.json")
FIVE = str(DOCS / "five_node.json")
EV_BIRD = str(DOCS / "evidence_bird.json")
EV_PENGUIN = str(DOCS / "evidence_penguin.json")
EV_CERTAIN = str(DOCS / "evidence_certain.json")
EV_TARGET = str(DOCS / "evidence_target.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def digit_limit_star(tmp_path):
    """A valid star H -> L1, L2, L3 whose ranks are within the int-to-str
    limit, and targets on L1 and L2 that send H -> L3 a change past it.
    Its joint sums three such ranks in one state."""
    nine = 9 * 10 ** (sys.get_int_max_str_digits() - 1)
    names = ["H", "L1", "L2", "L3"]
    tables = {leaf: {"order": ["H", leaf], "ranks": [0, nine, nine, 0]} for leaf in names[1:]}
    network = tmp_path / "star.json"
    network.write_text(json.dumps({
        "variables": [{"name": n, "domain": [n.lower() + "0", n.lower() + "1"]} for n in names],
        "edges": [["H", leaf] for leaf in names[1:]],
        "tables": {"H": {"order": ["H"], "ranks": [0, 0]}, **tables},
    }))
    evidence = tmp_path / "star_ev.json"
    evidence.write_text(json.dumps(
        {"evidence": [{"variable": leaf, "target": [0, nine]} for leaf in ("L1", "L2")]}
    ))
    return str(network), str(evidence)


class TestValidate:
    def test_consistent_network_is_ok(self, capsys):
        code, out, _ = run(capsys, "validate", FIVE)
        assert code == 0
        assert out == "ok\n"

    def test_diamond_is_multiply_connected(self, capsys, tmp_path):
        a = Variable("A", ("a0", "a1"))
        b = Variable("B", ("b0", "b1"))
        c = Variable("C", ("c0", "c1"))
        d = Variable("D", ("d0", "d1"))
        dia = InfluenceDiagram(
            (a, b, c, d), (("A", "B"), ("A", "C"), ("B", "D"), ("C", "D"))
        )
        net = SpohnianNetwork(
            dia,
            {
                "A": OCF(StateSpace((a,)), (0, 0)),
                "B": OCF(StateSpace((a, b)), (0, 0, 0, 0)),
                "C": OCF(StateSpace((a, c)), (0, 0, 0, 0)),
                "D": OCF(StateSpace((b, c, d)), (0,) * 8),
            },
        )
        path = tmp_path / "diamond.json"
        path.write_text(serialize_network(net))
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 1
        assert "invalid:" in out and "multiply-connected" in out

    def test_table_without_zero_names_the_node(self, capsys, tmp_path):
        doc = json.loads(Path(FIVE).read_text())
        doc["tables"]["C"]["ranks"] = [1, 3]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "validate", str(path))
        assert code == 1
        assert "tables.C" in err and "rank-0" in err

    def test_order_with_a_non_name_is_a_clean_error(self, capsys, tmp_path):
        doc = json.loads(Path(FIVE).read_text())
        doc["tables"]["D"]["order"] = [["B"], "C", "D"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "validate", str(path))
        assert code == 1
        assert err.startswith("error: tables.D.order")
        assert "Traceback" not in err

    def test_unreadable_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "validate", str(tmp_path / "absent.json"))
        assert code == 1
        assert "cannot read" in err

    def test_a_file_that_is_not_utf8_is_a_clean_error(self, capsys, tmp_path):
        path = tmp_path / "ff.json"
        path.write_bytes(b"\xff")
        code, _, err = run(capsys, "validate", str(path))
        assert (code, err) == (1, f"error: cannot read network file {str(path)!r}: not UTF-8\n")
        code, _, err = run(capsys, "propagate", FIVE, str(path), "--mode", "certain")
        assert (code, err) == (1, f"error: cannot read evidence file {str(path)!r}: not UTF-8\n")

    def test_deeply_nested_json_is_a_clean_error(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000)
        code, _, err = run(capsys, "validate", str(path))
        assert (code, err) == (1, "error: network document is nested too deeply\n")

    def test_an_integer_past_the_digit_limit_is_a_clean_error(self, capsys, tmp_path):
        limit = sys.get_int_max_str_digits()
        path = tmp_path / "huge.json"
        path.write_text("[" + "1" * 5000 + "]")
        code, _, err = run(capsys, "validate", str(path))
        assert (code, err) == (1, f"error: network document holds an integer of more than {limit} digits\n")
        path.write_text('{"evidence": [{"variable": "A", "values": ["a1"], "strength": %s}]}' % ("1" * 5000))
        code, _, err = run(capsys, "propagate", FIVE, str(path), "--mode", "single")
        assert (code, err) == (1, f"error: evidence document holds an integer of more than {limit} digits\n")


class TestQuery:
    def test_marginal_of_the_shipped_example(self, capsys):
        code, out, _ = run(capsys, "query", PENGUIN, "--marginal", "species")
        assert code == 0
        assert out == "PENGUIN:1 TYPICAL-BIRD:0 NOT-BIRD:0\n"

    def test_joint_on_single_node_net_echoes_the_table(self, capsys, tmp_path):
        v = Variable("V", ("x", "y", "z"))
        net = SpohnianNetwork(
            InfluenceDiagram((v,), ()),
            {"V": OCF(StateSpace((v,)), (1, 0, INF))},
        )
        path = tmp_path / "one.json"
        path.write_text(serialize_network(net))
        code, out, _ = run(capsys, "query", str(path), "--joint")
        assert code == 0
        assert out == "x:1\ny:0\nz:inf\n"

    def test_oversized_joint_is_refused(self, capsys, tmp_path, monkeypatch):
        variables = tuple(Variable(f"V{i}", ("f", "t")) for i in range(13))
        tables = {v.name: OCF(StateSpace((v,)), (0, 0)) for v in variables}
        net = SpohnianNetwork(InfluenceDiagram(variables, ()), tables)
        path = tmp_path / "big.json"
        path.write_text(serialize_network(net))

        def refuse(self):
            raise AssertionError("the joint must not be built")

        monkeypatch.setattr(SpohnianNetwork, "joint", refuse)
        code, out, err = run(capsys, "query", str(path), "--joint")
        assert code == 1
        assert out == ""
        assert "8192" in err and "4096" in err

    def test_a_joint_rank_past_the_digit_limit_is_a_clean_error(self, capsys, tmp_path):
        network, _ = digit_limit_star(tmp_path)
        assert run(capsys, "validate", network) == (0, "ok\n", "")
        limit = sys.get_int_max_str_digits()
        error = f"error: the joint ranking holds a rank of more than {limit} digits, too long to write\n"
        assert run(capsys, "query", network, "--joint") == (1, "", error)

    @pytest.mark.parametrize(
        "edges, a_ranks",
        [
            ([["A", "B"], ["B", "A"]], [0, 1, 1, 0]),  # a two-cycle
            ([["A", "B"]], [0, 1]),  # tables that disagree on A's marginal
        ],
    )
    def test_joint_of_an_invalid_network_is_refused_as_propagate_refuses_it(
        self, capsys, tmp_path, edges, a_ranks
    ):
        a_order = ["A", "B"] if len(a_ranks) == 4 else ["A"]
        network = tmp_path / "invalid.json"
        network.write_text(json.dumps({
            "variables": [{"name": "A", "domain": ["a0", "a1"]}, {"name": "B", "domain": ["b0", "b1"]}],
            "edges": edges,
            "tables": {
                "A": {"order": a_order, "ranks": a_ranks},
                "B": {"order": ["A", "B"], "ranks": [0, 2, 2, 0]},
            },
        }))
        evidence = tmp_path / "ev.json"
        evidence.write_text(json.dumps({"evidence": [{"variable": "A", "values": ["a0"], "strength": 1}]}))
        code, out, err = run(capsys, "propagate", str(network), str(evidence), "--mode", "single")
        assert code == 1 and out == "" and err.startswith("error: ")
        # Every query refuses it, not just --joint: its tables are no joint's marginals.
        for flag in (["--joint"], ["--marginal", "A"], ["--beta", "A=a0"], ["--believe", "A=a0"]):
            assert run(capsys, "query", str(network), *flag) == (1, "", err)
        _, report, _ = run(capsys, "validate", str(network))
        problems = [line.removeprefix("invalid: ") for line in report.splitlines()]
        assert err == "error: " + "; ".join(problems) + "\n"

    def test_believe_after_one_lesson(self, capsys, tmp_path):
        t1 = tmp_path / "t1.json"
        assert main(["propagate", PENGUIN, EV_BIRD, "--mode", "single", "--out", str(t1)]) == 0
        capsys.readouterr()
        code, out, _ = run(capsys, "query", str(t1), "--believe", "flight=FLYS")
        assert code == 0
        assert out == "believed (beta=1)\n"

    def test_believe_full_proposition_has_no_beta(self, capsys):
        code, out, _ = run(
            capsys, "query", PENGUIN, "--believe", "species=PENGUIN,TYPICAL-BIRD,NOT-BIRD"
        )
        assert code == 0
        assert out == "believed\n"

    @pytest.mark.parametrize("prop, line", [
        ("species=TYPICAL-BIRD,NOT-BIRD", "believed (beta=1)"),
        ("species=TYPICAL-BIRD", "not believed (beta=0)"),
        ("species=PENGUIN", "not believed (beta=-1)"),
    ])
    def test_believe_reads_the_sign_of_beta(self, capsys, prop, line):
        assert run(capsys, "query", PENGUIN, "--believe", prop) == (0, line + "\n", "")

    def test_believe_at_infinite_strength(self, capsys, tmp_path):
        network = tmp_path / "certain.json"
        network.write_text(json.dumps({
            "variables": [{"name": "A", "domain": ["a0", "a1"]}],
            "edges": [],
            "tables": {"A": {"order": ["A"], "ranks": [0, "inf"]}},
        }))
        assert run(capsys, "query", str(network), "--believe", "A=a0") == (
            0, "believed (beta=inf)\n", ""
        )
        assert run(capsys, "query", str(network), "--believe", "A=a1") == (
            0, "not believed (beta=-inf)\n", ""
        )

    def test_beta_is_bare(self, capsys):
        code, out, _ = run(capsys, "query", PENGUIN, "--beta", "flight=FLYS")
        assert code == 0
        assert out == "0\n"

    @pytest.mark.parametrize(
        "flag, prop, message",
        [
            pytest.param(
                "--believe", "flight", "bad proposition 'flight', expected VAR=VALUE[,VALUE...]",
                id="flight-bad proposition",
            ),
            pytest.param(
                "--believe", "flight=SOARS", "variable 'flight' has no value 'SOARS'",
                id="flight=SOARS-no value",
            ),
            pytest.param("--believe", "wings=YES", "unknown variable 'wings'", id="wings=YES-wings"),
            # An empty value is refused as written, not read as the empty
            # proposition nor dropped from the list.
            pytest.param(
                "--believe", "species=,", "bad proposition 'species=,', expected VAR=VALUE[,VALUE...]",
                id="species=,-empty value",
            ),
            pytest.param(
                "--beta", "species=PENGUIN,,NOT-BIRD",
                "bad proposition 'species=PENGUIN,,NOT-BIRD', expected VAR=VALUE[,VALUE...]",
                id="species=PENGUIN,,NOT-BIRD-empty value",
            ),
        ],
    )
    def test_bad_propositions(self, capsys, flag, prop, message):
        code, out, err = run(capsys, "query", PENGUIN, flag, prop)
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"


class TestPropagate:
    def test_two_lessons_reach_the_worked_columns(self, capsys, tmp_path):
        t1 = tmp_path / "t1.json"
        t2 = tmp_path / "t2.json"
        assert main(["propagate", PENGUIN, EV_BIRD, "--mode", "single", "--out", str(t1)]) == 0
        assert main(["propagate", str(t1), EV_PENGUIN, "--mode", "single", "--out", str(t2)]) == 0
        capsys.readouterr()
        net = parse_network(t2.read_text())
        assert net.tables["flight"].ranks == (1, 0, 1, 2, 2, 2)
        assert net.marginal("species").ranks == (0, 1, 2)
        code, out, _ = run(capsys, "query", str(t2), "--believe", "flight=NOT-FLYS")
        assert code == 0
        assert out == "believed (beta=1)\n"

    def test_a_rank_past_the_digit_limit_is_a_clean_error(self, capsys, tmp_path):
        # Input ranks within the int-to-str limit; the engine lifts one of
        # B's past it, and writing the output ends in one error line.
        limit = sys.get_int_max_str_digits()
        five, nine = 5 * 10 ** (limit - 1), 9 * 10 ** (limit - 1)
        network = tmp_path / "net.json"
        network.write_text(json.dumps({
            "variables": [{"name": "A", "domain": ["a0", "a1"]}, {"name": "B", "domain": ["b0", "b1"]}],
            "edges": [["A", "B"]],
            "tables": {
                "A": {"order": ["A"], "ranks": [0, five]},
                "B": {"order": ["A", "B"], "ranks": [0, 0, five, nine]},
            },
        }))
        evidence = tmp_path / "ev.json"
        evidence.write_text(json.dumps(
            {"evidence": [{"variable": "A", "values": ["a0"], "strength": 99 * 10 ** (limit - 2)}]}
        ))
        assert run(capsys, "validate", str(network)) == (0, "ok\n", "")
        error = f"error: table for B holds a rank of more than {limit} digits, too long to write\n"
        code, out, err = run(capsys, "propagate", str(network), str(evidence), "--mode", "single")
        assert (code, out, err) == (1, "", error)
        code, out, err = run(
            capsys, "propagate", str(network), str(evidence), "--mode", "single", "--trace"
        )
        lines = err.splitlines(keepends=True)
        assert (code, out, len(lines), lines[-1]) == (1, "", 3, error)
        assert lines[0].startswith("seq=1 edge=A->A ") and lines[1].startswith("seq=2 edge=A->B ")

    def test_a_traced_change_past_the_digit_limit_is_a_clean_error(self, capsys, tmp_path):
        # Without --trace the output table for H fails to write; with it the
        # trace line of H's change to L3 fails first, and no line is printed.
        network, evidence = digit_limit_star(tmp_path)
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, "propagate", network, evidence, "--mode", "uncertain")
        error = f"error: table for H holds a rank of more than {limit} digits, too long to write\n"
        assert (code, out, err) == (1, "", error)
        code, out, err = run(capsys, "propagate", network, evidence, "--mode", "uncertain", "--trace")
        error = (
            f"error: trace entry seq=7 edge=H->L3 holds a rank of more than {limit} digits, "
            "too long to write\n"
        )
        assert (code, out, err) == (1, "", error)

    def test_unwritable_output_is_a_clean_error(self, capsys, tmp_path):
        out_path = tmp_path / "missing" / "out.json"
        code, out, err = run(
            capsys, "propagate", PENGUIN, EV_BIRD, "--mode", "single", "--out", str(out_path)
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: cannot write output file")
        assert not out_path.exists()

    def test_updated_document_goes_to_stdout_by_default(self, capsys):
        code, out, err = run(capsys, "propagate", PENGUIN, EV_BIRD, "--mode", "single")
        assert code == 0
        assert err == ""
        assert parse_network(out).marginal("species").ranks == (1, 0, 1)

    def test_single_mode_trace_lines(self, capsys):
        code, _, err = run(
            capsys, "propagate", PENGUIN, EV_BIRD, "--mode", "single", "--trace"
        )
        assert code == 0
        assert err.splitlines() == [
            "seq=1 edge=species->species var=species deltas=[0,0,1]",
            "seq=2 edge=species->flight var=species deltas=[0,0,1]",
        ]

    @pytest.mark.parametrize(
        "seed, expected",
        [
            (
                (),
                [
                    "seq=1 edge=B->B var=B deltas=[inf,0]",
                    "seq=2 edge=E->E var=E deltas=[inf,0]",
                    "seq=3 edge=E->C var=C deltas=[2,1]",
                    "seq=4 edge=C->D var=C deltas=[2,1]",
                    "seq=5 edge=D->B var=B deltas=[2,2]",
                    "seq=6 edge=B->A var=A deltas=[4,2]",
                    "seq=7 edge=B->D var=B deltas=[inf,0]",
                    "seq=8 edge=D->C var=C deltas=[1,1]",
                    "seq=9 edge=C->E var=C deltas=[1,1]",
                ],
            ),
            (
                ("--seed", "1"),
                [
                    "seq=1 edge=B->B var=B deltas=[inf,0]",
                    "seq=2 edge=B->D var=B deltas=[inf,0]",
                    "seq=3 edge=E->E var=E deltas=[inf,0]",
                    "seq=4 edge=B->A var=A deltas=[2,0]",
                    "seq=5 edge=D->C var=C deltas=[1,1]",
                    "seq=6 edge=C->E var=C deltas=[1,1]",
                    "seq=7 edge=E->C var=C deltas=[2,1]",
                    "seq=8 edge=C->D var=C deltas=[2,1]",
                    "seq=9 edge=D->B var=B deltas=[0,2]",
                    "seq=10 edge=B->A var=A deltas=[2,2]",
                ],
            ),
        ],
    )
    def test_certain_mode_trace_is_pinned(self, capsys, seed, expected):
        code, _, err = run(
            capsys, "propagate", FIVE, EV_CERTAIN, "--mode", "certain", "--trace", *seed
        )
        assert code == 0
        assert err.splitlines() == expected

    def test_certain_mode_trace_lines_parse(self, capsys):
        code, _, err = run(
            capsys, "propagate", FIVE, EV_CERTAIN, "--mode", "certain", "--trace"
        )
        assert code == 0
        lines = err.splitlines()
        assert lines
        pat = re.compile(r"^seq=\d+ edge=\w+->\w+ var=\w+ deltas=\[[-0-9a-z,]+\]$")
        for i, line in enumerate(lines, start=1):
            assert line.startswith(f"seq={i} ")
            assert pat.match(line), line

    def test_seeds_do_not_change_the_answer(self, capsys, tmp_path):
        outs = []
        for seed in (1, 2):
            path = tmp_path / f"s{seed}.json"
            code = main(
                ["propagate", FIVE, EV_CERTAIN, "--mode", "certain", "--seed", str(seed), "--out", str(path)]
            )
            assert code == 0
            outs.append(path.read_bytes())
        capsys.readouterr()
        assert outs[0] == outs[1]

    def test_same_seed_is_byte_identical(self, capsys, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert main(
                ["propagate", FIVE, EV_CERTAIN, "--mode", "certain", "--seed", "7", "--out", str(path)]
            ) == 0
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_uncertain_mode_imposes_the_target(self, capsys):
        code, out, _ = run(capsys, "propagate", FIVE, EV_TARGET, "--mode", "uncertain")
        assert code == 0
        assert parse_network(out).marginal("C").ranks == (2, 0)

    def test_contradictory_certain_evidence_exits_2(self, capsys, tmp_path):
        ev = tmp_path / "clash.json"
        ev.write_text(
            json.dumps(
                {
                    "evidence": [
                        {"variable": "B", "values": ["b0"], "strength": "inf"},
                        {"variable": "B", "values": ["b1"], "strength": "inf"},
                    ]
                }
            )
        )
        code, _, err = run(capsys, "propagate", FIVE, str(ev), "--mode", "certain")
        assert code == 2
        assert "error:" in err and "infinity" in err

    @pytest.mark.parametrize(
        "mode, evidence, fragment",
        [
            ("single", EV_CERTAIN, "exactly one value observation"),
            ("certain", EV_BIRD, 'strength "inf"'),
            ("uncertain", EV_BIRD, "target observations only"),
            ("single", EV_TARGET, "exactly one value observation"),
        ],
    )
    def test_mode_and_evidence_must_agree(self, capsys, mode, evidence, fragment):
        net = PENGUIN if evidence in (EV_BIRD, EV_PENGUIN) else FIVE
        code, _, err = run(capsys, "propagate", net, evidence, "--mode", mode)
        assert code == 1
        assert fragment in err

    def test_certain_mode_refuses_a_target(self, capsys):
        assert run(capsys, "propagate", FIVE, EV_TARGET, "--mode", "certain") == (
            1, "", "error: certain mode takes value observations only\n"
        )

    def test_an_arithmetic_breach_exits_3(self, capsys, monkeypatch):
        def breach(*args, **kwargs):
            raise RankArithmeticError("inf - inf is undefined")

        monkeypatch.setattr(spohn.cli, "propagate", breach)
        assert run(capsys, "propagate", FIVE, EV_CERTAIN, "--mode", "certain") == (
            3, "", "internal error: inf - inf is undefined\n"
        )


class TestCompare:
    def test_bundled_examples_match(self, capsys):
        for net, ev, mode in [
            (PENGUIN, EV_BIRD, "single"),
            (FIVE, EV_CERTAIN, "certain"),
            (FIVE, EV_TARGET, "uncertain"),
        ]:
            code, out, _ = run(capsys, "compare", net, ev, "--mode", mode)
            assert code == 0
            assert out == "match\n"

    def test_posterior_of_a_collider_observation_matches(self, capsys, tmp_path):
        # Observing the collider D couples its parents B and C in the
        # posterior; the posterior still validates, so further evidence
        # must agree with the oracle in every regime.
        observe_d = tmp_path / "D.json"
        observe_b = tmp_path / "B.json"
        posterior = tmp_path / "t.json"
        for path, name, value in ((observe_d, "D", "d1"), (observe_b, "B", "b1")):
            item = {"variable": name, "values": [value], "strength": "inf"}
            path.write_text(json.dumps({"evidence": [item]}))
        argv = ["propagate", FIVE, str(observe_d), "--mode", "certain", "--out", str(posterior)]
        assert run(capsys, *argv)[0] == 0
        assert run(capsys, "validate", str(posterior)) == (0, "ok\n", "")
        for ev, mode in ((observe_b, "certain"), (EV_TARGET, "uncertain")):
            code, out, _ = run(capsys, "compare", str(posterior), str(ev), "--mode", mode)
            assert (code, out) == (0, "match\n")

    def test_corrupted_engine_is_caught(self, capsys, monkeypatch):
        real = spohn.cli.propagate

        def corrupt(net, evidence, schedule, trace=None):
            result = real(net, evidence, schedule, trace)
            tables = dict(result.tables)
            name = result.diagram.names[0]
            t = tables[name]
            ranks = list(t.ranks)
            for i, r in enumerate(ranks):
                if r is not INF and r > 0:
                    ranks[i] += 1
                    break
            else:
                ranks[-1] += 1
            tables[name] = OCF(t.space, tuple(ranks))
            return SpohnianNetwork(result.diagram, tables)

        monkeypatch.setattr(spohn.cli, "propagate", corrupt)
        code, out, _ = run(capsys, "compare", FIVE, EV_CERTAIN, "--mode", "certain")
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "DIVERGENCE"
        assert lines[1].startswith("node=A ")

    def test_oversized_network_is_refused(self, capsys, tmp_path):
        # 2^15000 states print past the 4300-digit limit of int-to-str
        # conversion: the count is given as a power of two.
        ev = tmp_path / "ev.json"
        ev.write_text(
            json.dumps({"evidence": [{"variable": "V0", "values": ["f"], "strength": "inf"}]})
        )
        for n, count in ((13, "8192"), (15000, "at least 2**15000")):
            variables = tuple(Variable(f"V{i}", ("f", "t")) for i in range(n))
            tables = {
                v.name: OCF(StateSpace((v,)), (0, 0)) for v in variables
            }
            net = SpohnianNetwork(InfluenceDiagram(variables, ()), tables)
            path = tmp_path / "big.json"
            path.write_text(serialize_network(net))
            code, _, err = run(capsys, "compare", str(path), str(ev), "--mode", "certain")
            assert (code, err) == (1, f"error: state space has {count} states, oracle limit is 4096\n")

    def test_a_divergent_rank_past_the_digit_limit_is_a_clean_error(self, capsys, monkeypatch):
        real = spohn.cli.propagate
        limit = sys.get_int_max_str_digits()

        def corrupt(net, evidence, schedule, trace=None):
            result = real(net, evidence, schedule, trace)
            tables = dict(result.tables)
            t = tables["A"]
            tables["A"] = OCF(t.space, (10 ** limit, 0))
            return SpohnianNetwork(result.diagram, tables)

        monkeypatch.setattr(spohn.cli, "propagate", corrupt)
        code, out, err = run(capsys, "compare", FIVE, EV_CERTAIN, "--mode", "certain")
        assert (code, out) == (1, "")
        assert err == (
            f"error: the divergence at node=A state=a0 holds a rank of more than {limit} digits,"
            " too long to write\n"
        )

    @pytest.mark.parametrize(
        "mode, item, expected",
        [
            ("single", {"values": ["f"], "strength": 1}, (0, "match\n", "")),
            ("certain", {"values": ["f"], "strength": "inf"}, (0, "match\n", "")),
            ("uncertain", {"target": [0, 1]},
             (1, "", "error: state space has 8192 states, oracle limit is 4096\n")),
        ],
        ids=["single", "certain", "uncertain"],
    )
    def test_each_mode_keeps_its_dummy_count(self, capsys, tmp_path, monkeypatch, mode, item, expected):
        # 2^12 states fit the oracle. A value item folds into the joint; a
        # target's dummy doubles it, and the engine must not run.
        variables = tuple(Variable(f"V{i}", ("f", "t")) for i in range(12))
        tables = {v.name: OCF(StateSpace((v,)), (0, 0)) for v in variables}
        net = SpohnianNetwork(InfluenceDiagram(variables, ()), tables)
        path = tmp_path / "big.json"
        path.write_text(serialize_network(net))
        ev = tmp_path / "ev.json"
        ev.write_text(json.dumps({"evidence": [{"variable": "V0", **item}]}))

        def refuse(*args, **kwargs):
            raise AssertionError("the engine must not run")

        if mode == "uncertain":
            monkeypatch.setattr(spohn.cli, "propagate", refuse)
        assert run(capsys, "compare", str(path), str(ev), "--mode", mode) == expected


class TestCollector:
    """main() runs the command with the cyclic collector paused and leaves
    it as the caller had it, on every way out."""

    @pytest.fixture(params=[True, False], ids=["caller-on", "caller-off"])
    def caller(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    @staticmethod
    def clash(tmp_path):
        ev = tmp_path / "clash.json"
        ev.write_text(json.dumps({"evidence": [
            {"variable": "B", "values": [value], "strength": "inf"} for value in ("b0", "b1")
        ]}))
        return str(ev)

    @pytest.mark.parametrize("exit_code", [0, 1, 2])
    def test_a_command_runs_paused_and_restores_the_callers_setting(
        self, capsys, tmp_path, monkeypatch, caller, exit_code
    ):
        argv = {
            0: ["validate", FIVE],
            1: ["query", PENGUIN, "--believe", "flight"],
            2: ["propagate", FIVE, self.clash(tmp_path), "--mode", "certain"],
        }[exit_code]
        seen = []
        real = spohn.cli.parse_network

        def parse(text):
            seen.append(gc.isenabled())
            return real(text)

        monkeypatch.setattr(spohn.cli, "parse_network", parse)
        code, _, _ = run(capsys, *argv)
        assert (code, seen) == (exit_code, [False])
        assert gc.isenabled() is caller

    def test_a_closed_output_stream_exits_1_and_restores_the_setting(self, monkeypatch, caller):
        # stdout is a pipe whose reader is gone; stderr is a stream with no
        # file to point at os.devnull.
        read_end, write_end = os.pipe()
        os.close(read_end)
        closed, err = open(write_end, "w"), io.StringIO()
        monkeypatch.setattr(sys, "stdout", closed)
        monkeypatch.setattr(sys, "stderr", err)
        seen = []
        real = spohn.cli.parse_network

        def parse(text):
            seen.append(gc.isenabled())
            return real(text)

        monkeypatch.setattr(spohn.cli, "parse_network", parse)
        try:
            assert main(["query", PENGUIN, "--marginal", "species"]) == 1
        finally:
            closed.close()  # its fd is os.devnull's now: the flush succeeds
        assert (seen, err.getvalue()) == ([False], "")
        assert gc.isenabled() is caller

    def test_an_argument_error_leaves_the_setting_alone(self, capsys, caller):
        with pytest.raises(SystemExit) as caught:
            main(["propagate", FIVE])
        assert caught.value.code == 2
        assert gc.isenabled() is caller
        capsys.readouterr()

    def test_an_unexpected_exception_restores_the_setting(self, monkeypatch, caller):
        def broken(args):
            assert not gc.isenabled()
            raise KeyError("broken")

        monkeypatch.setattr(spohn.cli, "cmd_validate", broken)
        with pytest.raises(KeyError, match="broken"):
            main(["validate", FIVE])
        assert gc.isenabled() is caller

    def test_the_pause_holds_back_no_garbage_that_grows_with_the_network(self, capsys, tmp_path):
        # What a call leaves for the collector is argparse's cycles: the
        # same count at 100 and at 1000 variables, for each command.
        rng = random.Random(97)
        found = {}
        for n in (100, 1000):
            net = random_instance(rng, n)
            network = tmp_path / f"net{n}.json"
            network.write_text(serialize_network(net))
            ev = random_value_evidence(rng, net)
            evidence = tmp_path / f"ev{n}.json"
            evidence.write_text(json.dumps({"evidence": [
                {"variable": ev.variable, "values": list(ev.values), "strength": ev.strength}
            ]}))
            for argv in (
                ["propagate", str(network), str(evidence), "--mode", "single"],
                ["validate", str(network)],
                ["query", str(network), "--marginal", net.diagram.names[-1]],
            ):
                was = gc.isenabled()
                gc.collect()
                gc.disable()
                try:
                    assert main(argv) == 0
                    found.setdefault(argv[0], []).append(gc.collect())
                finally:
                    (gc.enable if was else gc.disable)()
                capsys.readouterr()
        for command, (small, large) in found.items():
            assert small == large, (command, small, large)


class TestClosedStream:
    """A reader that closes the pipe early ends the run with exit 1 and no
    traceback, whichever stream it held. Each output is larger than a pipe
    buffer (64 KiB), so the command is still writing when the pipe closes."""

    @staticmethod
    def chain(tmp_path, n):
        names = [f"X{i}" for i in range(n)]
        network = tmp_path / f"chain{n}.json"
        network.write_text(json.dumps({
            "variables": [{"name": x, "domain": ["0", "1"]} for x in names],
            "edges": list(zip(names, names[1:])),
            "tables": {
                "X0": {"order": ["X0"], "ranks": [0, 1]},
                **{b: {"order": [a, b], "ranks": [0, 1, 1, 2]} for a, b in zip(names, names[1:])},
            },
        }))
        evidence = tmp_path / f"chain{n}_ev.json"
        evidence.write_text(json.dumps(
            {"evidence": [{"variable": names[-1], "values": ["1"], "strength": "inf"}]}
        ))
        return str(network), str(evidence)

    @staticmethod
    def env():
        env = dict(os.environ, PYTHONPATH=str(Path(spohn.cli.__file__).parents[1]))
        # Unbuffered, the text layer drops what a short write left out and
        # the run exits 0; the console script runs buffered.
        env.pop("PYTHONUNBUFFERED", None)
        return env

    def run_closing(self, stream, *argv):
        """Run the CLI, read 10 bytes of one stream, close it, and return the
        exit code and the other stream's text."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "spohn.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self.env(),
        )
        closing, kept = (proc.stdout, proc.stderr) if stream == "stdout" else (proc.stderr, proc.stdout)
        assert len(closing.read(10)) == 10
        closing.close()
        rest = kept.read().decode()
        kept.close()
        return proc.wait(), rest

    @pytest.mark.parametrize("stream, command", [
        ("stdout", "query"), ("stdout", "propagate"), ("stderr", "propagate"),
    ])
    def test_exits_1_without_a_traceback(self, tmp_path, stream, command):
        if command == "query":  # 4096 lines, from print
            argv = ["query", self.chain(tmp_path, 12)[0], "--joint"]
        else:  # one sys.stdout.write of the document, or the trace's lines on stderr
            argv = ["propagate", *self.chain(tmp_path, 3000), "--mode", "certain"]
            if stream == "stderr":
                argv.append("--trace")
        code, rest = self.run_closing(stream, *argv)
        assert code == 1
        assert "Traceback" not in rest and "Exception ignored" not in rest
        if stream == "stdout":
            assert rest == ""

    def test_outputs_are_larger_than_a_pipe_buffer(self, tmp_path, capsys):
        assert main(["query", self.chain(tmp_path, 12)[0], "--joint"]) == 0
        assert len(capsys.readouterr().out) > 64 * 1024
        assert main(["propagate", *self.chain(tmp_path, 3000), "--mode", "certain", "--trace"]) == 0
        out, err = capsys.readouterr()
        assert len(out) > 64 * 1024 and len(err) > 64 * 1024

    def into_closed_pipe(self, stream, *argv):
        """Run the CLI with one stream a pipe whose reader is already gone."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, stream: write_end}
        try:
            return subprocess.run(
                [sys.executable, "-m", "spohn.cli", *argv], **streams, env=self.env()
            )
        finally:
            os.close(write_end)

    def test_a_short_output_to_a_closed_pipe_exits_1(self):
        # "ok" stays in the buffer until main flushes it, not until exit.
        done = self.into_closed_pipe("stdout", "validate", FIVE)
        assert (done.returncode, done.stderr) == (1, b"")

    def test_an_error_line_to_a_closed_stderr_exits_1(self, tmp_path):
        done = self.into_closed_pipe("stderr", "validate", str(tmp_path / "missing.json"))
        assert (done.returncode, done.stdout) == (1, b"")
