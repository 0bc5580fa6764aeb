"""Command-line behaviour: formats, exit codes, determinism."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import polyspan
from polyspan import BELLMAN_FORD_SPEC, GraphContext, InputError, cli
from polyspan.carrier import MAX_NESTING, SIZE_CAP
from polyspan.cli import deterministic_outputs, format_value, load_graph, run

G1_TEXT = "3 3 directed\n0 1 2\n0 2 7\n1 2 3\n"


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def g1_file(tmp_path):
    p = tmp_path / "g1.graph"
    p.write_text(G1_TEXT)
    return str(p)


class TestLoadGraph:
    def test_fixture(self, g1_file):
        g = load_graph(g1_file)
        assert g.n == 3 and g.m == 3 and not g.full
        assert g.edges == ((0, 1, 2), (0, 2, 7), (1, 2, 3))

    def test_mode_defaults_to_directed(self, tmp_path):
        p = tmp_path / "g.graph"
        p.write_text("2 1\n0 1 4\n")
        assert not load_graph(str(p)).full

    def test_inf_weight(self, tmp_path):
        p = tmp_path / "g.graph"
        p.write_text("2 1 directed\n0 1 inf\n")
        assert load_graph(str(p)).edges == ((0, 1, None),)

    def test_full_mode(self, tmp_path):
        p = tmp_path / "g.graph"
        p.write_text("2 1 full\n0 1 4\n")
        g = load_graph(str(p))
        assert g.full and g.m == 4
        assert g.weight(1) == 4 and g.weight(0) == 0 and g.weight(2) is None

    @pytest.mark.parametrize("weights, cheapest", [
        (("9", "4"), 4), (("4", "9"), 4), (("inf", "4"), 4), (("4", "inf"), 4),
        (("inf", "inf"), None), (("0", "inf", "3"), 0), (("inf",), None),
    ])
    def test_full_mode_duplicate_takes_min(self, tmp_path, weights, cheapest):
        p = tmp_path / "g.graph"
        p.write_text(f"2 {len(weights)} full\n" + "".join(f"0 1 {w}\n" for w in weights))
        assert load_graph(str(p)).weight(1) == cheapest

    def test_error_carries_line_number(self, tmp_path):
        p = tmp_path / "g.graph"
        p.write_text("2 1 directed\n0 1 x\n")
        with pytest.raises(InputError) as info:
            load_graph(str(p))
        assert ":2:" in str(info.value)

    def test_negative_weight_rejected(self, tmp_path):
        p = tmp_path / "g.graph"
        p.write_text("2 1 directed\n0 1 -3\n")
        with pytest.raises(InputError):
            load_graph(str(p))

    def test_edge_count_must_match_header(self, tmp_path):
        p = tmp_path / "g.graph"
        p.write_text("2 2 directed\n0 1 1\n")
        with pytest.raises(InputError):
            load_graph(str(p))

    def test_endpoint_out_of_range(self, tmp_path):
        p = tmp_path / "g.graph"
        p.write_text("2 1 directed\n0 5 1\n")
        with pytest.raises(InputError) as info:
            load_graph(str(p))
        assert "out of range" in str(info.value)

    @pytest.mark.parametrize("header", ["10000001 0", "3163 0 full"])
    def test_header_over_size_cap_rejected(self, tmp_path, header):
        # n over the cap, or n*n over it in full mode, fails before any
        # n- or n*n-sized table is built.
        p = tmp_path / "g.graph"
        p.write_text(header + "\n")
        with pytest.raises(InputError) as info:
            load_graph(str(p))
        assert "size cap" in str(info.value)


class TestFormatValue:
    def test_values(self):
        assert format_value(None) == "inf"
        assert format_value(float("inf")) == "inf"
        assert format_value(True) == "true"
        assert format_value(False) == "false"
        assert format_value(7) == "7"
        assert format_value(0.25) == "0.25"
        # Nine significant digits, no trailing noise.
        assert format_value(1.0 / 3.0) == "0.333333333"


class TestVerbs:
    def test_bellman_ford_fixture(self, g1_file):
        code, out, err = invoke(["bellman-ford", "--graph", g1_file, "--source", "0"])
        assert (code, err) == (0, "")
        assert out == "0 0\n1 2\n2 5\n"

    def test_floyd_warshall_fixture(self, g1_file):
        code, out, err = invoke(["floyd-warshall", "--graph", g1_file])
        assert (code, err) == (0, "")
        assert out == "0 2 5\ninf 0 3\ninf inf 0\n"

    def test_run_span_is_one_relaxation(self, g1_file, fixtures_dir):
        span_file = str(fixtures_dir / "bellman_ford.span")
        code, out, err = invoke([
            "run-span", "--graph", g1_file, "--span", span_file,
            "--semiring", "min-plus", "--source", "0",
        ])
        assert (code, err) == (0, "")
        assert out == "0\n2\n7\n"

    def test_check_laws_reports_every_law(self):
        code, out, err = invoke(["check-laws", "--semiring", "bool", "--seed", "3"])
        assert code == 0
        assert out.startswith("semiring bool\n")
        assert out.count(": pass") == 12

    def test_gnn_demo_shape(self, g1_file):
        code, out, err = invoke(["gnn-demo", "--graph", g1_file, "--seed", "0"])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert all(len(line.split()) == 4 for line in lines)

    def test_floyd_warshall_checks_the_cap_before_the_matrix(self, tmp_path, monkeypatch):
        # V^3 + V^3 on 200 nodes is over the cap; no n*n list is built first.
        def unreachable(*args):
            raise AssertionError("an n*n list was built before the size cap")

        monkeypatch.setattr(cli, "_matrix_from_edges", unreachable)
        monkeypatch.setattr(GraphContext, "fully_connected", unreachable)
        p = tmp_path / "g.graph"
        for header in ("200 0\n", "200 0 full\n"):  # full mode would list n*n edges
            p.write_text(header)
            code, out, err = invoke(["floyd-warshall", "--graph", str(p)])
            assert (code, out) == (2, "")
            assert f"more than {SIZE_CAP} elements for n=200, m=0" in err

    def test_gnn_demo_checks_the_cap_before_the_features(self, tmp_path, monkeypatch):
        def unreachable(*args):
            raise AssertionError("features were drawn before the size cap")

        monkeypatch.setattr("polyspan.carrier.SIZE_CAP", 1000)
        monkeypatch.setattr(np.random, "default_rng", unreachable)
        p = tmp_path / "g.graph"
        p.write_text("1234 0\n")  # 1 + V + E has 1235 elements
        code, out, err = invoke(["gnn-demo", "--graph", str(p)])
        assert (code, out) == (2, "")
        assert "more than 1000 elements for n=1234, m=0" in err

    def test_out_flag_writes_file(self, g1_file, tmp_path):
        target = tmp_path / "result.txt"
        code, out, err = invoke([
            "bellman-ford", "--graph", g1_file, "--source", "0", "--out", str(target),
        ])
        assert code == 0 and out == ""
        assert target.read_text() == "0 0\n1 2\n2 5\n"


class TestExitCodes:
    def test_unknown_flag_is_usage(self, g1_file):
        code, out, err = invoke(["bellman-ford", "--graph", g1_file, "--wat"])
        assert code == 1 and "usage error" in err

    def test_missing_required_flag_is_usage(self):
        code, out, err = invoke(["bellman-ford", "--source", "0"])
        assert code == 1

    def test_wrong_semiring_for_shortest_paths_is_usage(self, g1_file):
        code, out, err = invoke([
            "bellman-ford", "--graph", g1_file, "--source", "0", "--semiring", "real",
        ])
        assert code == 1 and "min-plus" in err

    @pytest.mark.parametrize("case", ["graph-not-utf8", "span-missing", "span-is-a-directory",
                                      "span-not-utf8", "span-nested-deeply"])
    def test_unreadable_input_exits_two_without_traceback(self, g1_file, tmp_path, case):
        graph, span = g1_file, tmp_path / "s.span"
        if case == "graph-not-utf8":
            graph = tmp_path / "bad.graph"
            graph.write_bytes(b"3 0\n\xff\n")
            span.write_text(json.dumps(BELLMAN_FORD_SPEC))
        elif case == "span-is-a-directory":
            span.mkdir()
        elif case == "span-not-utf8":
            span.write_bytes(b'{"W": "\xff"}')
        elif case == "span-nested-deeply":
            span.write_text("[" * 100_000 + "]" * 100_000)
        src = str(Path(polyspan.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-c", "from polyspan.cli import main; main()",
             "run-span", "--graph", str(graph), "--span", str(span)],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(f"error: cannot read {case.split('-')[0]} file: ")
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("argv", [
        ["gnn-demo", "--graph", "G", "--seed", "-1"],
        ["verify", "--seed", "-2"],
        ["check-laws", "--seed", "-3"],
        ["check-laws", "--seed", "x"],
    ])
    def test_seed_must_be_a_non_negative_integer(self, g1_file, argv):
        code, out, err = invoke([g1_file if a == "G" else a for a in argv])
        assert code == 1 and out == ""
        assert err.startswith("usage error: argument --seed: invalid seed")

    def test_missing_file_is_input_error(self):
        code, out, err = invoke(["bellman-ford", "--graph", "/no/such/file", "--source", "0"])
        assert code == 2 and "error" in err

    def test_bad_span_json_is_input_error(self, g1_file, tmp_path):
        bad = tmp_path / "bad.span"
        bad.write_text("{not json")
        code, out, err = invoke(["run-span", "--graph", g1_file, "--span", str(bad)])
        assert code == 2 and "JSON" in err

    def test_ill_typed_span_is_input_error(self, g1_file, tmp_path):
        bad = tmp_path / "bad.span"
        bad.write_text(json.dumps({
            "W": "V", "X": "V", "Y": "V", "Z": "V",
            "i": "id", "p": "id", "o": "tgt",
        }))
        code, out, err = invoke(["run-span", "--graph", g1_file, "--span", str(bad)])
        assert code == 2

    def test_source_out_of_range_is_input_error(self, g1_file):
        code, out, err = invoke(["bellman-ford", "--graph", g1_file, "--source", "9"])
        assert code == 2


class TestDeepExpressions:
    @pytest.fixture
    def span_with(self, fixtures_dir, tmp_path):
        """Write the Bellman-Ford span file with some keys replaced."""
        def write(**overrides):
            spec = json.loads((fixtures_dir / "bellman_ford.span").read_text())
            path = tmp_path / "deep.span"
            path.write_text(json.dumps(dict(spec, **overrides)))
            return str(path)
        return write

    def test_deeply_nested_carrier_is_input_error(self, g1_file, span_with):
        span_file = span_with(Z="(" * 340 + "V" + ")" * 340)
        code, out, err = invoke(["run-span", "--graph", g1_file, "--span", span_file])
        assert code == 2 and "nest" in err and "Traceback" not in err

    def test_deeply_nested_arrow_is_input_error(self, g1_file, span_with):
        span_file = span_with(o="[id; " + "([" * 250 + "tgt" + "])" * 250 + "]")
        code, out, err = invoke(["run-span", "--graph", g1_file, "--span", span_file])
        assert code == 2 and "nest" in err and "Traceback" not in err

    def test_nesting_at_the_limit_parses(self, g1_file, span_with):
        deep = MAX_NESTING - 1  # inside the dispatch's own bracket
        for span_file in (
            span_with(Z="(" * MAX_NESTING + "V" + ")" * MAX_NESTING),
            span_with(o="[id; " + "(" * deep + "tgt" + ")" * deep + "]"),
        ):
            code, out, err = invoke(["run-span", "--graph", g1_file, "--span", span_file])
            assert (code, err) == (0, "")

    def test_huge_exponent_is_input_error(self, g1_file, span_with):
        span_file = span_with(W="V^99999999999999999999")
        code, out, err = invoke(["run-span", "--graph", g1_file, "--span", span_file])
        assert code == 2 and "exponent" in err and "Traceback" not in err

    def test_term_blowup_is_input_error(self, g1_file, span_with):
        span_file = span_with(W="*".join(["(V + E)"] * 17))
        code, out, err = invoke(["run-span", "--graph", g1_file, "--span", span_file])
        assert code == 2 and "terms" in err and "Traceback" not in err

    def test_long_id_chain_equals_id(self, g1_file, span_with):
        argv = ["run-span", "--graph", g1_file, "--source", "0", "--span"]
        chain = ".".join(["id"] * 3000)
        plain = invoke(argv + [span_with(o="[id; tgt]")])
        long = invoke(argv + [span_with(o=f"[{chain}; {chain}.tgt]")])
        assert plain == (0, "0\n2\n7\n", "")
        assert long == plain


class TestVerifyVerb:
    def test_failures_exit_three(self, monkeypatch):
        from polyspan import verify as verify_mod

        monkeypatch.setattr(
            verify_mod, "run_all",
            lambda seed=0: [verify_mod.CheckResult("stub", False, "forced failure")],
        )
        code, out, err = invoke(["verify", "--seed", "0"])
        assert code == 3
        assert "[FAIL] stub" in out

    def test_no_verb_is_usage_error(self):
        code, out, err = invoke([])
        assert code == 1


class TestRunSpanVariants:
    def test_without_source_all_terms_take_one(self, g1_file, fixtures_dir):
        span_file = str(fixtures_dir / "bellman_ford.span")
        code, out, err = invoke(["run-span", "--graph", g1_file, "--span", span_file])
        assert (code, err) == (0, "")
        # Distances start at 0 everywhere, so one sweep keeps them at 0.
        assert out == "0\n0\n0\n"

    def test_empty_input_carrier(self, tmp_path):
        # No edges, so the input carrier E has no rows; every bucket of
        # the two nodes is empty and reduces to the min-plus zero.
        graph, span_file = tmp_path / "g.graph", tmp_path / "s.span"
        graph.write_text("2 0\n")
        span_file.write_text(json.dumps(
            {"W": "E", "X": "E", "Y": "E", "Z": "V", "i": "id", "p": "id", "o": "tgt"}))
        assert invoke(["run-span", "--graph", str(graph), "--span", str(span_file)]) == (0, "inf\ninf\n", "")

    def test_boolean_semiring(self, g1_file, fixtures_dir):
        span_file = str(fixtures_dir / "bellman_ford.span")
        code, out, err = invoke([
            "run-span", "--graph", g1_file, "--span", span_file,
            "--semiring", "bool", "--source", "0",
        ])
        assert code == 0
        assert out == "true\ntrue\ntrue\n"


class TestModuleEntryPoint:
    @pytest.mark.parametrize("argv", [
        ["bellman-ford", "--graph", "g1.graph", "--source", "0"],
        ["floyd-warshall", "--graph", "g1.graph"],
        ["run-span", "--graph", "g1.graph", "--span", "bellman_ford.span", "--source", "0"],
        ["gnn-demo", "--graph", "g1.graph", "--seed", "1"],
    ])
    def test_python_m_prints_what_run_prints(self, fixtures_dir, argv):
        argv = [str(fixtures_dir / a) if a.endswith((".graph", ".span")) else a for a in argv]
        src = str(Path(polyspan.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-m", "polyspan.cli", *argv],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        code, out, err = invoke(argv)
        assert (code, err) == (0, "") and out
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


class TestDeterminism:
    def test_two_runs_are_byte_identical(self):
        first = deterministic_outputs(0)
        second = deterministic_outputs(0)
        assert [name for name, _, _ in first] == [
            "bellman-ford", "floyd-warshall", "run-span", "check-laws", "gnn-demo",
        ]
        assert all(code == 0 for _, code, _ in first)
        assert first == second

    def test_outputs_are_pinned(self):
        assert deterministic_outputs(0) == [
            ("bellman-ford", 0, "0 0\n1 2\n2 5\n"),
            ("floyd-warshall", 0, "0 2 5\ninf 0 3\ninf inf 0\n"),
            ("run-span", 0, "0\n2\n7\n"),
            ("check-laws", 0, "semiring real\n" + "".join(f"  {law}: pass\n" for law in (
                "plus-identity", "plus-commutative", "plus-associative", "times-identity",
                "times-associative", "distributive-left", "distributive-right",
                "zero-annihilates", "reduce-singleton", "reduce-nested", "fold-singleton",
                "fold-nested")) + "  all laws hold\n"),
            ("gnn-demo", 0, "0.220198838 -0.171668854 0.422473964 0.133975682\n"
                            "0.341150827 -0.213242681 0.587391875 0.584980231\n"
                            "0.246679186 -0.0435029459 0.551899698 0.564012721\n"),
        ]

    def test_gnn_demo_seed_sensitivity(self, g1_file):
        _, out0, _ = invoke(["gnn-demo", "--graph", g1_file, "--seed", "0"])
        _, out0b, _ = invoke(["gnn-demo", "--graph", g1_file, "--seed", "0"])
        _, out1, _ = invoke(["gnn-demo", "--graph", g1_file, "--seed", "1"])
        assert out0 == out0b
        assert out0 != out1
