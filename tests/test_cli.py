"""Command-line behaviour: formats, exit codes, determinism."""

import io
import json

import pytest

from polyspan import InputError
from polyspan.carrier import MAX_NESTING
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

    def test_full_mode_duplicate_takes_min(self, tmp_path):
        p = tmp_path / "g.graph"
        p.write_text("2 2 full\n0 1 9\n0 1 4\n")
        assert load_graph(str(p)).weight(1) == 4

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


class TestDeterminism:
    def test_two_runs_are_byte_identical(self):
        first = deterministic_outputs(0)
        second = deterministic_outputs(0)
        assert [name for name, _, _ in first] == [
            "bellman-ford", "floyd-warshall", "run-span", "check-laws", "gnn-demo",
        ]
        assert all(code == 0 for _, code, _ in first)
        assert first == second

    def test_gnn_demo_seed_sensitivity(self, g1_file):
        _, out0, _ = invoke(["gnn-demo", "--graph", g1_file, "--seed", "0"])
        _, out0b, _ = invoke(["gnn-demo", "--graph", g1_file, "--seed", "0"])
        _, out1, _ = invoke(["gnn-demo", "--graph", g1_file, "--seed", "1"])
        assert out0 == out0b
        assert out0 != out1
