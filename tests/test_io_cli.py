import json
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest

from digraphon import (
    BipartiteGraph,
    OrientedGraph,
    StepGraphon,
    Tournament,
    UndirectedGraph,
    w_lambda,
)
from digraphon import counting, stepgraphon
from digraphon.cli import _graph_json, main
from digraphon.forcing import MAX_LAMBDA_GRID, MIN_PRECISION
from digraphon.io import (
    InputFormatError,
    dump_graph,
    dump_graphon,
    parse_graph,
    parse_graphon,
    parse_rational,
)


class TestParseRational:
    @pytest.mark.parametrize("token,expected", [
        ("1/3", Fraction(1, 3)),
        ("0.25", Fraction(1, 4)),
        ("7", Fraction(7)),
        ("2^-40", Fraction(1, 2**40)),
        ("2^3", Fraction(8)),
        ("-3/4", Fraction(-3, 4)),
    ])
    def test_forms(self, token, expected):
        assert parse_rational(token) == expected

    def test_zero_base_with_negative_exponent(self):
        with pytest.raises(InputFormatError) as excinfo:
            parse_rational("0^-2")
        assert str(excinfo.value) == "cannot parse '0^-2': zero base with negative exponent"

    def test_rejects_garbage(self):
        with pytest.raises(InputFormatError):
            parse_rational("one half")
        with pytest.raises(InputFormatError):
            parse_rational("1/0")

    @pytest.mark.parametrize("token,expected", [
        # |e| * bit_length(|base|) = 2^16 exactly.
        ("2^32768", Fraction(2**32768)),
        ("2^-32768", Fraction(1, 2**32768)),
        ("-2^32767", Fraction(-2) ** 32767),
        ("1e16384", Fraction(10**16384)),
        ("1.5e-16384", Fraction(15, 10**16385)),
        ("1/100000000", Fraction(1, 10**8)),
    ])
    def test_exponent_at_cap_is_accepted(self, token, expected):
        assert parse_rational(token) == expected

    @pytest.mark.parametrize("token", [
        "2^32769", "2^-32769", "3^-32769", "1e16385", "1E-16385", "-0.5e16385",
        "1e-1000000", "2^-1000000",
    ])
    def test_exponent_above_cap_is_refused(self, token):
        # Fraction builds 10^|e| exactly: 1e-10000000 took 7.7 s to parse.
        with pytest.raises(InputFormatError, match="exponent too large") as excinfo:
            parse_rational(token)
        assert repr(token) in str(excinfo.value)

    @pytest.mark.skipif(getattr(sys, "get_int_max_str_digits", lambda: 0)() in (0, None),
                        reason="int() has no digit limit on this interpreter")
    @pytest.mark.parametrize("token", ["2^" + "9" * 5000, "9" * 5000 + "^1", "1e" + "9" * 5000])
    def test_integer_too_long_to_convert_is_an_input_error(self, token):
        # int() refuses strings of more than 4300 digits (the default limit)
        # with a bare ValueError.
        with pytest.raises(InputFormatError, match="cannot parse rational"):
            parse_rational(token)


class TestGraphFiles:
    def test_directed_round_trip(self):
        g = OrientedGraph(4, [(0, 1), (2, 3), (3, 1)])
        assert parse_graph(dump_graph(g)) == g

    def test_undirected_round_trip(self):
        g = UndirectedGraph(3, [(0, 1), (1, 2)])
        assert parse_graph(dump_graph(g)) == g

    def test_bipartite_round_trip(self):
        g = BipartiteGraph(2, 3, [(0, 0), (1, 2)])
        assert parse_graph(dump_graph(g)) == g

    def test_tournament_is_written_as_its_oriented_graph(self):
        t = Tournament(3, [(0, 1), (2, 1), (2, 0)])
        assert dump_graph(t) == "D 3 3\n0 1\n2 0\n2 1\n"
        assert parse_graph(dump_graph(t)) == t.as_oriented()

    def test_digon_rejected_on_load(self):
        with pytest.raises(InputFormatError):
            parse_graph("D 2 2\n0 1\n1 0\n")

    def test_loop_rejected_on_load(self):
        with pytest.raises(InputFormatError):
            parse_graph("D 2 1\n0 0\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(InputFormatError):
            parse_graph("D 3 2\n0 1\n")
        with pytest.raises(InputFormatError):
            parse_graph("D 3 1\n0 1\n1 2\n")

    def test_unknown_header(self):
        with pytest.raises(InputFormatError):
            parse_graph("X 2 1\n0 1\n")

    @pytest.mark.parametrize("text,message", [
        ("X 2 1\n0 1\n", "unknown graph kind 'X'"),
        ("x\n", "unknown graph kind 'X'"),
        ("D 3\n", "header 'D 3' must be 'D n m'"),
        ("d 3\n", "header 'd 3' must be 'D n m'"),
        ("U 3 2 1\n", "header 'U 3 2 1' must be 'U n m'"),
        ("B 2 2\n", "header 'B 2 2' must be 'B n1 n2 m'"),
        ("b 1 2 3 4 5\n", "header 'b 1 2 3 4 5' must be 'B n1 n2 m'"),
        ("D 3 x\n", "header 'D 3 x' must be 'D n m' with integer fields"),
        ("B 2 1/2 0\n", "header 'B 2 1/2 0' must be 'B n1 n2 m' with integer fields"),
        ("D 2 1\n0 1\n1 0\n", "expected 1 edge lines, found 2"),
        ("D 3 1\n0 x\n", "edge line '0 x' must have two integer endpoints"),
        ("U 2 1\n1 1.5\n", "edge line '1 1.5' must have two integer endpoints"),
        ("B 2 2 1\n0 5\n", "vertex 5 out of range for part 2 of size 2"),
        ("B 2 3 1\n2 0\n", "vertex 2 out of range for part 1 of size 2"),
        ("D 2 1\n0 2\n", "vertex 2 out of range for 2 vertices"),
        ("U 2 1\n0 0\n", "loop at vertex 0 not allowed"),
    ])
    def test_header_messages(self, text, message):
        with pytest.raises(InputFormatError) as excinfo:
            parse_graph(text)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("text,message", [
        pytest.param("", "empty graph file", id="empty"),
        pytest.param("# a comment\n\n", "empty graph file", id="comments-only"),
        pytest.param("D 2 1\n0\n", "edge line '0' must have two endpoints", id="one-endpoint"),
        pytest.param("D 3 1\n0 1 2\n", "edge line '0 1 2' must have two endpoints",
                     id="three-endpoints"),
        pytest.param("U 2 2\n0 1\n1 0\n",
                     "header announces 2 edges but 1 distinct edges parsed", id="repeated-edge"),
    ])
    def test_body_messages(self, text, message):
        with pytest.raises(InputFormatError) as excinfo:
            parse_graph(text)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("graph,text", [
        (OrientedGraph(3, [(2, 1), (0, 1)]), "D 3 2\n0 1\n2 1\n"),
        (UndirectedGraph(3, [(1, 0), (1, 2)]), "U 3 2\n0 1\n1 2\n"),
        (BipartiteGraph(2, 3, [(1, 0), (0, 2)]), "B 2 3 2\n0 2\n1 0\n"),
        (OrientedGraph(0), "D 0 0\n"),
        (BipartiteGraph(1, 0), "B 1 0 0\n"),
    ])
    def test_each_kind_round_trips(self, graph, text):
        assert dump_graph(graph) == text
        back = parse_graph(text)
        assert back == graph and type(back) is type(graph)

    def test_dump_refuses_a_non_graph(self):
        with pytest.raises(TypeError, match="cannot serialize StepGraphon"):
            dump_graph(w_lambda(Fraction(1, 2)))

    def test_comments_and_blank_lines_skipped(self):
        g = parse_graph("# pattern\nD 2 1\n\n0 1\n")
        assert g == OrientedGraph(2, [(0, 1)])


class TestGraphonFiles:
    def test_round_trip_exact(self):
        w = w_lambda(Fraction(1, 3))
        assert parse_graphon(dump_graphon(w)) == w

    def test_round_trip_uneven_lengths(self):
        w = StepGraphon([Fraction(1, 3), Fraction(2, 3)],
                        [[Fraction(0), Fraction(1)],
                         [Fraction(1, 7), Fraction(2, 5)]])
        assert parse_graphon(dump_graphon(w)) == w

    def test_decimal_values(self):
        w = parse_graphon("W 2\n0.5 0.5\n0.25 1\n0 0.125\n")
        assert w.values[0][0] == Fraction(1, 4)
        assert w.part_lengths == (Fraction(1, 2), Fraction(1, 2))

    def test_decimal_length_slack_absorbed(self):
        text = "W 3\n0.333333333333 0.333333333333 0.333333333334\n" + "0 0 0\n" * 3
        w = parse_graphon(text)
        assert sum(w.part_lengths) == 1

    @pytest.mark.parametrize("length", [
        pytest.param("333333333333333e-15", id="exponent"),
        pytest.param("333333333333333E-15", id="capital-exponent"),
        pytest.param("3.33333333333333e-1", id="point-and-exponent"),
    ])
    def test_exponent_decimal_length_slack_absorbed(self, length):
        # An exponent makes a token a decimal as a point does, so the three
        # thirds rounded to 15 digits load, the last part taking the rest.
        w = parse_graphon(f"W 3\n{length} {length} {length}\n" + "0 0 0\n" * 3)
        third = parse_rational(length)
        assert w.part_lengths == (third, third, 1 - 2 * third)

    def test_exponent_decimal_lengths_beyond_slack_rejected(self):
        with pytest.raises(InputFormatError, match="part lengths sum to 9/10, not 1"):
            parse_graphon("W 3\n3e-1 3e-1 3e-1\n" + "0 0 0\n" * 3)

    @pytest.mark.parametrize("text,message", [
        pytest.param("", "empty graphon file", id="empty"),
        pytest.param("# a comment\n", "empty graphon file", id="comments-only"),
        pytest.param("V 1\n1\n0\n", "header 'V 1' must be 'W k'", id="wrong-letter"),
        pytest.param("W\n", "header 'W' must be 'W k'", id="no-part-count"),
        pytest.param("W 1 1\n1\n0\n", "header 'W 1 1' must be 'W k'", id="extra-field"),
        pytest.param("W 2\n1/2 1/4 1/4\n0 0\n0 0\n", "expected 2 part lengths, found 3",
                     id="three-lengths"),
        pytest.param("W 2\n1\n0 0\n0 0\n", "expected 2 part lengths, found 1",
                     id="one-length"),
        pytest.param("W 2\n1/2 1/2\n0 0\n0\n", "value row '0' must have 2 entries",
                     id="short-row"),
    ])
    def test_messages(self, text, message):
        with pytest.raises(InputFormatError) as excinfo:
            parse_graphon(text)
        assert str(excinfo.value) == message

    def test_bad_length_sum_rejected(self):
        with pytest.raises(InputFormatError):
            parse_graphon("W 2\n0.5 0.4\n0 0\n0 0\n")

    def test_rational_lengths_get_no_slack(self):
        off = "W 2\n1/2 499999999999999/1000000000000000\n0 0\n0 0\n"
        with pytest.raises(InputFormatError):
            parse_graphon(off)

    def test_value_out_of_range_rejected(self):
        with pytest.raises(InputFormatError):
            parse_graphon("W 1\n1\n3/2\n")

    def test_row_count_mismatch(self):
        with pytest.raises(InputFormatError):
            parse_graphon("W 2\n1/2 1/2\n0 0\n")

    @pytest.mark.parametrize("text", ["W -1\n", "W 0\n", "W 0\n1\n0\n"])
    def test_fewer_than_one_part_rejected(self, text):
        # "W -1" alone passes the line-count check: 1 line is 2 + k.
        with pytest.raises(InputFormatError, match="at least one part"):
            parse_graphon(text)

    @pytest.mark.parametrize("text", ["W x\n", "W 2.5\n"])
    def test_non_integer_part_count_names_the_header(self, text):
        with pytest.raises(InputFormatError) as excinfo:
            parse_graphon(text)
        assert repr(text.strip()) in str(excinfo.value)


@pytest.fixture()
def files(tmp_path):
    paths = {}

    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
        return str(p)

    write("edge.graph", "D 2 1\n0 1\n")
    write("tri.graph", "D 3 3\n0 1\n1 2\n2 0\n")
    write("path3.graph", "D 3 2\n0 1\n1 2\n")
    write("k3.graph", "U 3 3\n0 1\n1 2\n0 2\n")
    write("c4.graph", "B 2 2 4\n0 0\n0 1\n1 0\n1 1\n")
    paths["tmp"] = str(tmp_path)
    return paths


class TestGraphJson:
    @pytest.mark.parametrize("graph,expected", [
        (OrientedGraph(3, [(2, 1), (0, 1)]),
         {"kind": "oriented", "vertices": 3, "edges": [[0, 1], [2, 1]]}),
        (Tournament(3, [(0, 1), (2, 1), (2, 0)]),
         {"kind": "tournament", "vertices": 3, "edges": [[0, 1], [2, 0], [2, 1]]}),
        (UndirectedGraph(3, [(1, 0), (1, 2)]),
         {"kind": "undirected", "vertices": 3, "edges": [[0, 1], [1, 2]]}),
        (BipartiteGraph(2, 3, [(1, 0), (0, 2)]),
         {"kind": "bipartite", "part1": 2, "part2": 3, "edges": [[0, 2], [1, 0]]}),
    ])
    def test_graph_kinds(self, graph, expected):
        assert _graph_json(graph) == expected
        assert list(_graph_json(graph)) == list(expected)

    def test_step_graphon(self):
        w = StepGraphon([Fraction(1, 3), Fraction(2, 3)],
                        [[Fraction(0), Fraction(1, 2)], [Fraction(1, 2), Fraction(1)]])
        assert _graph_json(w) == {"kind": "step-graphon", "part_lengths": ["1/3", "2/3"],
                                  "values": [["0", "1/2"], ["1/2", "1"]]}

    def test_refuses_other_types(self):
        with pytest.raises(TypeError, match="cannot serialize tuple"):
            _graph_json((3, [(0, 1)]))


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    lines = [json.loads(line) for line in out.splitlines()] if out else []
    return code, lines


class TestCli:
    def test_density(self, capsys, files):
        code, lines = run_cli(capsys, "density", files["edge.graph"], files["tri.graph"])
        assert code == 0
        assert lines[0]["t"] == "1/3"

    def test_density_bip(self, capsys, files, tmp_path):
        host = tmp_path / "h.graph"
        host.write_text("B 2 3 4\n0 0\n0 1\n1 1\n1 2\n")
        code, lines = run_cli(capsys, "density-bip", files["c4.graph"], str(host))
        assert code == 0
        assert lines[0]["t_bip"] == "5/18"
        assert lines[0]["hom_count"] == "10"

    def test_densities_count_each_host_once(self, capsys, files, tmp_path, monkeypatch):
        # The hom count is printed from the density, with no second search.
        calls = []
        real = counting._count_maps

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(counting, "_count_maps", counted)
        code, lines = run_cli(capsys, "density", files["path3.graph"], files["tri.graph"])
        assert (code, lines, len(calls)) == (0, [{"t": "1/9", "hom_count": "3"}], 1)
        host = tmp_path / "h.graph"
        host.write_text("B 2 3 4\n0 0\n0 1\n1 1\n1 2\n")
        code, lines = run_cli(capsys, "density-bip", files["c4.graph"], str(host))
        assert (code, lines, len(calls)) == (0, [{"t_bip": "5/18", "hom_count": "10"}], 2)

    @pytest.mark.parametrize("command,pattern,host,message", [
        pytest.param("density", "D 2 1\n0 1\n", "D 0 0\n",
                     "empty host graph has no density", id="density"),
        pytest.param("density-bip", "B 1 1 1\n0 0\n", "B 2 0 0\n",
                     "empty host part has no density", id="density-bip"),
    ])
    def test_density_of_empty_host_is_input_error(self, capsys, tmp_path, command, pattern,
                                                  host, message):
        (tmp_path / "p.graph").write_text(pattern)
        (tmp_path / "h.graph").write_text(host)
        code = main([command, str(tmp_path / "p.graph"), str(tmp_path / "h.graph")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": message}

    def test_density_graphon(self, capsys, files, tmp_path):
        code, _ = run_cli(capsys, "wlambda", "--lambda", "1/2",
                          "--emit", str(tmp_path / "w.graphon"))
        assert code == 0
        code, lines = run_cli(capsys, "density-graphon", files["tri.graph"],
                              str(tmp_path / "w.graphon"))
        assert code == 0
        assert lines[0]["t"] == "1/4096"

    def test_cutnorm_centered(self, capsys, files, tmp_path):
        run_cli(capsys, "wlambda", "--lambda", "1/2", "--emit", str(tmp_path / "w.graphon"))
        code, lines = run_cli(capsys, "cutnorm", str(tmp_path / "w.graphon"),
                              "--center", "1/16")
        assert code == 0
        assert Fraction(lines[0]["value"]) > 0
        assert lines[0]["exact"] is True

    @pytest.mark.parametrize("k", ["-1", "0"])
    def test_cutnorm_without_parts_is_input_error(self, capsys, tmp_path, k):
        path = tmp_path / "neg.graphon"
        path.write_text(f"W {k}\n")
        code = main(["cutnorm", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "at least one part" in json.loads(captured.err)["error"]

    def test_cutnorm_above_exact_cap_names_the_flag(self, capsys, tmp_path):
        path = tmp_path / "w21.graphon"
        path.write_text(dump_graphon(StepGraphon.constant(Fraction(1, 2), parts=21)))
        code = main(["cutnorm", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--heuristic" in json.loads(captured.err)["error"]
        code, lines = run_cli(capsys, "cutnorm", str(path), "--heuristic", "--seed", "3")
        assert code == 0
        assert lines[0]["value"] == "1/2" and lines[0]["exact"] is False

    def test_check_sidorenko_violation_exit_code(self, capsys, files):
        code, lines = run_cli(capsys, "check-sidorenko", files["path3.graph"], "--nmax", "2")
        assert code == 1
        assert lines[0]["verdict"] == "violated"
        assert Fraction(lines[0]["witness"]["margin"]) < 0

    def test_check_sidorenko_holds_exit_code(self, capsys, files):
        code, lines = run_cli(capsys, "check-sidorenko", files["edge.graph"], "--nmax", "2")
        assert code == 0
        assert lines[0]["verdict"] == "holds-on-family"
        assert lines[0]["complete"] is True

    def test_check_sidorenko_second(self, capsys, files, tmp_path):
        tt = tmp_path / "tt.graph"
        tt.write_text("D 3 3\n0 1\n0 2\n1 2\n")
        code, lines = run_cli(capsys, "check-sidorenko", files["path3.graph"],
                              "--second", str(tt))
        assert code == 1

    def test_check_asym_and_bridge(self, capsys, files, tmp_path):
        run_cli(capsys, "wlambda", "--lambda", "1/3", "--emit", str(tmp_path / "w.graphon"))
        code, lines = run_cli(capsys, "check-asym", files["c4.graph"],
                              "--graphon", str(tmp_path / "w.graphon"))
        assert code == 0
        code, lines = run_cli(capsys, "bridge", files["c4.graph"], str(tmp_path / "w.graphon"))
        assert code == 0
        assert lines[0]["verdict"] == "holds-on-family"

    def test_wlambda_reports_mean(self, capsys):
        code, lines = run_cli(capsys, "wlambda", "--lambda", "1/3")
        assert code == 0
        assert lines[0]["integral"] == "1/16"

    def test_find_lambda0(self, capsys, files):
        code, lines = run_cli(capsys, "find-lambda0", files["tri.graph"])
        assert code == 0
        assert lines[0]["lambda0"] == "1/2"
        assert lines[0]["density"] == lines[0]["target"] == "1/4096"

    def test_find_lambda0_precondition_is_input_error(self, capsys, files):
        code, _ = run_cli(capsys, "find-lambda0", files["edge.graph"])
        assert code == 2

    @pytest.mark.parametrize("name", ["path3.graph", "tri.graph"])
    @pytest.mark.parametrize("flag", ["--precision=0", "--precision=-1/8"])
    def test_find_lambda0_nonpositive_precision_is_input_error(self, capsys, files, name,
                                                                flag):
        code = main(["find-lambda0", files[name], flag])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "precision must be positive" in json.loads(captured.err)["error"]

    def test_find_lambda0_precision_floor(self, capsys, files):
        code, lines = run_cli(capsys, "find-lambda0", files["tri.graph"],
                              "--precision", "2^-4096")
        assert code == 0
        assert Fraction(lines[0]["precision"]) == MIN_PRECISION
        assert lines[0]["lambda0"] == "1/2"

    @pytest.mark.parametrize("precision,message", [
        ("2^-4097", "precision must be at least MIN_PRECISION = 2^-4096"),
        ("1e-1000000", "cannot parse '1e-1000000': exponent too large"),
    ])
    def test_find_lambda0_precision_below_floor_is_input_error(self, capsys, files,
                                                                 precision, message):
        code = main(["find-lambda0", files["tri.graph"], "--precision", precision])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert json.loads(captured.err)["error"].startswith(message)

    def test_find_lambda0_grid_above_cap_is_input_error(self, capsys, files):
        code = main(["find-lambda0", files["tri.graph"], "--grid", str(MAX_LAMBDA_GRID + 1)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "grid must be at most" in json.loads(captured.err)["error"]

    def test_quasirandom_trace(self, capsys, files, tmp_path):
        listing = tmp_path / "list.txt"
        listing.write_text(files["edge.graph"] + "\n" + files["tri.graph"] + "\n")
        assert main(["quasirandom-trace", str(listing), "--p", "1/4"]) == 0
        edge, tri = json.dumps(files["edge.graph"]), json.dumps(files["tri.graph"])
        assert capsys.readouterr().out == (
            f'{{"path": {edge}, "cut_norm_centered": "3/16", "exact": true}}\n'
            f'{{"path": {tri}, "cut_norm_centered": "1/9", "exact": true}}\n')

    def test_search_witness(self, capsys, files, tmp_path):
        out = tmp_path / "wit.graphon"
        code, lines = run_cli(capsys, "search-witness", files["tri.graph"],
                              "--p", "1/16", "--tol", "1/1000000",
                              "--seed", "0", "--emit", str(out))
        assert code == 0
        assert lines[0]["found"] is True
        assert lines[0]["mean_convention_p"] == "1/16"
        assert lines[0]["undirected_density_convention_q"] == "1/8"
        emitted = parse_graphon(out.read_text())
        assert emitted.integral() == Fraction(1, 16)

    def test_search_witness_prints_what_the_search_certified(self, capsys, files, monkeypatch):
        # The search certifies each witness's density and centred cut norm,
        # and the command prints the ones it certified for the witness it
        # returns: 10 of the 16 restarts pass the polish, each runs one cut
        # norm, and nothing runs on the witness after the search.
        calls = Counter()
        for name in ("_cut_norm_impl", "_density"):
            def counted(*args, _real=getattr(stepgraphon, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(stepgraphon, name, counted)
        code, lines = run_cli(capsys, "search-witness", files["tri.graph"],
                              "--p", "1/4", "--parts", "2", "--seed", "0")
        assert code == 0
        assert lines[0]["t"] == "35184360999265/2251799813685248"
        assert lines[0]["cut_norm_centered"] == "27855/262144"
        assert calls == {"_cut_norm_impl": 10}

    def test_search_witness_one_part_zero_tol_finds_none(self, capsys, files):
        # The one graphon on one part with mean p is the constant p, which
        # is not a witness even when it meets the density exactly.
        code, lines = run_cli(capsys, "search-witness", files["tri.graph"],
                              "--p", "1/4", "--parts", "1", "--tol", "0")
        assert code == 1
        assert lines == [{"found": False}]

    def test_search_witness_zero_parts_is_input_error(self, capsys, files):
        code, lines = run_cli(capsys, "search-witness", files["tri.graph"],
                              "--p", "1/16", "--parts", "0")
        assert code == 2
        assert lines == []

    # argparse reads "-1" as a value, but "-1/100" only after "=".
    @pytest.mark.parametrize("tol", [["--tol", "-1"], ["--tol=-1/100"]])
    def test_search_witness_negative_tol_is_input_error(self, capsys, files, tol):
        # An input error (exit 2), not an empty search (exit 1).
        code = main(["search-witness", str(files["tri.graph"]), "--p", "1/4", *tol])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "tol must be nonnegative" in json.loads(captured.err)["error"]

    def test_search_witness_negative_seed_is_input_error(self, capsys, files):
        code = main(["search-witness", str(files["tri.graph"]), "--p", "1/4", "--seed", "-1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "seed must be a nonnegative integer, got -1"

    def test_search_witness_oversized_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "path12.graph"
        path.write_text("D 12 11\n" + "".join(f"{i} {i + 1}\n" for i in range(11)))
        start = time.perf_counter()
        code = main(["search-witness", str(path), "--p", "1/2"])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "capped" in json.loads(captured.err)["error"]
        assert elapsed < 1.0

    @pytest.mark.parametrize("nmax", ["0", "-3"])
    def test_check_sidorenko_empty_family_is_input_error(self, capsys, files, nmax):
        code, lines = run_cli(capsys, "check-sidorenko", files["edge.graph"], "--nmax", nmax)
        assert code == 2
        assert lines == []

    def test_impartial(self, capsys, files, tmp_path):
        imp = tmp_path / "imp.graph"
        imp.write_text("D 4 3\n0 1\n2 3\n0 2\n")
        code, lines = run_cli(capsys, "impartial", str(imp), "--n", "4")
        assert code == 0
        assert lines[0]["constant"] is True
        code, lines = run_cli(capsys, "impartial", files["tri.graph"], "--n", "3")
        assert code == 1

    def test_anti_sidorenko(self, capsys, files):
        code, lines = run_cli(capsys, "anti-sidorenko", files["path3.graph"], "--n", "3")
        assert code == 0
        assert lines[0]["verdict"] == "holds-on-family"

    def test_anti_sidorenko_witness_is_a_tournament(self, capsys, files):
        code, lines = run_cli(capsys, "anti-sidorenko", files["path3.graph"], "--n", "4")
        assert code == 0
        assert lines[0]["witness"]["host"] == {
            "kind": "tournament", "vertices": 4,
            "edges": [[0, 1], [0, 2], [1, 2], [1, 3], [2, 3], [3, 0]]}

    def test_enumerate(self, capsys):
        code, lines = run_cli(capsys, "enumerate", "--oriented", "3")
        assert code == 0 and lines[0]["count"] == 27
        code, lines = run_cli(capsys, "enumerate", "--tournaments", "4")
        assert code == 0 and lines[0]["count"] == 64

    def test_enumerate_cap_is_input_error(self, capsys):
        code, _ = run_cli(capsys, "enumerate", "--oriented", "9")
        assert code == 2

    def test_quasirandom_trace_heuristic_flag(self, capsys, files, tmp_path):
        listing = tmp_path / "list.txt"
        listing.write_text(files["tri.graph"] + "\n")
        assert main(["quasirandom-trace", str(listing), "--p", "1/4",
                     "--heuristic", "--seed", "3"]) == 0
        # The heuristic value is a lower bound, so its line says it is not exact.
        tri = json.dumps(files["tri.graph"])
        assert capsys.readouterr().out == \
            f'{{"path": {tri}, "cut_norm_centered": "1/9", "exact": false}}\n'

    def test_double_cover_and_knn_emit(self, capsys, files, tmp_path):
        out = tmp_path / "cover.graph"
        code, lines = run_cli(capsys, "double-cover", files["k3.graph"], "--emit", str(out))
        assert code == 0
        cover = parse_graph(out.read_text())
        assert cover.edge_count == 6
        out2 = tmp_path / "knn.graph"
        code, lines = run_cli(capsys, "knn", "2", "--emit", str(out2))
        assert code == 0
        assert parse_graph(out2.read_text()).edge_count == 4

    def test_missing_file_is_input_error(self, capsys, files):
        code, _ = run_cli(capsys, "density", "nope.graph", files["tri.graph"])
        assert code == 2

    def test_malformed_file_is_input_error(self, capsys, files, tmp_path):
        bad = tmp_path / "bad.graph"
        bad.write_text("D 2 2\n0 1\n1 0\n")
        code, _ = run_cli(capsys, "density", str(bad), files["tri.graph"])
        assert code == 2

    def test_wrong_kind_is_input_error(self, capsys, files):
        code, _ = run_cli(capsys, "density", files["k3.graph"], files["tri.graph"])
        assert code == 2

    @pytest.mark.parametrize("argv,name,expected", [
        (["density", "k3.graph", "tri.graph"], "k3.graph", "a directed graph (header 'D')"),
        (["density-bip", "path3.graph", "c4.graph"], "path3.graph",
         "a bipartite graph (header 'B')"),
        (["double-cover", "path3.graph"], "path3.graph", "an undirected graph (header 'U')"),
    ])
    def test_wrong_kind_message(self, capsys, files, argv, name, expected):
        code = main([files.get(arg, arg) for arg in argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == json.dumps({"error": f"{files[name]}: expected {expected}"}) + "\n"

    def test_usage_error_exit_code(self, capsys, files):
        code = main(["check-sidorenko", files["path3.graph"]])
        capsys.readouterr()
        assert code == 2
