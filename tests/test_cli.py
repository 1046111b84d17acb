"""CLI tests: outputs, exit codes, determinism."""

import json
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from cwlattice import (NamedSet, __version__, build_graph, census, cli, edge_ideal_generators,
                       format_edge_list, graphs, induced_matching_number, matching_number,
                       not_cw_reason, parse_edge_list, realize, run_census, sets, size_cwdd_b,
                       size_ra, size_ra_d, structure_vertex_names)
from cwlattice.cli import main
from cwlattice.formulas import SIZE_BY_SET

import cli_pins
from conftest import CHORDED_HEXAGON_EDGES, first_mask

SRC_DIR = Path(__file__).resolve().parent.parent / "src"
DATA_DIR = Path(__file__).resolve().parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_census_matches_the_golden_files(capsys):
    # pins the column order, the empty beta cells at n = 3 and the JSON keys
    csv = (DATA_DIR / "census-all-3-40.csv").read_bytes().decode("utf-8")
    js = (DATA_DIR / "census-all-3-8.json").read_bytes().decode("utf-8")
    assert run_census(3, 40, "all").to_csv() == csv
    assert run_census(3, 8, "all").to_json() == js


@pytest.mark.parametrize("pin", cli_pins.PINS, ids=[pin.command for pin in cli_pins.PINS])
def test_pinned_command(capsys, monkeypatch, pin):
    monkeypatch.chdir(cli_pins.ROOT)
    runs = []
    for argv in pin.argvs:
        code = main(argv)
        out, err = capsys.readouterr()
        runs.append((code, out.encode("utf-8"), err.encode("utf-8")))
    assert pin.observed(runs) == pin.expected()


def test_module_entry_point(capsys, monkeypatch):
    # python -m cwlattice, through the pin runner that CI points at the
    # installed console script
    monkeypatch.setenv("PYTHONPATH", str(SRC_DIR))
    pins = {pin.command: pin for pin in cli_pins.PINS}
    cheap = [pins["bounds --n 12"], pins["realize --n 12 --depth 3 --dim 5"]]
    command = [sys.executable, "-m", "cwlattice"]
    assert cli_pins.main(command, cheap) == 0
    assert capsys.readouterr().out == "2 of 2 pinned commands pass\n"
    assert cli_pins.main(command, [cheap[0]._replace(golden="bounds-1000000007.json")]) == 1
    assert capsys.readouterr().out == "FAIL: 'bounds --n 12'\n0 of 1 pinned commands pass\n"


def test_census_bad_range_exits_2(capsys):
    code, _, err = run_cli(capsys, "census", "--from", "2", "--to", "4")
    assert code == 2
    assert "error" in err


def test_census_refuses_n_above_the_cap(capsys, monkeypatch):
    def refused(n):
        raise AssertionError("a refused census built masks")

    monkeypatch.setitem(sets.MASK_SOURCES, NamedSet.RA_D, refused)
    code, out, err = run_cli(capsys, "census", "--from", "5", "--to", "301")
    assert (code, out) == (2, "")
    assert err == "error: the census needs n <= 300, got 301\n"
    # the cap has no bypass: --force and its abbreviation are usage errors
    for flag in ("--force", "--forc"):
        code, out, err = run_cli(capsys, "census", "--from", "5", "--to", "301", flag)
        assert (code, out) == (2, "")
        assert f"unrecognized arguments: {flag}" in err


def test_unknown_option_shows_the_usage_of_the_parser_that_met_it(capsys):
    # after the subcommand, the subcommand's usage; before it, the top-level one
    code, out, err = run_cli(capsys, "census", "--from", "5", "--to", "10", "--bogus")
    assert (code, out) == (2, "")
    assert err.startswith("usage: cwlattice census [-h] --from N --to M")
    assert err.endswith("cwlattice census: error: unrecognized arguments: --bogus\n")
    code, out, err = run_cli(capsys, "--bogus", "census", "--from", "5", "--to", "10")
    assert (code, out) == (2, "")
    assert err.startswith("usage: cwlattice [-h] [--version]")
    assert err.endswith("cwlattice: error: unrecognized arguments: --bogus\n")


def test_a_subcommand_argv_skips_the_top_level_parser(capsys, monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("the top-level parser read a subcommand argv")

    parser, _ = cli._parsers()
    monkeypatch.setattr(parser, "parse_known_args", refused)
    for argv, golden in [
            (("recognize", "--input", str(DATA_DIR / "cw-skeleton.edges"), "--format", "json"),
             "cw-skeleton.json"),
            (("ideal", "--input", str(DATA_DIR / "chorded-hexagon.edges"), "--format", "json"),
             "chorded-hexagon-ideal.json"),
            (("census", "--from", "3", "--to", "8", "--family", "all", "--format", "json"),
             "census-all-3-8.json"),
            (("bounds", "--n", "12"), "bounds-12.txt")]:
        assert run_cli(capsys, *argv) == (0, (DATA_DIR / golden).read_text("utf-8"), ""), argv


def test_any_other_argv_goes_to_the_top_level_parser(capsys, monkeypatch):
    # the same exit code and bytes as the top-level parser's parse_args
    for argv, code in [((), 2), (("--version",), 0), (("-h",), 0), (("bogus",), 2)]:
        with pytest.raises(SystemExit) as exc:
            cli._build_parsers()[0].parse_args(list(argv))
        expected = (exc.value.code, *capsys.readouterr())
        assert run_cli(capsys, *argv) == expected and expected[0] == code, argv
        shows_usage = "usage: cwlattice [-h] [--version]" in "".join(expected[1:])
        assert shows_usage == (argv != ("--version",)), argv
    assert run_cli(capsys, "--version") == (0, f"cwlattice {__version__}\n", "")
    # the console script calls main() with no argument, which reads sys.argv
    argv = ["bounds", "--n", "12", "--format", "json"]
    monkeypatch.setattr(sys, "argv", ["cwlattice", *argv])
    code = main()
    assert (code, *capsys.readouterr()) == run_cli(capsys, *argv)


def test_census_json_and_out_file(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "census", "--from", "5", "--to", "8", "--format", "json",
        "--out", str(out_file),
    )
    assert code == 0
    assert out == ""
    payload = json.loads(out_file.read_text(encoding="utf-8"))
    assert payload["summary"] == {"pass": 4, "fail": 0}
    assert payload["first_failure"] is None


def test_enumerate_cwdd_c_at_7(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "7", "--set", "cwdd-c")
    assert code == 0
    assert out == "3,4\n"


def test_enumerate_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "12", "--set", "cwdd-c",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 12 and payload["set"] == "cwdd-c"
    assert len(payload["points"]) == 11


@pytest.mark.parametrize("set_id", list(NamedSet))
def test_enumerate_json_bytes_equal_json_dumps(capsys, tmp_path, set_id):
    # n = 3 and 4 give empty CW sets, n = 5 an empty ra-d
    for n in (3, 4, 5, 6, 13):
        if not sets.is_defined(set_id, n):
            continue
        points = [list(p) for p in sets.enumerate_set(set_id, n)]
        expected = json.dumps({"set": set_id.value, "n": n, "points": points}, indent=2) + "\n"
        code, out, _ = run_cli(capsys, "enumerate", "--n", str(n), "--set", set_id.value,
                               "--format", "json")
        assert (code, out) == (0, expected), n
    out_file = tmp_path / "points.json"
    code, printed, _ = run_cli(capsys, "enumerate", "--n", "13", "--set", set_id.value,
                               "--format", "json", "--out", str(out_file))
    assert code == 0 and printed == ""
    assert out_file.read_text(encoding="utf-8") == out


@pytest.mark.parametrize("set_id, n", [(NamedSet.CWDD, 170), (NamedSet.RA, 100)])
def test_enumerate_json_of_several_slices_equals_json_dumps(capsys, set_id, n):
    points = [list(p) for p in sets.enumerate_set(set_id, n)]
    assert len(points) > 4096
    expected = json.dumps({"set": set_id.value, "n": n, "points": points}, indent=2) + "\n"
    assert run_cli(capsys, "enumerate", "--n", str(n), "--set", set_id.value,
                   "--format", "json") == (0, expected, "")


def test_enumerate_refuses_sets_over_the_limit(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--n", "100000", "--set", "ra")
    assert code == 2
    assert out == ""
    assert "13887639013885" in err and "2000000" in err


@pytest.mark.parametrize("set_id", [NamedSet.CWDD_A, NamedSet.RA_A])
def test_enumerate_refuses_a_sparse_set_whose_masks_are_too_wide(capsys, monkeypatch, set_id):
    # at most 3 points at any n, but a mask at n spans n + 1 bits
    def refused(n):
        raise AssertionError("a refused enumerate built masks")

    monkeypatch.setitem(sets.MASK_SOURCES, set_id, refused)
    for n in (10**9, 10**18):
        code, out, err = run_cli(capsys, "enumerate", "--n", str(n), "--set", set_id.value)
        assert (code, out) == (2, "")
        assert f"mask bits at n = {n}, over the enumerate limit of {cli.MASK_BIT_LIMIT}" in err


def test_enumerate_cwdd_b_at_the_largest_n_the_mask_bit_limit_admits(capsys):
    # one mask 1 << b per point, so at most |cwdd-b| * (n + 1) bits
    n = 28_380
    assert size_cwdd_b(n) * (n + 1) <= cli.MASK_BIT_LIMIT < size_cwdd_b(n + 1) * (n + 2)
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "enumerate", "--n", str(n), "--set", "cwdd-b")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, err) == (0, "")
    assert out == "".join(f"{b},{b}\n" for b in range(n // 3 + 1, (n - 1) // 2 + 1))
    assert peak < cli.MASK_BIT_LIMIT // 8  # 16 MiB, the limit in bytes
    code, out, err = run_cli(capsys, "enumerate", "--n", str(n + 1), "--set", "cwdd-b")
    assert (code, out) == (2, "")
    assert "over the enumerate limit of 134217728" in err


@pytest.mark.parametrize("limit", ["ENUMERATE_LIMIT", "MASK_BIT_LIMIT"])
@pytest.mark.parametrize("set_id, n", [(NamedSet.CWDD_B, 40), (NamedSet.RA, 12)])
def test_enumerate_lists_a_set_at_its_bound_and_refuses_it_one_below(
        capsys, monkeypatch, limit, set_id, n):
    size = SIZE_BY_SET[set_id](n)
    value = size if limit == "ENUMERATE_LIMIT" else sets.mask_bits(set_id, n, size)
    expected = "".join(",".join(map(str, p)) + "\n" for p in sets.enumerate_set(set_id, n))
    monkeypatch.setattr(cli, limit, value)
    assert run_cli(capsys, "enumerate", "--n", str(n), "--set", set_id.value) == (0, expected, "")
    monkeypatch.setattr(cli, limit, value - 1)
    code, out, err = run_cli(capsys, "enumerate", "--n", str(n), "--set", set_id.value)
    assert (code, out) == (2, "")
    assert f"over the enumerate limit of {value - 1}" in err


@pytest.mark.parametrize("n, points", [(44_739_241, 3), (67_108_862, 2)])
def test_enumerate_cwdd_a_at_the_largest_n_the_mask_bit_limit_admits(capsys, n, points):
    # 3 points at odd n and 2 at even n, each a mask of n + 1 bits
    assert sets.mask_bits(NamedSet.CWDD_A, n, points) == points * (n + 1) <= cli.MASK_BIT_LIMIT
    code, out, err = run_cli(capsys, "enumerate", "--n", str(n), "--set", "cwdd-a")
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == points
    code, out, err = run_cli(capsys, "enumerate", "--n", str(n + 2), "--set", "cwdd-a")
    assert (code, out) == (2, "")
    assert f"may need {points * (n + 3)} mask bits at n = {n + 2}" in err


def test_mask_bits_bounds_the_bits_of_every_set():
    # each mask at n spans at most n + 1 bits; the bound must cover them all
    for n in range(1, 41):
        table = sets.MaskTable(n)
        for set_id in NamedSet:
            if sets.is_defined(set_id, n):
                masks = table[set_id].values()
                count = len(masks) if set_id.arity == 2 else sum(map(len, masks))
                assert sets.mask_bits(set_id, n, SIZE_BY_SET[set_id](n)) >= count * (n + 1), (
                    set_id, n)


def test_enumerate_at_a_large_negative_n_lists_nothing(capsys):
    # mask_bits clamps n at 0, where every set is empty
    assert sets.mask_bits(NamedSet.CWDD, -10**9, 0) == 0
    assert run_cli(capsys, "enumerate", "--n", str(-10**9), "--set", "cwdd") == (0, "", "")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_enumerate_streams_a_dense_set(fmt):
    # ra at n = 240 holds 185,096 tuples, about 15 MiB as one list; written a
    # depth at a time it stays far below that
    tracemalloc.start()
    try:
        code = main(["enumerate", "--n", "240", "--set", "ra", "--format", fmt,
                     "--out", os.devnull])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 4 << 20


def test_enumerate_invalid_inputs(capsys):
    code, _, _ = run_cli(capsys, "enumerate", "--n", "12", "--set", "no-such-set")
    assert code == 2
    code, _, err = run_cli(capsys, "enumerate", "--n", "2", "--set", "beta")
    assert code == 2
    assert "error" in err


def test_verify_refuses_n_above_the_census_cap(capsys, monkeypatch):
    def refused(n):
        raise AssertionError("a refused verify built masks")

    monkeypatch.setitem(sets.MASK_SOURCES, NamedSet.RA_D, refused)
    for n in (cli.CENSUS_CAP + 1, 10**9):
        code, out, err = run_cli(capsys, "verify", "--n", str(n))
        assert (code, out, err) == (2, "", f"error: the census needs n <= 300, got {n}\n")


def test_closed_form_fault_fails_census_and_verify(capsys, monkeypatch):
    monkeypatch.setitem(census.SIZE_BY_SET, NamedSet.RA_D, lambda n: size_ra_d(n) + 1)
    code, _, _ = run_cli(capsys, "census", "--from", "5", "--to", "12", "--family", "ra")
    assert code == 1
    code, out, _ = run_cli(capsys, "verify", "--n", "12")
    assert code == 1
    size = size_ra_d(12)
    assert f"ra-d: enumerated {size}, closed form {size + 1} [MISMATCH]" in out.splitlines()
    assert out.splitlines()[-1] == "verdict: FAIL"


@pytest.mark.parametrize("family", ["cwdd", "bounds", "all"])
def test_cwdd_size_below_its_envelope_fails_the_sandwich(capsys, monkeypatch, family):
    # the sandwich check reads census.size_cwdd, while the cwdd count pair
    # reads SIZE_BY_SET, so only the sandwich sees the zero; it applies from n = 6
    monkeypatch.setattr(census, "size_cwdd", lambda n: 0)
    report = run_census(5, 7, family)
    first, *rest = report.records
    assert first.passed
    for record in rest:
        assert [record.ok(kind) for kind in census.KINDS] == [True, False, True]
        assert not record.passed
    failures = [f"cwdd sandwich on cwdd: witness (0,), n mod 6 = {n % 6}" for n in (6, 7)]
    assert [[str(f) for f in record.failures] for record in rest] == [[f] for f in failures]
    header, *lines = report.to_csv().splitlines()
    flags = header.split(",")[-3:]
    assert flags == ["disjointness_ok", "sandwich_ok", "containment_ok"]
    assert [line.split(",")[-3:] for line in lines] == [
        ["true", "true", "true"], ["true", "false", "true"], ["true", "false", "true"]]
    payload = json.loads(report.to_json())
    assert [[json.dumps(record[flag]) for flag in flags] for record in payload["records"]] == [
        line.split(",")[-3:] for line in lines]
    assert [record["pass"] for record in payload["records"]] == [True, False, False]
    assert payload["summary"] == {"pass": 1, "fail": 2}
    assert payload["first_failure"] == 6
    err = "".join(f"census: n = {n}: {f}\n" for n, f in zip((6, 7), failures))
    argv = ("census", "--from", "5", "--to", "7", "--family", family)
    assert run_cli(capsys, *argv) == (1, report.to_csv(), err)
    code, out, _ = run_cli(capsys, "verify", "--n", "6")
    assert code == 1
    assert f"sandwich: FAIL; {failures[0]}" in out.splitlines()
    assert out.splitlines()[-1] == "verdict: FAIL"


def test_count_mismatch_is_named_on_census_stderr(capsys, monkeypatch):
    # cwdd-c loses its masks: both it and its union cwdd count short from n = 7
    monkeypatch.setitem(sets.MASK_SOURCES, NamedSet.CWDD_C, lambda n: {})
    csv = ("n,k,i,cwdd-a_enum,cwdd-a_closed,cwdd-b_enum,cwdd-b_closed,cwdd-c_enum,"
           "cwdd-c_closed,cwdd_enum,cwdd_closed,disjointness_ok,sandwich_ok,containment_ok\n"
           "6,1,0,2,2,0,0,0,0,2,2,true,true,true\n"
           "7,1,1,3,3,1,1,0,1,4,5,true,true,true\n"
           "8,1,2,2,2,1,1,0,2,3,5,true,true,true\n")
    err = ("census: n = 7: cwdd-c enumerated 0, closed form 1, n mod 6 = 1\n"
           "census: n = 7: cwdd enumerated 4, closed form 5, n mod 6 = 1\n"
           "census: n = 8: cwdd-c enumerated 0, closed form 2, n mod 6 = 2\n"
           "census: n = 8: cwdd enumerated 3, closed form 5, n mod 6 = 2\n")
    argv = ("census", "--from", "6", "--to", "8", "--family", "cwdd")
    assert run_cli(capsys, *argv) == (1, csv, err)
    code, out, json_err = run_cli(capsys, *argv, "--format", "json")
    assert (code, json_err) == (1, err)
    payload = json.loads(out)
    header, *lines = csv.splitlines()
    tags = [column[:-len("_enum")] for column in header.split(",") if column.endswith("_enum")]
    for line, record in zip(lines, payload["records"], strict=True):
        cells = line.split(",")
        assert str(record["n"]) == cells[0]
        assert [str(c) for tag in tags for c in record["counts"][tag]] == cells[3:-3]
        assert [json.dumps(record[flag]) for flag in header.split(",")[-3:]] == cells[-3:]
    assert payload["first_failure"] == 7


@pytest.mark.parametrize("family, victim, donor", [
    ("cwdd", NamedSet.CWDD_C, NamedSet.CWDD_B),
    ("ra", NamedSet.RA_B, NamedSet.RA_D),
])
def test_repeated_component_point_fails_disjointness(capsys, monkeypatch, family, victim,
                                                    donor):
    failure = {"cwdd": "cwdd parts disjoint on cwdd-b, cwdd-c: witness (5, 5), n mod 6 = 0",
               "ra": "ra parts disjoint on ra-b, ra-d: witness (3, 4, 7, 7), n mod 6 = 0"}[family]
    # the victim gains the donor's first row: ((5,), 5, 5) or ((3, 4), 7, 7)
    victim_masks = sets.MASK_SOURCES[victim]
    repeated = first_mask(sets.MASK_SOURCES[donor](12))
    monkeypatch.setitem(sets.MASK_SOURCES, victim,
                        lambda n: sets._or(victim_masks(n), repeated))
    code, out, err = run_cli(capsys, "census", "--from", "12", "--to", "12", "--family", family)
    assert code == 1
    assert out.splitlines()[0].endswith("disjointness_ok,sandwich_ok,containment_ok")
    assert out.splitlines()[1].split(",")[-3:] == ["false", "true", "true"]
    # the repeated point also makes the victim's count exceed its closed form
    grown = {"cwdd": "cwdd-c enumerated 12, closed form 11",
             "ra": "ra-b enumerated 4, closed form 3"}[family]
    assert err == f"census: n = 12: {grown}, n mod 6 = 0\ncensus: n = 12: {failure}\n"
    code, out, _ = run_cli(capsys, "verify", "--n", "12")
    assert code == 1
    assert f"disjointness: FAIL; {failure}" in out.splitlines()
    assert "containment: ok" in out.splitlines()


def test_verify_builds_ra_d_rows_once(capsys, monkeypatch):
    calls = []
    masks_ra_d = sets.MASK_SOURCES[NamedSet.RA_D]

    def counted(n):
        calls.append(n)
        return masks_ra_d(n)

    monkeypatch.setitem(sets.MASK_SOURCES, NamedSet.RA_D, counted)
    code, _, _ = run_cli(capsys, "verify", "--n", "12")
    assert code == 0
    assert calls == [12]


def test_bounds_json_rationals(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--n", "12", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["sandwich_upper"] == {"num": 95, "den": 6}
    assert payload["size_cwdd"] == 14


def test_bounds_domain_exit_2(capsys):
    code, _, _ = run_cli(capsys, "bounds", "--n", "5")
    assert code == 2


def test_realize_text(capsys):
    code, out, _ = run_cli(capsys, "realize", "--n", "10", "--depth", "4", "--dim", "4")
    assert code == 0
    assert out == "m=2 p=2 s=1,1 t=1,1\n"


def test_realize_emit_graph(capsys):
    code, out, _ = run_cli(capsys, "realize", "--n", "5", "--depth", "2", "--dim", "2",
                           "--emit-graph")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "m=1 p=1 s=1 t=1"
    assert lines[1:] == ["l0 u0", "u0 v0", "v0 w0", "v0 w1", "w0 w1"]


def test_realize_emit_graph_text_bytes_equal_format_edge_list(capsys):
    # the CLI streams the edge lines; they are format_edge_list's text, byte for byte
    for n, (a, b) in [(5, (2, 2)), (10, (4, 4)), (12, (2, 10)), (13, (2, 6)),
                      (330, (132, 132))]:
        argv = ("realize", "--n", str(n), "--depth", str(a), "--dim", str(b))
        _, head, _ = run_cli(capsys, *argv)
        cw = realize(n, (a, b)).structure
        edges = format_edge_list(build_graph(cw), structure_vertex_names(cw))
        assert run_cli(capsys, *argv, "--emit-graph") == (0, head + edges, "")
    assert edges.count("\n") == 4620


def test_realize_emit_graph_json(capsys):
    code, out, _ = run_cli(capsys, "realize", "--n", "5", "--depth", "2", "--dim", "2",
                           "--emit-graph", "--format", "json")
    assert code == 0
    assert json.loads(out)["edges"] == [["l0", "u0"], ["u0", "v0"], ["v0", "w0"],
                                        ["v0", "w1"], ["w0", "w1"]]


def test_realize_json_bytes_equal_json_dumps(capsys):
    # every supported point for n in 5..12, and a 4,620-edge graph at n = 330
    # that the CLI writes in more than one slice
    points = [(n, (a, b)) for n in range(5, 13) for a in range(1, n) for b in range(1, n)]
    written = 0
    for n, (a, b) in points + [(330, (132, 132))]:
        result = realize(n, (a, b))
        if result.structure is None:
            continue
        cw = result.structure
        payload = {"kind": result.kind.value, "n": cw.vertex_count, "m": cw.m, "p": cw.p,
                   "s": list(cw.s), "t": list(cw.t)}
        argv = ("realize", "--n", str(n), "--depth", str(a), "--dim", str(b), "--format", "json")
        assert run_cli(capsys, *argv) == (0, json.dumps(payload, indent=2) + "\n", "")
        names = structure_vertex_names(cw)
        payload["edges"] = [list(e) for e in edge_ideal_generators(build_graph(cw), names)]
        assert run_cli(capsys, *argv, "--emit-graph") == (
            0, json.dumps(payload, indent=2) + "\n", "")
        written += 1
    assert written == 27 and len(payload["edges"]) == 4620


def test_realize_emit_graph_at_the_edge_limit(capsys, monkeypatch):
    argv = ("realize", "--n", "10", "--depth", "4", "--dim", "4", "--emit-graph")
    _, graph_text, _ = run_cli(capsys, *argv)
    edges = len(graph_text.splitlines()) - 1  # K_{2,2}, two leaves, two triangles: 12
    monkeypatch.setattr(cli, "EMIT_EDGE_LIMIT", edges)
    assert run_cli(capsys, *argv) == (0, graph_text, "")
    monkeypatch.setattr(cli, "EMIT_EDGE_LIMIT", edges - 1)
    assert run_cli(capsys, *argv) == (
        2, "", f"error: the graph has {edges} edges, over the --emit-graph limit of {edges - 1}\n")


def test_realize_emit_graph_builds_just_under_the_edge_limit(capsys, monkeypatch):
    class Built(Exception):
        pass

    def build(cw):
        assert cw.edge_count == 499_997  # a diagonal point 3 edges under the limit
        raise Built

    monkeypatch.setattr(cli, "build_graph", build)
    with pytest.raises(Built):
        main(["realize", "--n", "3466", "--depth", "1421", "--dim", "1421", "--emit-graph"])


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("n, b", [(3461, 1425), (cli.ENUMERATE_LIMIT, 800_000)])
def test_realize_emit_graph_refuses_too_many_edges(capsys, monkeypatch, fmt, n, b):
    def refused(cw):
        raise AssertionError("a refused realize built the graph")

    monkeypatch.setattr(cli, "build_graph", refused)
    m, p = 3 * b - n, n - 2 * b  # the diagonal skeleton: core K_{m,p}, s = t = 1
    edges = m * p + m + 3 * p
    assert edges == (500_001 if n == 3461 else 160_001_600_000)
    assert edges > cli.EMIT_EDGE_LIMIT == 500_000
    code, out, err = run_cli(capsys, "realize", "--n", str(n), "--depth", str(b), "--dim",
                             str(b), "--emit-graph", "--format", fmt)
    assert (code, out) == (2, "")
    assert f"{edges} edges, over the --emit-graph limit of {cli.EMIT_EDGE_LIMIT}" in err
    code, out, _ = run_cli(capsys, "realize", "--n", str(n), "--depth", str(b), "--dim", str(b))
    assert (code, out) == (0, f"m={m} p={p} s={','.join(['1'] * m)} t={','.join(['1'] * p)}\n")


def test_realize_refuses_n_over_the_limit(capsys):
    limit = cli.ENUMERATE_LIMIT
    code, out, _ = run_cli(capsys, "realize", "--n", str(limit), "--depth", "2",
                           "--dim", str(limit - 2))
    assert (code, out) == (0, f"m=2 p=1 s={(limit - 2) // 2},{(limit - 3) // 2} t=0\n")
    for n in (limit + 1, 10**9):
        b = n // 2 - 1  # a diagonal point: the skeleton would have about n/2 parts
        code, out, err = run_cli(capsys, "realize", "--n", str(n), "--depth", str(b),
                                 "--dim", str(b), "--emit-graph")
        assert (code, out) == (2, "")
        assert str(limit) in err


def test_bounds_text_and_json_carry_the_same_fields(capsys):
    _, text, _ = run_cli(capsys, "bounds", "--n", "13")
    _, out, _ = run_cli(capsys, "bounds", "--n", "13", "--format", "json")
    payload = json.loads(out, object_hook=lambda d: Fraction(d["num"], d["den"])
                         if "num" in d else d)
    assert text == "".join(f"{name} = {value}\n" for name, value in payload.items())


def test_realize_unsupported_exit_3(capsys):
    code, _, err = run_cli(capsys, "realize", "--n", "12", "--depth", "3", "--dim", "5")
    assert code == 3
    assert "no supported realization" in err


def test_readme_example_file():
    # the README's eight generators; test_pinned_command runs ideal on the file
    ideal = "a b\na f\nb c\nb f\nc d\nc e\nd e\ne f\n"
    assert (DATA_DIR / "chorded-hexagon-ideal.txt").read_bytes().decode("utf-8") == ideal


# labels that JSON escapes: a quote, a backslash, non-ASCII and DEL
ESCAPED_LABELS = ['"', "\\", "é", "日本", "\x7f"]


def _graph_json_cases():
    """Edge-list texts: one for each recognize outcome, one path through the
    escaped labels, and 200 seeded random lists of at most 32 edges."""
    cases = ["u0 v0\nu0 l0\nv0 w0\nv0 w1\nw0 w1\n",  # CW
             "a b\nc d\n",  # disconnected
             "".join(f"{a} {b}\n" for a, b in CHORDED_HEXAGON_EDGES),  # m≠im
             "c a\nc b\nc d\n",  # star
             "a b\nb c\nc a\n",  # star triangle
             "".join(f"{a} {b}\n" for a, b in zip(ESCAPED_LABELS, ESCAPED_LABELS[1:]))]
    rng = random.Random(23)
    pool = ESCAPED_LABELS + [f"x{i}" for i in range(12)]
    for _ in range(200):
        labels = rng.sample(pool, rng.randint(2, len(pool)))
        cases.append("".join(" ".join(rng.sample(labels, 2)) + "\n"
                             for _ in range(rng.randint(1, 32))))
    return cases


def test_graph_json_bytes_equal_json_dumps(capsys, tmp_path):
    # recognize and ideal --format json are json.dumps(..., indent=2) and a
    # newline, byte for byte
    path = tmp_path / "g.edges"
    reasons = set()
    for text in _graph_json_cases():
        path.write_text(text, encoding="utf-8")
        graph, names = parse_edge_list(text)
        m, im = matching_number(graph), induced_matching_number(graph)
        reason = not_cw_reason(graph, m, im)
        reasons.add(reason)
        verdict = {"cameron_walker": not reason, "matching_number": m,
                   "induced_matching_number": im, "reason": reason or None}
        generators = {"generators": [list(g) for g in edge_ideal_generators(graph, names)]}
        for command, payload in (("recognize", verdict), ("ideal", generators)):
            assert run_cli(capsys, command, "--input", str(path), "--format", "json") == (
                0, json.dumps(payload, indent=2) + "\n", ""), (command, text)
    assert reasons == {"", "disconnected", "m≠im", "star", "star triangle"}


def test_graph_json_needs_no_python_encoder(capsys, monkeypatch):
    # json.dumps with indent runs the pure-Python encoder through
    # JSONEncoder.iterencode; recognize and ideal write their JSON without it
    def refused(*args, **kwargs):
        raise RuntimeError("JSONEncoder.iterencode called")

    monkeypatch.setattr(json.JSONEncoder, "iterencode", refused)
    for command, name, golden in [("recognize", "cw-skeleton", "cw-skeleton.json"),
                                  ("recognize", "chorded-hexagon", "chorded-hexagon.json"),
                                  ("ideal", "chorded-hexagon", "chorded-hexagon-ideal.json")]:
        expected = (DATA_DIR / golden).read_bytes().decode("utf-8")
        assert run_cli(capsys, command, "--input", str(DATA_DIR / f"{name}.edges"),
                       "--format", "json") == (0, expected, "")


@pytest.mark.parametrize("data, command, expected", [
    (b"\xef\xbb\xbfa b\nb c\nc a\n", "recognize", "not CW: m=1 im=1 (star triangle)\n"),
    (b"\xef\xbb\xbfa b\nb c\nc a\n", "ideal", "a b\na c\nb c\n"),
    # only one leading mark is dropped
    (b"\xef\xbb\xbf\xef\xbb\xbfa b\n", "ideal", "b \ufeffa\n"),
], ids=["recognize", "ideal", "two-marks"])
def test_a_leading_byte_order_mark_is_no_part_of_a_label(capsys, tmp_path, data, command,
                                                          expected):
    path = tmp_path / "bom.edges"
    path.write_bytes(data)
    assert run_cli(capsys, command, "--input", str(path)) == (0, expected, "")


def test_recognize_cw_graph(capsys, tmp_path):
    path = tmp_path / "cw.edges"
    path.write_text("u0 v0\nu0 l0\nv0 w0\nv0 w1\nw0 w1\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "recognize", "--input", str(path))
    assert code == 0
    assert out == "CW: m=2 im=2\n"


def test_recognize_star_reason(capsys, tmp_path):
    path = tmp_path / "star.edges"
    path.write_text("c a\nc b\nc d\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "recognize", "--input", str(path))
    assert code == 0
    assert out == "not CW: m=1 im=1 (star)\n"


@pytest.mark.parametrize("text, m, im, reason", [
    ("a b\nc d\n", 2, 2, "disconnected"),
    ("a b\nb c\nc a\n", 1, 1, "star triangle"),
])
def test_recognize_reasons_text_and_json(capsys, tmp_path, text, m, im, reason):
    path = tmp_path / "g.edges"
    path.write_text(text, encoding="utf-8")
    code, out, _ = run_cli(capsys, "recognize", "--input", str(path))
    assert code == 0
    assert out == f"not CW: m={m} im={im} ({reason})\n"
    code, out, _ = run_cli(capsys, "recognize", "--input", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out) == {"cameron_walker": False, "matching_number": m,
                               "induced_matching_number": im, "reason": reason}


@pytest.mark.parametrize("text", [
    "u0 v0\nu0 l0\nv0 w0\nv0 w1\nw0 w1\n",  # CW
    "a b\nc d\n",                            # disconnected
    "c a\nc b\nc d\n",                        # star
])
def test_recognize_runs_each_search_once(capsys, monkeypatch, tmp_path, text):
    path = tmp_path / "g.edges"
    path.write_text(text, encoding="utf-8")
    calls = []
    for name in ("matching_number", "induced_matching_number"):
        search = getattr(graphs, name)

        def counted(g, name=name, search=search):
            calls.append(name)
            return search(g)

        monkeypatch.setattr(graphs, name, counted)
        monkeypatch.setattr(cli, name, counted)
    for fmt in ("text", "json"):
        calls.clear()
        code, _, _ = run_cli(capsys, "recognize", "--input", str(path), "--format", fmt)
        assert code == 0
        assert sorted(calls) == ["induced_matching_number", "matching_number"]


def test_recognize_missing_file_exit_2(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "recognize", "--input", str(tmp_path / "absent.edges"))
    assert code == 2


def test_recognize_oversized_graph_exit_4(capsys, tmp_path):
    path = tmp_path / "big.edges"
    path.write_text("".join(f"v{i} v{i+1}\n" for i in range(40)), encoding="utf-8")
    code, _, err = run_cli(capsys, "recognize", "--input", str(path))
    assert code == 4
    assert "cap" in err


def test_ideal_text_keeps_distinct_generators_apart(capsys, tmp_path):
    # with the labels run together, a bc and ab c would both print abc
    path = tmp_path / "g.edges"
    path.write_text("a bc\nab c\nc a\n", encoding="utf-8")
    assert run_cli(capsys, "ideal", "--input", str(path)) == (0, "a bc\na c\nab c\n", "")


def test_loop_edge_exit_2(capsys, tmp_path):
    path = tmp_path / "loop.edges"
    path.write_text("a a\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "ideal", "--input", str(path))
    assert code == 2
    assert "line 1" in err


@pytest.mark.parametrize("command", ["recognize", "ideal"])
def test_input_is_read_up_to_the_byte_limit(capsys, monkeypatch, tmp_path, command):
    text = "".join(f"{a} {b}\n" for a, b in CHORDED_HEXAGON_EDGES)
    monkeypatch.setattr(cli, "INPUT_BYTE_LIMIT", len(text))
    path = tmp_path / "hexagon.edges"
    path.write_text(text, encoding="utf-8")
    code, out, _ = run_cli(capsys, command, "--input", str(path))
    assert code == 0 and out
    path.write_text(text + "#", encoding="utf-8")
    assert run_cli(capsys, command, "--input", str(path)) == (
        2, "", f"error: {path} is over the input limit of {len(text)} bytes\n")


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
@pytest.mark.parametrize("command", ["recognize", "ideal"])
def test_endless_input_exits_2(capsys, command):
    code, out, err = run_cli(capsys, command, "--input", "/dev/zero")
    assert (code, out) == (2, "")
    assert err == f"error: /dev/zero is over the input limit of {cli.INPUT_BYTE_LIMIT} bytes\n"


def test_byte_deterministic_output(capsys):
    first = run_cli(capsys, "census", "--from", "5", "--to", "30", "--family", "all")
    second = run_cli(capsys, "census", "--from", "5", "--to", "30", "--family", "all")
    assert first == second


def test_parser_reuse_keeps_no_state(capsys):
    hexagon_file = str(DATA_DIR / "chorded-hexagon.edges")
    code, out, _ = run_cli(capsys, "census", "--from", "5", "--to", "6", "--format", "json")
    assert code == 0 and out.startswith("{")
    code, out, _ = run_cli(capsys, "census", "--from", "5", "--to", "6")
    assert code == 0 and out.startswith("n,k,i,")
    code, out, _ = run_cli(capsys, "recognize", "--input", hexagon_file, "--format", "json")
    assert code == 0 and json.loads(out)["reason"] == "m≠im"
    code, out, _ = run_cli(capsys, "recognize", "--input", hexagon_file)
    assert code == 0 and out == "not CW: m=3 im=2 (m≠im)\n"


def test_call_after_argument_error_matches_a_first_call(capsys):
    def first_call(*argv):
        env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
        proc = subprocess.run([sys.executable, "-m", "cwlattice", *argv],
                              capture_output=True, text=True, env=env)
        return proc.returncode, proc.stdout, proc.stderr

    bad = ("enumerate", "--n", "5", "--set", "ra", "--format", "json", "--bogus")
    good = ("enumerate", "--n", "5", "--set", "ra")
    assert run_cli(capsys, *bad) == first_call(*bad)
    assert run_cli(capsys, *bad)[0] == 2
    assert run_cli(capsys, *good) == first_call(*good) == (0, "2,2,2,2\n2,2,3,3\n", "")


def test_enumerate_csv_to_file_equals_stdout(capsys, tmp_path):
    out_file = tmp_path / "points.csv"
    code, out, _ = run_cli(capsys, "enumerate", "--n", "40", "--set", "ra")
    assert code == 0 and out.count("\n") == size_ra(40)
    code, printed, _ = run_cli(capsys, "enumerate", "--n", "40", "--set", "ra",
                               "--out", str(out_file))
    assert code == 0 and printed == ""
    assert out_file.read_text(encoding="utf-8") == out
