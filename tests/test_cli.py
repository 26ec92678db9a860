"""Command-line interface: outputs, exit codes, round trips."""

import ast
import json
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

import sphroots.cli
from sphroots.cli import build_parser, main
from sphroots.solver import optimized_solve

from helpers import datum


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_roots_json(capsys):
    code, out, _ = run(capsys, "roots", "--type", "B", "--rank", "3",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["type"] == "B" and payload["rank"] == 3
    assert len(payload["positive_roots"]) == 9
    assert payload["cartan"][2][1] == -2


def test_roots_deterministic(capsys):
    _, first, _ = run(capsys, "roots", "--type", "E6", "--format", "json")
    _, second, _ = run(capsys, "roots", "--type", "E6", "--format", "json")
    assert first == second


def test_check_spherical(capsys):
    code, out, _ = run(capsys, "check", "--type", "B", "--rank", "3",
                       "--complement", "3", "--psi", "1;2",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["spherical"] is True and payload["rank"] == 3
    assert payload["theta"] == [[1, 2, 2], [1, 1, 1], [0, 0, 1]]


def test_check_not_spherical_still_exits_zero(capsys):
    code, out, _ = run(capsys, "check", "--type", "C", "--rank", "4",
                       "--complement", "2", "--psi", "1;2",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["spherical"] is False and payload["rank"] is None


B3_CHAIN = ("--type", "B", "--rank", "3", "--complement", "3", "--psi", "1;2")


@pytest.mark.parametrize("flag", ["--assert", "--no-assert"])
@pytest.mark.parametrize("argv", [
    ("check", *B3_CHAIN),
    ("compute", *B3_CHAIN),
    ("degenerate", *B3_CHAIN, "--lambda", "1"),
    ("verify-tables", "--type", "B", "--max-rank", "3"),
], ids=lambda argv: argv[0])
def test_assert_flag_is_unknown(capsys, argv, flag):
    # the invariant checks always run, so no command has a flag for them
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_plain_compute_runs_the_limit_checks():
    # a fresh interpreter: interned data and the solve memo of this process
    # would hide the degenerations of a datum solved before
    src = os.path.dirname(os.path.dirname(sphroots.cli.__file__))
    code = ("import sys\n"
            "from sphroots import cli, degeneration\n"
            "code = cli.main(['compute', *sys.argv[1:]])\n"
            "print(code, degeneration.checks_run)\n")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code, *B3_CHAIN],
                         capture_output=True, text=True, check=True,
                         env=env).stdout
    # two degenerations at the root and two at each of its children
    assert out.splitlines()[-1] == "0 6"


def test_compute_both_methods(capsys):
    code, out, _ = run(capsys, "compute", "--type", "B", "--rank", "3",
                       "--complement", "3", "--psi", "1;2",
                       "--method", "both", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["spherical"] is True
    assert payload["methods_agree"] is True
    assert payload["spherical_roots"] == [[0, 0, 1], [0, 1, 1], [1, 1, 0]]


@pytest.mark.parametrize("command", ["check", "compute"])
def test_repeated_active_root_counts_once(capsys, command):
    datum = (command, "--type", "A", "--rank", "3", "--complement", "2",
             "--format", "json")
    once = run(capsys, *datum, "--psi", "1")
    assert run(capsys, *datum, "--psi", "1;1") == once
    assert json.loads(once[1])["rank"] == 2


def test_compute_not_spherical_exit_2(capsys):
    code, _, err = run(capsys, "compute", "--type", "C", "--rank", "4",
                       "--complement", "2", "--psi", "1;2")
    assert code == 2
    assert "not spherical" in err


def test_compute_closure_violation_exit_2(capsys):
    code, _, err = run(capsys, "compute", "--type", "A", "--rank", "3",
                       "--complement", "1,3", "--psi", "1,1")
    assert code == 2
    assert "ClosureViolation" in err


def test_compute_psi_shape_mismatch_exit_2(capsys):
    code, _, err = run(capsys, "compute", "--type", "A", "--rank", "3",
                       "--complement", "2", "--psi", "1,1")
    assert code == 2
    assert "one value per complement node" in err


def test_degenerate_command(capsys):
    code, out, _ = run(capsys, "degenerate", "--type", "B", "--rank", "3",
                       "--complement", "3", "--psi", "1;2",
                       "--lambda", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["delta"] == [1, 1, 1]
    assert payload["target"] == {"type": "B", "rank": 3,
                                 "levi_complement": [1, 3],
                                 "psi": [[0, 1], [0, 2]]}
    assert [1, 1, 1] in [pair[0] for pair in payload["shift_map"]]
    cartan_targets = [pair[1] for pair in payload["shift_map"]
                      if pair[1] == "h_delta"]
    assert cartan_targets == ["h_delta"]


def test_enumerate_round_trip(capsys):
    code, out, _ = run(capsys, "enumerate", "--type", "F4",
                       "--complement-size", "1", "--psi-size", "2",
                       "--format", "json")
    assert code == 0
    records = json.loads(out)
    solved = [r for r in records if r["spherical"] and r["sm_trivial"]]
    assert len(solved) == 1
    rec = solved[0]
    psi = ";".join(",".join(str(x) for x in v) for v in rec["psi"])
    complement = ",".join(str(x) for x in rec["levi_complement"])
    code, out, _ = run(capsys, "compute", "--type", rec["type"],
                       "--rank", str(rec["rank"]),
                       "--complement", complement, "--psi", psi,
                       "--method", "both", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["spherical_roots"] == rec["sigma"]
    assert payload["rank"] == rec["spherical_rank"]


def test_enumerate_takes_three_active_roots(capsys):
    # no table lists three active roots, so every spherical case has
    # several blocks; its sigma is the blockwise table route's
    code, out, _ = run(capsys, "enumerate", "--type", "C", "--rank", "5",
                       "--complement-size", "2", "--psi-size", "3",
                       "--format", "json")
    assert code == 0
    records = json.loads(out)
    spherical = [r for r in records if r["spherical"]]
    assert len(spherical) == 4
    for rec in spherical:
        assert len(rec["psi"]) == 3
        assert rec["sm_trivial"] is False and rec["matched_row"] is None
        H = datum("C", 5, rec["levi_complement"], rec["psi"])
        table = optimized_solve(H, "table").roots
        assert rec["sigma"] == [list(v) for v in table]


def test_verify_tables_exit_codes(capsys):
    code, out, _ = run(capsys, "verify-tables", "--type", "F4",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["empty"] is True


def test_tables_dump(capsys):
    code, out, _ = run(capsys, "tables", "dump", "--table", "2", "--n", "4",
                       "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert {r["row"] for r in rows} == {1, 2}
    code, out, _ = run(capsys, "tables", "dump", "--table", "9",
                       "--format", "json")
    assert code == 0
    assert len(json.loads(out)) == 9


def test_identical_invocations_byte_identical(capsys):
    args = ("compute", "--type", "D", "--rank", "5", "--complement", "1,5",
            "--psi", "1,0;0,1", "--format", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


DATUM = ("--type", "B", "--rank", "3")


@pytest.mark.parametrize("argv", [
    ("compute", *DATUM, "--complement", "x", "--psi", "1"),
    ("compute", *DATUM, "--complement", ",", "--psi", "1"),
    ("compute", *DATUM, "--complement", "3", "--psi", "a"),
    ("degenerate", *DATUM, "--complement", "3", "--psi", "1;2",
     "--lambda", "x"),
    ("tables", "dump", "--table", "1", "--params", "x"),
    ("tables", "dump", "--table", "3"),
    ("tables", "dump", "--table", "4"),
    ("tables", "dump", "--table", "5"),
    ("tables", "dump", "--table", "1", "--n", "5", "--params", "99"),
    ("tables", "dump", "--table", "1", "--n", "0"),
    ("enumerate", "--type", "B", "--rank", "3", "--complement-size", "2",
     "--psi-size", "1"),
    ("enumerate", "--type", "B", "--rank", "3", "--complement-size", "1",
     "--psi-size", "0"),
    ("enumerate", "--type", "B", "--rank", "3", "--complement-size", "2",
     "--psi-size", "-1"),
    ("verify-tables", "--type", "A", "--max-rank", "2"),
    ("verify-tables", "--type", "D", "--max-rank", "3"),
    ("tables", "dump", "--table", "1", "--n", "65"),
    ("roots", "--type", "B/3"),
])
def test_malformed_input_exits_2_with_one_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


#: a table row of each fixed-rank type: (type, rank, complement, psi, lambda)
FIXED_RANK_DATA = [
    ("E6", "6", "1,2", "0,1;1,0", "0,1"),
    ("E7", "7", "1,2", "0,1;1,0", "0,1"),
    ("E8", "8", "1,2", "0,1;1,0", "0,1"),
    ("F4", "4", "3", "1;3", "1"),
    ("G2", "2", "1", "1", "1"),
]


@pytest.mark.parametrize("command", ["check", "compute", "degenerate"])
@pytest.mark.parametrize("family,rank,complement,psi,lam", FIXED_RANK_DATA,
                         ids=[d[0] for d in FIXED_RANK_DATA])
def test_fixed_rank_types_take_the_rank_as_optional(capsys, command, family,
                                                    rank, complement, psi,
                                                    lam):
    # one way to name a type: as for roots and enumerate, the datum
    # commands read a fixed rank off the type
    argv = [command, "--type", family, "--complement", complement,
            "--psi", psi, "--format", "json"]
    if command == "degenerate":
        argv += ["--lambda", lam]
    without = run(capsys, *argv)
    with_rank = run(capsys, *argv, "--rank", rank)
    assert without == with_rank
    assert without[0] == 0 and without[1] and not without[2]


def test_family_without_a_rank_exits_2_with_one_line(capsys):
    code, out, err = run(capsys, "compute", "--type", "B", "--complement",
                         "1", "--psi", "1")
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "needs an explicit rank" in err


@pytest.mark.parametrize("argv", [
    ("compute", "--type", "A", "--rank", "400", "--complement", "1",
     "--psi", "1", "--format", "json"),
    ("verify-tables", "--type", "C", "--max-rank", "400"),
])
def test_rank_above_max_rank_exits_2_before_any_closure(capsys, monkeypatch,
                                                        argv):
    import sphroots.rootsystem as rsmod

    def no_closure(cartan, symmetrizer):
        raise AssertionError("closure ran for a refused rank")

    monkeypatch.setattr(rsmod, "_close_positive_roots", no_closure)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: InvalidType: ") and err.count("\n") == 1
    assert "MAX_RANK" in err and "rank 400" in err


def test_failed_limit_check_exits_3_with_one_line(capsys, monkeypatch):
    # a defect, not bad input: the rank-drop check of the limit fails
    # (``degenerate`` memoizes no result, so the check always runs)
    import sphroots.degeneration as degeneration

    monkeypatch.setattr(degeneration, "is_spherical_and_rank",
                        lambda H: (True, 99))
    code, out, err = run(capsys, "degenerate", "--type", "B", "--rank", "3",
                         "--complement", "3", "--psi", "1;2", "--lambda", "1")
    assert (code, out) == (3, "")
    assert err == ("error: InvariantViolation: rank did not drop by exactly "
                   "one\n")


@pytest.mark.parametrize("psi, error", [
    ("1", "UnclassifiedLeaf"),
    ("1;2", "UnclassifiedCase"),
])
def test_unclassified_block_exits_3_with_one_line(capsys, monkeypatch, psi,
                                                  error):
    # a block the tables do not cover is a defect of the tables; the table
    # route of ``--method both`` memoizes no result, so it always matches,
    # and only blocks of the datum's size go unmatched
    import sphroots.tables as tables

    lookup = tables.lookup
    monkeypatch.setattr(tables, "lookup", lambda rs, complement, active: (
        None if len(active) == psi.count(";") + 1
        else lookup(rs, complement, active)))
    code, out, err = run(capsys, "compute", "--type", "B", "--rank", "3",
                         "--complement", "3", "--psi", psi,
                         "--method", "both")
    assert (code, out) == (3, "")
    assert err.startswith(f"error: {error}: no table row matches ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["enumerate", "verify-tables"])
def test_rank_above_enumeration_cap_exits_2_before_any_closure(
        capsys, monkeypatch, command):
    import sphroots.rootsystem as rsmod
    from sphroots.enumeration import ENUMERATION_MAX_RANK

    def no_closure(cartan, symmetrizer):
        raise AssertionError("closure ran for a refused rank")

    monkeypatch.setattr(rsmod, "_close_positive_roots", no_closure)
    rank = str(ENUMERATION_MAX_RANK + 1)
    if command == "enumerate":
        argv = ("enumerate", "--type", "A", "--rank", rank,
                "--complement-size", "2", "--psi-size", "2")
    else:
        argv = ("verify-tables", "--type", "B", "--max-rank", rank)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: InvalidType: ") and err.count("\n") == 1
    assert "ENUMERATION_MAX_RANK" in err


def test_cli_import_loads_no_dataclasses_inspect_or_fractions():
    # a fresh interpreter without site, which loads modules of its own;
    # enumeration, solver, tables and degeneration are imported by the
    # commands that use them
    src = os.path.dirname(os.path.dirname(sphroots.cli.__file__))
    code = ("import sys\n"
            "import sphroots.cli\n"
            "print(sorted(m for m in ('dataclasses', 'inspect', 'fractions',"
            " 'decimal', 'sphroots.enumeration', 'sphroots.solver',"
            " 'sphroots.tables', 'sphroots.degeneration')"
            " if m in sys.modules))\n")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-S", "-c", code],
                         capture_output=True, text=True, check=True,
                         env=env).stdout
    assert out.strip() == "[]"


def test_leaf_compute_creates_no_typing_named_tuple_class():
    # a fresh interpreter without site: records are plain namedtuples, as a
    # typing.NamedTuple class costs every process about twice as much to
    # create (it turns each annotation into a ForwardRef); and a leaf, which
    # never degenerates, does not import degeneration
    src = os.path.dirname(os.path.dirname(sphroots.cli.__file__))
    code = (
        "import contextlib, io, sys, typing\n"
        "made = []\n"
        "new = typing.NamedTupleMeta.__new__\n"
        "def counted(cls, name, *args, **kwargs):\n"
        "    made.append(name)\n"
        "    return new(cls, name, *args, **kwargs)\n"
        "typing.NamedTupleMeta.__new__ = counted\n"
        "class Probe(typing.NamedTuple):\n"
        "    x: int\n"
        "from sphroots.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['compute', '--type', 'C', '--rank', '22',"
        " '--complement', '22', '--psi', '1', '--format', 'json'])\n"
        "print(code, made, 'sphroots.degeneration' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-S", "-c", code],
                         capture_output=True, text=True, check=True,
                         env=env).stdout
    assert out.strip() == "0 ['Probe'] False"


TOP_USAGE = """\
usage: sphroots [-h]
                {roots,check,compute,degenerate,enumerate,verify-tables,tables}
                ...
"""

TOP_HELP = TOP_USAGE + """
Exact spherical-root computations for Levi-split subgroups

positional arguments:
  {roots,check,compute,degenerate,enumerate,verify-tables,tables}
    roots               dump a root system
    check               sphericity and rank of a datum
    compute             spherical roots of a datum
    degenerate          degenerate a datum along one active root
    enumerate           enumerate canonical cases
    verify-tables       regenerate tables and diff
    tables              table row instantiations

options:
  -h, --help            show this help message and exit
"""


def parse_exit(capsys, parser, argv):
    """Exit code, stdout and stderr of a parse that exits."""
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("words", [
    ("roots",), ("check",), ("compute",), ("degenerate",), ("enumerate",),
    ("verify-tables",), ("tables",), ("tables", "dump"),
])
def test_one_command_parser_matches_full_parser(capsys, monkeypatch, words):
    monkeypatch.setenv("COLUMNS", "80")
    full, one = build_parser(), build_parser(words[0])
    helps = [parse_exit(capsys, p, [*words, "--help"]) for p in (full, one)]
    assert helps[0] == helps[1]
    assert helps[0][0] == 0 and helps[0][1].startswith("usage: sphroots ")
    # every command has a required argument, so the bare words miss one
    missing = [parse_exit(capsys, p, list(words)) for p in (full, one)]
    assert missing[0] == missing[1]
    assert missing[0][0] == 2 and "required" in missing[0][2]
    # the one-command parser knows no other command
    other = "roots" if words[0] != "roots" else "check"
    assert parse_exit(capsys, one, [other])[0] == 2


def test_one_command_parser_keeps_the_full_usage_line(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    argv = ["roots", "--type", "B", "stray"]
    errors = [parse_exit(capsys, p, argv)
              for p in (build_parser(), build_parser("roots"))]
    assert errors[0] == errors[1] == (
        2, "", TOP_USAGE + "sphroots: error: unrecognized arguments: stray\n")


def test_top_level_help_and_unknown_command_text(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr() == (TOP_HELP, "")
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", TOP_USAGE + (
        "sphroots: error: argument command: invalid choice: 'bogus' "
        "(choose from 'roots', 'check', 'compute', 'degenerate', "
        "'enumerate', 'verify-tables', 'tables')\n"))
    # an unknown tables subcommand is refused by argparse, not by the command
    with pytest.raises(SystemExit) as exc:
        main(["tables", "nope"])
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", (
        "usage: sphroots tables [-h] {dump} ...\n"
        "sphroots tables: error: argument table_command: invalid choice: "
        "'nope' (choose from 'dump')\n"))


ROOT = Path(__file__).resolve().parents[1]
GOLDEN = json.loads((ROOT / "tests" / "golden_cli.json").read_text())


def _fresh(*args, **kwargs):
    """A fresh interpreter with the package on its path."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          env=env, **kwargs)


#: the first recorded invocation of each command, plus two refusals: a
#: datum that is not spherical (main returns 2) and an unknown flag
#: (argparse exits 2 from inside main)
ENTRY_CASES = [
    *[case for i, case in enumerate(GOLDEN)
      if all(other["argv"][0] != case["argv"][0] for other in GOLDEN[:i])],
    {"argv": ["compute", "--type", "C", "--rank", "4", "--complement", "2",
              "--psi", "1;2"], "code": 2, "stdout": ""},
    {"argv": ["check", *B3_CHAIN, "--assert"], "code": 2, "stdout": ""},
]


@pytest.mark.parametrize("case", ENTRY_CASES,
                         ids=lambda c: " ".join(c["argv"][:2]))
def test_module_entry_prints_the_recorded_output(case):
    out = _fresh("-m", "sphroots.cli", *case["argv"])
    assert (out.returncode, out.stdout) == (
        case["code"], case["stdout"].encode())
    assert bool(out.stderr) == bool(case["code"])


def test_only_the_process_entry_freezes_the_collector():
    # import and an in-process main leave the collector as they find it
    code = ("import gc, sys\n"
            "import sphroots.cli\n"
            "state = [gc.get_freeze_count(), gc.isenabled()]\n"
            "code = sphroots.cli.main(['compute', *sys.argv[1:]])\n"
            "print(code, state + [gc.get_freeze_count(), gc.isenabled()])\n")
    out = _fresh("-c", code, *B3_CHAIN, text=True, check=True).stdout
    assert out.splitlines()[-1] == "0 [0, True, 0, True]"
    # the process entry freezes on its way out and exits with main's code
    code = ("import gc, sys\n"
            "import sphroots.cli\n"
            "sys.argv[1:] = ['check', *sys.argv[1:]]\n"
            "try:\n"
            "    sphroots.cli.run()\n"
            "except SystemExit as exc:\n"
            "    print(exc.code, gc.get_freeze_count() > 0)\n")
    out = _fresh("-c", code, *B3_CHAIN, text=True, check=True).stdout
    assert out.splitlines()[-1] == "0 True"


def test_console_script_and_module_run_the_same_entry():
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())[
        "project"]["scripts"]
    tree = ast.parse(Path(sphroots.cli.__file__).read_text())
    [block] = [node for node in tree.body if isinstance(node, ast.If)
               and ast.unparse(node.test) == "__name__ == '__main__'"]
    [stmt] = block.body
    assert ast.unparse(stmt) == "run()"
    assert scripts == {"sphroots": "sphroots.cli:run"}
