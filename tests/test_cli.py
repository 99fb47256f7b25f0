import functools
import inspect
import json
import os
import re
import subprocess
import sys
import time

import pytest

import parity_board
from parity_board import tables, verify
from parity_board.cli import build_parser, main
from parity_board.qseries import gf_coefficients

TABLE1_N7 = (
    "7\t(1,{1,1,1,1,1,1})\n"
    "6+1\t(3,{1,1,1,1})\n"
    "5+2\t(1,{2,2,1,1})\n"
    "4+3\t(3,{2,2})\n"
    "4+2+1\t(1,{2,3,1})\n"
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTable:
    def test_table1_weight_seven(self, capsys):
        code, out, _ = run_cli(capsys, "table", "table1", "--n", "7")
        assert code == 0
        assert out == TABLE1_N7

    def test_table1_json_lines(self, capsys):
        code, out, _ = run_cli(capsys, "table", "table1", "--n", "7", "--format", "json-lines")
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows[0] == {
            "table": "table1",
            "partition": [7],
            "t": 1,
            "delta": [1, 1, 1, 1, 1, 1],
        }
        assert len(rows) == 5

    def test_counts_zero(self, capsys):
        code, out, _ = run_cli(capsys, "table", "counts", "--n", "0")
        assert code == 0
        assert out == "0\t1\t1\n"

    def test_s_coeffs_matches_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "s-coeffs", "--a-max", "2", "--b-max", "4", "--trunc", "10"
        )
        assert code == 0
        table = gf_coefficients(2, 4, 10)
        expected = [
            f"{a}\t{b}\t{n}\t{v}" for (a, b, n), v in sorted(table.items())
        ]
        assert out.splitlines() == expected

    def test_theorem34_rows_agree(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "table",
            "theorem34",
            "--k-min",
            "-1",
            "--k-max",
            "1",
            "--m-max",
            "3",
            "--n-max",
            "10",
            "--format",
            "json-lines",
        )
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == 3 * 3 * 11
        assert all(r["count"] == r["formula"] for r in rows)

    def test_missing_n_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table", "table1"])
        assert exc.value.code == 2

    def test_unknown_kind_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["table", "nonsense", "--n", "3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("table1", "--n", "7", "--trunc", "3"),
            ("counts", "--n", "5", "--k-min", "1"),
            ("s-coeffs", "--n", "5"),
            ("theorem34", "--trunc", "4"),
        ],
        ids=" ".join,
    )
    def test_bound_the_kind_does_not_read_is_usage_error(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(["table", *argv])
        assert exc.value.code == 2

    @pytest.mark.parametrize("kind, sweep", [("s-coeffs", verify.verify_gf), ("theorem34", verify.verify_theorem34)])
    def test_kind_takes_the_bounds_and_defaults_of_its_sweep(self, kind, sweep):
        args = vars(build_parser().parse_args(["table", kind]))
        defaults = {k: p.default for k, p in inspect.signature(sweep).parameters.items() if k != "jobs"}
        assert {k: args[k] for k in args if k not in ("command", "kind", "format", "out")} == defaults


class TestEnumerate:
    def test_partitions(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "partitions", "--n", "5", "--max-part", "3"
        )
        assert code == 0
        assert out == "3+2\n3+1+1\n2+2+1\n2+1+1+1\n1+1+1+1+1\n"

    def test_partitions_even_only(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "partitions", "--n", "6", "--even-only"
        )
        assert code == 0
        assert out == "6\n4+2\n2+2+2\n"

    def test_strict_with_parts(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "strict", "--n", "33", "--parts", "6", "--format", "json-lines"
        )
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert all(len(r["parts"]) == 6 and r["weight"] == 33 for r in rows)

    def test_sequences(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "abseq", "--a", "5", "--b", "1", "--half-weight", "9"
        )
        assert code == 0
        assert out == "{6,6,3,3}\n{6,6,2,2,1,1}\n{6,6,1,1,1,1,1,1}\n"

    def test_negative_n_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "partitions", "--n", "-3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("kind", tables.ENUMERATIONS)
    def test_kind_takes_the_flags_and_defaults_of_its_emitter(self, kind):
        params = inspect.signature(getattr(tables, tables.ENUMERATIONS[kind][0])).parameters
        required = [k for k, p in params.items() if p.default is p.empty]
        argv = [arg for k in required for arg in ("--" + k.replace("_", "-"), "1")]
        args = vars(build_parser().parse_args(["enumerate", kind, *argv]))
        expected = {k: 1 if p.default is p.empty else p.default for k, p in params.items() if k != "fmt"}
        assert {k: args[k] for k in args if k not in ("command", "kind", "format", "out")} == expected
        assert args["format"] == params["fmt"].default

    @pytest.mark.parametrize(
        "argv, text",
        [
            (["enumerate", "partitions"], "--even-only keep all-even partitions only"),
            (["enumerate", "strict"], "--parts PARTS exact number of parts"),
            *((["table"], f"{kind} {help_text}") for kind, (_, help_text) in tables.TABLE_KINDS.items()),
        ],
        ids=["partitions", "strict", *(f"table-{kind}" for kind in tables.TABLE_KINDS)],
    )
    def test_help_describes_the_flag(self, capsys, argv, text):
        """An ``enumerate`` kind's help describes its flags, and ``table``'s
        help describes each of its kinds."""
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--help"])
        assert exc.value.code == 0
        assert text in " ".join(capsys.readouterr().out.split())


class TestVerifyCommands:
    def test_verify_phi_passes(self, capsys):
        code, out, err = run_cli(
            capsys, "verify-phi", "--a-max", "1", "--b-max", "2", "--n-max", "6"
        )
        assert code == 0
        assert "status\tpass" in out
        assert err.startswith("# sequence-partition-bijection:")

    def test_verify_gf_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify-gf",
            "--a-max",
            "1",
            "--b-max",
            "2",
            "--trunc",
            "6",
            "--format",
            "json-lines",
        )
        assert code == 0
        head = json.loads(out.splitlines()[0])
        assert head["status"] == "pass"
        assert head["mismatches"] == 0
        assert head["params"] == {"a_max": 1, "b_max": 2, "trunc": 6}

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify-iota", "--n-max", "10"),
            ("verify-thm34", "--k-min", "-1", "--k-max", "1", "--m-max", "3", "--n-max", "10"),
            ("verify-euler", "--n-max", "12"),
            ("verify-congruences", "--n-max", "41"),
        ],
    )
    def test_other_verifies_pass(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert "status\tpass" in out

    def test_jobs_flag_output_identical(self, capsys):
        _, serial, _ = run_cli(capsys, "verify-iota", "--n-max", "10", "--jobs", "1")
        _, sharded, _ = run_cli(capsys, "verify-iota", "--n-max", "10", "--jobs", "2")
        assert serial == sharded

    def test_timing_covers_the_work_before_the_cells(self, capsys, monkeypatch):
        """thm34 builds its histograms before any cell runs; the stderr time
        counts them."""
        cells = verify.theorem34_cells

        def slow_cells(*args):
            time.sleep(0.3)
            return cells(*args)

        monkeypatch.setattr(verify, "theorem34_cells", slow_cells)
        code, _, err = run_cli(capsys, "verify-thm34", "--m-max", "1", "--n-max", "1")
        assert code == 0
        assert float(re.fullmatch(r"# .* in (\S+)s\n", err).group(1)) >= 0.3

    def test_a_mismatch_exits_1(self, capsys, monkeypatch):
        formula = verify.count_strict_by_parts_rank_formula
        monkeypatch.setattr(verify, "count_strict_by_parts_rank_formula", lambda k, m, n: formula(k, m, n) + 1)
        code, out, _ = run_cli(capsys, "verify-thm34", "--m-max", "2", "--n-max", "6")
        assert code == 1
        assert "status\tfail" in out

    def test_zero_jobs_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify-iota", "--jobs", "0"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", [("verify-thm34",), ("table", "theorem34")])
    def test_inverted_k_range_is_usage_error(self, command):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--k-min", "3", "--k-max", "-3"])
        assert exc.value.code == 2


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "rows.tsv"
    code, out, _ = run_cli(capsys, "table", "table1", "--n", "7", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text(encoding="utf-8") == TABLE1_N7


@pytest.mark.parametrize(
    "argv, runs",
    [
        (("verify-iota", "--n-max", "10"), (verify, "_sweep")),
        (("table", "table1", "--n", "7"), (tables, "emit_table")),
        (("enumerate", "partitions", "--n", "5"), (tables, "emit_partitions")),
    ],
    ids=["verify", "table", "enumerate"],
)
def test_unopenable_out_is_usage_error_before_any_work(tmp_path, monkeypatch, capsys, argv, runs):
    # the stub keeps the signature, from which an emitter's flags are read
    @functools.wraps(getattr(*runs))
    def never(*args, **kwargs):
        raise AssertionError("the work ran before --out was opened")

    monkeypatch.setattr(*runs, never)
    target = tmp_path / "missing" / "x.tsv"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(target)])
    assert exc.value.code == 2
    assert "cannot open --out" in capsys.readouterr().err
    assert not target.parent.exists()


def test_out_keeps_its_old_rows_when_the_run_raises(tmp_path, monkeypatch):
    @functools.wraps(verify.verify_iota)
    def broken(*args, **kwargs):
        raise RuntimeError("the sweep failed")

    monkeypatch.setattr(verify, "verify_iota", broken)
    target = tmp_path / "rows.tsv"
    target.write_text("old rows\n", encoding="utf-8")
    with pytest.raises(RuntimeError):
        main(["verify-iota", "--n-max", "10", "--out", str(target)])
    assert target.read_text(encoding="utf-8") == "old rows\n"


def test_out_longer_than_the_new_rows_is_replaced_exactly(tmp_path):
    target = tmp_path / "rows.tsv"
    target.write_text(TABLE1_N7 * 3, encoding="utf-8")
    assert main(["table", "table1", "--n", "7", "--out", str(target)]) == 0
    assert target.read_text(encoding="utf-8") == TABLE1_N7


def test_out_to_the_null_device_exits_0(capsys):
    assert main(["table", "table1", "--n", "7", "--out", os.devnull]) == 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("to_file", [False, True])
def test_output_longer_than_one_write_is_whole(tmp_path, capsys, to_file):
    from parity_board.partitions import enumerate_partitions

    expected = "".join(f"{p}\n" for p in enumerate_partitions(30))  # 5604 lines
    target = tmp_path / "rows.tsv"
    argv = ["enumerate", "partitions", "--n", "30"] + (["--out", str(target)] if to_file else [])
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert (target.read_text(encoding="utf-8") if to_file else out) == expected


def _fresh_env() -> dict[str, str]:
    """The environment of a new interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(parity_board.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _fresh_python(*args: str) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a new interpreter that imports this package."""
    return subprocess.run([sys.executable, *args], env=_fresh_env(), capture_output=True, check=True)


def test_cli_import_leaves_the_process_pool_unloaded():
    """Neither importing the CLI nor a sharded run loads a process pool."""
    pools = "{'concurrent.futures', 'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)"
    probe = f"import sys, parity_board.cli; print(sorted({pools}))"
    assert _fresh_python("-c", probe).stdout.strip() == b"[]"
    sharded = (
        "import sys; from parity_board.cli import main; "
        "code = main(['verify-euler', '--n-max', '20', '--jobs', '2']); "
        f"print(code, sorted({pools}), file=sys.stderr)"
    )
    assert _fresh_python("-c", sharded).stderr.splitlines()[-1] == b"0 []"


def test_fresh_sharded_run_prints_the_serial_bytes():
    argv = ("-m", "parity_board", "verify-euler", "--n-max", "20")
    serial = _fresh_python(*argv, "--jobs", "1").stdout
    assert b"status\tpass" in serial
    assert _fresh_python(*argv, "--jobs", "2").stdout == serial


@pytest.mark.parametrize("sink", ["full-device", "closed-pipe"])
def test_unwritable_output_exits_3_without_a_traceback(sink):
    """Output that cannot be written ends the run with one stderr line and
    exit code 3, not a traceback and the code of a mismatch."""
    if sink == "full-device":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this platform")
        argv = ("verify-iota", "--n-max", "10", "--out", "/dev/full")
        run = subprocess.run([sys.executable, "-m", "parity_board", *argv], env=_fresh_env(), capture_output=True)
        code, err = run.returncode, run.stderr
    else:
        argv = ("enumerate", "partitions", "--n", "40")  # about 0.9 MB, more than a pipe holds
        with subprocess.Popen(
            [sys.executable, "-m", "parity_board", *argv],
            env=_fresh_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        ) as child:
            assert child.stdout.readline() == b"40\n"
            child.stdout.close()
            err = child.stderr.read()
            code = child.wait(timeout=60)
    assert code == 3
    assert b"Traceback" not in err
    [line] = err.splitlines()
    assert line.startswith(b"parity-board: cannot write output: ")
