import json
import os
import subprocess
import sys

import pytest

import parity_board
from parity_board import tables, verify
from parity_board.cli import main
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
            f"{a}\t{b}\t{n}\t{v}" for (a, b, n), v in table.cells() if v
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
def test_unopenable_out_is_usage_error_before_any_work(tmp_path, monkeypatch, argv, runs):
    def never(*args, **kwargs):
        raise AssertionError("the work ran before --out was opened")

    monkeypatch.setattr(*runs, never)
    target = tmp_path / "missing" / "x.tsv"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(target)])
    assert exc.value.code == 2
    assert not target.parent.exists()


@pytest.mark.parametrize("to_file", [False, True])
def test_output_longer_than_one_write_is_whole(tmp_path, capsys, to_file):
    from parity_board.partitions import enumerate_partitions

    expected = "".join(f"{p}\n" for p in enumerate_partitions(30))  # 5604 lines
    target = tmp_path / "rows.tsv"
    argv = ["enumerate", "partitions", "--n", "30"] + (["--out", str(target)] if to_file else [])
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert (target.read_text(encoding="utf-8") if to_file else out) == expected


def _fresh_python(*args: str) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a new interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(parity_board.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, check=True)


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
