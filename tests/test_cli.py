import contextlib
import io
import json
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurzeta import acceptance, cli, crystal, zeta
from schurzeta.partitions import all_partitions
from schurzeta.tableaux import lr_coefficient
from schurzeta.zeta import IdentityReport

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ssyt_count(capsys):
    code, out, _ = run(capsys, ["ssyt", "--shape", "2,1", "--n", "3", "--count"])
    assert code == 0 and out.strip() == "8"


def test_ssyt_count_enumerates_no_tableau(capsys, monkeypatch):
    # 4,209,920 tableaux of (3, 2, 1) with entries <= 24, by the
    # hook-content formula
    def unused(shape, n):
        raise AssertionError("--count enumerated the tableaux")

    monkeypatch.setattr(cli, "enumerate_ssyt", unused)
    code, out, _ = run(capsys, ["ssyt", "--shape", "3,2,1", "--n", "24", "--count"])
    assert code == 0 and out.strip() == "4209920"
    code, out, _ = run(capsys, ["ssyt", "--shape", "2,1", "--n", "3", "--count", "--json"])
    assert code == 0 and json.loads(out) == {"count": 8}


def test_ssyt_listing_json(capsys):
    code, out, _ = run(capsys, ["ssyt", "--shape", "1,1", "--n", "2", "--json"])
    assert code == 0
    assert json.loads(out) == [{"shape": [1, 1], "rows": [[1], [2]]}]


def test_lr_single_and_table(capsys):
    code, out, _ = run(
        capsys, ["lr", "--mu", "2,1", "--nu", "2,1", "--lambda", "3,2,1"]
    )
    assert code == 0 and out.strip() == "2"
    code, out, _ = run(capsys, ["lr", "--mu", "1", "--nu", "1", "--json"])
    assert code == 0
    assert json.loads(out) == {"2": 1, "1,1": 1}


def test_lr_table_is_the_crystal_decomposition(capsys):
    # every pair of total size <= 5, empty shapes included, against
    # lr_coefficient; two empty shapes give the empty shape once, written
    # "-" as on the input side
    shapes = [p for a in range(5) for p in all_partitions(a)]
    for mu in shapes:
        for nu in shapes:
            total = sum(mu) + sum(nu)
            if total > 5:
                continue
            args = [",".join(map(str, p)) or "-" for p in (mu, nu)]
            code, out, _ = run(capsys, ["lr", "--mu", args[0], "--nu", args[1], "--json"])
            expected = {
                ",".join(map(str, lam)) or "-": c
                for lam in all_partitions(total)
                if (c := lr_coefficient(mu, nu, lam))
            }
            assert code == 0 and json.loads(out) == expected, (mu, nu)
    code, out, _ = run(capsys, ["lr", "--mu", "-", "--nu", "-"])
    assert code == 0 and out == "- 1\n"


def test_lr_lambda_reads_the_table(capsys):
    # every --lambda answer of a pair of total size <= 5 is the table's
    # entry, 0 where the table has none
    shapes = [p for a in range(5) for p in all_partitions(a)]
    for mu in shapes:
        for nu in shapes:
            total = sum(mu) + sum(nu)
            if total > 5:
                continue
            args = [",".join(map(str, p)) or "-" for p in (mu, nu)]
            code, out, _ = run(capsys, ["lr", "--mu", args[0], "--nu", args[1], "--json"])
            assert code == 0
            table = json.loads(out)
            for lam in all_partitions(total):
                key = ",".join(map(str, lam)) or "-"
                code, out, _ = run(
                    capsys, ["lr", "--mu", args[0], "--nu", args[1], "--lambda", key, "--json"]
                )
                assert code == 0 and json.loads(out) == {"coefficient": table.get(key, 0)}, (mu, nu, lam)


def test_zeta_eval_exact(capsys):
    code, out, _ = run(
        capsys,
        ["zeta", "eval", "--shape", "1", "--exponents", "[[2]]", "--n", "3"],
    )
    assert code == 0 and out.strip() == "49/36"


def test_zeta_eval_float_limit(capsys):
    code, out, _ = run(
        capsys,
        [
            "zeta", "eval", "--shape", "1", "--exponents", "[[2.0]]",
            "--float", "--tol", "1e-8", "--json",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["converged"] and abs(payload["value"] - 1.6449) < 1e-3
    assert 0 < payload["error_estimate"] <= 1e-8
    assert sorted(payload) == ["converged", "error_estimate", "levels", "value"]


def test_zeta_eval_float_truncation_json(capsys):
    code, out, _ = run(
        capsys,
        ["zeta", "eval", "--shape", "1", "--exponents", "[[2.5]]", "--n", "3", "--json"],
    )
    value = json.loads(out)["value"]
    assert code == 0 and json.loads(out) == {"value": value}
    assert value == zeta.eval_zeta_truncated((1,), (("a",),), {"a": 2.5}, 3)
    assert value == pytest.approx(1 + 2**-2.5 + 3**-2.5, rel=1e-15)


def test_zeta_eval_prints_an_exact_value_past_4300_digits():
    # 20,631 characters: Python caps int-to-str conversion at 4,300 digits
    # by default, which had turned this result into an exit 2; Decimal
    # reads the digits back past that cap
    argv = ["zeta", "eval", "--shape", "1", "--exponents", "[[40]]", "--n", "600"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "schurzeta.cli", *argv], env=env, capture_output=True,
        text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    text = proc.stdout.strip()
    num, den = map(Decimal, text.split("/"))
    assert len(text) == 20631
    assert Fraction(num) / Fraction(den) == zeta.eval_zeta_truncated((1,), (("a",),), {"a": 40}, 600)


@pytest.mark.parametrize(
    "argv",
    [
        ["--exponents", f"[[2.5,{10**400}]]", "--n", "3"],
        ["--exponents", "[[1e308,1e308]]", "--float", "--n", "3"],
        ["--exponents", "[[1e308,1e308]]", "--float", "--tol", "1e-6"],
    ],
    ids=["mixed-exponent-huge-int", "float-strip-sum-huge", "limit-strip-sum-huge"],
)
def test_zeta_eval_strip_exponent_sum_past_the_largest_float_is_1(capsys, argv):
    # every tableau but the one of 1s weighs 0.0 in floats
    code, out, err = run(capsys, ["zeta", "eval", "--shape", "2", *argv, "--json"])
    assert code == 0, err
    payload = json.loads(out)
    assert payload["value"] == 1.0 and payload.get("converged", True) is True


@pytest.mark.parametrize("exponent", ["1e308", "1e10"])
def test_zeta_eval_limit_of_a_huge_exponent_is_quick(exponent):
    # the limit's ratio 2**beta was an exact power of a huge integer beta,
    # which ran out of memory at 1e10 and out of time at 1e308
    import resource

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    argv = [
        "zeta", "eval", "--shape", "1", "--exponents", f"[[{exponent}]]",
        "--float", "--tol", "1e-6", "--json",
    ]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "schurzeta.cli", *argv], env=env, capture_output=True,
        text=True, timeout=20, preexec_fn=cap_memory,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["converged"] is True and payload["value"] == 1.0


@pytest.mark.parametrize("exponent", ["1e5", "3e6"])
def test_zeta_eval_limit_of_a_huge_exponent_beside_a_small_one_is_quick(exponent):
    # the tail terms ran from each strip's 1 - e down to -12 - sum(e), one
    # power at a time: 200,014 powers in 5.8 s at 1e5, and no end at 3e6
    argv = [
        "zeta", "eval", "--shape", "2,1", "--exponents", f"[[{exponent},2],[{exponent}]]",
        "--float", "--tol", "1e-12", "--json",
    ]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "schurzeta.cli", *argv], env=env, capture_output=True,
        text=True, timeout=20,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    # every term holds an entry >= 2 under a huge exponent and underflows
    assert payload["converged"] is True and payload["value"] == 0.0
    assert payload["error_estimate"] > 0


@pytest.mark.parametrize("as_json", [True, False], ids=["json", "text"])
def test_verify_reports_a_vacuous_identity_with_its_note(capsys, as_json):
    # a column of 3 cells has no tableau with entries <= 2
    argv = [
        "verify", "pieri-e", "--lambda", "1", "--n", "3", "--n-trunc", "2",
        "--assign", '{"s_1":1,"s_2":2,"s_3":3,"t_1_1":4}',
    ]
    code, out, _ = run(capsys, argv + ["--json"] * as_json)
    note = "vacuous: truncation 2 < 3 rows of a left-hand factor, both sides are empty sums"
    assert code == 0
    if as_json:
        assert json.loads(out) == {"equal": True, "lhs": "0/1", "rhs": "0/1", "note": note}
    else:
        assert out.splitlines() == ["lhs = 0/1", "rhs = 0/1", "identity holds", f"note: {note}"]


def test_zeta_eval_requires_level(capsys):
    code, _, err = run(
        capsys, ["zeta", "eval", "--shape", "1", "--exponents", "[[2]]"]
    )
    assert code == 2 and "--n" in err


def test_verify_pieri_h_cli(capsys):
    code, out, _ = run(
        capsys,
        [
            "verify", "pieri-h", "--lambda", "1", "--m", "1",
            "--n-trunc", "2", "--assign", '{"s_1_1":2,"t_1":3}',
        ],
    )
    assert code == 0
    assert "45/32" in out and "identity holds" in out


def test_verify_pieri_e_cli(capsys):
    code, out, _ = run(
        capsys,
        [
            "verify", "pieri-e", "--lambda", "1", "--n", "1",
            "--n-trunc", "2", "--assign", '{"t_1_1":2,"s_1":3}', "--json",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["equal"] and payload["lhs"] == "45/32"


def test_verify_lr_cli(capsys):
    code, out, _ = run(
        capsys,
        [
            "verify", "lr", "--mu", "1,1", "--nu", "2", "--n-trunc", "3",
            "--assign", '{"s_1_1":2,"s_2_1":3,"t_1_1":4,"t_1_2":5}',
        ],
    )
    assert code == 0 and "identity holds" in out


LR_21_1 = [
    "verify", "lr", "--mu", "2,1", "--nu", "1", "--n-trunc", "3",
    "--assign", '{"s_1_1":1,"s_1_2":2,"s_2_1":3,"t_1_1":4}',
]
LR_11_2 = [
    "verify", "lr", "--mu", "1,1", "--nu", "2", "--n-trunc", "3",
    "--assign", '{"s_1_1":2,"s_2_1":3,"t_1_1":4,"t_1_2":5}',
]
LR_1_1 = ["verify", "lr", "--mu", "1", "--nu", "1", "--n-trunc", "2",
          "--assign", '{"s_1_1":2,"t_1_1":3}']


@pytest.mark.parametrize(
    "argv, extra",
    [
        (LR_21_1, ["--variant", "1"]),
        (LR_21_1, ["--filling", '{"3,1": [["t_1_1","s_2_1","s_1_2"],["s_1_1"]]}']),
        # fillings that were once refused for their content are refused
        # for the flag alone, before their content is read
        (LR_11_2, ["--filling", '{"2":5}']),
        (LR_11_2, ["--filling", '{"3,1":[["s_1_1",1,"t_1_1"],["t_1_2"]]}']),
        (LR_1_1, ["--filling", '{"5": [["s_1_1"]]}']),
    ],
    ids=["variant", "filling", "filling-not-rows", "filling-not-names",
         "filling-outside-expansion"],
)
def test_verify_lr_filling_flags_are_bad_input(capsys, argv, extra):
    # the LR right side has one filling per shape; a command line that
    # still picks one is refused as bad input, not run or read as a mismatch
    assert run(capsys, argv)[0] == 0
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + extra)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_mismatch_exit_code(capsys, monkeypatch):
    fake = IdentityReport(1, 2, False)
    monkeypatch.setattr(cli.zeta, "verify_pieri_h", lambda *a, **k: fake)
    code, out, _ = run(
        capsys,
        [
            "verify", "pieri-h", "--lambda", "1", "--m", "1",
            "--n-trunc", "2", "--assign", '{"s_1_1":2,"t_1":3}',
        ],
    )
    assert code == 1 and "MISMATCH" in out


def test_usage_errors_exit_2(capsys):
    code, _, err = run(
        capsys,
        ["verify", "pieri-h", "--lambda", "2,1", "--m", "1",
         "--n-trunc", "2", "--assign", '{"s_1_1":2}'],
    )
    assert code == 2 and "error:" in err
    code, _, err = run(
        capsys, ["ssyt", "--shape", "1,2", "--n", "3", "--count"]
    )
    assert code == 2 and "shape" in err


def test_insert_round_trip(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        ["insert", "row", "--tableau", "[[1,2]]", "--word", "1",
         "--routes", "--json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["tableau"] == {"shape": [2, 1], "rows": [[1, 1], [2]]}
    assert payload["routes"] == [[[1, 2], [2, 1]]]
    # emitted tableau JSON feeds back through a file
    path = tmp_path / "t.json"
    path.write_text(json.dumps(payload["tableau"]), encoding="utf-8")
    code, out, _ = run(
        capsys,
        ["insert", "column", "--tableau", str(path), "--word", "1", "--json"],
    )
    assert code == 0
    assert json.loads(out)["tableau"] == {"shape": [3, 1], "rows": [[1, 1, 1], [2]]}


@pytest.mark.parametrize(
    "tableau",
    ['[[1],[]]', '{"shape": [1], "rows": [[1], []]}', '[[1],[],[]]'],
    ids=["bare", "declared", "two-empty"],
)
def test_insert_drops_trailing_empty_rows(capsys, tableau):
    code, out, _ = run(capsys, ["insert", "row", "--tableau", tableau, "--word", "2", "--json"])
    assert code == 0
    assert json.loads(out)["tableau"] == {"shape": [2], "rows": [[1, 2]]}


@pytest.mark.parametrize(
    "tableau, message",
    [
        ('{"shape": [1, 0], "rows": [[1], []]}', "declared shape does not match rows"),
        ('[[1],[],[2]]', "weakly decrease"),
    ],
    ids=["declared-trailing-zero", "empty-row-above-a-nonempty-one"],
)
def test_insert_rejects_a_tableau_shape_with_a_zero(capsys, tableau, message):
    code, _, err = run(capsys, ["insert", "row", "--tableau", tableau, "--word", "2"])
    assert code == 2 and message in err


def test_crystal_graph_dot(capsys, tmp_path):
    path = tmp_path / "out.dot"
    code, out, _ = run(
        capsys,
        ["crystal", "graph", "--shape", "2,1", "--n", "3", "--dot", str(path)],
    )
    assert code == 0 and "nodes 8" in out
    text = path.read_text(encoding="utf-8")
    assert text.startswith("digraph") and text.count("->") > 0


def test_crystal_graph_evaluates_each_lowering_once(capsys, monkeypatch):
    # 8 tableaux of shape (2,1) and two indices: one signature scan per
    # pair, and the edge count read off the DOT lines that crystal_dot draws
    calls = []
    scan = crystal._signature
    monkeypatch.setattr(crystal, "_signature", lambda *args: calls.append(args) or scan(*args))
    code, out, _ = run(capsys, ["crystal", "graph", "--shape", "2,1", "--n", "3"])
    assert code == 0 and out.strip() == "nodes 8  edges 8"
    assert len(calls) == 16 == len(set(calls))


def test_crystal_graph_word(capsys):
    code, out, _ = run(
        capsys, ["crystal", "graph", "--word", "1,1", "--n", "2", "--json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["nodes"] == 3 and payload["highest_weight"] == [[1, 1]]


def test_crystal_graph_refuses_the_empty_shape_by_its_flag(capsys):
    # the refusal names the flag given, not the tensor words it never gave
    code, _, err = run(capsys, ["crystal", "graph", "--shape", "-", "--n", "1"])
    assert code == 2 and err.startswith("error: --shape must be nonempty")


def test_stdout_deterministic(capsys):
    argv = [
        "verify", "pieri-h", "--lambda", "2,1", "--m", "2", "--n-trunc", "2",
        "--assign", '{"s_1_1":3,"s_1_2":4,"s_2_1":5,"t_1":1,"t_2":2}',
        "--json",
    ]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_zeta_eval_exact_rejects_float_exponents(capsys):
    code, _, err = run(
        capsys,
        ["zeta", "eval", "--shape", "1", "--exponents", "[[2.5]]",
         "--n", "3", "--exact"],
    )
    assert code == 2 and "integer" in err


@pytest.mark.parametrize(
    "argv",
    [
        # a DOT path in a directory that does not exist
        ["crystal", "graph", "--shape", "1", "--n", "2",
         "--dot", "{tmp}/missing/x.dot"],
        # truncation level 0, which zeta eval also rejects
        ["verify", "pieri-h", "--lambda", "1", "--m", "1",
         "--n-trunc", "0", "--assign", '{"s_1_1":2,"t_1":3}'],
        # an exponent that is not a number, in exact and in float mode,
        # where only ints are converted and the rest reach zeta's check
        ["zeta", "eval", "--shape", "1", "--exponents", "[[null]]", "--n", "3"],
        ["zeta", "eval", "--shape", "1", "--exponents", "[[null]]", "--float", "--n", "3"],
        ["zeta", "eval", "--shape", "1", "--exponents", "[[true]]", "--float", "--n", "3"],
        ["zeta", "eval", "--shape", "1", "--exponents", '[["2"]]', "--float", "--n", "3"],
        # exponents that are not rows
        ["zeta", "eval", "--shape", "1", "--exponents", "[2]", "--n", "3"],
        # tableau rows that are not a list of rows
        ["insert", "row", "--tableau", '{"rows":5}', "--word", "1"],
        # a column that does not strictly increase, caught by the insertion
        ["insert", "column", "--tableau", "[[1],[1]]", "--word", "1"],
        # a negative exponent, which exact mode also rejects
        ["zeta", "eval", "--shape", "1", "--exponents", "[[-1.0]]",
         "--float", "--n", "3"],
        # JSON true is not the exponent 1
        ["zeta", "eval", "--shape", "1", "--exponents", "[[true]]", "--n", "3"],
        # a tolerance that is not a positive finite number
        ["zeta", "eval", "--shape", "1", "--exponents", "[[2.0]]",
         "--float", "--tol", "nan"],
        ["zeta", "eval", "--shape", "1", "--exponents", "[[2.0]]",
         "--float", "--tol", "inf"],
        # --tol selects limit mode: it needs --float and excludes --n
        ["zeta", "eval", "--shape", "1", "--exponents", "[[2]]",
         "--tol", "1e-3", "--n", "2"],
        ["zeta", "eval", "--shape", "1", "--exponents", "[[2]]",
         "--float", "--tol", "1e-3", "--n", "2"],
        # JSON 1e400 parses to an infinite exponent
        ["zeta", "eval", "--shape", "1,1", "--exponents", "[[1e400],[2]]",
         "--float", "--tol", "1e-6"],
        ["zeta", "eval", "--shape", "1", "--exponents", "[[1e400]]",
         "--float", "--n", "3"],
        # an integer exponent too large for a float, where --float converts it
        ["zeta", "eval", "--shape", "1", "--exponents", f"[[{10**400}]]",
         "--float", "--n", "3"],
        ["zeta", "eval", "--shape", "1", "--exponents", f"[[{10**400}]]",
         "--float", "--tol", "1e-6"],
        # a negative largest entry
        ["ssyt", "--shape", "-", "--n", "-1", "--count"],
        # the empty shape, whose one tableau reads as no tensor word
        ["crystal", "graph", "--shape", "-", "--n", "1"],
    ],
    ids=[
        "dot-unwritable", "n-trunc-0",
        "exponent-null", "float-exponent-null", "float-exponent-bool",
        "float-exponent-string", "exponents-not-rows", "tableau-rows-not-list",
        "tableau-not-semistandard", "float-exponent-negative",
        "exponent-bool", "tol-nan", "tol-inf", "tol-without-float",
        "tol-with-n", "limit-exponent-inf", "float-exponent-inf",
        "float-exponent-huge-int", "limit-exponent-huge-int",
        "ssyt-n-negative", "crystal-shape-empty",
    ],
)
def test_bad_input_exits_2_with_one_line(capsys, tmp_path, argv):
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_work_guard_refusal_exits_2_naming_the_predicted_count(capsys):
    names = [f"{p}_1_{j}" for p in "st" for j in range(1, 8)]
    assign = json.dumps({v: k + 1 for k, v in enumerate(names)})
    code, out, err = run(
        capsys,
        ["verify", "lr", "--mu", "7", "--nu", "7", "--n-trunc", "8", "--assign", assign],
    )
    assert code == 2 and out == ""
    assert err.startswith("error: predicted work of 2,097,152 units exceeds the limit")
    assert err.count("\n") == 1


def test_exact_zeta_eval_refused_by_the_work_guard_exits_2(capsys):
    # 70 sub-shapes of (4,4,4,4) times N = 100,000: refused before the DP
    code, out, err = run(
        capsys,
        ["zeta", "eval", "--shape", "4,4,4,4", "--exponents", json.dumps([[2] * 4] * 4), "--n", "100000"],
    )
    assert (code, out) == (2, "")
    assert err == "error: predicted work of 7,000,000 units exceeds the limit of 2,000,000\n"


def test_internal_error_exits_3_without_traceback(capsys, monkeypatch):
    def crash(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli.zeta, "verify_pieri_h", crash)
    code, out, err = run(
        capsys,
        [
            "verify", "pieri-h", "--lambda", "1", "--m", "1",
            "--n-trunc", "2", "--assign", '{"s_1_1":2,"t_1":3}',
        ],
    )
    assert code == 3 and out == ""
    assert err == "error: internal: RuntimeError: boom\n"


def test_internal_key_error_is_not_bad_input(capsys, monkeypatch):
    # a lookup bug inside a verifier is a crash, not malformed input
    def crash(*args, **kwargs):
        return {}["lam"]

    monkeypatch.setattr(cli.zeta, "verify_pieri_h", crash)
    code, out, err = run(
        capsys,
        [
            "verify", "pieri-h", "--lambda", "1", "--m", "1",
            "--n-trunc", "2", "--assign", '{"s_1_1":2,"t_1":3}',
        ],
    )
    assert code == 3 and out == ""
    assert err.startswith("error: internal: KeyError")


def test_cli_import_leaves_dataclasses_inspect_and_numpy_out():
    # every command pays for this import; dataclasses alone pulls in inspect
    # (with ast, dis and tokenize), about half of the import's time
    code = (
        "import sys, schurzeta.cli; "
        "print(sorted({'dataclasses', 'inspect', 'numpy'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    assert proc.stdout.strip() == "[]"


REPORT_FIELDS = [
    (zeta.IdentityReport, ("lhs", "rhs", "equal", "note")),
    (zeta.InsertionTermReport, ("equal", "tableau", "added", "reason")),
    (zeta.LimitReport, ("value", "levels", "error_estimate", "converged")),
    (acceptance.CriterionResult, ("number", "name", "passed", "detail", "seconds")),
]


@pytest.mark.parametrize(
    "cls, fields", REPORT_FIELDS, ids=[cls.__name__ for cls, _ in REPORT_FIELDS]
)
def test_report_fields_and_immutability(cls, fields):
    assert cls._fields == fields
    report = cls(*range(len(fields)))
    for name in (fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(report, name, None)


def test_identity_report_note_defaults_to_empty():
    assert IdentityReport(1, 2, False).note == ""


def test_insertion_term_report_reason_defaults_to_empty():
    assert zeta.InsertionTermReport(True, (), ()).reason == ""


def test_selftest_json_rows(capsys):
    code, out, _ = run(capsys, ["selftest", "--quick", "--json"])
    rows = json.loads(out)
    assert code == 0 and [row["number"] for row in rows] == list(range(1, 11))
    for row in rows:
        assert sorted(row) == ["detail", "name", "number", "passed", "seconds"]
        assert row["seconds"] == round(row["seconds"], 3)


def test_selftest_quick(capsys):
    code, out, _ = run(capsys, ["selftest", "--quick", "--seed", "1"])
    assert code == 0
    assert "criteria passed" in out and "FAIL" not in out


# --- argv fuzz: every command line ends in a defined exit ------------------

SMALL_INT = st.one_of(st.integers(1, 4), st.integers(-2, 5)).map(str)
SHAPE = st.sampled_from(["1", "2", "1,1", "2,1", "3", "", "-", "0", "1,2", "x", "2,,1", "-1"])
WORD = st.sampled_from(["1", "2,1", "1,2,3", "3,1,2,1", "", "0", "a", "1,-1", "5"])
VAR_NAMES = [f"{p}_{i}_{j}" for p in "st" for i in (1, 2, 3) for j in (1, 2, 3)]
VAR_NAMES += [f"{p}_{k}" for p in "st" for k in (1, 2, 3, 4)]
EXPONENT = st.one_of(
    st.integers(-1, 5),
    st.sampled_from([1.5, 2.0, 0.0, -1.0, float("nan"), float("inf")]),
    st.booleans(),
    st.none(),
    st.just("2"),
)
JUNK_JSON = st.sampled_from(["{", "", "nope", "[]", "{}", "[[", "7"])
ASSIGN = st.one_of(
    st.fixed_dictionaries({v: st.integers(1, 5) for v in VAR_NAMES}).map(json.dumps),
    st.dictionaries(st.sampled_from(VAR_NAMES), EXPONENT, max_size=8).map(json.dumps),
    JUNK_JSON,
)
EXPONENT_ROWS = st.one_of(
    st.lists(st.lists(EXPONENT, max_size=3), max_size=3).map(json.dumps),
    JUNK_JSON,
)
TABLEAU = st.one_of(
    st.lists(st.lists(st.integers(-1, 4), max_size=3), max_size=3).map(json.dumps),
    st.sampled_from(['{"rows": [[1, 2]], "shape": [2]}', '{"rows": [[1]], "shape": [2]}']),
    JUNK_JSON,
)
TOL = st.sampled_from(["1e-3", "0", "-1", "nan", "inf", "x"])

# (command words, [(flag, value strategy or None for a switch, required)])
CLI_GRAMMAR = [
    (["ssyt"],
     [("--shape", SHAPE, True), ("--n", SMALL_INT, True), ("--count", None, False),
      ("--json", None, False)]),
    (["crystal", "graph"],
     [("--shape", SHAPE, False), ("--word", WORD, False), ("--n", SMALL_INT, True),
      ("--json", None, False)]),
    (["insert", "row"],
     [("--tableau", TABLEAU, True), ("--word", WORD, True), ("--routes", None, False),
      ("--json", None, False)]),
    (["insert", "column"],
     [("--tableau", TABLEAU, True), ("--word", WORD, True), ("--routes", None, False),
      ("--json", None, False)]),
    (["lr"],
     [("--mu", SHAPE, True), ("--nu", SHAPE, True), ("--lambda", SHAPE, False),
      ("--json", None, False)]),
    (["zeta", "eval"],
     [("--shape", SHAPE, True), ("--exponents", EXPONENT_ROWS, True),
      ("--n", SMALL_INT, False), ("--exact", None, False), ("--float", None, False),
      ("--tol", TOL, False), ("--json", None, False)]),
    (["zeta", "eval", "--shape", "2,1"],
     [("--exponents", st.sampled_from(["[[2, 3], [4]]", "[[1.5, 2], [2.5]]", "[[1, 1], [0]]"]),
       True),
      ("--n", SMALL_INT, False), ("--exact", None, False), ("--float", None, False),
      ("--tol", TOL, False), ("--json", None, False)]),
    (["verify", "pieri-h"],
     [("--lambda", SHAPE, True), ("--m", SMALL_INT, True), ("--n-trunc", SMALL_INT, True),
      ("--assign", ASSIGN, True), ("--json", None, False)]),
    (["verify", "pieri-e"],
     [("--lambda", SHAPE, True), ("--n", SMALL_INT, True), ("--n-trunc", SMALL_INT, True),
      ("--assign", ASSIGN, True), ("--json", None, False)]),
    (["verify", "lr"],
     [("--mu", SHAPE, True), ("--nu", SHAPE, True), ("--n-trunc", SMALL_INT, True),
      ("--assign", ASSIGN, True), ("--json", None, False)]),
    (["bogus"], []),
]


@st.composite
def cli_argv(draw):
    """A command line from CLI_GRAMMAR: the required flags and half of the
    optional ones in any order, sometimes with a stray token."""
    words, flags = draw(st.sampled_from(CLI_GRAMMAR))
    argv = list(words)
    for flag, values, required in draw(st.permutations(flags)):
        if required or draw(st.booleans()):
            argv.append(flag)
            if values is not None:
                argv.append(draw(values))
    if draw(st.integers(0, 9)) == 0:
        argv.append(draw(st.sampled_from(["--bogus", "extra", "--n", "--json"])))
    return argv


@settings(max_examples=300, deadline=None)
@given(cli_argv())
def test_cli_fuzz_ends_in_a_defined_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
            assert code == 2, argv
            assert ": error: " in err.getvalue().splitlines()[-1], argv
            return
    lines = err.getvalue().splitlines()
    if code in (0, 1):
        assert lines == [], argv
    elif code == 2:
        assert len(lines) == 1 and lines[0].startswith("error: "), argv
    else:
        assert code == 3 and len(lines) == 1, argv
        assert lines[0].startswith("error: internal: "), argv
