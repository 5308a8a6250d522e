"""Tests of the benchmark itself: its description, its metrics at reduced
size, the correctness gate under an injected fault, and its refusal to run
without the program."""

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

INSERTION_CALLS = ("insertion.row_insert.calls", "insertion.column_insert.calls")


def _run(capsys, workload, trace, child=run.CHILD):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    code = run.main(argv, quick=True, child=child)
    out = capsys.readouterr().out.strip().splitlines()
    return code, out, json.loads(out[-1])


def test_benchmark_json_matches_tables():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in doc["workloads"])
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == list(layers.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        row[:3] for row in layers.PER_LAYER
    ]
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_reports_end_to_end_metrics(capsys, workload):
    code, out, result = _run(capsys, workload, 0)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] == run.MIN_PASSES * len(workloads.items(workload, 3, quick=True))
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        name: unit for name, unit, _ in layers.END_TO_END
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = {line.split()[1]: line.split()[3] for line in out if line.startswith("metric ")}
    for name, unit, _ in layers.REPORTED:
        if name != "limit_abs_err_max" or workload == "limits":
            assert printed[name] == unit
    env = json.loads(next(line for line in out if line.startswith("env "))[4:])
    assert {"python", "nproc", "commit", "seed"} <= set(env)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_per_layer_metrics(capsys, workload):
    code, _, result = _run(capsys, workload, 1)
    assert code == 0 and result["correct"]
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {
        name: unit for name, unit, *_ in layers.PER_LAYER
    }
    assert metrics["trace.overhead_ratio"]["value"] > 0
    insertion = [metrics[name]["value"] for name in INSERTION_CALLS]
    if workload == "selftest-cold":
        # reached through the names insertion imported from tableaux
        assert all(insertion) and metrics["tableaux.is_ssyt.calls"]["value"] > 0
        assert metrics["acceptance.c04_s"]["value"] > 0
    else:
        assert insertion == [0, 0]
    if workload.startswith("verify"):
        # reached through the names zeta imported from tableaux
        assert metrics["tableaux.cached_ssyt.calls"]["value"] > 0
        assert metrics["zeta.sym_sum.calls"]["value"] > 0
    if workload == "limits":
        assert metrics["zeta.eval_zeta_limit.levels"]["value"] > 0


def test_sampler_leaves_its_slices_out_of_the_work():
    previous = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler(period=0.02) as sampler:
        start = sampler.work_clock()
        while sampler.work_clock() - start < 0.2:
            pass
    assert signal.getsignal(signal.SIGALRM) is previous
    assert len(sampler.samples) >= 4
    assert sampler.paused == pytest.approx(sum(s for _, s in sampler.samples))
    assert 0.2 <= sampler.work_s() < 0.3
    assert sampler.normalized() > 0


def test_scaling_follows_the_slices():
    sampler = hostspeed.Sampler()
    ref = hostspeed.REFERENCE_S
    # one second at half the reference speed, then one at the reference speed
    sampler.samples = [(0.0, 2 * ref), (1.0, 2 * ref), (2.0, ref), (3.0, ref)]
    assert sampler.work_s() == 3.0
    assert sampler.normalized() == pytest.approx(0.5 + 1 / 1.5 + 1.0)


FAULTY_CHILD = """
import runpy, sys
sys.path.insert(0, {bench!r})
from schurzeta import zeta

_sym_sum = zeta.sym_sum


def sym_sum(*args, **kwargs):
    return _sym_sum(*args, **kwargs) + 1


zeta.sym_sum = sym_sum
runpy.run_path({child!r}, run_name="__main__")
"""


def test_fault_injection_fails_items(capsys, tmp_path):
    # Both sides of every identity move by the same constant, so they still
    # agree; only the comparison with the direct oracle catches it.
    child = tmp_path / "faulty_child.py"
    child.write_text(FAULTY_CHILD.format(bench=str(BENCH), child=str(run.CHILD)))
    code, out, result = _run(capsys, "verify-sweep", 0, child=child)
    assert code == 1 and not result["correct"]
    assert result["failed"] / result["attempted"] > 0
    assert any("differs from the direct oracle" in line for line in out)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "limits", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
