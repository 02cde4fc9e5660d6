"""Smoke tests of the benchmark itself, on the tiny input space.

    python3 -m pytest perfbench
"""

import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from gradedcenter.ring import RingPresentation  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_lists_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [m["name"] for m in SPEC["per_layer"]] == run.PER_LAYER


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(name, trace):
    out = io.StringIO()
    res = run.bench(name, 7, 1, trace, tiny=True, out=out)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(res["metrics"]) == [m["name"] for m in spec]
    lines = out.getvalue().splitlines()
    for m in spec:
        got = res["metrics"][m["name"]]
        assert isinstance(got["value"], (int, float))
        assert any(line.startswith(f"{m['name']}: ") and f" {got['unit']}" in line for line in lines)
        assert got["unit"] == m["unit"]
    if not trace:
        assert any(line.startswith("error_rate: 0 ") for line in lines)


def test_traced_counts_repeat_for_a_seed():
    def counts():
        res = run.bench("solve", 3, 1, True, tiny=True, out=io.StringIO())
        return {
            k: v["value"] for k, v in res["metrics"].items() if v["unit"] == "count"
        }

    first = counts()
    assert first["center.solve_component.calls"] > 0
    assert counts() == first


def _loop(name, pairs):
    out = io.StringIO()
    res = run.timed_loop(workloads.WORKLOADS[name], pairs, [(0.1, 1.0)], out)
    return res, out.getvalue()


def test_wrong_expected_value_shows_in_error_rate():
    pairs = workloads.prepare("membership", 5, 1, tiny=True)[0]
    op, expected = pairs[0]
    pairs[0] = (op, not expected)
    res, text = _loop("membership", pairs)
    assert (res["attempted"], res["failed"], res["correct"]) == (len(pairs), 1, False)
    assert f"error_rate: {1 / len(pairs):.6g} " in text

    pairs = workloads.prepare("reconcile", 5, 1, tiny=True)[0][:2]
    pairs[1] = (pairs[1][0], RingPresentation(("Poly", 5)))
    res, _ = _loop("reconcile", pairs)
    assert (res["attempted"], res["failed"]) == (2, 1)


def test_solve_oracle_rejects_a_wrong_table_row():
    op = inputs.SolveInput(1, 1, 0, 1, "graded", 3, inputs.solver_margin(1, 0) + 2)
    rep = workloads.run_solve(op)
    right = workloads.expect_table_row(op)
    assert workloads.check_solve(op, rep, right)
    assert not workloads.check_solve(op, rep, RingPresentation(("Poly", 1)))


def test_an_exception_is_a_failed_op_not_the_end_of_the_run():
    def flaky(op):
        if op == 0:
            raise RuntimeError("boom")
        return op

    wl = workloads.Workload(flaky, None, lambda op, out, expected: out == expected)
    res = run.timed_loop(wl, [(0, 0), (1, 1), (2, 2)], [(0.1, 1.0)], io.StringIO())
    assert (res["attempted"], res["failed"]) == (3, 1)


def test_inputs_are_seeded_and_repeat_shares_are_as_designed():
    for name in run.WORKLOADS:
        assert inputs.generate(name, 11) == inputs.generate(name, 11)
        assert inputs.generate(name, 11) != inputs.generate(name, 12)
    solve = [op for r in inputs.generate("solve", 1, rounds=2) for op in r]
    assert inputs.repeat_share(solve) == (0, len(solve))
    assert len({(o.r, o.n, o.m, o.window, o.p) for o in solve}) == len(solve)
    rec = [op for r in inputs.generate("reconcile", 1, rounds=2) for op in r]
    repeats, total = inputs.repeat_share(rec)
    assert repeats * 4 == total * 3


def test_membership_inputs_cover_criterion_four():
    ops = inputs.generate("membership", 1)[0]
    assert {(o.r, o.n, o.m, o.generator, o.q) for o in ops} == set(inputs.membership_specs())
    assert max(o.q * o.n for o in ops if o.generator == "eta_power") == 12
    assert not all(workloads.expect_membership(o) for o in ops)


def test_without_the_source_tree_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "solve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
