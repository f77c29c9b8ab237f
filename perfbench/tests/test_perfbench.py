"""Tests of the benchmark itself: seeded generators, oracles, tracing guard,
tiny smoke runs of every workload, and the refusal to run without ``src``."""

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


def _first_blocks(name, seed, count=2):
    wl = workloads.WORKLOADS[name]
    blocks = wl.blocks(random.Random(seed))
    return wl.warmups(random.Random(f"{seed}/warmup")), [next(blocks) for _ in range(count)]


@pytest.mark.parametrize("name", NAMES)
def test_generators_are_deterministic_in_the_seed(name):
    assert _first_blocks(name, 7) == _first_blocks(name, 7)
    assert _first_blocks(name, 7) != _first_blocks(name, 8)


def _cell(op):
    """What fixes an op's cost class; the seed picks only the rest."""
    if op[0] == "sweep":
        return op[1], op[2], sum(op[3]) % op[1] == 0
    if op[0] == "unipotent":
        return op[1], len(op[2]), op[3]
    return op[:3]


@pytest.mark.parametrize("name", NAMES)
def test_block_and_warmup_composition_does_not_depend_on_the_seed(name):
    def shapes(seed):
        warm, blocks = _first_blocks(name, seed, 2)
        return [_cell(op) for op in warm], [sorted(map(_cell, b)) for b in blocks]

    warm, blocks = shapes(1)
    assert (warm, blocks) == shapes(2)
    assert blocks[0] == blocks[1]
    assert len(set(blocks[0])) == len(blocks[0])  # one op per cell


def test_warmups_fix_everything_but_the_weights():
    def strip(op):
        return op[:2] + op[3:] if op[0] == "unipotent" else op[:3]

    for name in NAMES:
        wl = workloads.WORKLOADS[name]
        ops = [wl.warmups(random.Random(s)) for s in (1, 2)]
        assert [strip(op) for op in ops[0]] == [strip(op) for op in ops[1]], name


def test_sweep_cells_are_about_half_degenerate():
    cells = workloads.Sweep.cells
    share = sum(deg for _, _, deg in cells) / len(cells)
    assert 0.35 <= share <= 0.5


def test_sample_k_honours_degeneracy():
    rng = random.Random(0)
    for d in (3, 4, 5, 12):
        for length in (3, 4, 6):
            for degenerate in (False, True):
                if not workloads.degenerate_feasible(d, length) and degenerate:
                    continue
                k = workloads.sample_k(rng, d, length, degenerate)
                assert len(k) == length
                assert all(u in workloads.units(d) for u in k)
                assert (sum(k) % d == 0) == degenerate


def test_sweep_oracle_rejects_corrupted_rows():
    wl = workloads.WORKLOADS["sweep"]
    for op in (("sweep", 3, 2, (1, 1, 1)), ("sweep", 5, 3, (1, 2, 3, 4))):
        row = wl.run(op)
        assert wl.check(op, row) is None
        for key, bad in (("span_dim", row["span_dim"] + 1),
                         ("fixed_space_dim", 1 - row["fixed_space_dim"]),
                         ("degenerate", not row["degenerate"]),
                         ("genus_match", False), ("reducibility_match", False)):
            assert wl.check(op, dict(row, **{key: bad})) is not None, key


def test_unipotent_oracle_rejects_a_failed_flag_check():
    wl = workloads.WORKLOADS["unipotent"]
    op = ("unipotent", 3, (1, 1, 1), 1, 5)
    dim, flag = wl.run(op)
    assert wl.check(op, (dim, flag)) is None
    assert wl.check(op, (dim, False)) is not None
    assert wl.check(op, (dim + 1, flag)) is not None


def test_symbolic_oracle_rejects_corrupted_results():
    from braidrep import hermitian

    wl = workloads.WORKLOADS["symbolic"]
    word = ("word", 4, "A 1 3")
    assert wl.check(word, wl.run(word)) is None
    assert wl.check(word, (False, True)) is not None
    assert wl.check(word, (True, False)) is not None
    form = ("form", 5, 7, (1, 2, 3, 4, 5))
    det, h, det_h, sigs, verdict = wl.run(form)
    assert wl.check(form, (det, h, det_h, sigs, verdict)) is None
    assert wl.check(form, (det * det, h, det_h, sigs, verdict)) is not None
    other = hermitian.specialize_form(7, (1, 2, 3, 4, 6))
    assert wl.check(form, (det, other, det_h, sigs, verdict)) is not None
    assert wl.check(form, (det, h, det_h * det_h, sigs, verdict)) is not None


def test_form_oracle_rejects_corrupted_signatures_and_weight_reports():
    import dataclasses

    wl = workloads.WORKLOADS["symbolic"]
    op = ("form", 5, 8, (3, 7, 1, 3, 1))
    det, h, det_h, sigs, verdict = wl.run(op)
    assert wl.check(op, (det, h, det_h, sigs, verdict)) is None
    assert sigs[0]["p"] != sigs[0]["q"]
    swapped = [dict(sigs[0], p=sigs[0]["q"], q=sigs[0]["p"])] + sigs[1:]
    assert wl.check(op, (det, h, det_h, swapped, verdict)) is not None
    assert wl.check(op, (det, h, det_h, sigs[1:], verdict)) is not None
    reports = verdict.evidence["dm_reports"]
    bad = dict(reports, **{"8": [dict(reports["8"][0], mu_inf="1/2")] + reports["8"][1:]})
    bad_verdict = dataclasses.replace(verdict, evidence={"dm_reports": bad})
    assert wl.check(op, (det, h, det_h, sigs, bad_verdict)) is not None
    arithmetic = dataclasses.replace(verdict, verdict="ARITHMETIC_BY_MAIN_THEOREM")
    assert wl.check(op, (det, h, det_h, sigs, arithmetic)) is not None


def test_reservoir_keeps_a_bounded_sample_of_distinct_items():
    res = tracing.Reservoir(16, random.Random(3))
    for i in range(5000):
        if res.hit():
            res.take(i)
    assert len(res.items) == 16 == len(set(res.items))
    assert res.seen == 5000
    assert max(res.items) > 1000  # late items get in, not just the first 16


def test_guard_sees_installed_wrappers_and_uninstall_clears_them():
    import braidrep.cli  # noqa: F401

    tracer = tracing.Tracer(0)
    tracer.install()
    try:
        left = tracing.wrapped_attributes()
        assert "braidrep.linalg.mat_mul" in left
        assert "braidrep.cyclo.CycloNum.__mul__" in left
        assert "braidrep.spectral.evaluate_word" in left  # a from-import copy
        with pytest.raises(RuntimeError):
            worker._guard()
    finally:
        tracer.uninstall()
    assert tracing.wrapped_attributes() == []


@pytest.mark.parametrize("name", NAMES)
def test_untraced_smoke_run(name):
    out = worker.measure(name, seed=3, seconds=0, trace=False, max_ops=3)
    assert out["record"]["ops"] == 3
    assert out["failures"] == []
    assert out["attempted"] == 3
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    for metric in spec["end_to_end"]:
        assert out["metrics"][metric["name"]] > 0, metric["name"]


@pytest.mark.parametrize("name", NAMES)
def test_traced_smoke_run_reports_every_layer_metric(name):
    out = worker.measure(name, seed=3, seconds=0, trace=True, max_ops=2)
    assert out["failures"] == []
    assert tracing.wrapped_attributes() == []
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in out["metrics"]]
    assert missing == []
    assert out["metrics"]["trace.ops"] == 2
    assert 0 <= out["metrics"]["trace.uncovered_frac"] < 1


def test_loop_runs_exactly_max_blocks():
    blocks = iter([[1, 2], [3, 4], [5, 6]])
    lat, results, done = worker._loop(lambda op: op, blocks, 0, 0, max_blocks=2)
    assert done == 2 and [r[0] for r in results] == [1, 2, 3, 4]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
