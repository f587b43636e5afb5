"""The benchmark's own tests, on the smoke size of each workload.

Run from the root of the repository:

    python3 -m pytest perfbench -q
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

import run as bench
bench.import_gquad()

import workloads  # noqa: E402  (needs gquad on the path first)
from pins import PINS  # noqa: E402


def _smoke(name, tmp_path, **kwargs):
    kwargs.setdefault("seed", 7)
    return workloads.run_workload(name, size="smoke", seconds=0,
                                  workdir=str(tmp_path), **kwargs)


@pytest.mark.parametrize("name", bench.WORKLOAD_NAMES)
def test_smoke_pass_meets_every_gate(name, tmp_path):
    result = _smoke(name, tmp_path)
    assert result.problems == []
    assert result.failed == 0
    assert len(result.passes) == 1
    assert result.attempted > 0


@pytest.mark.parametrize("name, path, wrong", [
    ("census-climb", ("census", "classes", 3), 3),
    ("census-climb", ("sylow-climb", "sylow", 3), 27),
    ("geometry-ledger", ("geometry", "aut_derived", 3), 51841),
    ("geometry-ledger", ("matrix-groups", "sylow_exponent", 4), 2),
])
def test_wrong_pin_raises_fail_frac(name, path, wrong, tmp_path):
    pins = copy.deepcopy(PINS)
    section, key, q = path
    pins[section][key][q] = wrong
    result = _smoke(name, tmp_path, pins=pins)
    assert result.failed / result.attempted > 0
    assert any("expected" in p for p in result.problems)


@pytest.mark.parametrize("name", bench.WORKLOAD_NAMES)
def test_traced_run_reports_every_layer_metric(name, tmp_path):
    result = _smoke(name, tmp_path, trace=True)
    # in census the table digests of the untraced and traced pass agree
    assert result.failed == 0
    assert [p.traced for p in result.passes] == [False, True]
    values = bench.layer_metrics(result, spin_s=0.1)
    assert list(values) == [name for name, _ in bench.layer_metric_names()]
    if name == "census-climb":
        assert values["cli.enumerate-regular.calls"] == 2
        assert values["search.enumerate_regular.calls"] == 2
        assert values["groups.is_regular.true_ratio"] > 0
        assert values["search.sylow_subgroup.calls"] >= 1
        assert values["groups.is_normal.calls"] >= 2
    assert 0.95 < values["trace.top_share"] <= 1
    for name, _ in bench.layer_metric_names():
        if name.endswith(".self_s"):
            busy = values[name[:-len("self_s")] + "busy_s"]
            assert -1e-6 <= values[name] <= busy + 1e-6, name


def test_traced_counts_repeat_for_a_seed(tmp_path):
    counts = []
    for run_no in range(2):
        result = _smoke("census-climb", tmp_path / str(run_no), seed=3,
                        trace=True)
        values = bench.layer_metrics(result, spin_s=0.1)
        counts.append({k: v for k, v in values.items()
                       if not k.endswith("_s") and k != "trace.top_share"})
    assert counts[0] == counts[1]
    assert counts[0]["search.sylow_subgroup.calls"] >= 1
    assert counts[0]["search.normaliser_gens.gens_out"] > 0


def test_spans_nest_and_are_written(tmp_path):
    result = _smoke("geometry-ledger", tmp_path, trace=True)
    path = tmp_path / "spans.jsonl"
    result.tracer.write_jsonl(path, 0.0)
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    by_id = {s["id"]: s for s in spans}
    assert {s["name"] for s in spans if s["parent"] is None} == {"bench.job"}
    for s in spans:
        assert s["start"] <= s["end"]
        assert s["job"][0] in ("geometry", "matrix-groups")
        if s["parent"] is not None:
            parent = by_id[s["parent"]]
            assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]
    names = {s["name"] for s in spans}
    assert {"incidence.build_w3", "linalg.enumerate_singular",
            "incidence.aut_incidence", "gf.default",
            "groups.invariant_report", "linalg.mat_mul_batch"} <= names


def test_wrappers_are_removed_after_a_traced_pass(tmp_path):
    import gquad.gf
    import gquad.search
    before = (gquad.search.invariant_report, gquad.gf.GF.__dict__["default"])
    _smoke("census-climb", tmp_path, trace=True)
    after = (gquad.search.invariant_report, gquad.gf.GF.__dict__["default"])
    assert before == after


def test_seed_decides_the_inputs(tmp_path):
    def inputs(name, seed):
        info = {}
        workloads.PARTS[name]("full", seed, PINS, str(tmp_path), info)
        return info

    assert inputs("geometry", 1) == inputs("geometry", 1)
    assert len({str(inputs("geometry", s)) for s in range(4)}) > 1
    assert len({str(inputs("matrix-groups", s)) for s in range(6)}) > 1
    assert inputs("census", 1) == inputs("census", 2)


def test_normalised_scales_each_untraced_pass_by_its_reference_loop():
    nominal = workloads.REF_NOMINAL_S
    passes = [workloads.Pass(3.0, 2.9, nominal, False),
              workloads.Pass(0.1, 0.1, nominal, True),
              workloads.Pass(4.5, 4.5, 1.5 * nominal, False),
              workloads.Pass(6.0, 6.0, 1.5 * nominal, False)]
    result = workloads.RunResult(passes, 8, 0, [], None)
    # 3.0, 4.5 / 1.5 and 6.0 / 1.5
    assert result.normalised("wall_s") == pytest.approx(3.0)
    assert result.normalised("cpu_s") == pytest.approx(3.0)
    assert result.median("wall_s") == 4.5


def test_relabel_keeps_the_quadrangle():
    from gquad.constructions import build_derived_model
    from gquad.gf import GF
    model = build_derived_model(GF.default(3))
    sigma = list(reversed(range(model.gq.n_points)))
    gq = workloads.relabel(model.gq, sigma)
    assert gq.n_points == model.gq.n_points
    assert sorted(map(sorted, gq.lines)) == sorted(
        sorted(sigma[p] for p in line) for line in model.gq.lines)
    assert gq.labels[sigma[0]] == model.gq.labels[0]


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == bench.WORKLOAD_NAMES
    assert list(workloads.WORKLOADS) == bench.WORKLOAD_NAMES
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        bench.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        bench.layer_metric_names()


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(bench.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census-climb",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "correct" not in done.stdout


def test_traced_and_untraced_runs_write_the_same_tables():
    """Same seed, two processes, one traced: byte-identical census tables."""
    digests = []
    for trace in ("0", "1"):
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "census-climb", "--seed", "5", "--seconds", "1",
             "--trace", trace],
            cwd=bench.ROOT, capture_output=True, text=True, timeout=170)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout.splitlines()[-1])["correct"]
        digests.append([line for line in done.stdout.splitlines()
                        if "table_sha256" in line])
    assert digests[0] and digests[0] == digests[1]
