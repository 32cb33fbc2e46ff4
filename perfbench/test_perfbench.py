"""Fast tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import dataclasses
import importlib
import io
import json
import re
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9_.-]{1,64}$")

#: Spec overrides that shrink each workload to a second or two.
TINY = {
    "kato_transfer": {
        "n_simulations": 6, "n_init": 4, "batch_size": 2,
        "optimizer_options": {"surrogate_train_iters": 2, "kat_train_iters": 2,
                              "pop_size": 8, "n_generations": 2},
        "transfer": {"circuit": "two_stage_opamp", "technology": "180nm",
                     "n_samples": 6, "train_iters": 2},
    },
    "random_sizing": {"n_simulations": 6, "n_init": 3, "batch_size": 3},
    "ldo_yield": {"n_simulations": 2, "n_init": 1, "batch_size": 1},
}


def tiny(name: str) -> workloads.Workload:
    workload = workloads.WORKLOADS[name]
    spec = {**workload.spec, **TINY[name]}
    if "problem_options" in spec:
        options = dict(spec["problem_options"])
        options["mc"] = {**options["mc"], "n_min": 4, "n_max": 4, "batch_size": 4}
        spec["problem_options"] = options
    return dataclasses.replace(workload, spec=spec)


def wrapped_attributes() -> dict:
    """Every attribute the tracer could replace, keyed by (owner, name)."""
    found = {}
    for module_name, path, _, _ in tracer.TARGETS:
        module = importlib.import_module(module_name)
        if "." in path:
            class_name, attr = path.split(".")
            owner = getattr(module, class_name)
            found[(repr(owner), attr)] = owner.__dict__[attr]
    for module in tracer._repro_modules():
        for attr, value in vars(module).items():
            if callable(value):
                found[(module.__name__, attr)] = value
    return found


@pytest.fixture(autouse=True)
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    return tmp_path


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_emits_every_metric(name, trace, out_dir):
    before = wrapped_attributes()
    stream = io.StringIO()
    result = run.run(tiny(name), seed=0, seconds=0, trace=bool(trace),
                     setup_probes=1, panel=1, stream=stream)
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    last = stream.getvalue().strip().splitlines()[-1]

    def reject(token):
        raise ValueError(f"non-strict JSON constant {token}")

    assert json.loads(last, parse_constant=reject) == json.loads(
        json.dumps(run.strict(result)))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    if trace:
        assert (out_dir / f"spans-{name}-seed0-trace1.json").exists()
    after = wrapped_attributes()
    changed = [key for key, value in before.items() if after.get(key) is not value]
    assert changed == []


def test_tracer_restores_after_an_exception():
    before = wrapped_attributes()
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            from repro.spice import dc
            assert dc.dc_operating_point is not before[("repro.spice.dc",
                                                        "dc_operating_point")]
            raise RuntimeError("boom")
    after = wrapped_attributes()
    assert [key for key, value in before.items() if after.get(key) is not value] == []


def test_traced_counts_match_the_program_and_repeat():
    from repro.study import Study, StudySpec
    spec = StudySpec.from_dict(tiny("random_sizing").spec_dict(3))
    counts = []
    for _ in range(2):
        with tracer.Tracer() as t:
            result = Study(spec).run()
        metrics, split = tracer.layer_metrics(t, 0)
        counts.append({k: metrics[k] for k in tracer.WORK_COUNTS})
        assert metrics["engine.designs"] == len(result.history)
        assert metrics["spice.dc_solves"] == metrics["bench.runs"] == len(result.history)
        assert metrics["opt.steps"] == result.n_iterations
        assert set(split) <= set(tracer.LAYERS)
    assert counts[0] == counts[1]


def test_names_are_plain():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    names += [m["name"] for kind in ("end_to_end", "per_layer") for m in BENCHMARK[kind]]
    assert all(NAME.match(name) for name in names), names
    assert len(names) == len(set(names))
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_checks_catch_a_bad_study():
    class History(list):
        feasible = np.zeros(12, dtype=bool)

    result = SimpleNamespace(history=History([None] * 12),
                             best_curve=lambda: [3.0, 2.0, 2.5])
    spec = SimpleNamespace(n_simulations=8, batch_size=4)
    problems = workloads.check_study(result, spec, require_feasible=True)
    assert [p.split()[0] for p in problems] == ["history", "best-so-far", "no"]
    assert len(workloads.check_study(result, spec, require_feasible=False)) == 2


def test_summary_percentile_keeps_ten_samples_beyond():
    stats = run.summarize([float(i) for i in range(100)])
    assert stats["n"] == 100 and stats["median"] == 49.5
    assert stats["p90"] == 89.0 and "p95" not in stats
    assert set(run.summarize([1.0] * 19)) == {"median", "n"}
