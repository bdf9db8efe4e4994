"""Tests of the benchmark itself, on small cells.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import subprocess
import sys
import time

import pytest

import checks
import inputs
import tracer
import workloads
from conftest import BENCH, ROOT

SMALL_SCAN = ["scan", "--n-range", "5,8", "--p-max", "30", "--format", "json",
              "--workers", "2"]


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture
def ctx(tmp_path):
    return workloads.Context(ROOT, str(tmp_path), time.monotonic() + 600)


def _draws(seed):
    return (inputs.analyze_cells(seed), inputs.certify_cells(seed),
            inputs.rerun_removals(seed))


def test_seed_zero_is_the_roadmap_cells():
    assert inputs.analyze_cells(0) == ((13, 79), (11, 67), (15, 31))
    assert len(inputs.grid_cells()) == 213


def test_same_seed_same_inputs_in_any_process():
    script = ("import sys; sys.path.insert(0, %r); import inputs; "
              "print(repr([(inputs.analyze_cells(s), inputs.certify_cells(s), "
              "inputs.rerun_removals(s)) for s in range(6)]))" % BENCH)
    outs = {subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                           check=True, env=dict(os.environ, PYTHONHASHSEED=h)).stdout
            for h in ("1", "2")}
    assert len(outs) == 1
    assert [_draws(s) for s in range(6)] == [_draws(s) for s in range(6)]
    assert len({_draws(s)[0] for s in range(20)}) > 1


def test_draws_keep_the_workload_shape():
    for seed in range(30):
        cells = inputs.analyze_cells(seed)
        assert len(set(cells)) == 3 and set(cells) <= set(inputs.ANALYZE_REF_S)
        cert = inputs.certify_cells(seed)
        t6 = [c for c in cert if (c.n, c.p) in inputs.CERTIFY_T6]
        t8 = [c for c in cert if (c.n, c.p) in inputs.CERTIFY_T8]
        assert len(t6) == 1 and len(t8) == 2 and t8[0] != t8[1]
        assert len(inputs.rerun_removals(seed)) == 21


def test_traced_cli_output_is_byte_identical(ctx, tmp_path):
    for argv in (["analyze", "--n", "5", "--p", "11", "--format", "json"], SMALL_SCAN):
        plain = ctx.pweil(argv)
        spans_path = str(tmp_path / "spans.json")
        traced = ctx.pweil(argv, spans_path)
        assert plain.code == traced.code == 0
        assert plain.out == traced.out
        import_s, spans = workloads._load_spans(spans_path)
        assert import_s > 0
        rows = json.loads(plain.out).get("rows", [None])
        # in a scan only the forked workers analyse cells: their spans must be merged
        assert sum(sp.name == "cli.analyze_report" for sp in spans) == len(rows)


def _bindings():
    import pweil
    mods = [pweil] + [sys.modules["pweil." + m] for m in tracer.MODULES]
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items() if callable(v)}


def test_wrappers_are_removed_after_a_run():
    from pweil.cyclo import CycloField
    from pweil.splitting import split_prime
    from pweil.weilgroup import build_weil_basis

    import pweil.cli  # noqa: F401  (cli is one of the traced modules)
    before = _bindings()
    recorder = tracer.Recorder()
    with pytest.raises(ZeroDivisionError):
        with tracer.traced(recorder):
            assert sys.modules["pweil.weilgroup"].build_weil_basis is not build_weil_basis
            sys.modules["pweil.weilgroup"].build_weil_basis(split_prime(CycloField(5), 11))
            1 / 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    names = {sp.name for sp in recorder.spans}
    assert {"weilgroup.build_weil_basis", "weilgroup.find_generator", "cyclo.norm"} <= names
    m = tracer.layer_metrics(recorder.spans)
    assert m["weilgroup.find_generator_calls"] == 2
    assert m["weilgroup.generator_hit_ratio"] == 1.0
    assert 0 < m["weilgroup.find_generator_s"] <= m["weilgroup.build_weil_basis_s"]


def test_self_time_subtracts_children():
    spans = [tracer.Span(1, 0, None, "weilgroup.find_generator", 0.0, 1.0, "hit", False),
             tracer.Span(1, 1, 0, "cyclo.norm", 0.2, 0.5, None, False),
             tracer.Span(1, 2, 0, "cyclo.norm", 0.6, 0.7, None, False)]
    m = tracer.layer_metrics(spans)
    assert m["weilgroup.self_s"] == pytest.approx(0.6)
    assert m["cyclo.self_s"] == pytest.approx(0.4)
    assert m["weilgroup.norms_per_generator"] == 2


def test_metric_names_match_benchmark_json(ctx):
    names = {t: [m["name"] for m in spec()[t]] for t in ("end_to_end", "per_layer")}
    plain, _ = workloads.analyze_hard(ctx, 0, 0.0, False, cells=((5, 11),))
    traced, tally = workloads.analyze_hard(ctx, 0, 0.0, True, cells=((5, 11),))
    assert sorted(plain) == sorted(names["end_to_end"])
    assert sorted(traced) == sorted(names["per_layer"])
    assert tally.failed == 0 and tally.attempted == 2
    assert all(plain[n] > 0 for n in names["end_to_end"])


def test_injected_failing_check_raises_fail_frac(ctx):
    ctx.digests = {"pweil-analyze/1": {"5,11": "0" * 64}}
    values, tally = workloads.analyze_hard(ctx, 0, 0.0, False, cells=((5, 11),))
    assert (tally.attempted, tally.failed) == (1, 1)
    assert values["ok_frac"] == 0.0
    assert "changed without a new schema tag" in tally.problems[0]


def test_certify_checks_the_planted_twin(ctx, monkeypatch):
    cells = (inputs.CertifyCell(8, 17, inputs.Planted("scale", 0, q=3, s=2)),)
    values, tally = workloads.certify(ctx, 0, 0.0, False, cells=cells)
    assert (tally.attempted, tally.failed) == (4, 0)
    # a "twin" off by one radian is independent: the planted search must fail
    monkeypatch.setattr(workloads, "_planted_vector",
                        lambda values, planted, two_pi: tuple(x + 1 for x in values[0]))
    values, tally = workloads.certify(ctx, 0, 0.0, False, cells=cells)
    assert (tally.attempted, tally.failed) == (4, 1)
    assert values["ok_frac"] == pytest.approx(0.75)


def test_scan_row_checks():
    good = {"ok": True, "rank": 2, "T_size": 4, "S_size": 2, "certificate": "none-up-to-bound"}
    assert checks.scan_row_problems(good) == []
    assert checks.scan_row_problems(dict(good, rank=1))
    assert checks.scan_row_problems(dict(good, certificate="found"))
    assert checks.scan_row_problems(dict(good, ok=False))
