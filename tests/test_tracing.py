"""The contract between pweil and the benchmark's tracer, checked from the
package side: ``perfbench/tracer.py`` is read as it is and never edited.
The tracer wraps functions by name from outside the package, so a renamed
function, or work that bypasses the wrapped name, reads as zero."""

import importlib
import importlib.util
import os
from collections import Counter

import pweil.cli
from pweil.cli import RunConfig

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_tracer_target_is_a_pweil_function():
    tracer = _load_tracer()
    for module, name, _ in tracer.TARGETS:
        assert callable(getattr(importlib.import_module("pweil." + module), name, None)), \
            (module, name)


def test_every_lll_reduction_is_a_traced_span():
    # both LLL callers reduce through the one traced name: each enumeration
    # runs one reduction, each relation search one per scale it tries
    tracer = _load_tracer()
    recorder = tracer.Recorder()
    with tracer.traced(recorder):
        pweil.cli.analyze_report(13, 79, RunConfig())
    name_of = {sp.sid: sp.name for sp in recorder.spans}
    calls = Counter(sp.name for sp in recorder.spans)
    parents = Counter(name_of[sp.parent] for sp in recorder.spans if sp.name == "lattice.lll")
    assert calls["lattice.short_vectors"] >= 1 and calls["lattice.find_simultaneous_relation"] >= 1
    assert parents["lattice.short_vectors"] == calls["lattice.short_vectors"]
    assert parents["lattice.find_simultaneous_relation"] >= calls["lattice.find_simultaneous_relation"]
    assert sum(parents.values()) == calls["lattice.lll"]
    assert tracer.layer_metrics(recorder.spans)["lattice.lll_calls"] == calls["lattice.lll"]
