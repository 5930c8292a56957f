"""The attributes the benchmark harness in ``perfbench/`` wraps and calls.

The tracer looks each target up with ``vars(owner)[attr]``, so deleting or
renaming a wrapped name breaks the benchmark; this test makes it break the
test suite first.  The harness files are imported, never changed.
"""

import importlib
import pathlib

from gaussmart import sampler

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_every_target_and_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")
    tracer = tracing.Tracer()
    targets = tracing.targets(tracer, workloads.MODULES)
    try:
        tracer.install(targets)  # a missing attribute raises KeyError here
    finally:
        assert tracer.uninstall() == []
    assert targets
    # the workloads build one-lane streams through this name
    assert callable(sampler.RandomStream)
