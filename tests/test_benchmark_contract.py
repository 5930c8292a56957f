"""The attributes the benchmark harness in ``perfbench/`` wraps and calls.

The tracer looks each target up with ``vars(owner)[attr]``, so deleting or
renaming a wrapped name breaks the benchmark; this test makes it break the
test suite first.  The harness files are imported, never changed.
"""

import importlib
import os
import pathlib

import pytest

from gaussmart import calibrate, cli, gamma_family, kernel, pathsim, sampler, verify

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    return tracer, tracing.targets(tracer, importlib.import_module("workloads").MODULES)


def test_tracer_installs_every_target_and_restores_it(tracing):
    tracer, targets = tracing
    try:
        tracer.install(targets)  # a missing attribute raises KeyError here
    finally:
        assert tracer.uninstall() == []
    assert targets
    # the workloads build one-lane streams through this name
    assert callable(sampler.RandomStream)


def test_traced_simulate_runs(tracing, tmp_path):
    # the measures unpack the wrapped functions' arguments: a signature they
    # no longer fit fails here, not first in a traced benchmark run
    tracer, targets = tracing
    out = {mode: tmp_path / f"{mode}.csv" for mode in ("grid", "event")}
    try:
        tracer.install(targets)
        token = tracer.open_op(1, "simulate")
        codes = [cli.execute(["simulate", "--mode", mode, "--paths", "3", "--grid", "0:1:4",
                              "--horizon", "8", "--out", str(path)])
                 for mode, path in out.items()]
        tracer.close_op(token)
    finally:
        assert tracer.uninstall() == []
    assert codes == [0, 0]
    csv = [span[-1] for span in tracer.spans if span[1] == "pathsim.csv"]
    assert [attrs["bytes"] for attrs in csv] == [os.path.getsize(p) for p in out.values()]
    assert csv[0]["rows"] == 3 * 5


def test_traced_kernel_runs(tracing, tmp_path):
    # the per-layer kernel numbers come from these spans: a refactor that
    # bypasses quadrature.adaptive_panels or changes its positional
    # signature would read 0 panels in the benchmark, and fails here
    tracer, targets = tracing
    fam = calibrate(gamma_family(b=1.0))
    try:
        tracer.install(targets)
        token = tracer.open_op(1, "kernel")
        code = cli.execute(["kernel", "--family", "gamma", "--b", "1.0", "--y=-4:4:41",
                            "--out", str(tmp_path / "density.csv")])
        sup, atom = kernel.ck_residual(fam, 1.0, 4.0, 16.0, 0.5, kernel.GridSpec(n_nodes=16))
        tracer.close_op(token)
    finally:
        assert tracer.uninstall() == []
    assert code == 0 and sup >= 0.0 and atom == 0.0
    panels = [span[-1]["panels"] for span in tracer.spans if span[1] == "quadrature.panels"]
    assert panels and all(count > 0 for count in panels)
    density = [span[-1] for span in tracer.spans if span[1] == "kernel.density"]
    assert density and all(attrs["points"] > 0 for attrs in density)


def test_traced_event_blocks_count_the_jumps(tracing, compound_fam):
    # perfbench's pathsim.event_jumps is the sampler.blocks lanes charged to
    # pathsim.event less its paths: each lane's first candidate is one lane
    # of a whole-bundle draw and each later one a block of a retry round,
    # so that difference must be the record's jump count exactly
    tracer, targets = tracing
    args = (compound_fam, 1.0, 0.5, 50.0)
    try:
        tracer.install(targets)
        token = tracer.open_op(1, "simulate")
        verify.simulate_event_terminals(*args, sampler.path_bundle(4, 300))
        tracer.close_op(token)
    finally:
        assert tracer.uninstall() == []
    event = importlib.import_module("tracing").span_stats(tracer.spans)["pathsim.event"]
    record = pathsim.simulate_events(*args, sampler.path_bundle(4, 300))
    assert event["paths"] == 300
    assert event["blocks"] - event["paths"] == record.lanes.size > 0
