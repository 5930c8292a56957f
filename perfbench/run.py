#!/usr/bin/env python3
"""Layered benchmark for gaussmart.

    python3 perfbench/run.py --workload battery|simulate|kernel \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its
``src/``.  One process runs one workload as a closed loop with one caller:
each operation starts when the previous one has finished, and passes over
the workload's operation kinds repeat until ``--seconds`` have gone
by.  A pass spreads each kind's executions evenly through it; the first
pass always completes.  Every operation runs under a time
limit, and untimed correctness checks follow it.

``--trace 0`` reports the end-to-end metrics.  An operation's time is the
fastest execution of each of its inputs, averaged over the inputs; its
metric is that time divided by the 10th percentile of the times, in the
same run, of a fixed reference computation that shares no code with
gaussmart and runs before every timed operation (see
:func:`reference_work`).
``--trace 1`` runs every
operation twice in a row, untraced and then traced, stops only between
whole passes, and reports the per-layer metrics of the traced executions
(per pass) and the tracing overhead as the difference between the two.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(provenance, samples, checks, digests) goes to ``.perfbench_out/`` in the
checkout, with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

# one thread everywhere but the threaded leg: pin native pools before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORK = OUT / "work"

#: the in-process set-up plus this many fresh interpreters, one after each
#: of the first passes, give setup_s
SETUP_PROBES = 4
#: no single operation may run longer than this
OP_LIMIT_S = 60.0
#: nothing is started once the run is this old
RUN_LIMIT_S = 150.0

END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("passed_share", "share"),
    ("op1_ref", "ref"),
    ("op2_ref", "ref"),
    ("op3_ref", "ref"),
    ("op4_ref", "ref"),
    ("op5_ref", "ref"),
]


def reference_work() -> None:
    """A fixed computation that the operation times are measured against.

    The host's speed switches, for a minute or more at a time, between
    states up to twice apart, so a whole run can fall in a slow one and no
    statistic over the run's own samples recovers the program's speed.  This
    computation slows with the host and not with gaussmart: interpreter-bound
    small-array steps, like the package's narrow grids, and one wide
    vectorised pass, like its wide ones.  Dividing by its time in the same
    run cancels the host's state and keeps every change to the package.
    """
    import numpy as np

    lanes = np.arange(256, dtype=np.uint64)
    for _ in range(2000):
        lanes = (lanes * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(3)
    grid = np.linspace(0.0, 1.0, 1 << 18)
    np.sort(np.sin(grid) * np.sqrt(grid + 1.0))


class OpTimeout(BaseException):
    """An operation outlived its limit.

    A ``BaseException``, so that no ``except Exception`` in the package
    swallows it.
    """


@contextmanager
def time_limit(seconds: float):
    """Raise :class:`OpTimeout` in the main thread after ``seconds``.

    A call blocked in native code, or waiting on worker threads, sees it
    when control returns to the interpreter.
    """

    def expire(signum, frame):
        raise OpTimeout(f"operation exceeded {seconds:.1f} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 1e-3))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def import_workloads():
    """Import the package from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "gaussmart" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no gaussmart sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gaussmart
    import workloads

    if Path(gaussmart.__file__).resolve().parent != SRC / "gaussmart":
        raise SystemExit(f"perfbench: imported gaussmart from {gaussmart.__file__}")
    return workloads


def probe_setup(workload: str, seed: int, budget: float) -> float | None:
    """Set-up seconds measured in a fresh interpreter, or None on failure."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(budget, 1.0))
    except subprocess.TimeoutExpired:
        return None
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-2000:])
        return None
    return float(done.stdout.split()[-1])


def provenance(wl, seed: int) -> dict:
    import numpy
    import scipy

    commit = None  # the checkout need not be a git repository
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True, timeout=10)
            commit = commit.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = hashlib.sha256()
    for path in sorted((SRC / "gaussmart").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "workload_seed": seed,
        **wl.provenance,
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Loop:
    """The closed loop over passes, with everything it records."""

    def __init__(self, wl, check, started: float):
        self.wl = wl
        self.check = check
        self.started = started
        self.samples = []  # (slot, instance, mode, seconds, ok)
        self.digests: dict = {}  # (slot, instance) -> digest of every execution
        self.checks = []
        self.attempted = 0
        self.failed = 0
        self.passes = 0
        self.first_pass_rss_mb = None
        self.reference_s = []  # one per untraced execution, run just before it

    def run_op(self, op, i: int, mode: str, tracer) -> None:
        if mode == "plain":
            t0 = time.perf_counter()
            reference_work()
            self.reference_s.append(time.perf_counter() - t0)
        limit = min(OP_LIMIT_S, self.started + RUN_LIMIT_S - time.perf_counter())
        self.attempted += 1
        gc.collect()
        token = tracer.open_op(self.attempted, op.slot) if mode == "traced" else None
        t0 = time.perf_counter()
        try:
            with time_limit(limit):
                result = op.run(i)
        except (Exception, OpTimeout) as exc:
            self.samples.append((op.slot, i, mode, time.perf_counter() - t0, False))
            self.failed += 1
            traceback.print_exception(exc, limit=-3, file=sys.stderr)
            self.checks.append(self.check(f"{op.name}.completed", False, repr(exc)))
            return
        else:
            self.samples.append((op.slot, i, mode, time.perf_counter() - t0, True))
        finally:
            if token is not None:
                tracer.close_op(token)
        try:
            digest, checks = op.inspect(result, i)
        except Exception as exc:  # a check that cannot be made has failed
            digest, checks = None, [self.check(f"{op.name}.inspected", False, repr(exc))]
        runs = self.digests.setdefault((op.slot, i), [])
        if not runs:  # a repeat of the same input is checked by its digest
            self.checks.extend(checks)
        runs.append(digest)

    def run(self, seconds: float, trace: bool, tracer, targets, between=lambda: None) -> None:
        """Run passes until ``seconds`` have gone by; ``between()`` follows each."""
        modes = ("plain", "traced") if trace else ("plain",)
        needed = {(op.slot, m) for op in self.wl.ops for m in modes}
        deadline = time.perf_counter() + seconds
        broken = []

        def done() -> bool:
            now = time.perf_counter()
            have = {(s[0], s[2]) for s in self.samples}
            return (now >= deadline and needed <= have) or now - self.started >= RUN_LIMIT_S

        # each kind's executions are spread evenly through the pass, so that
        # every kind samples the machine over the whole pass, not one stretch
        schedule = sorted(
            ((k + 0.5) / op.per_pass, n, k)
            for n, op in enumerate(self.wl.ops) for k in range(op.per_pass)
        )
        while not done():
            for _, n, k in schedule:
                # the first pass, and every pass of a traced run, is whole
                if self.passes and not trace and done():
                    break
                op = self.wl.ops[n]
                # a traced execution follows its untraced twin at once, so the
                # pair sees the same machine and their difference is the
                # tracing overhead
                for mode in modes:
                    if mode == "traced":
                        tracer.install(targets)
                    try:
                        self.run_op(op, k % op.inputs, mode, tracer)
                    finally:
                        if mode == "traced":
                            broken += tracer.uninstall()
            self.passes += 1
            if self.passes == 1:
                # later passes re-run the same work; stopping the window here
                # keeps the peak independent of how many passes fit
                self.first_pass_rss_mb = peak_rss_mb()
            between()
        if trace:
            self.checks.append(self.check(
                "trace.wrappers_restored", not broken,
                f"left wrapped: {broken}" if broken else "every original restored"))
        for op in self.wl.ops:
            runs = [d for (slot, _), ds in self.digests.items() if slot == op.slot for d in ds]
            same = all(len(set(ds)) == 1 for (slot, _), ds in self.digests.items()
                       if slot == op.slot)
            self.checks.append(self.check(
                f"{op.name}.repeats_bit_identical", same,
                f"{len(runs)} executions" + (", traced and untraced" if trace else "")))

    def times(self, slot: str) -> dict:
        """Seconds of each successful untraced execution of ``slot``, by input."""
        out: dict = {}
        for s in self.samples:
            if s[0] == slot and s[2] == "plain" and s[4]:
                out.setdefault(s[1], []).append(s[3])
        return out

    def fastest(self, slot: str) -> float:
        """Mean over the slot's inputs of each input's fastest execution.

        The host's speed drifts by tens of percent within seconds; the
        fastest of several executions spread through the run varies far
        less from run to run than their median does.
        """
        by_input = self.times(slot)
        if by_input:
            return statistics.fmean(min(ts) for ts in by_input.values())
        # no successful sample: the time spent failing is a lower bound
        bad = [s[3] for s in self.samples if s[0] == slot and s[2] == "plain"]
        return max(bad, default=OP_LIMIT_S)


def main(argv=None) -> int:
    started = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["battery", "simulate", "kernel"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    trace = bool(args.trace)

    workloads = import_workloads()
    wl = workloads.setup(args.workload, args.seed, WORK)
    setup_samples = [time.perf_counter() - started]
    import tracing

    Check = workloads.Check
    setup_checks = []

    def probe() -> None:
        # set-up is an end-to-end metric only; probes spread over the run see
        # more of the host's drift than probes made back to back
        if trace or len(setup_samples) + len(setup_checks) > SETUP_PROBES:
            return
        budget = started + RUN_LIMIT_S - time.perf_counter()
        sample = probe_setup(args.workload, args.seed, budget)
        if sample is None:
            setup_checks.append(Check("setup.probe", False, "set-up probe failed"))
        else:
            setup_samples.append(sample)

    tracer = tracing.Tracer()
    loop = Loop(wl, Check, started)
    loop.run(args.seconds, trace, tracer, tracing.targets(tracer, workloads.MODULES), probe)
    for _ in range(SETUP_PROBES):  # those the passes left over
        probe()
    checks = setup_checks + loop.checks + wl.finish()

    fastest = {op.slot: loop.fastest(op.slot) for op in wl.ops}
    failing = [c for c in checks if not c.passed]
    # a failed statistical gate marks the output incorrect only if it failed
    # again at an independent seed; it counts as failed either way
    correct = all(c.name in workloads.KNOWN_DEFECTS or c.reproduced is False
                  for c in failing)
    passed_share = (len(checks) - len(failing)) / len(checks)

    record = {
        "args": vars(args),
        "provenance": provenance(wl, args.seed),
        "setup_samples_s": setup_samples,
        "samples": [dict(zip(("slot", "instance", "mode", "seconds", "ok"), s))
                    for s in loop.samples],
        "digests": {f"{slot}[{i}]": ds for (slot, i), ds in loop.digests.items()},
        "checks": [vars(c) for c in checks],
        "known_defects": sorted(workloads.KNOWN_DEFECTS),
        "derived": {k: {"value": v, "unit": u} for k, (v, u) in wl.derived(fastest).items()},
        "reference_s": loop.reference_s,
        "fastest_s": fastest,
    }
    if trace:
        plain, traced = (sum(s[3] for s in loop.samples if s[2] == mode and s[4])
                         for mode in ("plain", "traced"))
        spans = tracer.spans
        overhead = traced / plain - 1.0 if plain else 0.0
        metrics = tracing.layer_metrics(spans, overhead, loop.passes)
        reference = None
        record["philox_share_by_op"] = tracing.philox_share_by_op(spans)
        tracer.write(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl")
    else:
        # its 10th percentile: near the fastest, like the operation times,
        # without resting on one lucky execution of a 10 ms computation
        reference = statistics.quantiles(loop.reference_s, n=10)[0]
        values = {
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": loop.first_pass_rss_mb or peak_rss_mb(),
            "passed_share": passed_share,
            **{f"{slot}_ref": fastest[slot] / reference for slot in fastest},
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        record["derived"]["failed_share"] = {"value": 1.0 - passed_share, "unit": "share"}
    record["metrics"] = metrics
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, default=repr))

    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}: "
          f"{loop.attempted} operations, {loop.failed} failed, "
          f"{len(checks) - len(failing)}/{len(checks)} checks pass")
    if reference is not None:
        print(f"  reference computation: 10th percentile {reference:.6f} s, "
              f"median {statistics.median(loop.reference_s):.6f} s, "
              f"{len(loop.reference_s)} executions")
    for op in wl.ops:
        ts = [t for by_input in loop.times(op.slot).values() for t in by_input]
        median = statistics.median(ts) if ts else float("nan")
        print(f"  {op.slot} {op.name:24s} fastest {fastest[op.slot]:9.4f} s, "
              f"median {median:9.4f} s, {len(ts)} executions")
    for name, entry in record["derived"].items():
        print(f"  {name:32s} {entry['value']:.6g} {entry['unit']}")
    for c in failing:
        if c.name in workloads.KNOWN_DEFECTS:
            tag = "known defect"
        elif c.reproduced is False:
            tag = "failed, not reproduced"
        else:
            tag = "FAILED"
        print(f"  {tag}: {c.name}: {c.detail}")
    print(f"  record: {out_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
