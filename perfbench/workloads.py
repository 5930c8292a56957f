"""The benchmark's three workloads: their operations, inputs and checks.

Every workload is a fixed list of operation kinds, ``op1`` to ``op5``
(``simulate`` adds ``op6``, timed but not an end-to-end metric), that make
up one pass.  An operation's ``run`` is the
timed call into ``gaussmart``; its ``inspect`` runs afterwards, untimed,
and returns a digest of the operation's output and the correctness checks
on it.  Calls go through module attributes (``verify.standard_battery``,
``cli.execute``, ...) so that the tracer's wrappers see them.

Inputs come from the workload seed through ``verify.derive_seed``; the
``kernel`` workload's inputs are fixed numerics and do not depend on it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from gaussmart import cli, generator, kernel, pathsim, quadrature, sampler, semigroup, verify

MODULES = {
    "cli": cli, "generator": generator, "kernel": kernel, "pathsim": pathsim,
    "quadrature": quadrature, "sampler": sampler, "verify": verify,
}

SLOTS = ("op1", "op2", "op3", "op4", "op5")

COMPOUND_ATOMS = [(0.5, 1.0), (2.0, 0.25)]
FAMILY_FLAGS = {
    "poisson": [],
    "gamma": ["--b", "1.0"],
    "compound": ["--atoms", "0.5:1,2:0.25"],
}

#: checks that fail at the commit that introduced the benchmark, from known
#: defects; they count as failed checks but do not mark the run incorrect
KNOWN_DEFECTS = {
    # uniform Simpson cannot resolve the density's singularity at sigma*x
    # when a ln(sigma) < 1; fixing it is open work, not a benchmark setting
    "ck_gamma.small_shape_sup",
}


@dataclass
class Check:
    name: str
    passed: bool
    detail: str = ""
    #: for a failed statistical gate, whether it failed again when re-run at
    #: an independent seed; None for every other check
    reproduced: bool | None = None


@dataclass
class Op:
    """One operation kind: ``per_pass`` executions cycle through ``inputs``
    distinct inputs, numbered 0 to ``inputs - 1``."""

    slot: str
    name: str
    per_pass: int
    run: Callable[[int], object]
    inspect: Callable[[object, int], tuple]
    inputs: int = 1


@dataclass
class Workload:
    name: str
    ops: list
    provenance: dict
    #: named figures (name -> (value, unit)) derived from the op times
    derived: Callable[[dict], dict]
    warmup: Callable[[], object]
    #: checks over several operations, made after the loop
    finish: Callable[[], list] = lambda: []


def families() -> dict:
    return {
        "poisson": semigroup.calibrate(semigroup.poisson_family()),
        "gamma": semigroup.calibrate(semigroup.gamma_family(b=1.0)),
        "compound": semigroup.calibrate(semigroup.compound_family(COMPOUND_ATOMS)),
        "brownian": semigroup.brownian_family(),
    }


def _family_record(fams: dict) -> dict:
    return {k: dataclasses.asdict(f) for k, f in fams.items()}


def _digest_json(obj) -> str:
    text = json.dumps(obj, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def _file_digest(path) -> tuple[str, int]:
    """SHA-256 and line count of a file."""
    h = hashlib.sha256()
    lines = 0
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
            lines += chunk.count(b"\n")
    return h.hexdigest(), lines


def _cli(argv) -> int:
    """``gaussmart`` in-process; its stdout summary line is kept off ours."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.execute(argv)


def _remove(*paths) -> None:
    for p in paths:
        with contextlib.suppress(FileNotFoundError):
            os.remove(p)


# ---------------------------------------------------------------------------
# battery: the gated statistical battery, as `gaussmart verify` runs it
# ---------------------------------------------------------------------------

#: `gaussmart verify` defaults to 200k paths (about 6 s a family on a 2-vCPU
#: VM); a run must execute each family several times, so the ensemble and the
#: QV sample are smaller.  The pair experiments keep the battery's own 100k
#: floor, the jump and mode samples their defaults.
BATTERY_SIZES = {"n_paths": 20_000, "n_qv": 2_500}
NULL_REPS_PER_PASS = 3


def battery(seed: int, workdir) -> Workload:
    fams = families()
    seeds = {}
    ops = []
    failed_again: dict = {}  # kind -> gates failed by the confirming re-run
    for slot, kind in zip(SLOTS, ("poisson", "gamma", "compound", "brownian")):
        sub = seeds[f"verify_{kind}"] = verify.derive_seed(seed, f"battery/{kind}")

        def run(i, fam=fams[kind], sub=sub):
            return verify.standard_battery(fam, sub, **BATTERY_SIZES, threads=1)

        def inspect(reports, i, kind=kind, sub=sub):
            checks = [
                Check(f"verify_{kind}.{r.test_name}", r.passed,
                      f"{r.status}: statistic {r.statistic:.6g}, p {r.p_value}")
                for r in reports
            ]
            if not all(c.passed for c in checks):
                # a gate has a false-alarm rate: a defect the gate detects
                # fails it again at an independent seed, a chance extreme
                # seldom does
                if kind not in failed_again:  # once per run: repeats are identical
                    again = verify.standard_battery(
                        fams[kind], verify.derive_seed(sub, "confirm"),
                        **BATTERY_SIZES, threads=1)
                    failed_again[kind] = {r.test_name for r in again if not r.passed}
                for c, r in zip(checks, reports):
                    if not c.passed:
                        c.reproduced = r.test_name in failed_again[kind]
                        c.detail += "; re-run at an independent seed: " + (
                            "failed again" if c.reproduced else "passed")
            return _digest_json([r.to_dict() for r in reports]), checks

        ops.append(Op(slot, f"verify_{kind}", 1, run, inspect))

    null_seeds = [verify.derive_seed(seed, f"null/{i}") for i in range(NULL_REPS_PER_PASS)]
    seeds["null_calibration"] = null_seeds
    tallies: dict = {}

    def run_null(i):
        return verify.null_calibration(null_seeds[i], reps=1)

    def inspect_null(counts, i):
        tallies[i] = counts
        return _digest_json(counts), []

    def finish():
        if not tallies:
            return [Check("null_calibration.repetitions", False, "no repetition completed")]
        reps = len(tallies)
        need = math.ceil(0.99 * reps)  # the suite's rule: pass in >= 99% of repetitions
        checks = []
        for test in sorted(set().union(*tallies.values()) - {"repetitions"}):
            n_ok = sum(c[test] for c in tallies.values())
            check = Check(f"null_calibration.{test}", n_ok >= need,
                          f"{n_ok}/{reps} repetitions pass")
            if not check.passed:
                # each failing repetition is re-run at an independent seed
                failing = [i for i, c in tallies.items() if not c[test]]
                again = sum(
                    not verify.null_calibration(verify.derive_seed(null_seeds[i], "confirm"),
                                                reps=1)[test]
                    for i in failing
                )
                check.reproduced = again > 0
                check.detail += f"; {again}/{len(failing)} failed again at independent seeds"
            checks.append(check)
        return checks

    ops.append(Op("op5", "null_calibration_rep", NULL_REPS_PER_PASS, run_null, inspect_null,
                  inputs=NULL_REPS_PER_PASS))

    def derived(med):
        return {f"{op.name}_s": (med[op.slot], "s") for op in ops}

    provenance = {
        "families": _family_record(fams),
        "sizes": {**BATTERY_SIZES, "n_pairs": max(BATTERY_SIZES["n_paths"], 100_000),
                  "n_jumps": 100_000, "n_mode": 10_000, "threads": 1,
                  "null_reps_per_pass": NULL_REPS_PER_PASS},
        "sub_seeds": seeds,
    }

    def warmup():
        verify.null_calibration(verify.derive_seed(seed, "warmup"), reps=1)

    return Workload("battery", ops, provenance, derived, warmup, finish)


# ---------------------------------------------------------------------------
# simulate: the `simulate` subcommand plus a wide threaded ensemble
# ---------------------------------------------------------------------------

#: sizes keep each execution near a second or less, so that a run holds
#: several of every kind
NARROW_PATHS, NARROW_STEPS = 400, 256
WIDE_PATHS, WIDE_STEPS = 50_000, 20
EVENT_PATHS, EVENT_START, EVENT_X0, EVENT_HORIZON = 1000, 1.0, 0.5, 2.0


def simulate(seed: int, workdir) -> Workload:
    fams = families()
    threads = len(os.sched_getaffinity(0))
    seeds = {}
    ops = []
    for slot, kind in (("op1", "poisson"), ("op2", "gamma"), ("op3", "compound")):
        sub = seeds[f"grid_narrow_{kind}"] = verify.derive_seed(seed, f"simulate/narrow/{kind}")
        path = os.path.join(workdir, f"grid_{kind}.csv")
        argv = [
            "simulate", "--family", kind, *FAMILY_FLAGS[kind],
            "--paths", str(NARROW_PATHS), "--grid", f"0:1:{NARROW_STEPS}",
            "--seed", str(sub), "--threads", "1", "--out", path,
        ]

        def inspect(code, i, kind=kind, path=path):
            digest, lines = _file_digest(path)
            _remove(path)
            rows = NARROW_PATHS * (NARROW_STEPS + 1)
            return digest, [
                Check(f"grid_narrow_{kind}.exit_code", code == 0, f"exit {code}"),
                Check(f"grid_narrow_{kind}.csv_rows", lines == rows + 1,
                      f"{lines - 1} data rows, expected {rows}"),
            ]

        ops.append(Op(slot, f"grid_narrow_{kind}", 1, lambda i, argv=argv: _cli(argv), inspect))

    times = np.linspace(0.0, 1.0, WIDE_STEPS + 1)
    wide = seeds["grid_wide"] = verify.derive_seed(seed, "simulate/wide")
    wide_digests: dict = {}

    def wide_op(slot, n_threads):
        def run(i):
            return pathsim.simulate_grid_ensemble(
                fams["poisson"], times, wide, WIDE_PATHS, threads=n_threads
            )

        def inspect(values, i):
            digest = hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()
            wide_digests.setdefault(slot, digest)
            return digest, []

        return run, inspect

    sub = seeds["event"] = verify.derive_seed(seed, "simulate/event")
    event_csv = os.path.join(workdir, "event.csv")
    event_argv = [
        "simulate", "--family", "poisson", "--mode", "event",
        "--paths", str(EVENT_PATHS), "--start", repr(EVENT_START),
        "--x0", repr(EVENT_X0), "--horizon", repr(EVENT_HORIZON),
        "--seed", str(sub), "--threads", "1", "--out", event_csv,
    ]

    checked = set()

    def inspect_event(code, i):
        digest, _ = _file_digest(event_csv)
        with open(event_csv, encoding="ascii") as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        _remove(event_csv)
        if digest in checked:  # the same CSV again: its checks are made
            return digest, []
        checked.add(digest)
        # the same paths again, untimed, to validate each and match the CSV
        paths = [
            pathsim.simulate_event(
                fams["poisson"], EVENT_START, EVENT_X0, EVENT_HORIZON,
                sampler.RandomStream(sub, k),
            )
            for k in range(EVENT_PATHS)
        ]
        invalid = 0
        for p in paths:
            try:
                p.validate()
            except AssertionError:
                invalid += 1
        expected = [
            (k, j, t, pre, post)
            for k, p in enumerate(paths)
            for j, (t, pre, post) in enumerate(p.jumps)
        ]
        parsed = [(int(r[0]), int(r[1]), *map(float, r[2:])) for r in rows]
        return digest, [
            Check("event.exit_code", code == 0, f"exit {code}"),
            Check("event.paths_valid", invalid == 0,
                  f"{invalid} of {EVENT_PATHS} paths fail EventPath.validate()"),
            Check("event.csv_matches_paths", parsed == expected,
                  f"{len(parsed)} rows, {len(expected)} jumps simulated"),
        ]

    ops.append(Op("op4", "event", 2, lambda i: _cli(event_argv), inspect_event))
    ops.append(Op("op5", "grid_single", 1, *wide_op("op5", 1)))
    # timed and printed, but not an end-to-end metric: whether the host lets
    # the second worker run at once switches for minutes at a time (0.27 s
    # against 0.40 s on a 2-vCPU VM), so no bound would hold its spread
    ops.append(Op("op6", "grid_threaded", 2, *wide_op("op6", threads)))

    def finish():
        same = len(wide_digests) == 2 and wide_digests["op6"] == wide_digests["op5"]
        return [Check("grid_threaded.bit_identical_to_one_thread", same,
                      f"threads={threads} vs threads=1 digests {wide_digests}")]

    narrow_steps = 3 * NARROW_PATHS * NARROW_STEPS
    wide_steps = WIDE_PATHS * WIDE_STEPS

    def derived(med):
        return {
            "grid_narrow_steps_per_s": (
                narrow_steps / (med["op1"] + med["op2"] + med["op3"]), "1/s"),
            "grid_threaded_steps_per_s": (wide_steps / med["op6"], "1/s"),
            "event_paths_per_s": (EVENT_PATHS / med["op4"], "1/s"),
            "grid_single_steps_per_s": (wide_steps / med["op5"], "1/s"),
            "thread_speedup": (med["op5"] / med["op6"], "ratio"),
        }

    provenance = {
        "families": _family_record(
            {k: fams[k] for k in ("poisson", "gamma", "compound")}),
        "sizes": {
            "narrow": {"paths": NARROW_PATHS, "steps": NARROW_STEPS},
            "wide": {"paths": WIDE_PATHS, "steps": WIDE_STEPS, "threads": threads},
            "event": {"paths": EVENT_PATHS, "start": EVENT_START, "x0": EVENT_X0,
                      "horizon": EVENT_HORIZON},
        },
        "sub_seeds": seeds,
    }
    warm_csv = os.path.join(workdir, "warmup.csv")

    def warmup():
        _cli(["simulate", "--paths", "10", "--grid", "0:1:8", "--threads", "1",
              "--seed", str(verify.derive_seed(seed, "warmup")), "--out", warm_csv])
        _remove(warm_csv)

    return Workload("simulate", ops, provenance, derived, warmup, finish)


# ---------------------------------------------------------------------------
# kernel: transition-law numerics (kernel, quadrature, generator)
# ---------------------------------------------------------------------------

GENERATOR_POINTS = ((0.5, 0.8), (1.0, 0.8), (2.0, -2.0), (1.0, 0.0))
GENERATOR_SWEEPS_PER_PASS = 10
DENSITY_NODES = 2001
CK_POISSON_X = (0.0, 1.0, -1.0)
#: one 20k-draw Monte Carlo kernel per grid row: 128 rows take about 4 s on
#: a 2-vCPU VM
CK_COMPOUND_NODES = 16


def kernel_numerics(seed: int, workdir) -> Workload:
    fams = families()
    pois, gam, comp = fams["poisson"], fams["gamma"], fams["compound"]
    GridSpec = kernel.GridSpec

    # one x (or one gamma step) per execution: each input's fastest
    # execution is taken, and the op reports their mean
    def run_ck_poisson(i):
        return kernel.ck_residual(pois, 0.5, 1.0, 2.0, CK_POISSON_X[i], GridSpec(n_nodes=2048))

    def inspect_ck_poisson(res, i):
        x, (sup, atom) = CK_POISSON_X[i], res
        return _digest_json(res), [
            Check(f"ck_poisson.x={x:g}.sup", sup < 1e-6, f"sup {sup:.3e}"),
            Check(f"ck_poisson.x={x:g}.atom", atom <= 1e-12, f"atom {atom:.3e}"),
        ]

    gamma_steps = [("smooth", (1.0, 4.0, 16.0)), ("small_shape", (0.5, 1.0, 2.0))]

    def run_ck_gamma(i):
        return kernel.ck_residual(gam, *gamma_steps[i][1], 0.5, GridSpec(n_nodes=256))

    def inspect_ck_gamma(res, i):
        (tag, step), (sup, _) = gamma_steps[i], res
        return _digest_json(res), [
            Check(f"ck_gamma.{tag}_sup", sup < 1e-5, f"sup {sup:.3e} at (s, t, u) = {step}")
        ]

    def run_ck_compound(i):
        return kernel.ck_residual(comp, 0.5, 1.0, 2.0, 0.0, GridSpec(n_nodes=CK_COMPOUND_NODES))

    def inspect_ck_compound(res, i):
        sup, atom = res
        # the Monte Carlo sup residual is recorded in the detail, not gated
        return _digest_json(res), [
            Check("ck_compound.atom", atom <= 1e-12, f"atom {atom:.3e}, MC sup {sup:.3e}")
        ]

    density_paths = {k: os.path.join(workdir, f"density_{k}.csv") for k in FAMILY_FLAGS}

    density_kinds = tuple(density_paths)

    def run_density(i):
        kind = density_kinds[i]
        return _cli(["kernel", "--family", kind, *FAMILY_FLAGS[kind],
                     "--out", density_paths[kind]])

    def inspect_density(code, i):
        kind = density_kinds[i]
        path = density_paths[kind]
        digest, lines = _file_digest(path)
        with open(path + ".json", encoding="utf-8") as fh:
            side = json.load(fh)
        _remove(path, path + ".json")
        err = abs(side["mass_check"] - 1.0)
        if side["method"]["method"] == "monte-carlo":
            # AC mass is the share of draws with U > 0: binomial error on
            # the atom, gated at the package's 4 standard errors
            atom, draws = side["atom_weight"], side["method"]["draws"]
            tol = verify.Z_BOUND * math.sqrt(atom * (1.0 - atom) / draws)
        else:
            tol = 1e-8
        return digest, [
            Check(f"density_{kind}.table", code == 0 and lines == DENSITY_NODES + 1,
                  f"exit {code}, {lines - 1} rows"),
            Check(f"density_{kind}.mass", err <= tol,
                  f"|mass - 1| = {err:.3e}, tolerance {tol:.1e}"),
        ]

    def run_generator(i):
        out = []
        for fam in (pois, gam):
            for k in (2, 3):
                out.append(generator.generator_check(fam, generator.Polynomial.monomial(k), 1.0, 0.8))
            for s, x in GENERATOR_POINTS:
                out.append(generator.apply_generator(fam, generator.Polynomial.monomial(2), s, x))
        return out

    def inspect_generator(res, i):
        checks = []
        it = iter(res)
        for name, fam, bound in (("poisson", pois, 0.01), ("gamma", gam, 0.02)):
            for k in (2, 3):
                rel = next(it)["relative_error"]
                checks.append(Check(f"generator_{name}.x{k}.relative_error", rel < bound,
                                    f"{rel:.3e} (bound {bound})"))
            d = semigroup.delta(fam)
            for s, x in GENERATOR_POINTS:
                err = abs(next(it) - (d + (1.0 - d) * x * x / s))
                checks.append(Check(f"generator_{name}.x2_closed_form.s={s:g},x={x:g}",
                                    err <= 1e-8, f"error {err:.3e}"))
        return _digest_json(res), checks

    ops = [
        Op("op1", "ck_poisson", 3, run_ck_poisson, inspect_ck_poisson, inputs=3),
        Op("op2", "ck_gamma", 2, run_ck_gamma, inspect_ck_gamma, inputs=2),
        Op("op3", "ck_compound", 2, run_ck_compound, inspect_ck_compound),
        Op("op4", "density_table", 3, run_density, inspect_density, inputs=3),
        Op("op5", "generator_check", GENERATOR_SWEEPS_PER_PASS, run_generator, inspect_generator),
    ]

    def derived(med):
        return {f"{op.name}_s": (med[op.slot], "s") for op in ops}

    provenance = {
        "families": _family_record({"poisson": pois, "gamma": gam, "compound": comp}),
        "sizes": {
            "ck_poisson": {"nodes": 2048, "step": [0.5, 1.0, 2.0], "x": CK_POISSON_X},
            "ck_gamma": {"nodes": 256, "steps": dict(gamma_steps), "x": 0.5},
            "ck_compound": {"nodes": CK_COMPOUND_NODES, "step": [0.5, 1.0, 2.0], "x": 0.0,
                            "mc_draws": kernel._MC_DRAWS},
            "density_table": {"nodes": DENSITY_NODES, "s": 0.5, "t": 2.0, "x": 0.0},
            "generator_check": {"points": GENERATOR_POINTS, "f": ["x2", "x3"],
                                "sweeps_per_pass": GENERATOR_SWEEPS_PER_PASS},
        },
        "sub_seeds": {},
    }
    warm = density_paths["gamma"]

    def warmup():
        _cli(["kernel", "--family", "gamma", *FAMILY_FLAGS["gamma"], "--out", warm])
        _remove(warm, warm + ".json")

    return Workload("kernel", ops, provenance, derived, warmup)


BUILDERS = {"battery": battery, "simulate": simulate, "kernel": kernel_numerics}


def setup(name: str, seed: int, workdir) -> Workload:
    """Calibrate the families, build the workload and make one warm-up call."""
    os.makedirs(workdir, exist_ok=True)
    wl = BUILDERS[name](seed, workdir)
    wl.warmup()
    return wl
