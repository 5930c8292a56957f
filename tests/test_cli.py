import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy
from scipy.integrate import simpson

from gaussmart import (
    __version__,
    brownian_family,
    calibrate,
    cli,
    compound_family,
    csvtext,
    gamma_family,
    poisson_family,
)
from gaussmart.cli import _family, _options, build_parser, execute
from gaussmart.pathsim import _chunks


def run(tmp_path, *argv):
    return execute([str(a) for a in argv])


class TestSimulate:
    def test_grid_csv_shape_and_determinism(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["simulate", "--family", "poisson", "--paths", "20",
                "--grid", "0:1:8", "--seed", "7", "--out"]
        assert execute(args + [str(out1)]) == 0
        assert execute(args + [str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().splitlines()
        assert lines[0] == "path_id,time,value"
        assert len(lines) == 1 + 20 * 9

    def test_threads_do_not_change_output(self, tmp_path):
        base = ["simulate", "--family", "gamma", "--paths", "200",
                "--grid", "0:1:4", "--seed", "3", "--out"]
        one = tmp_path / "one.csv"
        four = tmp_path / "four.csv"
        assert execute(base + [str(one), "--threads", "1"]) == 0
        assert execute(base + [str(four), "--threads", "4"]) == 0
        assert one.read_bytes() == four.read_bytes()

    def test_event_blocks_do_not_change_output(self, tmp_path, monkeypatch):
        # one block of every lane against one lane per block: lanes are whole
        # streams, so the blocks change no draw and no byte
        base = ["simulate", "--family", "compound", "--atoms", "0.5:1,2:0.25", "--mode",
                "event", "--paths", "200", "--start", "1", "--horizon", "40", "--seed", "3",
                "--out"]
        whole = tmp_path / "whole.csv"
        single = tmp_path / "single.csv"
        assert execute(base + [str(whole)]) == 0
        monkeypatch.setattr(cli, "_EVENT_BLOCK_JUMPS", 1)
        assert execute(base + [str(single)]) == 0
        assert whole.read_bytes() == single.read_bytes()
        ids = [int(row.split(",")[0]) for row in whole.read_text().splitlines()[1:]]
        assert ids == sorted(ids)
        assert max(ids.count(k) for k in set(ids)) >= 5  # paths of several jumps

    def test_event_memory_flat_in_path_count(self, tmp_path, monkeypatch):
        # blocks of about 300 lanes: 5,000 paths peak near where 500 do, where
        # one block of every lane peaks about 8x higher (0.4 -> 3.5 MiB)
        monkeypatch.setattr(cli, "_EVENT_BLOCK_JUMPS", 1024)
        peaks = []
        for n in (500, 5000):
            tracemalloc.start()
            try:
                assert execute(["simulate", "--family", "compound", "--atoms", "0.5:1,2:0.25",
                                "--mode", "event", "--paths", str(n), "--start", "1",
                                "--horizon", "4", "--out", str(tmp_path / "ev.csv")]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 2 * peaks[0]

    def test_event_mode(self, tmp_path):
        out = tmp_path / "ev.csv"
        code = execute(
            ["simulate", "--family", "poisson", "--mode", "event", "--paths", "30",
             "--start", "1", "--horizon", "2", "--seed", "1", "--out", str(out)]
        )
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert header == "path_id,event_index,time,pre_value,post_value"

    def test_compound_event_mode(self, tmp_path):
        out = tmp_path / "ev.csv"
        code = execute(
            ["simulate", "--family", "compound", "--atoms", "0.5:1,2:0.25",
             "--mode", "event", "--paths", "30", "--start", "1", "--horizon", "4",
             "--seed", "1", "--out", str(out)]
        )
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "path_id,event_index,time,pre_value,post_value"
        assert len(rows) > 1

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["--family", "poisson", "--grid", "0:1:16"],
             "2de80c56b6f34fc51e46f3b1dbac9eda511b182c3659563fca36750d4f1b65e8"),
            (["--family", "gamma", "--grid", "0:1:16"],
             "7ffe7c15a9382cfb97e4f6704d2d5bf0a8bca8e0b9db37bd07c683202c5a4798"),
            (["--family", "compound", "--atoms", "0.5:1,2:0.25", "--grid", "0:1:16"],
             "d22aaf09db364c8b08324cbe55240b50f5539e129c6309292e3589284ee87681"),
            (["--family", "compound", "--atoms", "0.5:1,2:0.25", "--beta", "0.5",
              "--grid", "0:1:16"],
             "4c52f672788533d946fd41854f1ad59f17b312e9ab8fc6d9a1be1fd9e722924a"),
            (["--family", "compound", "--atoms", "0.5:1,1:1,2:0.25", "--beta", "0.5",
              "--grid", "0:1:16"],
             "106aa89c4200da74a48462b4bf2bbb1e084e6a70af29af8be9b6189487a587c9"),
            (["--family", "poisson", "--mode", "event", "--start", "1", "--horizon", "4"],
             "ee4a048d980196194132de25c22d033f897b2f2d051183847629150bd416609b"),
        ],
        ids=["grid-poisson", "grid-gamma", "grid-compound", "grid-drift", "grid-three-atoms",
             "event-poisson"],
    )
    def test_golden_digests(self, tmp_path, argv, digest):
        """The same argv writes the same bytes, release after release.

        Only a new ``STREAM_LAYOUT`` (the random streams) or a new schema
        (the CSV columns or their text form) may change these digests; a
        speed-up or a refactor that changes one has changed the output.
        """
        out = tmp_path / "out.csv"
        assert execute(["simulate", *argv, "--paths", "7", "--seed", "5",
                        "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_event_horizon_near_the_largest_float(self, tmp_path):
        # candidate times past the largest float overflow, silently: they lie
        # beyond the horizon; the bytes are those written while numpy warned
        out = tmp_path / "ev.csv"
        assert execute(["simulate", "--mode", "event", "--horizon", "1e308",
                        "--paths", "10", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "d9607b748a54766380eef2d8778f5661ba530688b68474f4319a0ae4c49761c9")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_grid_poisson_mean_past_the_limit_exits_two(self, tmp_path, capsys):
        # a count mean of 7e299 used to write NaN after the first step
        out = tmp_path / "g.csv"
        assert execute(["simulate", "--family", "compound", "--atoms", "1e-300:1",
                        "--grid", "0:1:4", "--paths", "3", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: poisson mean 6.93147e+299 is above")
        assert not out.exists()

    @pytest.mark.usefixtures("time_limit")
    @pytest.mark.parametrize("atoms", ["1e-300:1", "1e-12:1"])
    def test_event_mode_refuses_endless_paths(self, tmp_path, capsys, atoms):
        # nu ~ 2 / x jumps per unit of log time: the run could not end
        out = tmp_path / "ev.csv"
        assert execute(["simulate", "--family", "compound", "--atoms", atoms,
                        "--mode", "event", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: an event path on [1.0, 2.0] expects")
        assert "jumps, more than 5000" in err
        assert not out.exists()

    def test_nonzero_grid_start_rejected(self, tmp_path):
        code = execute(
            ["simulate", "--family", "poisson", "--grid", "1:2:4",
             "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2


class TestUsageErrors:
    def test_unknown_subcommand(self):
        assert execute(["frobnicate"]) == 2

    def test_unknown_flag(self):
        assert execute(["simulate", "--bogus", "1"]) == 2

    def test_help_exits_zero(self, capsys):
        assert execute(["--help"]) == 0
        assert "simulate" in capsys.readouterr().out

    def test_subcommand_help_documents_flags(self, capsys):
        assert execute(["verify", "--help"]) == 0
        out = capsys.readouterr().out
        for flag in ("--family", "--paths", "--seed", "--report", "--threads"):
            assert flag in out

    @pytest.mark.parametrize(
        "command", ["simulate", "kernel", "generator-check", "verify", "jump-times"]
    )
    def test_every_subcommand_has_help(self, capsys, command):
        assert execute([command, "--help"]) == 0
        assert "--family" in capsys.readouterr().out

    @pytest.mark.parametrize("atoms", ["bad", "1:2:3", "0.5:x"])
    def test_malformed_atoms_exit_two(self, tmp_path, capsys, atoms):
        code = execute(["simulate", "--family", "compound", "--atoms", atoms,
                        "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "config",
        [{"paths": "abc"}, {"paths": [1]}, {"threads": "two"}, {"mode": "jump"},
         {"family": {"kind": "poisson", "c": "abc"}}, {"family": {"kind": []}}],
    )
    def test_malformed_config_values_exit_two(self, tmp_path, capsys, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code = execute(["simulate", "--config", str(cfg), "--grid", "0:1:2",
                        "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "key, config, flag",
        [("paths", '{"paths": 12.7}', "12.7"), ("seed", '{"seed": true}', "true"),
         ("paths", '{"paths": 1e1}', "1e1"), ("start", '{"start": true}', "true")],
        ids=["fractional", "boolean", "float-integral", "boolean-float"],
    )
    def test_no_truncated_or_boolean_numbers(self, tmp_path, capsys, key, config, flag):
        # an integer option takes a JSON integer or an integer string only,
        # and no option takes a boolean, from the config file and the flag alike
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config)
        out = tmp_path / "x.csv"
        for argv in (["--config", str(cfg)], [f"--{key}", flag]):
            assert execute(["simulate", *argv, "--grid", "0:1:2", "--out", str(out)]) == 2
            assert capsys.readouterr().err.startswith(f"error: bad value for {key}: ")
            assert not out.exists()

    def test_numeric_failure_exit_code(self, monkeypatch):
        from gaussmart import QuadratureError
        from gaussmart import cli as cli_mod

        def boom(args):
            raise QuadratureError("did not converge", estimate=0.0, error_bound=1.0)

        monkeypatch.setitem(cli_mod._COMMANDS, "kernel", boom)
        assert execute(["kernel", "--family", "poisson"]) == 3

    def test_text_option_takes_only_a_string(self, tmp_path, capsys, monkeypatch):
        # a JSON list used to become the file name "['a']"
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text('{"out": ["a"]}')
        assert execute(["simulate", "--config", "cfg.json", "--paths", "2",
                        "--grid", "0:1:2"]) == 2
        assert capsys.readouterr().err.startswith("error: bad value for out: ['a']")
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_config_file_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_bytes(b"\xff\xfe{}")
        out = tmp_path / "x.csv"
        assert execute(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {cfg}: ") and "Traceback" not in err
        assert not out.exists()

    def test_missing_config_file(self, tmp_path):
        assert execute(["simulate", "--config", str(tmp_path / "nope.json")]) == 2

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"paths": 5, "bogus_key": 1}))
        assert execute(["simulate", "--config", str(cfg)]) == 2

    def test_bad_family_parameters(self, tmp_path):
        assert execute(
            ["simulate", "--family", "gamma", "--a", "-3",
             "--out", str(tmp_path / "x.csv")]
        ) == 2


@pytest.mark.usefixtures("time_limit")
class TestNonFiniteInputs:
    """Non-finite or negative numbers are usage errors, never hangs,
    tracebacks, NaN output or the exit code of a failed gate."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--family", "poisson", "--c", "nan", "--paths", "10"],
            ["simulate", "--family", "poisson", "--c", "inf", "--paths", "10"],
            ["simulate", "--family", "gamma", "--a", "nan", "--paths", "10"],
            ["simulate", "--family", "compound", "--atoms", "1:nan", "--paths", "10"],
            ["simulate", "--family", "compound", "--atoms", "inf:1", "--paths", "10"],
            ["kernel", "--family", "poisson", "--c", "nan"],
            ["simulate", "--mode", "event", "--horizon", "inf"],
            ["simulate", "--mode", "event", "--horizon", "nan"],
            ["simulate", "--mode", "event", "--x0", "nan"],
            ["simulate", "--mode", "event", "--start", "inf"],
            ["simulate", "--mode", "event", "--paths", "-3"],
            ["simulate", "--mode", "event", "--paths", str(2**63 + 1)],  # past the path streams
            ["simulate", "--paths", "-3"],
            ["simulate", "--paths", str(2**63 + 1)],  # grid mode: past the path streams too
            ["simulate", "--grid", "0:inf:4"],
            ["kernel", "--s", "nan"],
            ["kernel", "--t", "inf"],
            ["kernel", "--x", "nan"],
            ["kernel", "--y=-1:nan:5"],
            ["kernel", "--y", "0:1:0"],
            ["kernel", "--t", "1e308"],
            ["kernel", "--s", "1e-320"],
            ["generator-check", "--x", "nan"],
            ["jump-times", "--s", "nan"],
            ["jump-times", "--n", "-3"],
            ["jump-times", "--n", "5"],
            ["verify", "--paths", "-3"],
            ["kernel", "--y", "1:-1:5"],
            ["kernel", "--y", "0:1:1"],
        ],
        ids=" ".join,
    )
    def test_exits_two(self, tmp_path, capsys, argv):
        out = {"verify": ["--report"], "jump-times": ["--out", "--report"]}.get(argv[0], ["--out"])
        assert execute(argv + [a for i, flag in enumerate(out)
                               for a in (flag, str(tmp_path / f"out{i}"))]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["kernel", "--y=-1e308:1e308:3"], "y"),
            (["kernel", "--y=-1.7e308:1.7e308:2001"], "y"),
            (["simulate", "--grid=-1e308:1e308:4"], "grid"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else v,
    )
    def test_overflowing_span_exits_two(self, tmp_path, capsys, argv, key):
        # lo and hi are finite but hi - lo is not: no NaN table, no warning
        assert execute(argv + ["--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"error: bad value for {key}: ")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("paths", [10**13, 2**62, 10**20])
    def test_grid_paths_beyond_memory_exit_two(self, tmp_path, capsys, paths):
        # 10**13 paths fail to allocate, 2**62 exceed what numpy can
        # address, 10**20 lie past the path streams: each is a usage error
        # with no traceback and no CSV
        assert execute(["simulate", "--paths", str(paths), "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert ("--paths" if paths < 2**63 else "2**63") in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["kernel", "--y", "0:1:10000000000000"], "--y"),
            (["jump-times", "--n", "10000000000000"], "--n"),
            (["verify", "--paths", "10000000000000"], "--paths"),
            (["verify", "--paths", "100000", "--qv-paths", "10000000000000"], "--qv-paths"),
            (["verify", "--paths", "100000", "--qv-paths", "2", "--jumps", "10000000000000"],
             "--jumps"),
            (["verify", "--paths", "100000", "--qv-paths", "2", "--mode-paths", "10000000000000"],
             "--mode-paths"),
            (["jump-times", "--n", str(2**62)], "--n"),
            (["verify", "--paths", str(2**62)], "--paths"),
            (["kernel", "--y", f"0:1:{2**62}"], "--y"),
            (["simulate", "--grid", f"0:1:{2**62}"], "--grid"),
        ],
        ids=["kernel-y", "jump-times-n", "verify-paths", "verify-qv-paths", "verify-jumps",
             "verify-mode-paths", "jump-times-n-2**62", "verify-paths-2**62", "kernel-y-2**62",
             "simulate-grid-2**62"],
    )
    def test_sizes_beyond_memory_exit_two(self, tmp_path, capsys, argv, flag):
        # 10**13 values fail to allocate at once and 2**62 exceed what numpy
        # can address: a usage error that names the option to lower, with
        # no traceback and no table or report
        out = {"verify": ["--report"], "jump-times": ["--out", "--report"]}.get(argv[0], ["--out"])
        assert execute(argv + [a for i, f in enumerate(out)
                               for a in (f, str(tmp_path / f"out{i}"))]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} ") and err.count("\n") == 1
        assert err.rstrip().endswith(f"needs more memory than is available; lower {flag}")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("config", ['{"horizon": Infinity}', '{"paths": 1e400}'])
    def test_non_finite_config_values_exit_two(self, tmp_path, capsys, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config)
        code = execute(["simulate", "--mode", "event", "--config", str(cfg),
                        "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")


#: inputs whose moment checks overflow a float
_OVERFLOWS = [
    ["kernel", "--x", "1e160"],
    ["kernel", "--x", "1e300"],
    ["generator-check", "--x", "1e200"],
    ["generator-check", "--family", "gamma", "--x", "1e200"],
    ["jump-times", "--s", "1e308", "--n", "10000"],
]
#: the float flags each overflow message names: the subcommand's own
_OVERFLOW_FLAGS = {
    "kernel": {"--s", "--t", "--x"},
    "generator-check": {"--s", "--x"},
    "jump-times": {"--s"},
}


@pytest.mark.usefixtures("time_limit")
class TestNumericFailures:
    """Laws the numerics cannot evaluate exit 3 at once, never after a long
    search, with a traceback or with the exit code of a failed gate."""

    @pytest.mark.parametrize(
        "argv",
        [
            # a ln sigma <= 1/2: the gamma density is infinite at the default
            # grid's node sigma x = 0, which is refused before any
            # quadrature.  On a grid without sigma x, t = 1.001 is refused as
            # too short: the first panel's nodes u = w**(1/alpha) are 0, and
            # so is their variance t (1 - e^-u).  Like an overflow, each is
            # reported without numpy warnings
            *(pytest.param(a, marks=pytest.mark.filterwarnings("error::RuntimeWarning"))
              for a in (["kernel", "--family", "gamma", "--s", "1", "--t", "1.05"],
                        ["kernel", "--family", "gamma", "--s", "1", "--t", "1.001"],
                        ["kernel", "--family", "gamma", "--s", "1", "--t", "1.001",
                         "--x", "0.3", "--y=-3:3:2000"],
                        ["kernel", "--family", "gamma", "--b", "1e-300"],
                        *_OVERFLOWS)),
        ],
        ids=" ".join,
    )
    def test_exits_three(self, tmp_path, capsys, argv):
        assert execute(argv + ["--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: ")
        if argv[-2:] in (["--t", "1.05"], ["--t", "1.001"]):
            assert f"t = {argv[-1]} is infinite at y = sigma x = 0.0" in err
        elif "1.001" in argv:
            assert "the step s = 1.0 -> t = 1.001 is too short" in err
        if argv in _OVERFLOWS:
            named = set(re.findall(r"--[\w-]+", err))
            assert "float overflow" in err and named == _OVERFLOW_FLAGS[argv[0]]
            assert named & set(argv)  # the flag given among them
        # a failed run writes neither a table nor a sidecar
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv",
        [
            ["kernel", "--family", "compound", "--atoms",
             ",".join(f"0.0{i}:1" for i in range(1, 9)), "--s", "1e-322", "--t", "2e-322"],
            ["kernel", "--family", "poisson", "--s", "1e-323", "--t", "3e-323"],
        ],
        ids=["eight-atoms", "poisson"],
    )
    def test_underflowing_variance_exits_three(self, tmp_path, capsys, argv):
        # t (1 - e^-u) is subnormal or zero: refused before any Gaussian is
        # formed, where the table used to be NaN or to lose half its mass
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert execute(argv + ["--out", str(tmp_path / "k.csv")]) == 3
        assert not caught
        err = capsys.readouterr().err
        s, t = argv[argv.index("--s") + 1], argv[argv.index("--t") + 1]
        assert err.startswith("numeric failure: ") and f"s = {s} -> t = {t}" in err
        assert not any(tmp_path.iterdir())


@pytest.mark.usefixtures("time_limit")
@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestNewRefusals:
    """Inputs past the numerics' reach exit 3 at once, with no warning."""

    def test_counts_without_finite_windows(self, tmp_path, capsys):
        # Poisson means of 7e299: the count quantiles are not finite
        assert execute(["kernel", "--family", "compound", "--atoms", "1e-300:1",
                        "--out", str(tmp_path / "d.csv")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: the law of the atoms ((1e-300, ")
        assert "not finite" in err
        assert not any(tmp_path.iterdir())

    def test_first_jump_time_overflow(self, tmp_path, capsys):
        # it used to warn twice and then fail its own gate on inf draws (exit 1)
        assert execute(["jump-times", "--s", "1e308", "--n", "10000",
                        "--out", str(tmp_path / "j.csv"),
                        "--report", str(tmp_path / "r.json")]) == 3
        assert capsys.readouterr().err.startswith("numeric failure: float overflow")
        assert not any(tmp_path.iterdir())


def _config_run(tmp_path, capsys, config):
    """Exit code and stderr of ``simulate --config`` with ``config``, and
    whether it wrote its CSV."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "x.csv"
    code = execute(["simulate", "--config", str(cfg), "--grid", "0:1:2", "--paths", "3",
                    "--out", str(out)])
    return code, capsys.readouterr().err, out.exists()


class TestFamilyOptions:
    """A family comes from the family flags, or from a config ``family``
    object whose keys are those flags; both take one conversion."""

    @staticmethod
    def family(tmp_path, *argv, config=None):
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            argv = ("--config", str(cfg), *argv)
        return _family(_typed("simulate", *argv))

    def test_poisson_shorthand_builds_one_atom(self, tmp_path):
        expected = calibrate(poisson_family(2.0))
        assert self.family(tmp_path, "--family", "poisson", "--c", "2") == expected
        assert self.family(tmp_path, config={"family": {"kind": "poisson", "c": 2.0}}) == expected

    def test_default_kind_is_poisson(self, tmp_path):
        assert self.family(tmp_path) == calibrate(poisson_family())
        assert _family(_typed("verify")) == calibrate(poisson_family())

    def test_drift_and_atoms(self, tmp_path):
        expected = calibrate(compound_family([(1.0, 2.0)], beta=0.1))
        config = {"family": {"kind": "compound", "beta": 0.1, "atoms": [[1, 2.0]]}}
        assert self.family(tmp_path, config=config) == expected
        assert self.family(tmp_path, "--family", "compound", "--beta", "0.1",
                           "--atoms", "1:2") == expected
        flat = {"family": "compound", "atoms": "1:2", "beta": "0.1"}
        assert self.family(tmp_path, config=flat) == expected

    def test_brownian(self, tmp_path):
        assert self.family(tmp_path, config={"family": {"kind": "brownian"}}) == brownian_family()
        assert self.family(tmp_path, "--family", "brownian") == brownian_family()

    def test_precedence(self, tmp_path):
        # family object < top-level config key < flag
        config = {"family": {"kind": "gamma", "a": 2, "b": 2}}
        assert self.family(tmp_path, config=config) == calibrate(gamma_family(2.0, 2.0))
        # null is "not given" at every level, so it hides no lower value
        assert self.family(tmp_path, config={**config, "b": None}) \
            == calibrate(gamma_family(2.0, 2.0))
        config["b"] = 3
        assert self.family(tmp_path, config=config) == calibrate(gamma_family(2.0, 3.0))
        assert self.family(tmp_path, "--b", "4", config=config) == calibrate(gamma_family(2.0, 4.0))
        assert self.family(tmp_path, "--a", "5", config=config) == calibrate(gamma_family(5.0, 3.0))

    @pytest.mark.parametrize(
        "family",
        [
            pytest.param({"kind": "poisson", "rate": 1.0}, id="unknown-key"),
            pytest.param({"c": 2.0}, id="no-kind"),
            pytest.param({"kind": "gamma", "c": 2.0}, id="key-of-another-kind"),
            pytest.param({"kind": "brownian", "beta": 1.0}, id="brownian-with-drift"),
            pytest.param({"kind": "stable"}, id="unknown-kind"),
            pytest.param({"kind": []}, id="kind-not-a-string"),
            pytest.param({"kind": "gamma", "a": -1.0}, id="bad-value"),
            pytest.param({"kind": "compound", "atoms": [[1.0, "nan"]]}, id="non-finite-atom"),
            pytest.param({"kind": "compound", "atoms": []}, id="no-atoms"),
            pytest.param({"kind": "compound", "atoms": [[1.0, 1.0, 1.0]]}, id="atom-triple"),
        ],
    )
    def test_bad_family_object_exits_two(self, tmp_path, capsys, family):
        code, err, wrote = _config_run(tmp_path, capsys, {"family": family})
        assert (code, wrote) == (2, False)
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "config",
        [
            # Brownian motion is only --family brownian: a compound object
            # that says "degenerate" is refused, not run as pure drift
            {"family": {"kind": "compound", "atoms": [[0.5, 1]], "beta": 1, "degenerate": True}},
            {"family": {"kind": "compound", "beta": 1, "degenerate": "false"}},
            # no family value is a boolean
            {"c": True},
            {"family": {"kind": "compound", "atoms": [[True, 1]]}},
        ],
        ids=["degenerate", "degenerate-string", "boolean-c", "boolean-atom"],
    )
    def test_config_defects_exit_two(self, tmp_path, capsys, config):
        code, err, wrote = _config_run(tmp_path, capsys, config)
        assert (code, wrote) == (2, False)
        assert err.startswith("error: ") and "Traceback" not in err

    def test_compound_without_atoms_names_the_flags(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert execute(["simulate", "--family", "compound", "--beta", "1",
                        "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--atoms" in err and "--family brownian" in err
        assert "degenerate" not in err and not out.exists()

    def test_flag_of_another_kind_exits_two(self, tmp_path, capsys):
        code = execute(["simulate", "--family", "gamma", "--c", "2",
                        "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_config_family_flag_of_another_kind_exits_two(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": {"kind": "compound", "atoms": [[1, 1]]}, "b": 2}))
        assert execute(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2

    def test_config_keys_are_the_subcommand_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"qv-paths": 10}))  # a verify flag, not a simulate one
        assert execute(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize(
        "flags, family",
        [
            (["--family", "poisson", "--c", "2"], {"kind": "poisson", "c": 2}),
            (["--family", "gamma", "--b", "1"], {"kind": "gamma", "b": 1.0}),
            (["--family", "compound", "--atoms", "0.5:1,2:0.25"],
             {"kind": "compound", "atoms": [[0.5, "1"], [2, 0.25]]}),
        ],
        ids=["poisson", "gamma", "compound"],
    )
    def test_report_family_record_is_the_same(self, tmp_path, flags, family):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": family}))
        records = []
        for argv in (flags, ["--config", str(cfg)]):
            out = tmp_path / "gen.json"
            assert execute(["generator-check", *argv, "--out", str(out)]) == 0
            records.append(json.loads(out.read_text())["family"])
        assert records[0] == records[1]


#: a well-formed and a malformed value for each option type (None: no
#: value of the type is malformed)
_SAMPLES = {
    int: ("7", "1e3"),
    float: ("0.25", "nan"),
    str: ("abc", None),
    cli._time_grid: ("0:2:8", "1:2:4"),
    cli._linspace: ("-1:1:5", "1:-1:5"),
    cli._atoms: ("0.5:1,2:0.25", "1:x"),
    cli._threads: ("2", "0"),
}
#: options whose values a command checks itself
_KEY_SAMPLES = {"mode": ("event", "jump"), "family": ("gamma", "stable")}
_EVERY_OPTION = [
    (command, key, kind)
    for command, (_, options) in cli._OPTIONS.items()
    for key, (kind, _, _) in {**cli._SHARED, **options}.items()
]


def _typed(*argv):
    return _options(build_parser().parse_args(list(argv)))


@pytest.mark.parametrize(
    "command, key, kind", _EVERY_OPTION, ids=[f"{c} {k}" for c, k, _ in _EVERY_OPTION]
)
class TestOptionTable:
    """Each option is declared once: a flag and the config key of the same
    name convert alike, fail alike, and the help shows the default used."""

    def test_flag_and_config_agree(self, tmp_path, capsys, command, key, kind):
        good, bad = _KEY_SAMPLES.get(key, _SAMPLES[kind])
        try:  # the natural JSON form of the value, where there is one
            cfg_value = json.loads(good)
        except json.JSONDecodeError:
            cfg_value = good
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: cfg_value}))
        from_flag = _typed(command, f"--{key}={good}")[key]
        from_config = _typed(command, "--config", str(cfg))[key]
        assert type(from_flag) is type(from_config)
        assert np.array_equal(from_flag, from_config)
        if bad is None:
            return
        cfg.write_text(json.dumps({key: bad}))
        errors = []
        for argv in ([command, f"--{key}={bad}"], [command, "--config", str(cfg)]):
            assert execute(argv + ["--out" if command != "verify" else "--report",
                                   str(tmp_path / "out")]) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].startswith(f"error: bad value for {key}: {bad!r}")
        assert not (tmp_path / "out").exists()

    def test_help_shows_the_default_used(self, capsys, command, key, kind):
        assert execute([command, "--help"]) == 0
        lines = capsys.readouterr().out.splitlines()
        start = next(i for i, line in enumerate(lines) if line.startswith(f"  --{key} "))
        end = start + 1
        while end < len(lines) and lines[end].startswith("   "):  # continuation
            end += 1
        text = " ".join(" ".join(lines[start:end]).split())
        used = _typed(command)[key]
        if used is None:  # not set: the help says what happens then
            if key == "threads":
                assert text.endswith("(default one per CPU)")
                assert _chunks(20_000, used) == _chunks(20_000, os.cpu_count())
            return
        shown = re.search(r"\(default ([^ )]*)\)$", text).group(1)
        assert np.array_equal(_typed(command, f"--{key}={shown}")[key], used)


def test_every_option_has_a_type():
    # no value skips the one conversion
    rows = [cli._SHARED, *(options for _, options in cli._OPTIONS.values())]
    assert all(kind is not None for row in rows for kind, _, _ in row.values())


class TestConfigPrecedence:
    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "family": {"kind": "poisson"},
            "paths": 7,
            "grid": "0:1:2",
            "seed": 1,
            "out": str(tmp_path / "from_file.csv"),
        }))
        override = tmp_path / "override.csv"
        assert execute(["simulate", "--config", str(cfg), "--out", str(override)]) == 0
        assert override.exists()
        lines = override.read_text().splitlines()
        assert len(lines) == 1 + 7 * 3  # paths and grid taken from the file


#: doubles whose text form is easy to get wrong: both zeros, subnormals, the
#: edges of the normal range, tiny and huge magnitudes
_AWKWARD = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300,
            1.7976931348623157e308, 0.1, 1 / 3, -2.5e-17, 123456789.125]


class TestTableWriter:
    """The ``kernel`` and ``jump-times`` tables: one write per block of rows,
    the bytes of one f-string per row."""

    @pytest.mark.parametrize("rows", [1, 3, 7], ids=lambda r: f"block{r}")
    def test_bytes_match_per_row_form(self, tmp_path, monkeypatch, rows):
        monkeypatch.setattr(csvtext, "CSV_BLOCK", rows)  # a table of several blocks
        ys = np.array(_AWKWARD)
        dens = np.array(_AWKWARD[::-1])
        cli._write_table(str(tmp_path / "k.csv"), "y,density", ys, dens)
        want = "y,density\n" + "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(ys, dens))
        assert (tmp_path / "k.csv").read_bytes() == want.encode("ascii")
        cli._write_table(str(tmp_path / "j.csv"), "sample_id,first_jump_time",
                         np.arange(ys.size), ys)
        want = "sample_id,first_jump_time\n" + "".join(
            f"{i},{float(v)!r}\n" for i, v in enumerate(ys))
        assert (tmp_path / "j.csv").read_bytes() == want.encode("ascii")

    def test_memory_flat_in_row_count(self, tmp_path):
        # a block of rows is made into text at a time: 200,000 rows peak
        # near where 20,000 do
        peaks = []
        for n in (20_000, 200_000):
            ids, ys = np.arange(n), np.random.default_rng(1).standard_normal(n)
            tracemalloc.start()
            try:
                cli._write_table(str(tmp_path / "t.csv"), "sample_id,value", ids, ys)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 2 * peaks[0]

    def test_jump_times_table(self, tmp_path):
        out = tmp_path / "jt.csv"
        assert execute(["jump-times", "--family", "poisson", "--s", "1", "--n", "10000",
                        "--seed", "3", "--out", str(out),
                        "--report", str(tmp_path / "r.json")]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "sample_id,first_jump_time" and len(lines) == 10_001
        assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(10_000))
        assert all(float(line.split(",")[1]) > 1.0 for line in lines[1:])


class TestKernel:
    def test_table_and_sidecar(self, tmp_path):
        out = tmp_path / "dens.csv"
        code = execute(
            ["kernel", "--family", "poisson", "--s", "0.5", "--t", "2",
             "--x", "1", "--out", str(out)]
        )
        assert code == 0
        sidecar = json.loads((tmp_path / "dens.csv.json").read_text())
        assert sidecar["schema"] == "gaussmart/4"
        assert sidecar["stream_layout"] == 3
        assert sidecar["versions"] == {"gaussmart": __version__, "numpy": np.__version__,
                                       "scipy": scipy.__version__}
        assert sidecar["mass_check"] == pytest.approx(1.0, abs=1e-8)
        assert sidecar["moment_checks"]["k1"]["abs_error"] < 1e-8
        assert sidecar["moment_checks"]["k2"]["abs_error"] < 1e-8
        assert out.read_text().splitlines()[0] == "y,density"

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["--family", "poisson"],
             "f07b77d847442e247a8515ea0c82cf23a974ce6d7e75d85ba06e0d5c1f8d4d10"),
            (["--family", "gamma"],
             "31cdf9680e2330733bfc83b0f1d509f597e5d6913c75028020f55594959b4c4d"),
            (["--family", "compound", "--atoms", "0.5:1,2:0.25"],
             "e53c335b4550791bfb96dfe4f6ac1447b0465f13b8afb564357e5a749899f59e"),
            (["--family", "gamma", "--x", "0.7"],
             "79e5aa6f3dbdc52d30a1f61c171de584780447257f87e5cac8b121c8eea71c6f"),
            (["--family", "poisson", "--x", "-1.3", "--s", "1", "--t", "3"],
             "9fe05e24645533ddf58250ba75809e39537b2b0f2980dcf266edcff72bc77856"),
            (["--family", "compound", "--atoms", "0.5:1,2:0.25", "--y=-4:4:301"],
             "3ca125b5969efae11af7156ddab1ec2de6c13905e3b78d97e3aaf1934cd46cba"),
        ],
        ids=["poisson", "gamma", "compound", "gamma-x", "poisson-x", "compound-y"],
    )
    def test_golden_digests(self, tmp_path, argv, digest):
        """The same argv writes the same table bytes, release after release:
        a speed-up or a refactor of the transition-law evaluator that
        changes one has changed the densities."""
        out = tmp_path / "d.csv"
        assert execute(["kernel", *argv, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_start_from_zero(self, tmp_path):
        out = tmp_path / "d0.csv"
        code = execute(
            ["kernel", "--family", "gamma", "--s", "0", "--t", "1",
             "--x", "0", "--y=-4:4:101", "--out", str(out)]
        )
        assert code == 0
        sidecar = json.loads((tmp_path / "d0.csv.json").read_text())
        assert sidecar["atom_weight"] == 0.0
        assert sidecar["atom_location"] is None

    @pytest.mark.parametrize(
        "argv, tol",
        [
            (["--family", "poisson", "--x", "30"], 1e-8),
            (["--family", "poisson", "--x", "-30"], 1e-8),
            (["--family", "compound", "--atoms", "0.5:1,2:0.25", "--x", "30"], 1e-8),
            (["--family", "compound", "--atoms", "0.5:1,2:0.25", "--x", "-30"], 1e-8),
            (["--family", "gamma", "--b", "1", "--x", "30"], 1e-7),
            (["--family", "gamma", "--b", "1", "--s", "0", "--x", "30"], 1e-8),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else f"{v:g}",
    )
    def test_default_grid_holds_the_mass(self, tmp_path, argv, tol):
        # the continuous part lies between 0 and the atom at sigma x (from
        # s = 0 the law is N(x, t)), so the default grid spans both
        out = tmp_path / "d.csv"
        assert execute(["kernel", *argv, "--out", str(out)]) == 0
        sidecar = json.loads((tmp_path / "d.csv.json").read_text())
        assert sidecar["mass_check"] == pytest.approx(1.0, abs=tol)

    def test_sidecar_records_the_lattice(self, tmp_path):
        out = tmp_path / "d.csv"
        assert execute(["kernel", "--family", "compound", "--atoms", "0.5:1,2:0.25",
                        "--out", str(out)]) == 0
        method = json.loads((tmp_path / "d.csv.json").read_text())["method"]
        assert method["method"] == "finite-atom-mixture"
        assert method["lattice"] == "exact" and method["h"] == 0.5
        assert method["rounding_bound"] == 0.0
        assert method["components"] == 47 and method["tail"] <= 1e-12

    @pytest.mark.usefixtures("time_limit")
    @pytest.mark.parametrize(
        "argv",
        [
            ["--atoms", "0.01:1", "--s", "1e-150", "--t", "1e150"],
            ["--atoms", ",".join(f"0.0{i}:1" for i in range(1, 9)), "--s", "1", "--t", "1e160"],
            ["--atoms", ",".join(f"{0.01 * i:.2f}:1" for i in range(1, 13))],
        ],
        ids=["one-atom-1e300", "eight-atoms-1e160", "twelve-atoms"],
    )
    def test_finite_atom_laws_in_reach(self, tmp_path, argv):
        # counts of mean 138,000 and 1,000 or so: each count's window starts
        # at its own lower quantile, so the point budget pays for the window
        # only, not for the empty points below it; and from 10 atoms on,
        # each count's 1 - q quantile would be taken at 1 - q = 1.0
        out = tmp_path / "d.csv"
        assert execute(["kernel", "--family", "compound", *argv, "--out", str(out)]) == 0
        sidecar = json.loads((tmp_path / "d.csv.json").read_text())
        assert sidecar["mass_check"] == pytest.approx(1.0, abs=1e-8)
        assert sidecar["method"]["lattice"] == "exact" and sidecar["method"]["tail"] <= 1e-12

    def test_atoms_on_no_lattice_exit_three(self, tmp_path, capsys):
        argv = ["kernel", "--family", "compound", "--atoms", "1:1,1.000001:1",
                "--out", str(tmp_path / "d.csv")]
        assert execute(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: the law of the atoms ((1.0, ")
        assert "(1.000001, " in err
        # neither a table nor a sidecar
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("n", [2, 3, 4, 2001, 2002])
    def test_mass_check_is_simpson(self, tmp_path, n):
        # the sidecar's uniform Simpson weights against scipy's, which reads
        # the grid's own spacings; two nodes take the trapezoid
        out = tmp_path / "d.csv"
        assert execute(["kernel", "--family", "gamma", f"--y=-3:4:{n}", "--out", str(out)]) == 0
        table = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        sidecar = json.loads((tmp_path / "d.csv.json").read_text())
        expected = sidecar["atom_weight"] + simpson(table[:, 1], x=table[:, 0])
        assert sidecar["mass_check"] == pytest.approx(expected, rel=1e-14)

    def test_two_point_grid(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        assert execute(["kernel", "--y=-1:1:2", "--out", str(out)]) == 0
        assert "mass 0.552330554005," in capsys.readouterr().out
        assert len(out.read_text().splitlines()) == 3

    def test_default_grid_at_zero(self, tmp_path):
        out = tmp_path / "d.csv"
        assert execute(["kernel", "--out", str(out)]) == 0
        ys = [float(line.split(",")[0]) for line in out.read_text().splitlines()[1:]]
        half = 10 * math.sqrt(2.0)  # the default t = 2
        assert ys == np.linspace(-half, half, 2001).tolist()


class TestGeneratorCheck:
    def test_gamma_x2(self, tmp_path, capsys):
        out = tmp_path / "gen.json"
        code = execute(
            ["generator-check", "--family", "gamma", "--b", "1", "--s", "1",
             "--x", "0.8", "--f", "x2", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["relative_error"] < 1e-6
        assert payload["family"]["kind"] == "gamma" and payload["family"]["calibrated"]
        assert "h" not in payload and "difference_quotient" not in payload
        assert payload["reference"] == pytest.approx(payload["closed_form"], rel=1e-6)

    def test_coefficient_list(self, tmp_path):
        out = tmp_path / "gen2.json"
        code = execute(
            ["generator-check", "--family", "poisson", "--f", "0,0,1,1",
             "--out", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["relative_error"] < 1e-10

    def test_degree_five(self, tmp_path):
        out = tmp_path / "gen5.json"
        assert execute(["generator-check", "--family", "poisson", "--f", "0,0,0,0,0,1",
                        "--out", str(out)]) == 0
        assert json.loads(out.read_text())["relative_error"] < 1e-10

    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_removed_step_refused(self, tmp_path, capsys, how):
        # the exact reference has no step: --h is neither read as --help
        # nor ignored
        if how == "flag":
            argv = ["--h", "0.02"]
        else:
            (tmp_path / "cfg.json").write_text('{"h": 0.02}')
            argv = ["--config", str(tmp_path / "cfg.json")]
        out = tmp_path / "gen.json"
        assert execute(["generator-check", *argv, "--out", str(out)]) == 2
        assert "error" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_polynomial_spec(self):
        assert execute(["generator-check", "--family", "poisson", "--f", "xx"]) == 2


class TestVerifyAndJumpTimes:
    def test_verify_small_run_exit_zero(self, tmp_path):
        report = tmp_path / "rep.json"
        code = execute(
            ["verify", "--family", "poisson", "--paths", "100000",
             "--qv-paths", "2000", "--jumps", "100000", "--mode-paths", "10000",
             "--seed", "7", "--report", str(report)]
        )
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["schema"] == "gaussmart/4"
        assert payload["stream_layout"] == 3
        assert payload["versions"] == {"gaussmart": __version__, "numpy": np.__version__,
                                       "scipy": scipy.__version__}
        fam = calibrate(poisson_family())
        assert payload["family"]["kind"] == "compound"
        assert payload["family"]["atoms"] == [list(a) for a in fam.atoms]
        names = {r["test_name"] for r in payload["reports"]}
        assert {
            "gaussian_marginal", "martingale_binned", "cross_moment",
            "conditional_kurtosis", "quadratic_variation", "jump_times",
            "mode_agreement", "continuity_in_probability",
        } <= names
        assert all(r["passed"] for r in payload["reports"])

    @pytest.mark.parametrize("qv_paths", ["0", "1"])
    def test_verify_too_few_qv_paths_exits_two(self, tmp_path, capsys, qv_paths):
        code = execute(["verify", "--family", "brownian", "--paths", "1000",
                        "--qv-paths", qv_paths, "--report", str(tmp_path / "r.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("flag, size", [("--jumps", "5000"), ("--mode-paths", "100")])
    def test_verify_too_small_size_exits_two_at_once(self, tmp_path, capsys, monkeypatch,
                                                     flag, size):
        # refused before the battery simulates anything
        from gaussmart import verify

        def must_not_run(*args, **kwargs):
            raise AssertionError("simulated before the sizes were checked")

        monkeypatch.setattr(verify, "simulate_grid_ensemble", must_not_run)
        monkeypatch.setattr(verify, "transition_pairs", must_not_run)
        code = execute(["verify", "--family", "poisson", flag, size,
                        "--report", str(tmp_path / "r.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "r.json").exists()

    def test_verify_report_deterministic(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        args = ["verify", "--family", "brownian", "--paths", "100000",
                "--qv-paths", "500", "--seed", "3", "--report"]
        assert execute(args + [str(a)]) == 0
        assert execute(args + [str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_jump_times_subcommand(self, tmp_path):
        out = tmp_path / "jumps.csv"
        report = tmp_path / "jumps.json"
        code = execute(
            ["jump-times", "--family", "poisson", "--s", "1", "--n", "100000",
             "--seed", "2", "--out", str(out), "--report", str(report)]
        )
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["report"]["passed"]
        assert out.read_text().splitlines()[0] == "sample_id,first_jump_time"

    def test_jump_times_compound(self, tmp_path):
        report = tmp_path / "jumps.json"
        code = execute(
            ["jump-times", "--family", "compound", "--atoms", "0.5:1,2:0.25",
             "--n", "100000", "--seed", "3", "--report", str(report)]
        )
        assert code == 0
        assert json.loads(report.read_text())["report"]["reference"] == "pareto(s, nu/2)"

    def test_jump_times_non_poisson_usage_error(self):
        assert execute(["jump-times", "--family", "gamma", "--n", "20000"]) == 2


#: run in a fresh interpreter: which of scipy's heavy modules each step loads
_IMPORT_PROBE = """
import json, sys
import gaussmart
from gaussmart.cli import execute

def heavy():
    return sorted(m for m in ("scipy.stats", "scipy.integrate") if m in sys.modules)

seen = {"import gaussmart": [0, heavy()]}
runs = {
    "simulate grid": ["simulate", "--paths", "4", "--grid", "0:1:4", "--out", "g.csv"],
    "simulate event": ["simulate", "--mode", "event", "--paths", "4", "--out", "e.csv"],
    "kernel poisson": ["kernel", "--family", "poisson", "--y=-3:3:21", "--out", "p.csv"],
    "kernel gamma": ["kernel", "--family", "gamma", "--y=-3:3:21", "--out", "g.csv"],
    "kernel compound": ["kernel", "--family", "compound", "--atoms", "0.5:1,2:0.25",
                        "--y=-3:3:21", "--out", "c.csv"],
    "generator-check": ["generator-check", "--family", "gamma", "--out", "gen.json"],
    "jump-times": ["jump-times", "--n", "10000", "--report", "j.json"],
}
for name, argv in runs.items():
    seen[name] = [execute(argv), heavy()]
print(json.dumps(seen))
"""


class TestStartup:
    @pytest.mark.usefixtures("time_limit")
    def test_only_the_ks_gates_load_scipy_stats(self, tmp_path):
        # scipy.stats and scipy.integrate would double the package's start-up;
        # the KS gates import scipy.stats on their first call, so jump-times
        # loads it and nothing before it does
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cli.__file__))
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], cwd=tmp_path, env=env,
                              capture_output=True, text=True, check=True)
        seen = json.loads(proc.stdout.splitlines()[-1])
        code, loaded = seen.pop("jump-times")  # scipy.stats brings scipy.integrate
        assert code == 0 and "scipy.stats" in loaded
        assert seen == {name: [0, []] for name in seen}
        assert len(seen) == 7
