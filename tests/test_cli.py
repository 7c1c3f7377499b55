import functools
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import hypercut
from hypercut import mixing, modular
from hypercut.cli import _COMMANDS, main
from hypercut.covers import synthetic_density_budget
from hypercut.errors import ConfigError
from hypercut.geometry import log_sphere_step_arrays
from hypercut.walks import BLOCK, WalkConfig, stream, walk_discrete


def csv_body(path):
    with open(path) as fh:
        return [line for line in fh if not line.startswith("#")]


def strict_json(text):
    """json.loads that refuses NaN and ±Infinity, which are not JSON."""
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=refuse)


def run(args, tmp_path, name=None):
    code = main(args + ["--out", str(tmp_path)])
    return code


class TestSubcommands:
    def test_constants(self, tmp_path):
        assert run(["constants", "--r1", "1.0"], tmp_path) == 0
        payload = strict_json((tmp_path / "constants.json").read_text())
        assert payload["alpha"] == pytest.approx(0.2402290139, abs=1e-9)
        assert "config_hash" in payload["meta"]

    def test_spherical_no_violations(self, tmp_path):
        assert run(["spherical", "--r", "2.0", "--s-max", "10"],
                   tmp_path) == 0
        body = csv_body(tmp_path / "spherical.csv")
        assert body[0].strip() == "s,phi,bound"
        assert len(body) == 202

    def test_mixture_and_heat(self, tmp_path):
        assert run(["mixture", "--k", "2", "--r1", "0.5"], tmp_path) == 0
        assert run(["heat", "--t", "1.0"], tmp_path) == 0
        assert (tmp_path / "mixture.csv").exists()
        assert (tmp_path / "heat.csv").exists()

    def test_walk_reports(self, tmp_path):
        assert run(["walk", "--r1", "1.0", "--k", "8", "--n", "2000",
                    "--seed", "3", "--workers", "1"], tmp_path) == 0
        payload = strict_json((tmp_path / "walk.json").read_text())
        assert payload["config"]["k"] == 8
        assert "tail_checks" not in payload
        assert len(csv_body(tmp_path / "walk_steps.csv")) == 9

    def test_walk_zero_steps(self, tmp_path):
        assert run(["walk", "--k", "0", "--n", "100", "--workers", "1"],
                   tmp_path) == 0
        assert csv_body(tmp_path / "walk_steps.csv") == [
            "step,mean_lny,var_lny,mean_dist,var_dist\n"]

    def test_walk_tail_checks(self, tmp_path):
        assert run(["walk", "--r1", "1.0", "--k", "8", "--n", "2000",
                    "--seed", "3", "--workers", "1", "--run-tail-checks"],
                   tmp_path) == 0
        payload = strict_json((tmp_path / "walk.json").read_text())
        assert sorted(payload["tail_checks"]) == ["distance", "log_height",
                                                  "x_squared"]

    def test_tv_csv(self, tmp_path):
        assert run(["tv", "--q", "2", "--r1", "1.0", "--n", "20000",
                    "--k-max", "6", "--seed", "1", "--workers", "2"],
                   tmp_path) == 0
        body = csv_body(tmp_path / "tv.csv")
        assert body[0].strip() == "k,tv,ci_lo,ci_hi"
        assert len(body) == 8

    def test_distances_and_concentration(self, tmp_path):
        assert run(["distances", "--q", "2", "--n", "4000", "--r-max",
                    "8.0", "--seed", "2"], tmp_path) == 0
        report = strict_json(
            (tmp_path / "distances_report.json").read_text())
        assert report["R_X"] == pytest.approx(1.316957, abs=1e-5)
        assert run(["concentration", "--q", "2", "--n", "12000", "--r-max",
                    "8.0", "--seed", "2"], tmp_path) == 0
        rep = strict_json((tmp_path / "concentration.json").read_text())
        assert rep["r_med"] > 0

    def test_distances_radius_finite_past_level_7(self, tmp_path):
        # the start point's radius at level 8 is asinh(4), found at any
        # r_max
        assert run(["distances", "--q", "8", "--n", "300", "--r-max", "9.7"],
                   tmp_path) == 0
        report = strict_json(
            (tmp_path / "distances_report.json").read_text())
        assert report["injectivity_radius"] == pytest.approx(
            math.asinh(4.0), abs=1e-12)

    def test_isoperimetry(self, tmp_path):
        assert run(["isoperimetry", "--q", "2", "--r", "0.5", "--p", "4.0",
                    "--r0", "0.6", "--n", "4000", "--seed", "4"],
                   tmp_path) == 0
        rep = strict_json((tmp_path / "isoperimetry.json").read_text())
        assert rep["passes"] or rep["inconclusive"]

    def test_isoperimetry_dilation_up_to_the_enumeration_cap(self, tmp_path,
                                                             capsys):
        argv = ["isoperimetry", "--q", "2", "--r0", "0.5", "--n", "2000",
                "--out", str(tmp_path)]
        assert main(argv + ["--r", "6"]) == 0
        assert main(argv + ["--r", "12"]) == 3
        err = capsys.readouterr().err
        assert re.search(r"enumeration bound 1\d\.\d+ exceeds cap 14\.5", err)

    def test_isoperimetry_refusal_does_not_depend_on_the_sample(
            self, tmp_path, capsys):
        errors = []
        for n in ("500", "2000"):
            assert main(["isoperimetry", "--q", "2", "--r0", "0.5", "--r",
                         "12", "--n", n, "--out", str(tmp_path)]) == 3
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert "enumeration bound 15.901 exceeds cap 14.5" in errors[0]
        assert list(tmp_path.iterdir()) == []

    def test_density_families(self, tmp_path):
        assert run(["density"], tmp_path) == 0
        body = csv_body(tmp_path / "density.csv")
        assert body[0].strip() == "N_q,req0,req_integral,req_limit"
        assert len(body) == 5

    def test_density_budget_files_match_the_synthetic_family(self, tmp_path):
        # one labelled file per default cover degree reproduces the
        # default run's body byte for byte
        ns = _COMMANDS["density"][1]["n_values"][1].split(",")
        paths = []
        for n in ns:
            budget = synthetic_density_budget(int(n))
            path = tmp_path / f"budget_{n}.json"
            path.write_text(json.dumps({
                "label": f"synthetic {n}", "N": budget.n_cover,
                "entries": [{"p": p, "m": m} for p, m in budget.entries]}))
            paths.append(str(path))
        assert run(["density"], tmp_path / "default") == 0
        assert run(["density", "--budget-files", ",".join(paths)],
                   tmp_path / "files") == 0
        assert csv_body(tmp_path / "files" / "density.csv") == \
            csv_body(tmp_path / "default" / "density.csv")

    def test_torus_row_and_profile(self, tmp_path):
        assert run(["torus", "--lam", "1.0", "--t", "5.0", "--no-cutoff",
                    "--T-grid", "1,2"], tmp_path) == 0
        row = csv_body(tmp_path / "torus.csv")[1].split(",")
        l1, lo, hi = float(row[2]), float(row[3]), float(row[4])
        assert lo < l1 < hi
        assert (tmp_path / "torus_profile.csv").exists()

    def test_torus_prints_the_row_and_its_bounds(self, tmp_path, capsys):
        assert run(["torus"], tmp_path) == 0
        assert capsys.readouterr().out == \
            "l1=0.00857902 in [0.00673795, 0.00952911]\n"

    def test_cover_file(self, tmp_path):
        assert run(["cover", "--n", "6", "--seed", "9"], tmp_path) == 0
        payload = strict_json((tmp_path / "cover.json").read_text())
        assert sorted(payload["sigma_A"]) == list(range(6))
        assert sorted(payload["sigma_B"]) == list(range(6))


class TestExitCodes:
    def test_usage_error(self, tmp_path, capsys):
        assert main(["not-a-command"]) == 1

    def test_config_error_unknown_key(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert main(["constants", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("command,loaded", [
        ("tv", {"k_max": "5"}), ("constants", {"r1": "1.0"}),
        ("constants", 5), ("cover", {"n": 2.5})])
    def test_config_of_the_wrong_type_is_config_error(self, tmp_path, capsys,
                                                      command, loaded):
        cfg, out = tmp_path / "bad.json", tmp_path / "out"
        cfg.write_text(json.dumps(loaded))
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name,reason", [("missing.json", "No such file"),
                                             (".", "Is a directory")])
    def test_unreadable_config_is_config_error(self, tmp_path, capsys, name,
                                               reason):
        out = tmp_path / "out"
        assert main(["constants", "--config", str(tmp_path / name),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and reason in err
        assert not out.exists()

    def test_config_error_bad_value(self, tmp_path):
        assert main(["constants", "--r1", "-3.0",
                     "--out", str(tmp_path)]) == 2

    def test_capacity_error(self, tmp_path):
        assert main(["distances", "--q", "2", "--n", "50", "--r-max",
                     "13.5", "--seed", "0", "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize("r_max", ["inf", "nan"])
    def test_non_finite_distance_cap_is_config_error(self, tmp_path, r_max):
        # the enumeration bound it asks for is non-finite
        assert main(["distances", "--q", "2", "--n", "50", "--r-max",
                     r_max, "--seed", "0", "--out", str(tmp_path)]) == 2

    def test_numeric_error(self, tmp_path):
        assert main(["heat", "--t", "0.0001", "--out", str(tmp_path)]) == 4

    @pytest.mark.parametrize("flag,value", [("--n-boot", "0"), ("--n", "0")])
    def test_tv_bad_counts_are_config_errors(self, tmp_path, capsys, flag,
                                             value):
        assert main(["tv", "--q", "2", "--k-max", "2", "--n", "1000",
                     flag, value, "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_tv_k_max_zero_profiles_the_start_only(self, tmp_path):
        assert main(["tv", "--q", "2", "--k-max", "0", "--n", "1000",
                     "--out", str(tmp_path)]) == 0
        body = csv_body(tmp_path / "tv.csv")
        assert [row.split(",")[0] for row in body] == ["k", "0"]
        config = json.loads((tmp_path / "tv_config.json").read_text())
        assert config["k_max"] == 0

    def test_tv_negative_k_max_is_config_error(self, tmp_path, capsys):
        assert main(["tv", "--q", "2", "--k-max", "-3", "--n", "1000",
                     "--out", str(tmp_path)]) == 2
        assert "k_max" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags,env", [(["--workers", "0"], None),
                                           (["--workers", "-1"], None),
                                           ([], "0")])
    def test_workers_below_one_are_config_errors(self, tmp_path, capsys,
                                                 monkeypatch, flags, env):
        if env is not None:
            monkeypatch.setenv("HYPERCUT_WORKERS", env)
        assert main(["walk", "--k", "2", "--n", "100", *flags,
                     "--out", str(tmp_path)]) == 2
        assert "at least one worker" in capsys.readouterr().err

    def test_worker_count_checked_only_where_used(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.setenv("HYPERCUT_WORKERS", "0")
        assert main(["constants", "--r1", "1.0", "--out", str(tmp_path)]) == 0

    def test_every_numeric_option_at_zero_and_minus_one(self, tmp_path,
                                                        capsys):
        # each int or float option but the seed, alone at 0 and at -1: an
        # exit code of the contract, never an escaped exception
        codes, errors = {}, {}
        for command, (_, options) in _COMMANDS.items():
            for key, (typ, _, _) in options.items():
                if typ not in (int, float) or key == "seed":
                    continue
                for value in ("0", "-1"):
                    case = (command, key, value)
                    try:
                        codes[case] = main([
                            command, f"--{key.replace('_', '-')}", value,
                            "--workers", "1", "--out", str(tmp_path)])
                    except Exception as exc:
                        codes[case] = type(exc).__name__
                    errors[case] = capsys.readouterr().err
        assert {case: code for case, code in codes.items()
                if code not in (0, 2, 3, 4)} == {}
        for case in [("spherical", "s_step", "0"),
                     ("spherical", "s_step", "-1"),
                     ("spherical", "s_max", "-1"), ("distances", "n", "0"),
                     ("concentration", "n", "0"), ("isoperimetry", "n", "0"),
                     ("isoperimetry", "p", "0"), ("isoperimetry", "p", "-1"),
                     ("isoperimetry", "r", "-1"), ("isoperimetry", "r0", "0"),
                     ("tv", "q", "0"), ("tv", "q", "-1")]:
            assert codes[case] == 2, case
            assert errors[case].startswith("config error: ")
            assert errors[case].count("\n") == 1, case
        for case in [("tv", "q", "0"), ("tv", "q", "-1"),
                     ("distances", "q", "-1")]:
            assert errors[case] == "config error: modulus must be >= 1\n", \
                case

    @pytest.mark.parametrize("argv,code", [
        (["density", "--family", "foo"], 2), (["torus", "--t", "40"], 4),
        (["tv", "--q", "2", "--cusp-cap", "nan", "--k-max", "1"], 2),
        (["tv", "--q", "2", "--cusp-cap", "inf", "--n", "100", "--k-max",
          "1"], 2),
        (["distances", "--q", "2", "--cusp-cap", "inf"], 2)])
    def test_refused_inputs_print_one_line(self, tmp_path, capsys, argv,
                                           code):
        assert main(argv + ["--out", str(tmp_path)]) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("text,reason", [
        (None, "cannot read budget file"),
        ('{"N": 10}', "'entries'"),
        ('{"entries": [{"p": 3.0, "m": 1}]}', "'N'"),
        ('{"N": 10.9, "entries": [{"p": 3.0, "m": 2.7}]}', "[10.9, 2.7]"),
        ('{"N": 10, "entries": [{"p": 3.0, "m": true}]}', "[True]"),
        ('{"N": 10.9, "entries": [{"p": 3.0, "m": 2}]}', "[10.9]"),
        ('{"N": 10, "entries": [{"p": "3.0", "m": 2}]}', "['3.0']")])
    def test_bad_budget_file_is_config_error(self, tmp_path, capsys, text,
                                             reason):
        budget, out = tmp_path / "budget.json", tmp_path / "out"
        if text is not None:
            budget.write_text(text)
        assert main(["density", "--budget-files", str(budget),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and reason in err
        assert repr(str(budget)) in err and err.count("\n") == 1
        assert not out.exists()

    def test_non_finite_budget_exponent_is_config_error(self, tmp_path,
                                                        capsys):
        # Python's json reads the non-standard NaN; the requirement rows
        # would read nan
        paths = []
        for n in (10, 100, 1000):
            paths.append(tmp_path / f"budget_{n}.json")
            paths[-1].write_text(
                '{"N": %d, "entries": [{"p": NaN, "m": 2}]}' % n)
        out = tmp_path / "out"
        assert main(["density", "--budget-files",
                     ",".join(map(str, paths)), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "finite" in err
        assert not out.exists()

    def test_tv_walker_state_over_cap_is_capacity_error(self, tmp_path):
        assert main(["tv", "--q", "2", "--k-max", "2", "--n", "50000000",
                     "--out", str(tmp_path)]) == 3

    def test_tv_histograms_over_cap_is_capacity_error(self, tmp_path,
                                                      monkeypatch):
        # 1000 walkers take 24 kB; the 1890 cells' histograms and bootstrap
        # chunks do not fit in 1 MB
        monkeypatch.setattr(mixing, "TV_STATE_CAP_BYTES", 1 << 20)
        assert main(["tv", "--q", "2", "--k-max", "2", "--n", "1000",
                     "--out", str(tmp_path)]) == 3
        assert not (tmp_path / "tv.csv").exists()

    @pytest.mark.parametrize("argv,reason", [
        (["--q", "101", "--n", "1000"], "over the cap"),
        (["--q", "102"], "outside supported range [1, 101]")])
    def test_tv_capacity_gate_builds_nothing(self, tmp_path, capsys,
                                             monkeypatch, argv, reason):
        # no cover-group context and no enumeration is built before the
        # refusal; fresh caches keep an earlier build from hiding one
        def refuse(self, *args):
            raise AssertionError(f"built a {type(self).__name__}")

        for cls in (modular.ModQContext, modular.PSLZEnumeration):
            monkeypatch.setattr(cls, "__init__", refuse)
        fresh = functools.lru_cache(maxsize=16)(modular.ModQContext)
        monkeypatch.setattr(modular, "modq_context", fresh)
        monkeypatch.setattr(mixing, "modq_context", fresh)
        monkeypatch.setattr(modular, "_enumeration", functools.lru_cache(
            maxsize=8)(modular._enumeration.__wrapped__))
        assert main(["tv", *argv, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("capacity error: ") and reason in err
        assert list(tmp_path.iterdir()) == []


def scipy_modules_after(code, *args):
    """The scipy modules loaded once ``code`` has run in a fresh
    interpreter with ``args`` as its sys.argv[1:]."""
    code += ("; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'scipy'))")
    src = os.path.dirname(os.path.dirname(hypercut.__file__))
    done = subprocess.run([sys.executable, "-c", code, *args], check=True,
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    return done.stdout.strip().splitlines()[-1]


class TestColdStart:
    def test_cli_import_loads_no_scipy(self):
        # scipy is imported where it is used, so subcommands that never
        # reach it do not pay for loading it
        assert scipy_modules_after("import sys, hypercut.cli") == "[]"

    def test_torus_loads_no_scipy(self, tmp_path):
        # the torus step's root finder and quadrature rule are the
        # package's own
        code = ("import sys; from hypercut.cli import main; "
                "assert main(['torus', '--no-cutoff', '--out', sys.argv[1]]) "
                "== 0")
        assert scipy_modules_after(code, str(tmp_path)) == "[]"


class TestBenchmarkHooks:
    def test_traced_benchmark_finds_every_wrapped_function(self):
        # perfbench/layers.py wraps hypercut functions by name; a rename
        # makes the traced benchmark run fail before it measures anything
        done = benchmark_child(
            "import layers, tracing; layers.instrument(tracing.Tracer())")
        assert done.returncode == 0, done.stderr

    def test_traced_spans_give_the_enumeration_metrics(self):
        # the wrapped enumeration, labelling, pair query and block map
        # run under the tracer, its attribute readers (enum.size,
        # enum.bound) and the tracemalloc replay of the build included,
        # and the layer metrics read back what was run
        done = benchmark_child(TRACED_CHILD)
        assert done.returncode == 0, done.stderr


def benchmark_child(code):
    """Run ``code`` in a child process with src/ and perfbench/
    importable."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.pathsep.join(os.path.join(root, d)
                           for d in ("src", "perfbench"))
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))


TRACED_CHILD = """
import layers, tracing
tracer = tracing.Tracer()
layers.instrument(tracer)
from hypercut import quadrature
from hypercut.modular import get_enumeration, quotient_distance_pairs
enum = get_enumeration(3.0)
enum.coset_labels(2)
quotient_distance_pairs(2, [0.1], [1.5], [0], [0.2], [2.0], [1], 1.0,
                        enum=enum)
assert quadrature.map_blocks(abs, [-1, -2, -3], workers=2) == [1, 2, 3]
layers.replay_enumerations(tracer)
got = {name.split(".", 1)[1]: m["value"] for name, m in
       layers.layer_metrics("geometry_build", tracer.spans).items()}
assert got["modular.enum_builds"] == 1, got
assert got["modular.enum_elements"] == enum.size, got
for name in ("enum_elements_per_s", "coset_labels_elements_per_s",
             "enum_peak_mb", "distance_pairs_per_s"):
    assert got["modular." + name] > 0, got
assert layers.SpanView(tracer.spans).parallel_efficiency() > 0
"""


# Reference copy of the trajectory dump as it was before walk_discrete kept
# the paths itself: block 0's direction stream replayed by hand.  The dumped
# rows must give the same bits.
def reference_trajectory_rows(wcfg, n_dump):
    rows = []
    x = np.full(n_dump, 0.0)
    lny = np.full(n_dump, 0.0)
    rng = stream(wcfg.seed, tag=1, block=0)
    block_n = min(BLOCK, wcfg.n_walkers)
    for w in range(n_dump):
        rows.append((w, 0, float(x[w]), float(np.exp(lny[w]))))
    for step in range(1, wcfg.k + 1):
        theta = rng.uniform(0.0, math.pi, block_n)[:n_dump]
        x, lny = log_sphere_step_arrays(x, lny, wcfg.r1, theta)
        for w in range(n_dump):
            rows.append((w, step, float(x[w]), float(np.exp(lny[w]))))
    rows.sort(key=lambda r: (r[0], r[1]))
    return rows


def dumped_rows(wcfg, n_dump, workers, out):
    assert main(["walk", "--r1", repr(wcfg.r1), "--k", str(wcfg.k),
                 "--n", str(wcfg.n_walkers), "--seed", str(wcfg.seed),
                 "--trajectories", str(n_dump), "--workers", str(workers),
                 "--out", str(out)]) == 0
    body = csv_body(out / "walk_trajectories.csv")
    assert body[0].strip() == "walker,step,x,y"
    return np.array([[float(v) for v in line.split(",")]
                     for line in body[1:]])


class TestTrajectoryDump:
    def test_last_step_matches_walk_discrete(self, tmp_path):
        # a second block makes sure the dump is block 0 of the same run
        wcfg = WalkConfig(r1=1.0, k=7, n_walkers=BLOCK + 500, seed=13)
        n_dump = 40
        rows = dumped_rows(wcfg, n_dump, 2, tmp_path)
        last = rows[rows[:, 1] == wcfg.k]
        assert np.array_equal(last[:, 0], np.arange(n_dump))
        stats = walk_discrete(wcfg, workers=2)
        assert np.array_equal(last[:, 2], stats.final_x[:n_dump])
        assert np.array_equal(
            last[:, 3], [float(np.exp(v)) for v in stats.final_lny[:n_dump]])

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("k, n, n_dump", [(7, BLOCK + 500, 40),
                                              (200, 50_000, 32)])
    def test_paths_match_reference(self, tmp_path, workers, k, n, n_dump):
        wcfg = WalkConfig(r1=1.0, k=k, n_walkers=n, seed=13)
        assert np.array_equal(dumped_rows(wcfg, n_dump, workers, tmp_path),
                              np.array(reference_trajectory_rows(wcfg,
                                                                 n_dump)))

    def test_paths_beyond_block_zero_refused(self):
        wcfg = WalkConfig(r1=1.0, k=3, n_walkers=100, seed=0)
        with pytest.raises(ConfigError):
            walk_discrete(wcfg, paths=101)
        with pytest.raises(ConfigError):
            walk_discrete(wcfg, paths=-1)


class TestDeterminism:
    def test_rerun_and_worker_count_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out, workers in ((a, "1"), (b, "3")):
            out.mkdir()
            assert main(["tv", "--q", "2", "--r1", "1.0", "--n", "20000",
                         "--k-max", "5", "--seed", "7", "--workers", workers,
                         "--out", str(out)]) == 0
        assert csv_body(a / "tv.csv") == csv_body(b / "tv.csv")

    @pytest.mark.parametrize("argv,name", [(["mixture", "--k", "6"],
                                            "mixture.csv"),
                                           (["heat", "--t", "4"], "heat.csv")])
    def test_radial_tables_at_any_worker_count(self, tmp_path, argv, name):
        bodies = []
        for workers in ("1", "3"):
            out = tmp_path / workers
            assert main(argv + ["--workers", workers, "--out", str(out)]) == 0
            bodies.append(csv_body(out / name))
        assert bodies[0] == bodies[1]

    @pytest.mark.parametrize("argv", [
        ["spherical", "--r", "8"], ["spherical", "--r", "2"],
        ["mixture", "--k", "6"], ["mixture", "--k", "4", "--r1", "2.5"],
        ["heat", "--t", "4"], ["heat", "--t", "0.05"]],
        ids=["spherical-r8", "spherical-r2", "mixture-k6", "mixture-k4-r2.5",
             "heat-t4", "heat-t0.05"])
    def test_kernel_tables_at_any_blas_thread_count(self, tmp_path, argv):
        # every (rows x nodes) kernel reduces by products 4 rows wide, which
        # OpenBLAS does not split across its own threads
        src = os.path.dirname(os.path.dirname(hypercut.__file__))
        bodies = {}
        for blas in ("1", "2", "3"):
            out = tmp_path / blas
            env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS=blas,
                       OPENBLAS_NUM_THREADS=blas, MKL_NUM_THREADS=blas)
            subprocess.run([sys.executable, "-m", "hypercut.cli", *argv,
                            "--workers", "2", "--out", str(out)],
                           env=env, check=True, capture_output=True)
            bodies[blas] = csv_body(out / f"{argv[0]}.csv")
        assert bodies["2"] == bodies["1"]
        assert bodies["3"] == bodies["1"]

    def test_emitted_config_round_trip(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir(), b.mkdir()
        assert main(["walk", "--r1", "0.8", "--k", "6", "--n", "3000",
                     "--seed", "11", "--workers", "1",
                     "--out", str(a)]) == 0
        cfg = a / "walk_config.json"
        assert main(["walk", "--config", str(cfg), "--workers", "2",
                     "--out", str(b)]) == 0
        assert csv_body(a / "walk_steps.csv") == csv_body(b / "walk_steps.csv")

    def test_env_worker_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HYPERCUT_WORKERS", "2")
        assert run(["walk", "--r1", "1.0", "--k", "3", "--n", "1000",
                    "--seed", "0"], tmp_path) == 0


# A small config of every subcommand, touching each kind of artifact it
# writes; tv leaves k_max to the default so that its rewrite is recorded.
SMALL = {
    "constants": ["--r1", "0.7"],
    "spherical": ["--r", "2.0", "--s-max", "5"],
    "mixture": ["--k", "2", "--r1", "0.5"],
    "heat": ["--t", "1.0"],
    "walk": ["--k", "4", "--n", "500", "--seed", "5", "--trajectories", "3",
             "--run-clt-check"],
    "tv": ["--q", "2", "--n", "2000", "--n-boot", "20", "--seed", "3"],
    "distances": ["--q", "2", "--n", "500", "--seed", "2"],
    "concentration": ["--q", "2", "--n", "10000", "--seed", "2"],
    "isoperimetry": ["--q", "2", "--r", "0.5", "--r0", "0.6", "--n", "500",
                     "--seed", "4"],
    "density": ["--n-values", "1000,10000,100000"],
    "torus": ["--t-grid", "1,2", "--no-cutoff", "--T-grid", "1,2"],
    "cover": ["--n", "7", "--seed", "9"],
}


def artifact(path):
    """A CSV body, or a JSON document without its meta."""
    if path.suffix == ".csv":
        return csv_body(path)
    doc = json.loads(path.read_text())
    doc.pop("meta", None)
    return doc


class TestContract:
    @pytest.mark.parametrize("command", sorted(SMALL))
    def test_rerun_from_emitted_config(self, tmp_path, command):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main([command, *SMALL[command], "--workers", "1",
                     "--out", str(a)]) == 0
        config = a / f"{command}_config.json"
        assert main([command, "--config", str(config), "--workers", "2",
                     "--out", str(b)]) == 0
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        assert config.read_bytes() == (b / config.name).read_bytes()
        for name in names:
            assert artifact(a / name) == artifact(b / name), name

    @pytest.mark.parametrize("command", sorted(SMALL))
    def test_flags_are_config_keys(self, tmp_path, capsys, command):
        assert main([command, *SMALL[command], "--out", str(tmp_path)]) == 0
        config = json.loads(
            (tmp_path / f"{command}_config.json").read_text())
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main([command, "--help"])
        flags = re.findall(r"^  (--[\w-]+)", capsys.readouterr().out, re.M)
        assert sorted(flags) == sorted(
            {"--config", "--seed", "--workers", "--out"}
            | {"--" + key.replace("_", "-") for key in config})
        assert len(flags) == len(set(flags))
