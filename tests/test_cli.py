import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import whitefem.cli
import whitefem.fem
from whitefem.cli import ConfigError, build_config, config_hash, main, parse_config_text
from whitefem.fem import robin
from whitefem.noise import GaussianStream
from whitefem.sampling import DiscreteSolutionOperator, exact_covariances, path_point_values, point_values

CONVERGE_CONFIG = """\
# small convergence study
domain = rectangle
lx = 3.141592653589793
ly = 3.141592653589793
bc = neumann
lambda = 1.0
r = 1.1
levels = 4, 8, 16
basis_count = 256
seed = 7
"""

COVARIANCE_CONFIG = """\
domain = rectangle
lx = 3.141592653589793
ly = 3.141592653589793
bc = neumann
lambda = 1.0
levels = 8
samples = 4000
seed = 11
points = 1.0,1.0; 1.5707963267948966,1.5707963267948966
"""

INTERVAL = "domain = interval\na = 0\nb = 1\nbc = neumann\nlambda = 1.0\n"
SQUARE = (
    "domain = rectangle\nlx = 3.141592653589793\nly = 3.141592653589793\nbc = neumann\nlambda = 1.0\n"
)
HOLDER_SEPARATIONS = np.geomspace(0.05, 0.8, 5)


def holder_points(seps, x0=(1.5, 1.5)):
    """A points line pairing x0 with x0 + (s, 0) for each separation s."""
    return "points = " + "; ".join(f"{x0[0]},{x0[1]}; {x0[0] + s},{x0[1]}" for s in seps) + "\n"


TRUNCATE_CONFIG = """\
domain = interval
a = 0
b = 3.141592653589793
bc = dirichlet
lambda = 1.0
r = 0.6
truncations = 10, 40, 160
"""


def run_cli(tmp_path, experiment, config_text, extra=()):
    cfg = tmp_path / "config.txt"
    cfg.write_text(config_text)
    outdir = tmp_path / "out"
    code = main([experiment, "--config", str(cfg), "--outdir", str(outdir), *extra])
    return code, outdir


class TestConfigParsing:
    def test_parses_key_values_and_comments(self):
        raw = parse_config_text("a = 1 # trailing\n# full comment\nb = two words\n")
        assert raw == {"a": "1", "b": "two words"}

    def test_rejects_missing_equals(self):
        with pytest.raises(ConfigError):
            parse_config_text("not a pair\n")

    def test_rejects_duplicate_key(self):
        with pytest.raises(ConfigError):
            parse_config_text("a = 1\na = 2\n")

    def test_robin_without_beta_names_field(self):
        raw = parse_config_text("domain = interval\nb = 1\nbc = robin\nlambda = 1\n")
        with pytest.raises(ConfigError) as err:
            build_config("solve", raw)
        assert err.value.field == "beta"

    def test_negative_lambda_rejected(self):
        raw = parse_config_text("domain = interval\nb = 1\nbc = neumann\nlambda = -2\n")
        with pytest.raises(ConfigError) as err:
            build_config("solve", raw)
        assert err.value.field == "lambda"

    def test_inadmissible_r_rejected(self):
        raw = parse_config_text(
            "domain = rectangle\nlx = 1\nly = 1\nbc = neumann\nlambda = 1\nr = -0.2\n"
        )
        with pytest.raises(ConfigError) as err:
            build_config("converge", raw)
        assert err.value.field == "r"

    def test_seed_override_changes_hash(self):
        raw = parse_config_text("domain = interval\nb = 1\nbc = neumann\nlambda = 1\nseed = 1\n")
        c1 = build_config("solve", raw)
        c2 = build_config("solve", raw, seed_override=99)
        assert c2.seed == 99
        assert config_hash(c1) != config_hash(c2)


class TestCliRuns:
    def test_converge_end_to_end(self, tmp_path):
        code, outdir = run_cli(tmp_path, "converge", CONVERGE_CONFIG)
        assert code == 0
        (report_path,) = outdir.glob("converge/*/report.json")
        report = json.loads(report_path.read_text())
        assert "fitted_rate" in report
        assert np.isfinite(report["fitted_rate"])
        assert len(report["levels"]) == 3
        csv_lines = (report_path.parent / "levels.csv").read_text().splitlines()
        assert any(line.startswith("# config_hash") for line in csv_lines)
        assert "h,error_sq,tail_bound" in csv_lines

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        bad = CONVERGE_CONFIG.replace("bc = neumann", "bc = robin")
        code, _ = run_cli(tmp_path, "converge", bad)
        assert code == 2
        assert "beta" in capsys.readouterr().err

    def test_rerun_is_byte_identical(self, tmp_path):
        code1, outdir = run_cli(tmp_path, "covariance", COVARIANCE_CONFIG)
        files = sorted(outdir.glob("covariance/*/*"))
        first = {f.name: f.read_bytes() for f in files}
        code2, _ = run_cli(tmp_path, "covariance", COVARIANCE_CONFIG)
        second = {f.name: f.read_bytes() for f in sorted(outdir.glob("covariance/*/*"))}
        assert code1 == code2 == 0
        assert first == second

    def test_seed_override_separates_output_dirs(self, tmp_path):
        _, outdir = run_cli(tmp_path, "truncate", TRUNCATE_CONFIG, extra=["--seed", "1"])
        _, outdir = run_cli(tmp_path, "truncate", TRUNCATE_CONFIG, extra=["--seed", "2"])
        assert len(list(outdir.glob("truncate/*"))) == 2

    def test_truncate_reports_decreasing_values(self, tmp_path):
        code, outdir = run_cli(tmp_path, "truncate", TRUNCATE_CONFIG)
        assert code == 0
        (report_path,) = outdir.glob("truncate/*/report.json")
        report = json.loads(report_path.read_text())
        assert report["strictly_decreasing"] is True

    def test_solve_constant_load(self, tmp_path):
        config = (
            "domain = rectangle\nlx = 1\nly = 1\nbc = neumann\nlambda = 2.0\n"
            "levels = 4\nload_constant = 1.0\n"
        )
        code, outdir = run_cli(tmp_path, "solve", config)
        assert code == 0
        (report_path,) = outdir.glob("solve/*/report.json")
        report = json.loads(report_path.read_text())
        assert report["max_abs"] == pytest.approx(0.5, rel=1e-10)

    def test_l2diag_reports_finite_tail(self, tmp_path):
        config = (
            "domain = rectangle\nlx = 3.14159\nly = 3.14159\nbc = neumann\n"
            "lambda = 1.0\n"
        )
        code, outdir = run_cli(tmp_path, "l2diag", config)
        assert code == 0
        (report_path,) = outdir.glob("l2diag/*/report.json")
        report = json.loads(report_path.read_text())
        assert np.isfinite(report["tail_bound"])

    def test_holder_experiment(self, tmp_path):
        x0 = np.array([np.pi / 2, np.pi / 2])
        seps = np.geomspace(0.05, 0.8, 5)
        pts = []
        for s in seps:
            pts.append(f"{x0[0]},{x0[1]}")
            pts.append(f"{x0[0] + s},{x0[1]}")
        config = (
            "domain = rectangle\nlx = 3.141592653589793\nly = 3.141592653589793\n"
            "bc = neumann\nlambda = 1.0\nlevels = 12\npoints = " + "; ".join(pts) + "\n"
        )
        code, outdir = run_cli(tmp_path, "holder", config)
        assert code == 0
        (report_path,) = outdir.glob("holder/*/report.json")
        report = json.loads(report_path.read_text())
        assert 0.3 < report["alpha"] < 1.2

    def test_sample_experiment_records_paths(self, tmp_path):
        config = (
            "domain = interval\na = 0\nb = 1\nbc = dirichlet\nlambda = 1.0\n"
            "levels = 16\nsamples = 50\npoints = 0.5\nseed = 3\n"
        )
        code, outdir = run_cli(tmp_path, "sample", config)
        assert code == 0
        (csv_path,) = outdir.glob("sample/*/levels.csv")
        rows = [l for l in csv_path.read_text().splitlines() if not l.startswith("#")]
        assert rows[0] == "path,p0"
        assert len(rows) == 51

    @pytest.mark.parametrize("n", [1, 16, 17])
    def test_sample_paths_are_runs_of_one_stream(self, tmp_path, n):
        # path i is the i-th run of n_nodes normals of (seed, stream_id), the
        # rule covariance uses, drawn through the same batched helper
        config = (
            "domain = rectangle\nlx = 2.0\nly = 1.0\nbc = robin\nbeta = 0.5\nlambda = 1.0\n"
            f"levels = 8\nsamples = {n}\npoints = 0.5,0.5; 1.5,0.25\nseed = 3\nstream_id = 4\n"
        )
        code, outdir = run_cli(tmp_path, "sample", config)
        assert code == 0
        (csv_path,) = outdir.glob("sample/*/levels.csv")
        rows = [l for l in csv_path.read_text().splitlines() if not l.startswith("#")][1:]
        got = np.array([[float(v) for v in row.split(",")[1:]] for row in rows])
        mesh = build_config("sample", parse_config_text(config)).base_mesh(8)
        op = DiscreteSolutionOperator(mesh, robin(0.5), 1.0)
        G = op.point_functionals([(0.5, 0.5), (1.5, 0.25)])
        want = path_point_values(G, n, GaussianStream(3, 4))
        assert np.array_equal(got, want)
        for i in range(n):
            z = GaussianStream(3, 4, counter=i * mesh.n_nodes).normals(mesh.n_nodes)
            assert np.array_equal(want[i], point_values(z[None, :], G)[0])

    def test_mesh_file_input(self, tmp_path):
        from whitefem.mesh import build_rectangle_mesh, write_mesh

        mesh_path = tmp_path / "mesh.txt"
        write_mesh(build_rectangle_mesh(1.0, 1.0, 4, 4), mesh_path)
        config = (
            f"mesh_file = {mesh_path}\nbc = neumann\nlambda = 1.0\nlevels = 1\n"
            "samples = 20\npoints = 0.5,0.5\nseed = 1\n"
        )
        code, outdir = run_cli(tmp_path, "sample", config)
        assert code == 0


def test_numerical_failure_exits_3(tmp_path, capsys, monkeypatch):
    # a factorization probe that cannot meet its tolerance
    monkeypatch.setattr("whitefem.fem._BACKWARD_ERROR_TOL", 0.0)
    config = (
        "domain = rectangle\nlx = 1\nly = 1\nbc = neumann\nlambda = 1.0\nlevels = 4\n"
        "samples = 10\npoints = 0.5,0.5\n"
    )
    code, outdir = run_cli(tmp_path, "sample", config)
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not outdir.exists()


def test_small_lambda_neumann_sample_exits_0(tmp_path):
    # The factorization probe's relative residual is about 2e-10 here; its
    # backward error, which the probe bounds, is about 1e-16.
    config = (
        "domain = rectangle\nlx = 1\nly = 1\nbc = neumann\nlambda = 0.0001\nlevels = 64\n"
        "samples = 20\npoints = 0.5,0.5\n"
    )
    code, outdir = run_cli(tmp_path, "sample", config)
    assert code == 0
    assert len(list(outdir.glob("sample/*/levels.csv"))) == 1


SAMPLE_CONFIG = (
    "domain = rectangle\nlx = 2\nly = 1\nbc = robin\nbeta = 0.7\nlambda = 1.5\n"
    "levels = 16\nsamples = 200\nseed = 5\npoints = 0.3,0.2; 1.1,0.5; 1.9,0.95\n"
)


def test_sample_reports_the_standard_error_of_each_mean(tmp_path):
    code, outdir = run_cli(tmp_path, "sample", SAMPLE_CONFIG)
    assert code == 0
    (report_path,) = outdir.glob("sample/*/report.json")
    report = json.loads(report_path.read_text())
    assert report["all_within_4se"] is True
    # an n-path mean of values with variance C_pp has the standard error sqrt(C_pp / n)
    cfg = build_config("sample", parse_config_text(SAMPLE_CONFIG))
    op = DiscreteSolutionOperator(cfg.base_mesh(16), cfg.bc, cfg.lam)
    var = np.diag(exact_covariances(op, cfg["points"]))
    np.testing.assert_allclose(np.square(report["se_mean"]) * 200, var, rtol=1e-10)
    assert all(abs(m) <= 4 * se for m, se in zip(report["sample_mean"], report["se_mean"]))


def test_sample_exits_4_when_a_mean_is_more_than_4_standard_errors_from_0(tmp_path, monkeypatch):
    def shifted(G, n, stream):
        values = path_point_values(G, n, stream)
        values[:, 1] += 1.0  # about 54 standard errors at 200 paths
        return values

    monkeypatch.setattr(whitefem.cli, "path_point_values", shifted)
    code, outdir = run_cli(tmp_path, "sample", SAMPLE_CONFIG)
    assert code == 4
    (report_path,) = outdir.glob("sample/*/report.json")
    report = json.loads(report_path.read_text())
    assert report["all_within_4se"] is False
    assert abs(report["sample_mean"][1]) > 4 * report["se_mean"][1]
    assert all(abs(report["sample_mean"][p]) <= 4 * report["se_mean"][p] for p in (0, 2))


def test_misspelled_key_is_config_error(tmp_path, capsys):
    config = (
        "domain = rectangle\nlx = 1\nly = 1\nbc = neumann\nlambda = 1.0\nlevels = 4\n"
        "sampels = 20\npoints = 0.5,0.5\n"
    )
    code, outdir = run_cli(tmp_path, "sample", config)
    assert code == 2
    assert "field 'sampels': unknown key" in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize("experiment, config, fld", [
    ("truncate", TRUNCATE_CONFIG + "samples = 5\nlx = 7\n", "lx"),
    ("truncate", TRUNCATE_CONFIG + "samples = 5\n", "samples"),
    ("converge", CONVERGE_CONFIG + "a = 0\n", "a"),
    ("l2diag", TRUNCATE_CONFIG.replace("truncations", "levels"), "levels"),
    ("solve", "mesh_file = mesh.txt\ndomain = rectangle\nbc = neumann\nlambda = 1.0\n", "domain"),
], ids=["interval-lx", "truncate-samples", "rectangle-a", "l2diag-levels", "mesh-file-domain"])
def test_unread_key_is_config_error(tmp_path, capsys, experiment, config, fld):
    # each key is one the parser knows, but not one this experiment or domain reads
    code, outdir = run_cli(tmp_path, experiment, config)
    assert code == 2
    assert f"field '{fld}': not read by experiment '{experiment}'" in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize("contents, says", [(contents, None) for contents in [
    # clockwise triangle: mesh validation fails
    "2 3 1 3\n0 0\n1 0\n0 1\n0 2 1\n0 1 0\n1 2 1\n2 0 2\n",
    # header promises more lines than the file has
    "2 3 1 3\n0 0\n1 0\n",
    # a node coordinate that is not finite
    "2 3 1 3\n0 0\n1 0\n0 nan\n0 1 2\n0 1 0\n1 2 1\n2 0 2\n",
    # the first edge declared twice, once in each node order
    "2 3 1 4\n0 0\n1 0\n0 1\n0 1 2\n0 1 0\n1 2 1\n2 0 2\n1 0 0\n",
    None,
    "",
    "2 3 1\n0 0\n1 0\n0 1\n0 1 2\n0 1 0\n1 2 1\n2 0 2\n",
    "2 3 one 3\n0 0\n1 0\n0 1\n0 1 2\n0 1 0\n1 2 1\n2 0 2\n",
    "3 3 1 3\n0 0\n1 0\n0 1\n0 1 2\n0 1 0\n1 2 1\n2 0 2\n",
    "2 3 -1 3\n0 0\n1 0\n0 1\n0 1 2\n0 1 0\n1 2 1\n2 0 2\n",
    # header promises fewer lines than the file has
    "2 3 1 2\n0 0\n1 0\n0 1\n0 1 2\n0 1 0\n1 2 1\n2 0 2\n",
    # these two exited 1 with a traceback, from IndexError and OverflowError
    "2 3 0 0\n0 0\n1 0\n0 1\n",
    "2 3 1 3\n0 0\n1 0\n0 1\n0 1 99999999999999999999\n0 1 0\n1 2 1\n2 0 2\n",
    "2 3 1 3\n0 0\n1 0\n0 1\n0 1 3\n0 1 0\n1 2 1\n2 0 2\n",
    "2 3 1 3\n0 0\n1 0\n0 1\n0 1 2.0\n0 1 0\n1 2 1\n2 0 2\n",
    "2 3 1 3\n0 0\n1\n0 1\n0 1 2\n0 1 0\n1 2 1\n2 0 2\n",
    "2 3 1 3\n0 0\n1 0\n0 1\n0 1 2\n0 1 0\n1 1\n2 0 2\n",
    "2 3 1 3\n0 0\n1 0\n0 1\n0 1 2\n0 0\n1 1\n2 2\n",
    # the last facet left out, and not counted
    "2 3 1 2\n0 0\n1 0\n0 1\n0 1 2\n0 1 0\n1 2 1\n",
]] + [
    # these gave the codec's text with no line, and a side tag of 10 (exit 0)
    ("2 3 1 3\n0 0\n1 0\n0 1\n0 1 2\n0 1 0\n1 2 1\n2 0 \u00e9\n", "line 8: byte 0xc3 is not ASCII"),
    ("2 3 1 3\n0 0\n1 0\n0 1\n0 1 2\n0 1 0\n1 2 1\n2 0 1_0\n",
     "line 8: facet row holds a value that is not an integer"),
], ids=["clockwise", "truncated", "nan-node", "duplicate-facet", "missing", "empty", "short-header",
        "header-word", "dim-3", "negative-count", "extra-line", "no-elements", "overflowing-index",
        "index-out-of-range", "decimal-index", "one-coordinate-node", "one-index-facet",
        "one-column-facets", "missing-facet", "non-ascii-byte", "underscore-side"])
def test_bad_mesh_file_is_config_error(tmp_path, capsys, contents, says):
    # run in process: an exception that escaped main would fail the test, as
    # it would end the command with a traceback and exit 1
    bad_mesh = tmp_path / "bad_mesh.txt"
    if contents is not None:
        bad_mesh.write_text(contents, encoding="utf-8")
    config = f"mesh_file = {bad_mesh}\nbc = neumann\nlambda = 1.0\nlevels = 1\nsamples = 10\n"
    code, outdir = run_cli(tmp_path, "sample", config)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: field 'mesh_file': ")
    assert says is None or f"{bad_mesh}: {says}" in err
    assert "Traceback" not in err
    assert not outdir.exists()


def test_solve_assembles_mass_once(tmp_path, monkeypatch):
    calls = []
    original = whitefem.fem.assemble_mass

    def counting(mesh):
        calls.append(mesh.n_nodes)
        return original(mesh)

    # every module that binds the function, so no import path escapes the count
    for name, module in list(sys.modules.items()):
        if name.startswith("whitefem") and getattr(module, "assemble_mass", None) is original:
            monkeypatch.setattr(module, "assemble_mass", counting)
    config = "domain = rectangle\nlx = 1\nly = 1\nbc = robin\nbeta = 0.5\nlambda = 2.0\nlevels = 8\n"
    code, _ = run_cli(tmp_path, "solve", config)
    assert code == 0
    assert calls == [81]


def _tree(root: Path) -> dict[str, bytes]:
    return {str(f.relative_to(root)): f.read_bytes() for f in sorted(root.rglob("*")) if f.is_file()}


def _trees_under_blas_threads(tmp_path, config_text, experiments):
    """Output trees of the experiments run in subprocesses with 1 and 2 BLAS threads."""
    config = tmp_path / "config.txt"
    config.write_text(config_text)
    src = str(Path(whitefem.__file__).resolve().parents[1])
    trees = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        outdir = tmp_path / f"threads{threads}"
        for experiment in experiments:
            subprocess.run(
                [sys.executable, "-m", "whitefem.cli", experiment, "--config", str(config),
                 "--outdir", str(outdir)],
                env=env, check=True, capture_output=True,
            )
        trees.append(_tree(outdir))
    return trees


def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    # At this size and point count a BLAS matmul of the path normals with the
    # point functionals changes some `mc` bytes between 1 and 2 threads.
    trees = _trees_under_blas_threads(
        tmp_path,
        "domain = rectangle\nlx = 2\nly = 1\nbc = robin\nbeta = 0.7\nlambda = 1.5\n"
        "levels = 64\nsamples = 300\nseed = 5\n"
        "points = 0.3,0.2; 1.1,0.5; 1.9,0.95; 0.7,0.7; 1.5,0.1\n",
        ("covariance", "sample"),
    )
    assert len(trees[0]) == 6
    assert trees[0] == trees[1]


def test_exact_covariance_does_not_depend_on_blas_threads(tmp_path):
    # At 128 x 128 (16,641 nodes) a BLAS dot in the exact covariance changes
    # `exact` bytes between 1 and 2 threads.
    trees = _trees_under_blas_threads(
        tmp_path,
        "domain = rectangle\nlx = 2\nly = 1\nbc = robin\nbeta = 0.7\nlambda = 1.5\n"
        "levels = 128\nsamples = 20\nseed = 5\n"
        "points = 0.3,0.2; 1.1,0.5; 1.9,0.95; 0.7,0.7; 1.5,0.1\n",
        ("covariance",),
    )
    assert len(trees[0]) == 3
    assert trees[0] == trees[1]


def test_covariance_check_passes_correct_output_at_twenty_paths(monkeypatch):
    # Judged by standard errors estimated from the same 20 paths, 7 of these
    # 40 seeds miss by 4.03 to 7.2 of them (4 with 32-node nested-dissection
    # leaves) and exit 4.  Under the exact covariance the largest miss is 3.32.
    raw = parse_config_text(
        "domain = rectangle\nlx = 2\nly = 1\nbc = robin\nbeta = 0.7\nlambda = 1.5\n"
        "levels = 128\nsamples = 20\n"
        "points = 0.3,0.2; 1.1,0.5; 1.9,0.95; 0.7,0.7; 1.5,0.1\n"
    )
    cfg = build_config("covariance", raw)
    op = DiscreteSolutionOperator(cfg.base_mesh(128), cfg.bc, cfg.lam)
    monkeypatch.setattr(whitefem.cli, "DiscreteSolutionOperator", lambda mesh, bc, lam: op)
    failed, reported = [], []
    for seed in range(1, 41):
        report, header, rows, code = whitefem.cli.run_covariance(build_config("covariance", raw, seed))
        if code != 0 or not report["all_within_4se"]:
            failed.append(seed)
        reported.append(rows)
    assert failed == []
    # se comes from the exact covariance, not from the paths: every seed
    # reports the same column, and a variance's se is sqrt(2 / 19) of it
    se = {(row[0], row[1]): row[header.index("se")] for row in reported[0]}
    assert all([row[header.index("se")] for row in rows] == list(se.values()) for rows in reported)
    for i, j, exact, *_ in reported[0]:
        if i == j:
            assert se[i, i] == pytest.approx(exact * np.sqrt(2 / 19), rel=1e-12)
        else:
            # C_ij^2 <= C_ii C_jj puts se_ij^2 between se_ii se_jj / 2 and se_ii se_jj
            assert se[i, i] * se[j, j] / 2 <= se[i, j] ** 2 <= se[i, i] * se[j, j] * (1 + 1e-12)


_SQUARE = "domain = rectangle\nlx = 3.141592653589793\nly = 3.141592653589793\nlevels = 8, 16, 32\n"


@pytest.mark.parametrize("domain", [
    _SQUARE + "bc = neumann\n",
    _SQUARE + "bc = dirichlet\n",
    _SQUARE + "bc = robin\nbeta = 0.5\n",
    "domain = interval\na = 0\nb = 2\nbc = robin\nbeta = 1.5\nlevels = 16, 32, 64\n",
], ids=["neumann", "dirichlet", "robin", "interval-robin"])
def test_converge_does_not_depend_on_blas_threads(tmp_path, domain):
    # the error kernel interpolates each chunk of elements by a BLAS matmul
    trees = _trees_under_blas_threads(
        tmp_path, domain + "lambda = 1.0\nr = 0.1\nbasis_count = 512\nseed = 3\n", ("converge",),
    )
    assert len(trees[0]) == 3
    assert trees[0] == trees[1]


def test_probe_point_outside_mesh_is_config_error(tmp_path, capsys):
    config = (
        "domain = rectangle\nlx = 1\nly = 1\nbc = neumann\nlambda = 1.0\nlevels = 4\n"
        "samples = 10\npoints = 0.5,0.5; 3.0,3.0\n"
    )
    code, outdir = run_cli(tmp_path, "covariance", config)
    assert code == 2
    assert "field 'points'" in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize("experiment, config, fld", [
    ("solve", INTERVAL.replace("neumann", "robin\nbeta = -1"), "beta"),
    ("solve", SQUARE.replace("lx = 3.141592653589793", "lx = -1"), "lx"),
    ("solve", INTERVAL.replace("a = 0\nb = 1", "a = 1\nb = 0"), "b"),
    ("covariance", SQUARE + "levels = 4\nsamples = 1\npoints = 1,1; 2,2\n", "samples"),
    ("sample", INTERVAL + "levels = 4\nsamples = -3\n", "samples"),
    ("sample", INTERVAL + "levels = 4\nsamples = 0\n", "samples"),
    ("l2diag", INTERVAL + "modes = 256\n", "modes"),
    ("truncate", INTERVAL + "truncations = -1 3\n", "truncations"),
    ("truncate", INTERVAL + "truncations = ,\n", "truncations"),
    ("converge", INTERVAL + "levels = 4 8 16\nbasis_count = -4\n", "basis_count"),
    ("solve", SQUARE + "levels = 4 8 16\n", "levels"),
    ("sample", INTERVAL + "levels = 4 8\nsamples = 5\n", "levels"),
    ("covariance", SQUARE + "levels = 4 8\nsamples = 5\npoints = 1,1; 2,2\n", "levels"),
    ("holder", SQUARE + "levels = 4 8\n" + holder_points(HOLDER_SEPARATIONS), "levels"),
    ("holder", SQUARE + "levels = 8\n" + holder_points(HOLDER_SEPARATIONS)[:-1] + "; 1,1\n", "points"),
    ("holder", SQUARE + "levels = 8\n" + holder_points([0.05, 0.1, 0.2, 0.4, 0.0]), "points"),
    ("holder", SQUARE + "levels = 8\n" + holder_points([0.1, 0.2, 0.3, 0.4, 0.5]), "points"),
], ids=[
    "negative-beta", "negative-lx", "b-below-a", "covariance-one-sample", "negative-samples",
    "zero-samples", "modes-unknown-key", "negative-truncation", "no-truncations", "negative-basis-count",
    "solve-three-levels", "sample-two-levels", "covariance-two-levels", "holder-two-levels",
    "holder-odd-points", "holder-coincident-pair", "holder-under-a-decade",
])
def test_user_error_exits_2_naming_the_field(tmp_path, capsys, experiment, config, fld):
    code, outdir = run_cli(tmp_path, experiment, config)
    assert code == 2
    assert f"config error: field '{fld}'" in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize("domain", [SQUARE, INTERVAL], ids=["rectangle", "interval"])
@pytest.mark.parametrize("experiment, keys", [
    ("solve", "levels = 1\n"),
    ("sample", "levels = 1\nsamples = 10\n"),
    ("converge", "levels = 1 2 4\nbasis_count = 16\n"),
])
def test_dirichlet_mesh_without_interior_node_exits_2(tmp_path, capsys, domain, experiment, keys):
    # one cell (one segment) has every node on the boundary: no free degree of freedom
    code, outdir = run_cli(tmp_path, experiment, domain.replace("neumann", "dirichlet") + keys)
    assert code == 2
    assert "config error: field 'levels': bc = dirichlet leaves no free node" in capsys.readouterr().err
    assert not outdir.exists()


def test_dirichlet_file_mesh_without_interior_node_exits_2(tmp_path, capsys):
    # one triangle refined once: its 6 nodes all lie on the boundary
    mesh = tmp_path / "triangle.txt"
    mesh.write_text("2 3 1 3\n0 0\n1 0\n0 1\n0 1 2\n0 1 0\n1 2 1\n2 0 2\n")
    config = f"mesh_file = {mesh}\nbc = dirichlet\nlambda = 1.0\nlevels = 1\n"
    code, outdir = run_cli(tmp_path, "solve", config)
    assert code == 2
    assert "config error: field 'mesh_file': bc = dirichlet leaves no free node" in capsys.readouterr().err
    assert not outdir.exists()
    # one more refinement has interior nodes, and runs
    code, outdir = run_cli(tmp_path, "solve", config.replace("levels = 1", "levels = 2"))
    assert code == 0


# Every key parsed as a number, with an experiment and a config that read it.
NUMBER_KEY_RUNS = {
    "a": ("solve", INTERVAL),
    "b": ("solve", INTERVAL),
    "lx": ("solve", SQUARE),
    "ly": ("solve", SQUARE),
    "beta": ("solve", INTERVAL.replace("neumann", "robin\nbeta = 1.0")),
    "lambda": ("solve", INTERVAL),
    "r": ("truncate", INTERVAL),
    "load_constant": ("solve", INTERVAL),
}


def test_number_key_runs_name_every_number_key():
    cli = whitefem.cli
    tables = [keys for _, keys in cli._DOMAINS.values()] + [cli._COMMON_KEYS]
    tables += [entry.keys for entry in cli._EXPERIMENT_TABLE.values()]
    numbers = {key for keys in tables for key, spec in keys.items() if spec.parse is cli._NUMBER[0]}
    assert numbers == set(NUMBER_KEY_RUNS)


def _setting(config: str, key: str, value: str) -> str:
    """config with `key = value` in place of any line that sets key."""
    lines = [line for line in config.splitlines() if line.split("=", 1)[0].strip() != key]
    return "\n".join([*lines, f"{key} = {value}"]) + "\n"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("fld", [*NUMBER_KEY_RUNS, "points"])
def test_non_finite_number_exits_2_naming_the_field(tmp_path, capsys, fld, value):
    if fld == "points":
        experiment, config = "sample", SQUARE + f"levels = 4\nsamples = 5\npoints = 1.0, {value}\n"
    else:
        experiment, base = NUMBER_KEY_RUNS[fld]
        config = _setting(base, fld, value)
    code, outdir = run_cli(tmp_path, experiment, config)
    assert code == 2
    assert re.search(rf"config error: field '{fld}': not (a )?finite number", capsys.readouterr().err)
    assert not outdir.exists()


@pytest.mark.parametrize("report, rows", [
    ({"max_abs": float("nan")}, [[0, 1.0]]),
    ({"max_abs": float("inf")}, [[0, 1.0]]),
    ({"max_abs": 1.0}, [[0, float("nan")]]),
], ids=["nan-in-report", "inf-in-report", "nan-in-row"])
def test_unwritable_statistic_is_a_numerical_failure(tmp_path, capsys, monkeypatch, report, rows):
    table = whitefem.cli._EXPERIMENT_TABLE
    runner = lambda cfg: (report, ["node", "value"], rows)  # noqa: E731
    monkeypatch.setitem(table, "solve", table["solve"]._replace(run=runner))
    code, outdir = run_cli(tmp_path, "solve", INTERVAL)
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not outdir.exists()


def test_converge_writes_null_for_a_missing_fit_and_a_diverging_tail(tmp_path):
    # two levels have no rate fit, and at r = 0.1 in 1D the tail series diverges
    code, outdir = run_cli(tmp_path, "converge", INTERVAL + "r = 0.1\nlevels = 4 8\nbasis_count = 64\n")
    assert code == 0
    (report_path,) = outdir.glob("converge/*/report.json")

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    report = json.loads(report_path.read_text(), parse_constant=refuse)
    assert report["fitted_rate"] is None and report["fit_residual"] is None
    assert [lv["tail_bound"] for lv in report["levels"]] == [None, None]
    assert all(np.isfinite(lv["error_sq"]) for lv in report["levels"])
    rows = (report_path.parent / "levels.csv").read_text().splitlines()[-2:]
    assert [row.rsplit(",", 1)[1] for row in rows] == ["inf", "inf"]


def test_adaptive_converge_exits_4_when_the_mode_cap_stops_it(tmp_path):
    # r = 0.1 still moves by about 43 % per doubling when the 20,000-mode cap
    # stops it; r = 1.1 meets the 1 % rule at 2,048 modes
    for r, want_code, want_modes in ((0.1, 4, 20_000), (1.1, 0, 2048)):
        config = INTERVAL + f"r = {r}\nlevels = 4 8 16\n"
        (tmp_path / f"r{r}").mkdir()
        code, outdir = run_cli(tmp_path / f"r{r}", "converge", config)
        assert code == want_code
        (report_path,) = outdir.glob("converge/*/report.json")
        assert json.loads(report_path.read_text())["basis_count"] == want_modes
        written = sorted(f.name for f in report_path.parent.iterdir())
        assert written == ["levels.csv", "meta.json", "report.json"]


@pytest.mark.parametrize("experiment, keys", [("truncate", "r = 0.6\n"), ("l2diag", "")])
def test_series_stopped_at_the_basis_cap_exits_4(tmp_path, monkeypatch, experiment, keys):
    # at 256 modes the m = 160 truncation error of the square is under its
    # tail bound, and the L2 series' bound is over 1e-3 of its total
    for cap, want_code in ((256, 4), (1 << 20, 0)):
        monkeypatch.setattr(whitefem.convergence, "_SERIES_CAP", cap)
        (tmp_path / str(cap)).mkdir()
        code, outdir = run_cli(tmp_path / str(cap), experiment, SQUARE + keys)
        assert code == want_code
        (report_path,) = outdir.glob(f"{experiment}/*/report.json")
        written = sorted(f.name for f in report_path.parent.iterdir())
        assert written == ["levels.csv", "meta.json", "report.json"]
        rows = [row.split(",") for row in (report_path.parent / "levels.csv").read_text().splitlines()[4:]]
        if experiment == "truncate":
            ratios = [float(tail) / float(value) for _, value, tail in rows]
        else:
            report = json.loads(report_path.read_text())
            assert int(rows[-1][0]) == report["modes"] and (report["modes"] == 256) == (cap == 256)
            ratios = [report["tail_bound"] / report["total"]]
        assert (max(ratios) > 1e-3) == (want_code == 4)


def test_readme_experiment_table_matches_the_cli():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    table = readme.read_text(encoding="utf-8").split("| experiment | keys |\n|---|---|\n", 1)[1]
    listed = {}
    for row in table.split("\n\n", 1)[0].splitlines():
        names, keys = row.strip("|").split("|")
        for name in re.findall(r"`(\w+)`", names):
            listed[name] = re.findall(r"`(\w+)`", keys)
    assert listed == {name: list(entry.keys) for name, entry in whitefem.cli._EXPERIMENT_TABLE.items()}


GUARD_CONFIGS = Path(__file__).parent / "data" / "byte_guard"
# Values a mutated key takes.  The size keys take only small values: a large
# mesh or budget is a separate question (whether sizes should be bounded
# before allocation), so the sweep stays small and fast.  basis_count = 0
# asks for the adaptive budget, so it is not small.
EXTREMES = ("0", "-0", "1e300", "-1e300", str(2**63), "nan", "inf", "", "@x")
SMALL = ("1", "-1", "2", "", "nan", "@x")
SIZE_KEYS = ("levels", "samples", "basis_count", "truncations")


def _small(value):
    """Whether a moved value may go to a size key: no integer over 16."""
    try:
        return all(abs(int(tok)) <= 16 for tok in value.replace(",", " ").split())
    except ValueError:
        return True


def config_mutations(rng):
    """(experiment, name, config lines) for every byte-guard config: each key
    set to a drawn value, and one line deleted, duplicated or swapped with
    another, or one key given another key's value."""
    cases = []
    for path in sorted(GUARD_CONFIGS.glob("*.cfg")):
        experiment = path.stem.split("-")[0]
        lines = path.read_text().splitlines()
        keyed = [i for i, line in enumerate(lines) if "=" in line]
        for i in keyed:
            key, value = (part.strip() for part in lines[i].split("=", 1))
            if key in SIZE_KEYS:
                new = str(rng.choice(SMALL))
            else:
                new = str(rng.choice(EXTREMES))
            mutated = lines.copy()
            mutated[i] = f"{key} = {new}"
            cases.append((experiment, f"{path.stem}: {key} = {new!r}", mutated))
        kind = str(rng.choice(["delete", "duplicate", "swap", "move"]))
        i, j = rng.choice(len(lines), 2, replace=False)
        mutated = lines.copy()
        if kind == "delete":
            mutated.pop(i)
        elif kind == "duplicate":
            mutated.insert(j, lines[i])
        elif kind == "swap":
            mutated[i], mutated[j] = lines[j], lines[i]
        else:
            src, dst = rng.choice(keyed, 2, replace=False)
            key = lines[dst].split("=", 1)[0].strip()
            value = lines[src].split("=", 1)[1].strip()
            if key in SIZE_KEYS and not _small(value):
                value = str(rng.choice(SMALL))
            mutated[dst] = f"{key} = {value}"
            i, j = src, dst
        # a deleted size key takes its default; basis_count's (0) is adaptive
        if kind == "delete" and lines[i].startswith("basis_count"):
            mutated.append("basis_count = 16")
        cases.append((experiment, f"{path.stem}: {kind} lines {i}, {j}", mutated))
    return cases


def test_mutated_guard_configs_keep_the_exit_code_contract(tmp_path, capsys):
    # Seeded mutations of the byte-guard configs.  Every run exits 0, 2, 3
    # or 4 with no traceback; exit 2 names a field, exit 3 says "numerical
    # failure", and neither leaves an output directory.
    cases = config_mutations(np.random.default_rng(20240527))
    assert len(cases) >= 150
    failures = []
    for n, (experiment, name, lines) in enumerate(cases):
        config = tmp_path / f"case{n}.cfg"
        config.write_text("\n".join(lines) + "\n")
        outdir = tmp_path / f"out{n}"
        try:
            code = whitefem.cli.run(experiment, str(config), str(outdir))
        except Exception as exc:  # an escaped exception is exit 1 with a traceback
            failures.append(f"{name}: raised {type(exc).__name__}: {exc}")
            continue
        err = capsys.readouterr().err
        if code not in (0, 2, 3, 4) or "Traceback" in err:
            failures.append(f"{name}: exit {code}, stderr {err!r}")
        elif code == 2 and "field '" not in err:
            failures.append(f"{name}: exit 2 names no field: {err!r}")
        elif code == 3 and "numerical failure" not in err:
            failures.append(f"{name}: exit 3 without 'numerical failure': {err!r}")
        elif code in (2, 3) and outdir.exists():
            failures.append(f"{name}: exit {code} left {outdir.name}")
    assert not failures, "\n".join(failures)
