"""Configuration-driven experiment runner.

Experiments are described by flat ``key = value`` text files (``#`` starts a
comment), which keeps archived configurations diff-friendly.  Every run
writes into ``<outdir>/<experiment>/<config-hash>/``:

* ``report.json``   main results (stable key order),
* ``levels.csv``    per-level or per-entry table, 17 significant digits,
* ``meta.json``     config hash, effective config, seed, package version.

All randomness flows through the seeded stream recorded in the outputs, and
reductions run in fixed batch order, so a rerun with the same config and
seed is byte-identical.  The run directory is created only when the
experiment succeeds, so a failed run leaves no output behind.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 acceptance-threshold violation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .convergence import (
    deterministic_fem_error,
    fit_rate,
    holder_modulus,
    l2_realization_diagnostic,
    truncation_error_closed_form,
)
from .fem import BoundaryCondition, FactorizedSystem, point_evaluation
from .mesh import Mesh, build_interval_mesh, build_rectangle_mesh, read_mesh, refine_uniform
from .noise import GaussianStream
from .sampling import (
    DiscreteSolutionOperator,
    exact_covariances,
    monte_carlo_moments,
    point_values,
)
from .spectral import Interval, ModelDomain, Rectangle, eigenpairs

EXPERIMENTS = ("solve", "sample", "covariance", "converge", "truncate", "holder", "l2diag")


class ConfigError(Exception):
    """Invalid configuration; carries the offending field name."""

    def __init__(self, fld: str, message: str):
        super().__init__(f"field '{fld}': {message}")
        self.field = fld


# -- configuration -------------------------------------------------------------


def parse_config_text(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}", f"expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}", "empty key")
        if key in out:
            raise ConfigError(key, "duplicate key")
        out[key] = value
    return out


@dataclass
class ExperimentConfig:
    experiment: str
    domain: ModelDomain | None
    mesh_file: str | None
    bc: BoundaryCondition
    lam: float
    r: float
    levels: list[int]
    seed: int
    stream_id: int
    samples: int
    modes: int
    truncations: list[int]
    points: list[tuple[float, ...]]
    raw: dict[str, str] = field(default_factory=dict)

    @property
    def dim(self) -> int:
        if self.domain is not None:
            return self.domain.dim
        return 2

    def base_mesh(self, n: int) -> Mesh:
        if self.mesh_file is not None:
            try:
                mesh = read_mesh(self.mesh_file)
            except (OSError, ValueError) as exc:
                raise ConfigError("mesh_file", str(exc)) from None
            for _ in range(n):
                mesh = refine_uniform(mesh)
            return mesh
        if isinstance(self.domain, Interval):
            return build_interval_mesh(self.domain.a, self.domain.b, n)
        return build_rectangle_mesh(self.domain.lx, self.domain.ly, n, n)


def _get_float(raw: dict[str, str], key: str, default=None) -> float:
    if key not in raw:
        if default is None:
            raise ConfigError(key, "required")
        return default
    try:
        return float(raw[key])
    except ValueError:
        raise ConfigError(key, f"not a number: {raw[key]!r}") from None


def _get_int(raw: dict[str, str], key: str, default=None) -> int:
    if key not in raw:
        if default is None:
            raise ConfigError(key, "required")
        return default
    try:
        return int(raw[key])
    except ValueError:
        raise ConfigError(key, f"not an integer: {raw[key]!r}") from None


def _get_int_list(raw: dict[str, str], key: str, default=None) -> list[int]:
    if key not in raw:
        if default is None:
            raise ConfigError(key, "required")
        return default
    try:
        return [int(tok) for tok in raw[key].replace(",", " ").split()]
    except ValueError:
        raise ConfigError(key, f"not an integer list: {raw[key]!r}") from None


def _get_points(raw: dict[str, str], key: str, dim: int) -> list[tuple[float, ...]]:
    if key not in raw:
        return []
    pts = []
    for chunk in raw[key].split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            coords = tuple(float(t) for t in chunk.replace(",", " ").split())
        except ValueError:
            raise ConfigError(key, f"bad coordinates {chunk!r}") from None
        if len(coords) != dim:
            raise ConfigError(key, f"point {chunk!r} has {len(coords)} coordinates, expected {dim}")
        pts.append(coords)
    return pts


def build_config(experiment: str, raw: dict[str, str], seed_override: int | None = None) -> ExperimentConfig:
    if experiment not in EXPERIMENTS:
        raise ConfigError("experiment", f"unknown experiment {experiment!r}")

    mesh_file = raw.get("mesh_file")
    domain: ModelDomain | None = None
    if mesh_file is None:
        kind = raw.get("domain")
        if kind is None:
            raise ConfigError("domain", "required (or provide mesh_file)")
        if kind == "interval":
            domain = Interval(_get_float(raw, "a", 0.0), _get_float(raw, "b"))
        elif kind == "rectangle":
            domain = Rectangle(_get_float(raw, "lx"), _get_float(raw, "ly"))
        else:
            raise ConfigError("domain", f"must be 'interval' or 'rectangle', got {kind!r}")
    dim = 2 if mesh_file is not None else domain.dim

    bc_kind = raw.get("bc")
    if bc_kind is None:
        raise ConfigError("bc", "required")
    if bc_kind == "robin":
        if "beta" not in raw:
            raise ConfigError("beta", "required for Robin boundary conditions")
        bc = BoundaryCondition("robin", _get_float(raw, "beta"))
    elif bc_kind in ("dirichlet", "neumann"):
        if "beta" in raw:
            raise ConfigError("beta", f"not allowed for bc = {bc_kind}")
        bc = BoundaryCondition(bc_kind)
    else:
        raise ConfigError("bc", f"must be dirichlet, neumann or robin, got {bc_kind!r}")

    lam = _get_float(raw, "lambda")
    if not lam > 0:
        raise ConfigError("lambda", f"must be positive, got {lam}")
    r = _get_float(raw, "r", dim / 2.0 - 1.0 + 0.1)
    if not r > dim / 2.0 - 1.0:
        raise ConfigError("r", f"must exceed d/2 - 1 = {dim / 2.0 - 1.0}, got {r}")

    levels = _get_int_list(raw, "levels", [8])
    if not levels or any(n < 1 for n in levels):
        raise ConfigError("levels", f"need positive subdivision counts, got {raw.get('levels')!r}")

    cfg = ExperimentConfig(
        experiment=experiment,
        domain=domain,
        mesh_file=mesh_file,
        bc=bc,
        lam=lam,
        r=r,
        levels=levels,
        seed=seed_override if seed_override is not None else _get_int(raw, "seed", 0),
        stream_id=_get_int(raw, "stream_id", 0),
        samples=_get_int(raw, "samples", 10_000),
        modes=_get_int(raw, "modes", 4096),
        truncations=_get_int_list(raw, "truncations", [10, 40, 160]),
        points=_get_points(raw, "points", dim),
        raw=dict(raw),
    )
    if experiment in ("covariance", "holder") and len(cfg.points) < 2:
        raise ConfigError("points", f"experiment '{experiment}' needs at least 2 points")
    return cfg


def effective_config_lines(cfg: ExperimentConfig) -> list[str]:
    """Canonical config (post-override) used for hashing and metadata."""
    items = dict(cfg.raw)
    items["seed"] = str(cfg.seed)
    items["experiment"] = cfg.experiment
    return [f"{k} = {items[k]}" for k in sorted(items)]


def config_hash(cfg: ExperimentConfig) -> str:
    blob = "\n".join(effective_config_lines(cfg)).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


# -- output helpers --------------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


def write_csv(path: Path, header: list[str], rows: list[list], meta: dict) -> None:
    lines = [f"# {k} = {v}" for k, v in sorted(meta.items())]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="ascii")


# -- experiments -----------------------------------------------------------------


def _mesh_levels(cfg: ExperimentConfig) -> list[Mesh]:
    return [cfg.base_mesh(n) for n in cfg.levels]


def _probe_mesh(cfg: ExperimentConfig) -> Mesh:
    """The first-level mesh, after checking that every probe point lies on it."""
    mesh = cfg.base_mesh(cfg.levels[0])
    for p in cfg.points:
        try:
            point_evaluation(mesh, p)
        except ValueError:
            raise ConfigError("points", f"point {p} is outside the mesh") from None
    return mesh


def _require_domain(cfg: ExperimentConfig):
    if cfg.domain is None:
        raise ConfigError("domain", f"experiment '{cfg.experiment}' needs a model domain")
    return cfg.domain


def run_solve(cfg: ExperimentConfig):
    load_const = _get_float(cfg.raw, "load_constant", 1.0)
    mesh = cfg.base_mesh(cfg.levels[0])
    system = FactorizedSystem(mesh, cfg.bc, cfg.lam)
    u = system.solve_checked(system.M @ np.full(mesh.n_nodes, load_const))
    rows = [[i, *mesh.nodes[i], u.coefficients[i]] for i in range(mesh.n_nodes)]
    header = ["node", *(f"x{d}" for d in range(mesh.dim)), "value"]
    report = {
        "experiment": "solve",
        "n_nodes": mesh.n_nodes,
        "h": mesh.h,
        "load_constant": load_const,
        "max_abs": float(np.abs(u.coefficients).max()),
    }
    return report, header, rows


def run_sample(cfg: ExperimentConfig):
    mesh = _probe_mesh(cfg)
    op = DiscreteSolutionOperator(mesh, cfg.bc, cfg.lam)
    points = cfg.points or [tuple(mesh.nodes[mesh.n_nodes // 2])]
    G = op.point_functionals(points)
    vals = np.empty((cfg.samples, len(points)))
    for i in range(cfg.samples):
        z = GaussianStream(cfg.seed, cfg.stream_id + i).normals(mesh.n_nodes)
        vals[i] = point_values(z[None, :], G)[0]
    rows = [[i, *v] for i, v in enumerate(vals)]
    header = ["path", *(f"p{j}" for j in range(len(points)))]
    report = {
        "experiment": "sample",
        "n_paths": cfg.samples,
        "points": [list(p) for p in points],
        "sample_mean": [float(v) for v in vals.mean(axis=0)],
    }
    return report, header, rows


def run_covariance(cfg: ExperimentConfig):
    mesh = _probe_mesh(cfg)
    op = DiscreteSolutionOperator(mesh, cfg.bc, cfg.lam)
    stream = GaussianStream(cfg.seed, cfg.stream_id)
    moments = monte_carlo_moments(op, cfg.points, cfg.samples, stream)
    exact_cov = exact_covariances(op, cfg.points)
    rows, pass_all = [], True
    for i in range(len(cfg.points)):
        for j in range(i, len(cfg.points)):
            exact = float(exact_cov[i, j])
            mc = moments.covariance[i, j]
            se = moments.se_covariance[i, j]
            ok = abs(mc - exact) <= 4.0 * se
            pass_all &= ok
            rows.append([i, j, exact, mc, se, int(ok)])
    header = ["i", "j", "exact", "mc", "se", "within_4se"]
    report = {
        "experiment": "covariance",
        "n_paths": cfg.samples,
        "points": [list(p) for p in cfg.points],
        "all_within_4se": bool(pass_all),
    }
    return report, header, rows, (0 if pass_all else 4)


def run_converge(cfg: ExperimentConfig):
    domain = _require_domain(cfg)
    meshes = _mesh_levels(cfg)
    basis_count = _get_int(cfg.raw, "basis_count", 0) or None
    rep = deterministic_fem_error(domain, cfg.bc, cfg.lam, cfg.r, meshes, basis_count=basis_count)
    rows = [[lv.h, lv.error_sq, lv.tail_bound] for lv in rep.levels]
    header = ["h", "error_sq", "tail_bound"]
    report = {
        "experiment": "converge",
        "bc": rep.bc_kind,
        "lambda": rep.lam,
        "beta": rep.beta,
        "r": rep.r,
        "basis_count": rep.basis_count,
        "fitted_rate": rep.fitted_rate,
        "fit_residual": rep.fit_residual,
        "increments": rep.increments,
        "levels": [{"h": lv.h, "error_sq": lv.error_sq, "tail_bound": lv.tail_bound} for lv in rep.levels],
    }
    return report, header, rows


def run_truncate(cfg: ExperimentConfig):
    domain = _require_domain(cfg)
    basis = eigenpairs(domain, cfg.bc, max(cfg.modes, max(cfg.truncations) + 1))
    rows = []
    values = []
    for m in cfg.truncations:
        val = truncation_error_closed_form(basis, cfg.lam, cfg.r, m)
        rows.append([m, val.value, val.tail_bound])
        values.append(val.value)
    header = ["m", "error_sq", "tail_bound"]
    report = {
        "experiment": "truncate",
        "r": cfg.r,
        "truncations": cfg.truncations,
        "values": values,
        "strictly_decreasing": bool(np.all(np.diff(values) < 0)),
    }
    return report, header, rows


def run_holder(cfg: ExperimentConfig):
    mesh = _probe_mesh(cfg)
    op = DiscreteSolutionOperator(mesh, cfg.bc, cfg.lam)
    pts = cfg.points
    pairs = [(pts[i], pts[i + 1]) for i in range(0, len(pts) - 1, 2)]
    if len(pairs) < 5:
        raise ConfigError("points", "holder needs at least 5 pairs (10 points)")
    fit = holder_modulus(op, pairs)
    rows = [[i, *p, *q] for i, (p, q) in enumerate(pairs)]
    header = ["pair", *(f"x{d}" for d in range(mesh.dim)), *(f"y{d}" for d in range(mesh.dim))]
    report = {
        "experiment": "holder",
        "alpha": fit.alpha,
        "c": fit.c,
        "max_residual": fit.max_residual,
    }
    return report, header, rows


def run_l2diag(cfg: ExperimentConfig):
    domain = _require_domain(cfg)
    basis = eigenpairs(domain, cfg.bc, cfg.modes)
    partial, tail = l2_realization_diagnostic(basis, cfg.lam)
    step = max(1, partial.size // 64)
    rows = [[k + 1, partial[k]] for k in range(0, partial.size, step)]
    if rows[-1][0] != partial.size:
        rows.append([partial.size, partial[-1]])
    header = ["modes", "partial_sum"]
    report = {
        "experiment": "l2diag",
        "modes": cfg.modes,
        "total": float(partial[-1]),
        "tail_bound": tail,
        "finite": bool(np.isfinite(tail)),
    }
    return report, header, rows


_RUNNERS = {
    "solve": run_solve,
    "sample": run_sample,
    "covariance": run_covariance,
    "converge": run_converge,
    "truncate": run_truncate,
    "holder": run_holder,
    "l2diag": run_l2diag,
}


def run(experiment: str, config_path: str, outdir: str, seed: int | None = None) -> int:
    """Execute one experiment; returns the process exit code."""
    try:
        raw = parse_config_text(Path(config_path).read_text(encoding="utf-8"))
        cfg = build_config(experiment, raw, seed_override=seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"config error: field 'config': {exc}", file=sys.stderr)
        return 2

    digest = config_hash(cfg)
    meta = {
        "config_hash": digest,
        "seed": cfg.seed,
        "stream_id": cfg.stream_id,
        "version": __version__,
        "experiment": experiment,
        "config": effective_config_lines(cfg),
    }
    try:
        result = _RUNNERS[experiment](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, np.linalg.LinAlgError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3

    report, header, rows = result[:3]
    status = result[3] if len(result) > 3 else 0
    csv_meta = {"config_hash": digest, "seed": cfg.seed, "version": __version__}
    report = {"meta": csv_meta, **report}
    target = Path(outdir) / experiment / digest
    target.mkdir(parents=True, exist_ok=True)
    write_json(target / "report.json", report)
    write_csv(target / "levels.csv", header, rows, csv_meta)
    write_json(target / "meta.json", meta)
    print(target)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="whitefem",
        description="Experiments for elliptic problems with white-noise loads.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", required=True, help="path to a key = value config file")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--outdir", default="results", help="output directory root")
    args = parser.parse_args(argv)
    return run(args.experiment, args.config, args.outdir, seed=args.seed)


if __name__ == "__main__":
    sys.exit(main())
