"""Configuration-driven experiment runner.

Experiments are described by flat ``key = value`` text files (``#`` starts a
comment), which keeps archived configurations diff-friendly.  Every run
writes into ``<outdir>/<experiment>/<config-hash>/``:

* ``report.json``   main results (stable key order),
* ``levels.csv``    per-level or per-entry table, 17 significant digits,
* ``meta.json``     config hash, effective config, seed, package version.

All randomness flows through the seeded stream recorded in the outputs, and
reductions run in fixed batch order, so a rerun with the same config and
seed is byte-identical.  All three outputs are serialized before the run
directory is created, so a failed run leaves no output behind.  A NaN
anywhere in them is a numerical failure; so is an infinity in a JSON file,
where a diverging tail series writes its bound as null (levels.csv: inf).

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 acceptance-threshold violation or an unconverged statistic (a `converge`
budget, or a `truncate` or `l2diag` tail bound over 1e-3 of its value).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from . import __version__
from .convergence import (
    ADAPT_CAP,
    SERIES_REL,
    deterministic_fem_error,
    holder_modulus,
    l2_realization_diagnostic,
    pair_separations,
    truncation_error_closed_form,
)
from .fem import BoundaryCondition, FactorizedSystem, locate_points
from .mesh import Mesh, build_interval_mesh, build_rectangle_mesh, read_mesh, refine_uniform
from .noise import GaussianStream
from .sampling import (
    DiscreteSolutionOperator,
    covariance_standard_error,
    exact_covariances,
    monte_carlo_moments,
    path_point_values,
)
from .spectral import Interval, ModelDomain, Rectangle


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
    """A config as read so far: its text, and the value of every key it reads."""

    experiment: str
    mesh_file: str | None
    raw: dict[str, str]
    values: dict[str, Any] = field(default_factory=dict)
    domain: ModelDomain | None = None
    bc: BoundaryCondition | None = None
    lam: float | None = None
    seed: int | None = None

    def __getitem__(self, key: str):
        return self.values[key]

    @property
    def dim(self) -> int:
        if self.domain is not None:
            return self.domain.dim
        return 2

    def base_mesh(self, n: int) -> Mesh:
        """The mesh of level n; a Dirichlet mesh with no interior node is refused."""
        if self.mesh_file is not None:
            try:
                mesh = read_mesh(self.mesh_file)
            except (OSError, ValueError) as exc:
                raise ConfigError("mesh_file", str(exc)) from None
            for _ in range(n):
                mesh = refine_uniform(mesh)
        elif isinstance(self.domain, Interval):
            mesh = build_interval_mesh(self.domain.a, self.domain.b, n)
        else:
            mesh = build_rectangle_mesh(self.domain.lx, self.domain.ly, n, n)
        if self.bc.kind == "dirichlet" and mesh.boundary_nodes().size == mesh.n_nodes:
            raise ConfigError("mesh_file" if self.mesh_file is not None else "levels",
                              f"bc = dirichlet leaves no free node: every node of level {n} is on the boundary")
        return mesh


class Key(NamedTuple):
    """One config key: how its text parses, its default and its allowed values.

    A ValueError from `parse` is reported as "not <what>".  A default of None
    makes the key required; a callable default is given the config read so
    far.  `check` returns why a value is refused, or None.
    """

    parse: Callable[[str, ExperimentConfig], Any]
    what: str
    default: Any = None
    check: Callable[[Any, ExperimentConfig], str | None] = lambda value, cfg: None


def _read(cfg: ExperimentConfig, key: str, spec: Key):
    """The one getter: parse, default and check `key`, and record its value in cfg."""
    text = cfg.raw.get(key)
    if text is None:
        if spec.default is None:
            raise ConfigError(key, "required")
        value = spec.default(cfg) if callable(spec.default) else spec.default
    else:
        try:
            value = spec.parse(text, cfg)
        except ValueError:
            raise ConfigError(key, f"not {spec.what}: {text!r}") from None
    refusal = spec.check(value, cfg)
    if refusal:
        raise ConfigError(key, refusal)
    cfg.values[key] = value
    return value


def _finite(text: str) -> float:
    """float(text), with nan and the infinities refused by ValueError."""
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def _points(text: str, cfg: ExperimentConfig) -> list[tuple[float, ...]]:
    pts, dim = [], cfg.dim
    for chunk in filter(None, (part.strip() for part in text.split(";"))):
        try:
            coords = tuple(_finite(t) for t in chunk.replace(",", " ").split())
        except ValueError:
            raise ConfigError("points", f"not finite numbers: {chunk!r}") from None
        if len(coords) != dim:
            raise ConfigError("points", f"point {chunk!r} has {len(coords)} coordinates, expected {dim}")
        pts.append(coords)
    return pts


def _positive(value, cfg):
    return None if value > 0 else f"must be positive, got {value}"


def _at_least(least: int):
    return lambda value, cfg: None if value >= least else f"must be at least {least}, got {value}"


def _r_floor(cfg: ExperimentConfig) -> float:
    return cfg.dim / 2.0 - 1.0


def _levels(levels, cfg):
    if levels and min(levels) >= 1:
        return None
    return f"need positive subdivision counts, got {cfg.raw.get('levels')!r}"


def _one_level(levels, cfg):
    return _levels(levels, cfg) or (f"experiment '{cfg.experiment}' runs on one level, got {len(levels)}"
                                    if len(levels) > 1 else None)


def _two_points(points, cfg):
    return None if len(points) >= 2 else f"experiment '{cfg.experiment}' needs at least 2 points"


def _point_pairs(points, cfg):
    """Holder fits consecutive points as pairs: an even count of at least 10."""
    if len(points) < 10:
        return _two_points(points, cfg) or "holder needs at least 5 pairs (10 points)"
    if len(points) % 2:
        return f"holder pairs points two at a time, got an odd count {len(points)}"
    try:
        pair_separations(list(zip(points[::2], points[1::2])))
    except ValueError as exc:
        return str(exc)
    return None


_NUMBER = (lambda text, cfg: _finite(text), "a finite number")
_INTEGER = (lambda text, cfg: int(text), "an integer")
_INTEGERS = (lambda text, cfg: [int(tok) for tok in text.replace(",", " ").split()], "an integer list")
# The domains a config can name: the shape built from them, and its keys in
# the shape's argument order.
_DOMAINS = {
    "interval": (Interval, {
        "a": Key(*_NUMBER, 0.0),
        "b": Key(*_NUMBER, check=lambda b, cfg: (
            None if b > cfg["a"] else f"must exceed a = {cfg['a']}, got {b}")),
    }),
    "rectangle": (Rectangle, {
        "lx": Key(*_NUMBER, check=_positive),
        "ly": Key(*_NUMBER, check=_positive),
    }),
}
# Read by every experiment (beta only with bc = robin, seed unless --seed).
_COMMON_KEYS = {
    "bc": Key(lambda text, cfg: text, "a word", check=lambda kind, cfg: (
        None if kind in ("dirichlet", "neumann", "robin")
        else f"must be dirichlet, neumann or robin, got {kind!r}")),
    "beta": Key(*_NUMBER, check=_positive),
    "lambda": Key(*_NUMBER, check=_positive),
    "seed": Key(*_INTEGER, 0),
}
_ONE_LEVEL = Key(*_INTEGERS, (8,), _one_level)
_STREAM_ID = Key(*_INTEGER, 0)
_R = Key(*_NUMBER, lambda cfg: _r_floor(cfg) + 0.1,
         lambda r, cfg: None if r > _r_floor(cfg) else f"must exceed d/2 - 1 = {_r_floor(cfg)}, got {r}")


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
        if np.isnan(x):
            raise ValueError("a NaN in a levels.csv row")
        return f"{float(x):.17g}"
    return str(x)


def csv_text(header: list[str], rows: list[list], meta: dict) -> str:
    """levels.csv: meta as comment lines, then the header and the rows.
    ValueError for a NaN; an infinite bound is written as inf."""
    lines = [f"# {k} = {v}" for k, v in sorted(meta.items())]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    return "\n".join(lines) + "\n"


def json_text(payload: dict) -> str:
    """Stable JSON text; ValueError for a NaN or an infinity, which JSON cannot hold."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


# -- experiments -----------------------------------------------------------------


def _probe_mesh(cfg: ExperimentConfig) -> Mesh:
    """The mesh of the one level, after checking that every probe point lies on it."""
    mesh = cfg.base_mesh(cfg["levels"][0])
    for p in cfg["points"]:
        try:
            locate_points(mesh, [p])
        except ValueError:
            raise ConfigError("points", f"point {p} is outside the mesh") from None
    return mesh


def run_solve(cfg: ExperimentConfig):
    load_const = cfg["load_constant"]
    mesh = cfg.base_mesh(cfg["levels"][0])
    system = FactorizedSystem(mesh, cfg.bc, cfg.lam)
    u = system.solve_checked(system.M @ np.full(mesh.n_nodes, load_const))
    rows = [[i, *mesh.nodes[i], u.coefficients[i]] for i in range(mesh.n_nodes)]
    header = ["node", *(f"x{d}" for d in range(mesh.dim)), "value"]
    report = {
        "n_nodes": mesh.n_nodes,
        "h": mesh.h,
        "load_constant": load_const,
        "max_abs": float(np.abs(u.coefficients).max()),
    }
    return report, header, rows


def run_sample(cfg: ExperimentConfig):
    """Paths at the probe points, with each point's sample mean.

    A path's value at point p is z . G[:, p] for its normals z, so an n-path
    mean has the standard error ||G[:, p]|| / sqrt(n), the value reported
    as `se_mean`.  The run exits 4 when a mean is more than 4 of them from 0.
    """
    mesh = _probe_mesh(cfg)
    op = DiscreteSolutionOperator(mesh, cfg.bc, cfg.lam)
    points, n = cfg["points"] or [tuple(mesh.nodes[mesh.n_nodes // 2])], cfg["samples"]
    G = op.point_functionals(points)
    vals = path_point_values(G, n, GaussianStream(cfg.seed, cfg["stream_id"]))
    mean = vals.mean(axis=0)
    # einsum's own loops, not a BLAS dot, so the sum order does not depend on the thread count
    se = np.sqrt(np.einsum("ip,ip->p", G, G) / n)
    pass_all = bool(np.all(np.abs(mean) <= 4.0 * se))
    rows = [[i, *v] for i, v in enumerate(vals)]
    header = ["path", *(f"p{j}" for j in range(len(points)))]
    report = {
        "n_paths": n,
        "points": [list(p) for p in points],
        "sample_mean": [float(v) for v in mean],
        "se_mean": [float(v) for v in se],
        "all_within_4se": pass_all,
    }
    return report, header, rows, (0 if pass_all else 4)


def run_covariance(cfg: ExperimentConfig):
    """Monte Carlo against exact covariances at the probe points.

    Each entry passes when the two differ by at most 4 standard errors of an
    n-path sample covariance under the exact covariance C,
    sqrt((C_ii C_jj + C_ij^2) / (n - 1)), the value reported as `se`.
    """
    mesh = _probe_mesh(cfg)
    op = DiscreteSolutionOperator(mesh, cfg.bc, cfg.lam)
    points, n = cfg["points"], cfg["samples"]
    moments = monte_carlo_moments(op, points, n, GaussianStream(cfg.seed, cfg["stream_id"]))
    C = exact_covariances(op, points)
    # Not an error estimated from the paths it judges: at small path counts
    # that is often too small, and the check then fails correct output.
    se_cov = covariance_standard_error(C, n)
    rows, pass_all = [], True
    for i in range(len(points)):
        for j in range(i, len(points)):
            exact = float(C[i, j])
            mc = moments.covariance[i, j]
            se = se_cov[i, j]
            ok = abs(mc - exact) <= 4.0 * se
            pass_all &= ok
            rows.append([i, j, exact, mc, se, int(ok)])
    header = ["i", "j", "exact", "mc", "se", "within_4se"]
    report = {
        "n_paths": n,
        "points": [list(p) for p in points],
        "all_within_4se": bool(pass_all),
    }
    return report, header, rows, (0 if pass_all else 4)


def run_converge(cfg: ExperimentConfig):
    """Mode-sum errors per level; exit 4 when an adaptive budget stopped at its cap."""
    meshes = [cfg.base_mesh(n) for n in cfg["levels"]]
    adaptive = cfg["basis_count"] == 0
    budget = None if adaptive else cfg["basis_count"]
    rep = deterministic_fem_error(cfg.domain, cfg.bc, cfg.lam, cfg["r"], meshes, basis_count=budget)
    rows = [[lv.h, lv.error_sq, lv.tail_bound] for lv in rep.levels]
    header = ["h", "error_sq", "tail_bound"]
    fitted = len(rep.levels) >= 3  # fewer levels have no rate fit: null, not NaN
    report = {
        "bc": rep.bc_kind,
        "lambda": rep.lam,
        "beta": rep.beta,
        "r": rep.r,
        "basis_count": rep.basis_count,
        "fitted_rate": rep.fitted_rate if fitted else None,
        "fit_residual": rep.fit_residual if fitted else None,
        "increments": rep.increments,
        # a tail series that diverges has no finite bound: null, since JSON has no infinity
        "levels": [
            {"h": lv.h, "error_sq": lv.error_sq, "tail_bound": None if lv.tail_bound == np.inf else lv.tail_bound}
            for lv in rep.levels
        ],
    }
    return report, header, rows, (4 if adaptive and rep.basis_count == ADAPT_CAP else 0)


def run_truncate(cfg: ExperimentConfig):
    """Truncation errors; exit 4 when a tail bound is over SERIES_REL of its value."""
    truncations = cfg["truncations"]
    vals = [truncation_error_closed_form(cfg.domain, cfg.bc, cfg.lam, cfg["r"], m) for m in truncations]
    rows = [[m, val.value, val.tail_bound] for m, val in zip(truncations, vals)]
    values = [val.value for val in vals]
    header = ["m", "error_sq", "tail_bound"]
    report = {
        "r": cfg["r"],
        "truncations": list(truncations),
        "values": values,
        "strictly_decreasing": bool(np.all(np.diff(values) < 0)),
    }
    return report, header, rows, (0 if all(v.tail_bound <= SERIES_REL * v.value for v in vals) else 4)


def run_holder(cfg: ExperimentConfig):
    mesh = _probe_mesh(cfg)
    op = DiscreteSolutionOperator(mesh, cfg.bc, cfg.lam)
    pts = cfg["points"]
    pairs = list(zip(pts[::2], pts[1::2]))
    fit = holder_modulus(op, pairs)
    rows = [[i, *p, *q] for i, (p, q) in enumerate(pairs)]
    header = ["pair", *(f"x{d}" for d in range(mesh.dim)), *(f"y{d}" for d in range(mesh.dim))]
    report = {
        "alpha": fit.alpha,
        "c": fit.c,
        "max_residual": fit.max_residual,
    }
    return report, header, rows


def run_l2diag(cfg: ExperimentConfig):
    """Partial sums of sum_k (mu_k + lam)^-2; exit 4 when the tail bound is over SERIES_REL of the total."""
    partial, tail = l2_realization_diagnostic(cfg.domain, cfg.bc, cfg.lam)
    step = max(1, partial.size // 64)
    rows = [[k + 1, partial[k]] for k in range(0, partial.size, step)]
    if rows[-1][0] != partial.size:
        rows.append([partial.size, partial[-1]])
    header = ["modes", "partial_sum"]
    report = {
        "modes": partial.size,
        "total": float(partial[-1]),
        "tail_bound": tail,
    }
    return report, header, rows, (0 if tail <= SERIES_REL * partial[-1] else 4)


class Experiment(NamedTuple):
    run: Callable
    keys: dict[str, Key]        # the keys the runner reads, beyond the common and domain keys
    needs_domain: bool = False  # a model domain, not a mesh_file


# The one table of experiments.  build_config reads exactly the chosen
# experiment's keys, so a key it does not read is refused rather than ignored.
_EXPERIMENT_TABLE = {
    "solve": Experiment(run_solve, {"levels": _ONE_LEVEL, "load_constant": Key(*_NUMBER, 1.0)}),
    "sample": Experiment(run_sample, {
        "levels": _ONE_LEVEL, "samples": Key(*_INTEGER, 10_000, _at_least(1)),
        "stream_id": _STREAM_ID, "points": Key(_points, "a point list", ()),
    }),
    "covariance": Experiment(run_covariance, {
        "levels": _ONE_LEVEL, "samples": Key(*_INTEGER, 10_000, _at_least(2)),
        "stream_id": _STREAM_ID, "points": Key(_points, "a point list", (), _two_points),
    }),
    "converge": Experiment(run_converge, {
        "levels": Key(*_INTEGERS, (8,), _levels), "r": _R,
        "basis_count": Key(*_INTEGER, 0, _at_least(0)),
    }, needs_domain=True),
    "truncate": Experiment(run_truncate, {
        "r": _R,
        "truncations": Key(*_INTEGERS, (10, 40, 160), lambda ms, cfg: None if ms and min(ms) >= 0 else (
            f"need one or more nonnegative truncations, got {cfg.raw.get('truncations')!r}")),
    }, needs_domain=True),
    "holder": Experiment(run_holder, {
        "levels": _ONE_LEVEL, "points": Key(_points, "a point list", (), _point_pairs),
    }),
    "l2diag": Experiment(run_l2diag, {}, needs_domain=True),
}
EXPERIMENTS = tuple(_EXPERIMENT_TABLE)
CONFIG_KEYS = frozenset({"domain", "mesh_file", *_COMMON_KEYS}).union(
    *(keys for _, keys in _DOMAINS.values()), *(entry.keys for entry in _EXPERIMENT_TABLE.values())
)


def build_config(experiment: str, raw: dict[str, str], seed_override: int | None = None) -> ExperimentConfig:
    if experiment not in _EXPERIMENT_TABLE:
        raise ConfigError("experiment", f"unknown experiment {experiment!r}")
    entry = _EXPERIMENT_TABLE[experiment]
    unknown = sorted(set(raw) - CONFIG_KEYS)
    if unknown:
        raise ConfigError(unknown[0], "unknown key")

    cfg = ExperimentConfig(experiment, raw.get("mesh_file"), dict(raw))
    if cfg.mesh_file is None:
        kind = raw.get("domain")
        if kind is None:
            raise ConfigError("domain", "required (or provide mesh_file)")
        if kind not in _DOMAINS:
            raise ConfigError("domain", f"must be 'interval' or 'rectangle', got {kind!r}")
        shape, domain_keys = _DOMAINS[kind]
        cfg.domain = shape(*(_read(cfg, key, spec) for key, spec in domain_keys.items()))
        reads, where = {"domain", *domain_keys}, f"domain = {kind}"
    else:
        reads, where = {"mesh_file"}, "mesh_file"
    unread = sorted(set(raw) - reads - set(_COMMON_KEYS) - set(entry.keys))
    if unread:
        raise ConfigError(unread[0], f"not read by experiment '{experiment}' with {where}")

    bc_kind = _read(cfg, "bc", _COMMON_KEYS["bc"])
    if (bc_kind == "robin") != ("beta" in raw):
        raise ConfigError("beta", "required for Robin boundary conditions" if bc_kind == "robin"
                          else f"not allowed for bc = {bc_kind}")
    beta = _read(cfg, "beta", _COMMON_KEYS["beta"]) if bc_kind == "robin" else None
    cfg.bc = BoundaryCondition(bc_kind, beta)
    cfg.lam = _read(cfg, "lambda", _COMMON_KEYS["lambda"])
    cfg.seed = _read(cfg, "seed", _COMMON_KEYS["seed"]) if seed_override is None else seed_override
    for key, spec in entry.keys.items():
        _read(cfg, key, spec)
    if entry.needs_domain and cfg.domain is None:
        raise ConfigError("domain", f"experiment '{experiment}' needs a model domain")
    return cfg


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
        # every run records its noise stream, the default where it draws none
        "stream_id": cfg.values.get("stream_id", _STREAM_ID.default),
        "version": __version__,
        "experiment": experiment,
        "config": effective_config_lines(cfg),
    }
    try:
        result = _EXPERIMENT_TABLE[experiment].run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, np.linalg.LinAlgError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3

    report, header, rows = result[:3]
    status = result[3] if len(result) > 3 else 0
    csv_meta = {"config_hash": digest, "seed": cfg.seed, "version": __version__}
    report = {"meta": csv_meta, "experiment": experiment, **report}
    try:
        outputs = {
            "report.json": json_text(report),
            "levels.csv": csv_text(header, rows, csv_meta),
            "meta.json": json_text(meta),
        }
    except ValueError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    target = Path(outdir) / experiment / digest
    target.mkdir(parents=True, exist_ok=True)
    for name, text in outputs.items():
        (target / name).write_text(text, encoding="ascii")
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
