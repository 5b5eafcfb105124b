"""whitefem benchmark: three workloads, checked results, end-to-end and layer metrics.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds 36] [--trace 0|1]

Run from the root of a checkout.  Each workload runs in a process of its own
(``workloads.py``), which imports whitefem from ``src/``.  This process then
checks the workload's outputs against the benchmark's own computations
(``checks.py``, ``reference.py``) and prints one JSON line as the last line of
standard output: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from the traced rounds, the part of the traced wall time that no
top-level span covers, and the tracing overhead.  Results and spans are also
written to ``perfbench/out/``.  Without ``--workload`` all three workloads
run in turn and a combined line closes the output.  Each workload measures
for ``RUN_SECONDS``, the ``run_seconds`` of ``BENCHMARK.json``; ``--seconds``
is accepted so that the benchmark's command line can state it, and takes no
other value.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("mc-moments", "mode-sum-convergence", "robin-fine-mesh")
# One BLAS thread in every process: whitefem's hot paths (SuperLU, sparse
# matvecs) are single-threaded, and a single thread keeps the dense parts
# steady and bit-reproducible.
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
RUN_SECONDS = 36
# Room for the last round to overrun RUN_SECONDS, for start-up and for the
# checks in this process, within 180 s in all.
CHILD_TIMEOUT_S = RUN_SECONDS + 100

END_TO_END = {"setup_s": "s", "paths_or_modes_per_ref": "1/ref", "peak_rss_mib": "MiB"}


def run_child(name: str, seed: int, trace: int, tmp: Path) -> None:
    env = dict(os.environ, **THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(BENCH / "workloads.py"), "--workload", name, "--seed", str(seed),
           "--trace", str(trace), "--out", str(tmp)]
    # The workload process leads a process group of its own, with its
    # reference-kernel helper in it, so that one signal stops both.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"workload {name} exited with code {proc.returncode}")


def evaluate(name: str, seed: int, payload: dict, arrays: dict) -> tuple[bool, int, int, list[str]]:
    """Check the outputs; every round counts every operation once."""
    import checks

    ops = checks.check(name, payload["spec"], payload["inputs"], arrays, seed)
    first = payload["rounds"][0]["digest"]
    correct, attempted, failed, notes = True, 0, 0, []
    for k, record in enumerate(payload["rounds"]):
        same = record["digest"] == first
        if not same:
            notes.append(f"round {k}: outputs differ from round 0 on the same inputs")
        for op in ops:
            attempted += 1
            if op.ok and same:
                continue
            failed += 1
            known = op.known_fault and same
            correct &= known
            if k == 0:
                notes.append(f"{'known fault' if known else 'FAILED'}: {op.name}: {op.detail}")
    return correct, attempted, failed, notes


def _median(values) -> float:
    return float(statistics.median(values))


def _pairs(rounds: list[dict]) -> list[tuple[float, float]]:
    """(reference-kernel time, main-call time) of every main call."""
    return [pair for r in rounds for pair in zip(r["ref_s"], r["call_s"])]


def end_to_end_metrics(payload: dict) -> dict:
    """Set-up time, main-call rate relative to the reference kernel, peak RSS.

    The machine's speed drifts over minutes, and the drift moves the
    reference kernel timed just before each main call as much as the call
    (``refkernel.py``).  The rate is therefore the work of one main call
    times the median, over the run's main calls, of kernel time over call
    time: the paths or modes done in the time of one kernel run.  Set-up
    time must stay in seconds; contention only ever adds time, so it is the
    set-up of the fastest round after the first (which also pays the
    process's first-touch costs).
    """
    rounds = [r for r in payload["rounds"] if not r["traced"]]
    ratio = _median(ref / call for ref, call in _pairs(rounds))
    values = {
        "setup_s": min(r["setup_s"] for r in rounds[1:]),
        "paths_or_modes_per_ref": rounds[0]["work_per_call"] * ratio,
        "peak_rss_mib": payload["peak_rss_mib"],
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def layer_metrics(payload: dict) -> dict:
    traced = [r for r in payload["rounds"] if r["traced"]]
    untraced = [r for r in payload["rounds"] if not r["traced"]]
    metrics = {}
    for key, unit in (("layers", "s"), ("counts", "count")):
        for layer in traced[0][key]:
            metrics[layer] = {"value": _median(r[key][layer] for r in traced), "unit": unit}
    traced_wall = _median(r["wall_s"] for r in traced)
    metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    metrics["trace.uncovered_s"] = {"value": _median(r["wall_s"] - r["top_level_s"] for r in traced),
                                    "unit": "s"}
    # Round 0 also pays the process's first-touch costs, so it is left out of
    # the untraced side whenever a later untraced round exists.
    baseline = untraced[1:] or untraced
    metrics["trace.overhead_s"] = {"value": traced_wall - _median(r["wall_s"] for r in baseline),
                                   "unit": "s"}
    # The rate in plain seconds, and the machine speed it depends on, from
    # the untraced rounds.
    pairs = _pairs(untraced)
    metrics["trace.paths_or_modes_per_s"] = {
        "value": untraced[0]["work_per_call"] / _median(call for _, call in pairs), "unit": "1/s"}
    metrics["trace.ref_kernel_s"] = {"value": _median(ref for ref, _ in pairs), "unit": "s"}
    return metrics


def run_workload(name: str, seed: int, trace: int) -> dict:
    import numpy as np

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="tmp-", dir=OUT) as tmp:
        run_child(name, seed, trace, Path(tmp))
        payload = json.loads((Path(tmp) / "rounds.json").read_text(encoding="utf-8"))
        with np.load(Path(tmp) / "arrays.npz") as npz:
            arrays = dict(npz)
    correct, attempted, failed, notes = evaluate(name, seed, payload, arrays)
    metrics = layer_metrics(payload) if trace else end_to_end_metrics(payload)
    for note in notes:
        print(f"{name}: {note}")
    if trace:
        for metric, m in metrics.items():
            print(f"{name}: {metric:28s} {m['value']:14.6g} {m['unit']}")
        spans = [{"round": k, "spans": r["spans"]} for k, r in enumerate(payload["rounds"]) if r["traced"]]
        (OUT / f"{name}-seed{seed}.spans.json").write_text(json.dumps(spans), encoding="utf-8")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    (OUT / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(result) + "\n", encoding="utf-8")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS, choices=(RUN_SECONDS,))
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    # SIGTERM becomes SystemExit, so run_child kills and reaps the workload
    # process before this one ends.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "whitefem" / "__init__.py").is_file():
        print(f"whitefem sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # NumPy is imported only after this (by run_workload and checks), so the
    # setting holds in this process as well as in the workload processes.
    os.environ.update(THREADS)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.trace)
        if len(names) > 1:
            print(json.dumps({"workload": name, **results[name]}))
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}:{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
