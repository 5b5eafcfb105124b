"""Byte-identity guard: every CLI experiment on a fixed config set.

`tests/data/byte_guard/` holds one small config per experiment and boundary
condition (meshes of at most 16 x 16, at most 500 paths and 256 `converge`
modes) and `digests.json`, the SHA-256 of every output file they produce.
A change that moves any output byte fails here and must say which outputs
changed and why.  After such a change, rewrite the digests with

    PYTHONPATH=src python tests/test_byte_guard.py

which prints the name of every digest that changed, was added or was
removed, one a line.
"""

import hashlib
import json
import sys
from pathlib import Path

from whitefem import cli

GUARD = Path(__file__).parent / "data" / "byte_guard"
DIGESTS = GUARD / "digests.json"


def run_guard(outdir: Path) -> dict[str, str]:
    """Run every guard config into outdir; SHA-256 of each output file."""
    digests = {}
    for config in sorted(GUARD.glob("*.cfg")):
        experiment = config.stem.split("-")[0]
        target = outdir / config.stem
        assert cli.run(experiment, str(config), str(target)) == 0, config.name
        for path in sorted(target.rglob("*")):
            if path.is_file():
                digests[f"{config.stem}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def moved(old: dict[str, str], new: dict[str, str]) -> list[str]:
    """Names whose digest differs between old and new, or that only one holds."""
    return sorted(name for name in old.keys() | new.keys() if old.get(name) != new.get(name))


def test_outputs_match_the_recorded_digests(tmp_path):
    want = json.loads(DIGESTS.read_text())
    got = run_guard(tmp_path)
    assert len(want) == 3 * 3 * len(cli.EXPERIMENTS)  # three files per run
    assert sorted(got) == sorted(want)
    changed = moved(want, got)
    assert not changed, f"output bytes changed: {changed}"


def test_moved_lists_changed_added_and_removed_names():
    old = {"a/report.json": "1", "b/levels.csv": "2", "c/meta.json": "3"}
    new = {"a/report.json": "1", "b/levels.csv": "4", "d/meta.json": "3"}
    assert moved(old, new) == ["b/levels.csv", "c/meta.json", "d/meta.json"]
    assert moved(old, dict(old)) == []


if __name__ == "__main__":
    import contextlib
    import tempfile

    old = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    # the runs' own lines go to stderr, so stdout holds only the moved names
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        digests = run_guard(Path(tmp))
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    changed = moved(old, digests)
    for name in changed:
        print(name)
    print(f"wrote {len(digests)} digests to {DIGESTS}; {len(changed)} moved", file=sys.stderr)
