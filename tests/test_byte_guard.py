"""Byte-identity guard: every CLI experiment on a fixed config set.

`tests/data/byte_guard/` holds one small config per experiment and boundary
condition (meshes of at most 16 x 16, at most 500 paths and 256 modes) and
`digests.json`, the SHA-256 of every output file they produce.  A change
that moves any output byte fails here and must say which outputs changed
and why.  After such a change, rewrite the digests with

    PYTHONPATH=src python tests/test_byte_guard.py
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


def test_outputs_match_the_recorded_digests(tmp_path):
    want = json.loads(DIGESTS.read_text())
    got = run_guard(tmp_path)
    assert len(want) == 3 * 3 * len(cli.EXPERIMENTS)  # three files per run
    assert sorted(got) == sorted(want)
    changed = sorted(name for name in want if got[name] != want[name])
    assert not changed, f"output bytes changed: {changed}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = run_guard(Path(tmp))
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}", file=sys.stderr)
