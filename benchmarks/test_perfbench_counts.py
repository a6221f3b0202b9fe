"""perfbench's traced prefill and decode counts equal the golden file.

Each workload runs ``perfbench/run.py --seed 0 --seconds 2 --trace 1``
from a copy of ``perfbench/`` in a temporary directory, beside a link to
``src/``, so the run writes its ``out/`` records there and not in the
repository.  The counts in ``perfbench_counts.json`` are exact for the
seed; a change that moves one updates the file and says why in CHANGES.md.
Serve is left out: which requests share a tick follows arrival timing.
"""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

BENCHMARKS_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCHMARKS_DIR.parent
GOLDEN = json.loads((BENCHMARKS_DIR / "perfbench_counts.json").read_text())


@pytest.mark.parametrize("workload", sorted(GOLDEN["counts"]))
def test_traced_counts_match_the_golden_file(tmp_path, workload):
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    command = [
        sys.executable, str(tmp_path / "perfbench" / "run.py"),
        "--workload", workload, "--seed", "0", "--seconds", "2", "--trace", "1",
    ]
    done = subprocess.run(
        command, cwd=tmp_path, capture_output=True, text=True, timeout=600
    )
    assert done.returncode == 0, done.stderr
    record = json.loads(
        (tmp_path / "perfbench" / "out" / f"{workload}-seed0-trace1.json").read_text()
    )
    assert record["correct"] is True
    assert not record["flags"], record["flags"]
    wrong = [
        f"{name}: {record['report'][name]['value']!r}, golden {want!r}"
        for name, want in GOLDEN["counts"][workload].items()
        if record["report"][name]["value"] != want
    ]
    assert not wrong, f"{workload} counts differ:\n" + "\n".join(wrong)
