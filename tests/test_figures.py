"""``scripts/reproduce_figures.py`` run as a script, its CSVs pinned.

The script reads only the closed forms and the converse, so a change in
these bytes is a change in a published curve.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# CSV name -> SHA-256 of its bytes
PINNED_CSVS = {
    "centralized_delay.csv": (
        "7e01bb08b454a3247545283ab94ebd71d4f9fd200bdfc061e65bd0611cc64a04"
    ),
    "centralized_gains.csv": (
        "9c81b33d5bedf4aaecdadf82bc124f54a1708cf6f0522e787614d22d0ccd7e4e"
    ),
    "decentralized_delay.csv": (
        "819462ddfd0b3d797581fe1d742776810942d078089f9ce1cdd2ff1469435700"
    ),
}


def test_reproduce_figures_writes_the_pinned_csvs(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_figures.py"),
         "--out-dir", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    wrote = [f"wrote {tmp_path / name}" for name in PINNED_CSVS]
    assert done.stdout.splitlines() == wrote
    got = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.iterdir()
    }
    assert got == PINNED_CSVS
