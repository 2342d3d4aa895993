import csv
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_density_table_script(tmp_path):
    out_csv = tmp_path / "table.csv"
    proc = _run_script(
        "density_table.py", "--lo", "5", "--hi", "12", "--csv", str(out_csv))
    assert "degrees at or below 1/3 (marked *): [5, 6, 7]" in \
        proc.stdout.splitlines()
    with open(out_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "sym", "alt", "floor", "simple", "refined"]
    assert [row[0] for row in rows[1:]] == [str(n) for n in range(5, 13)]


def test_recognizer_experiment_script():
    proc = _run_script(
        "recognizer_experiment.py",
        "--degrees", "10,12", "--reps", "20", "--parity", "even")
    rows = [line.split() for line in proc.stdout.splitlines()[2:]]
    assert [row[0] for row in rows] == ["10", "12"]
    assert all(len(row) == 5 for row in rows)
