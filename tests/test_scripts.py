import csv
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_density_table_script(tmp_path):
    out_csv = tmp_path / "table.csv"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "density_table.py"),
         "--lo", "5", "--hi", "12", "--csv", str(out_csv)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "degrees at or below 1/3 (marked *): [5, 6, 7]" in \
        proc.stdout.splitlines()
    with open(out_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "sym", "alt", "floor", "simple", "refined"]
    assert [row[0] for row in rows[1:]] == [str(n) for n in range(5, 13)]
