"""Drive the command-line front end: eval, run, and table.

Experiments are described by flat key=value spec files (see
fixtures/specs/).  `eval` scores the untrained baseline, `run` trains
one hyperparameter cell, `grid` sweeps the full grid, and `table`
aggregates report files into one model x dataset view.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPECS = ROOT / "fixtures" / "specs"


def cli(*args):
    command = [sys.executable, "-m", "simxfer.cli", *args]
    print(f"\n$ simxfer {' '.join(args)}")
    proc = subprocess.run(command, cwd=ROOT, env={**os.environ, "SIMXFER_DATA_DIR": str(ROOT)},
                          capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        sys.stdout.write(proc.stderr)
        raise SystemExit(f"exit code {proc.returncode}")


with tempfile.TemporaryDirectory() as tmp:
    ue_report = Path(tmp) / "ue.tsv"
    dnt_report = Path(tmp) / "dnt.tsv"
    ft_report = Path(tmp) / "ft.tsv"

    cli("eval", "--spec", str(SPECS / "ue_wordavg.spec"), "--out", str(ue_report))
    cli("run", "--spec", str(SPECS / "ft_wordavg_run.spec"), "--out", str(ft_report))
    # the grid spec sweeps 24 cells; override nothing and let it pick the best
    cli("grid", "--spec", str(SPECS / "dnt_wordavg_grid.spec"), "--out", str(dnt_report))
    cli("table", str(ue_report), str(ft_report), str(dnt_report))

print("\nreport files are deterministic: rerunning a spec with the same seed "
      "reproduces them byte for byte.")
