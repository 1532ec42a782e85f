"""Record the reference reports in ``refs/`` from the code in ``src/``.

Usage: PYTHONPATH=src python3 bench/record.py [WORKLOAD ...]

Runs every reference command of each workload (every pool point of the
seeded grids, every rectangle aspect) in this process and stores its rows.
The references in the repository were recorded from the commit that added
the benchmark; re-record only for a change that is meant to alter reports.
"""

from __future__ import annotations

import logging
import subprocess
import sys
import tempfile
from pathlib import Path

import check
import workloads


def record(workload: str) -> Path:
    import bilap.cli

    out: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, cmd in enumerate(workloads.reference_commands(workload, f"{tmp}/cache")):
            path = Path(tmp) / f"{i}.{cmd.fmt}"
            rc = bilap.cli.main([*cmd.argv, "--out", str(path)])
            if rc != 0:
                raise SystemExit(f"{workload}: {' '.join(cmd.argv)[:80]} exited {rc}")
            argv = [a if len(a) < 200 else "<pool>" for a in cmd.argv]
            argv = [a if not a.startswith(tmp) else "<cache>" for a in argv]
            out[cmd.ref] = (argv, check.read_rows(path, cmd.fmt))
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                            cwd=Path(__file__).parent).stdout.strip()
    return check.save_refs(workload, out, {"commit": commit, "rtol": check.RTOL,
                                           "rtol_fd_eigenvalue": check.RTOL_FD_EIGENVALUE})


if __name__ == "__main__":
    logging.disable(logging.INFO)
    for name in sys.argv[1:] or list(workloads.WORKLOADS):
        print(record(name))
