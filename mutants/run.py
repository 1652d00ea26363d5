"""Run the mutant ledger: every entry of ``ledger.json`` is applied to a
fresh copy of the tree and the tests it names must fail on it.

    python3 mutants/run.py

An entry names a file, an exact source snippet, its replacement and the
pytest arguments (test files or node ids) expected to kill it.  Each
mutant runs in its own temporary directory, so the checkout is never
changed, with Hypothesis's shrink phase off (``no_shrink.py``, loaded
with ``-p``): a failing example is enough.  A run that is still going
after TIMEOUT seconds counts as killed; the performance mutants are
listed with the time bound that kills them.  The child's address space
is capped at MEMORY, so a mutant whose integers grow without bound fails
with MemoryError instead of exhausting the machine.

Prints one line per mutant, then the killed and survived counts per
module.  Exit status: 0 when every mutant is killed, 1 when one survives,
2 when the ledger no longer fits the code (a snippet that does not occur
exactly once, or tests that pytest cannot run), which a refactor must
mend by updating its entries.  Run it after the tier-1 tests pass: a
failing test would kill every mutant that lists it.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT = 60  # seconds per mutant
MEMORY = 2 << 30  # bytes of address space per mutant


class LedgerError(Exception):
    """The ledger does not fit the code."""


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY, MEMORY))


def run_mutant(entry: dict) -> tuple[str, float]:
    """Apply ``entry`` to a copy of src/ and tests/ and run its tests;
    returns the outcome and the seconds it took."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, tree / name, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", tree)
        target = tree / entry["file"]
        text = target.read_text()
        found = text.count(entry["snippet"])
        if found != 1:
            raise LedgerError(f"{entry['id']}: snippet occurs {found} times "
                              f"in {entry['file']}")
        target.write_text(text.replace(entry["snippet"],
                                       entry["replacement"]))
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPATH=os.pathsep.join([str(tree / "src"),
                                               str(HERE)]))
        command = [sys.executable, "-m", "pytest", "-q", "-x",
                   "-p", "no:cacheprovider", "-p", "no_shrink",
                   *entry["tests"]]
        started = time.monotonic()
        try:
            done = subprocess.run(command, cwd=tree, env=env,
                                  capture_output=True, text=True,
                                  timeout=TIMEOUT, preexec_fn=_cap_memory)
        except subprocess.TimeoutExpired:
            return f"killed (timeout {TIMEOUT} s)", time.monotonic() - started
        elapsed = time.monotonic() - started
        if done.returncode == 0:
            return "survived", elapsed
        if done.returncode == 1:
            return "killed", elapsed
        raise LedgerError(f"{entry['id']}: pytest exited {done.returncode}:\n"
                          f"{done.stdout[-2000:]}{done.stderr[-2000:]}")


def main() -> int:
    ledger = json.loads((HERE / "ledger.json").read_text())
    killed, survived = Counter(), Counter()
    for entry in ledger:
        module = Path(entry["file"]).stem
        try:
            outcome, elapsed = run_mutant(entry)
        except LedgerError as exc:
            print(f"ledger error: {exc}", file=sys.stderr)
            return 2
        (survived if outcome == "survived" else killed)[module] += 1
        print(f"{entry['id']:<45} {module:<12} {outcome:<22} {elapsed:6.1f} s",
              flush=True)
    print("module        killed  survived")
    for module in sorted(killed | survived):
        print(f"{module:<12} {killed[module]:>7} {survived[module]:>9}")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
