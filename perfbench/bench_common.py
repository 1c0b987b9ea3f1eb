"""Pieces shared by the benchmark (run.py) and its reference command
(reference.py): thread pinning, package loading, the fixed instance pool,
instance keys, schedule text and provenance.

Importing this module pins BLAS/OpenMP thread pools to one thread.  That
has to happen before numpy is first imported, and numpy is imported by
``wsnsched``, so both scripts import this module before anything else.
"""

from __future__ import annotations

import hashlib
import importlib.metadata
import json
import os
import platform
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
REFERENCE_FILE = Path(__file__).resolve().parent / "reference_optima.json"

# Layouts are (scenario, kind, periods, layout seed).  The pool is fixed, not
# drawn from the benchmark's --seed: the quality metrics must repeat exactly
# from run to run, and the reference optima are proven ahead of time for
# exactly these instances.  Random layouts were picked so that some demand
# is uncoverable, which reaches the uncovered-penalty branch.
PLAN_LAYOUTS = (
    ("bench1", "grid", 1, 0),
    ("bench1", "grid", 3, 0),
    ("bench2", "grid", 3, 0),
    ("default", "random", 2, 2),
    ("bench2", "random", 2, 1),
)
ILP_LAYOUTS = (
    ("bench1", "grid", 3, 0),
    ("default", "random", 2, 2),
)
EXACT_LAYOUTS = tuple(("default", "random", 1, s) for s in range(1, 7))

# The branch-and-bound stops at a node budget, which is deterministic; the
# time limit sits far above the budget's run time (well under 2 s per
# layout) and is only a guard.  A run that reaches it is counted as failed.
NODE_LIMIT = 5000
TIME_LIMIT_S = 120.0

# HiGHS time limit per instance for the reference optima (reference.py).
# reference_optima.json was written with this value; two pool instances
# are not proven within it and so have no reference.
REFERENCE_TIME_LIMIT_S = 600.0


def load_package():
    """Import wsnsched from the checkout's ``src`` directory."""
    if not (SRC / "wsnsched" / "__init__.py").is_file():
        raise SystemExit(f"error: wsnsched sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import wsnsched

    return wsnsched


def layout_label(layout) -> str:
    scenario, kind, periods, seed = layout
    return f"{scenario}-{kind}-T{periods}-s{seed}"


def make_instance(w, layout):
    scenario, kind, periods, seed = layout
    return w.scenario_instance(scenario, kind=kind, periods=periods, seed=seed)


def instance_key(w, instance) -> str:
    """Content key of an instance: sha256 of its canonical JSON."""
    text = json.dumps(w.instance_to_json(instance), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def schedule_text(values) -> str:
    """``name = value`` lines, as an external LP solver writes them, for the
    nonzero entries of a {VarRef: value} mapping."""
    lines = [f"{ref.name} = {val!r}"
             for ref, val in sorted(values.items(), key=lambda kv: kv[0].sort_key())
             if val]
    return "\n".join(lines) + "\n"


def _version(dist: str) -> str:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def _commit() -> str:
    # Read .git directly; a benchmark checkout need not be a repository.
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(**extra) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "blas_threads": os.environ["OMP_NUM_THREADS"],
        **extra,
    }
