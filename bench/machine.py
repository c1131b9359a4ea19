"""Machine, environment and code identity recorded with every result."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from importlib import metadata
from pathlib import Path

# Thread pins for every process the benchmark starts: lunarforge's own pools
# get one thread per core, and BLAS/OpenMP stay single-threaded so the total
# never exceeds the core count.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def thread_env() -> dict[str, str]:
    return {"LUNARFORGE_THREADS": str(nproc()), **{v: "1" for v in BLAS_THREAD_VARS}}


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _caches() -> dict[str, str]:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = (
                (index / "size").read_text().strip())
        except OSError:
            continue
    return caches


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def code_identity(root: Path) -> dict:
    """sha256 and line count of src/*.py, which also identify a checkout
    that is not a git repository."""
    h = hashlib.sha256()
    loc = 0
    for p in sorted((root / "src").rglob("*.py")):
        data = p.read_bytes()
        h.update(str(p.relative_to(root)).encode())
        h.update(data)
        loc += data.count(b"\n")
    return {"git_commit": _git_commit(root), "src_sha256": h.hexdigest(), "src_loc": loc}


def describe(root: Path) -> dict:
    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "thread_env": thread_env(),
        **code_identity(root),
    }
