"""Process-level facts: peak RSS, CPU placement and run provenance."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from pathlib import Path


def _status_mb(pid, field: str) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no {field} in /proc/{pid}/status")


def peak_rss_mb(pid="self") -> float:
    """``VmHWM`` (peak resident set) of a process, in MiB."""
    return _status_mb(pid, "VmHWM")


def rss_mb(pid="self") -> float:
    """``VmRSS`` (current resident set) of a process, in MiB."""
    return _status_mb(pid, "VmRSS")


def cpus() -> list[int]:
    """The CPUs this process may run on, in order."""
    return sorted(os.sched_getaffinity(0))


def pin(pid: int, cpu: int | None) -> None:
    """Pin a process (0: this thread) to one CPU; no-op for ``None``."""
    if cpu is not None:
        os.sched_setaffinity(pid, {cpu})


def placement() -> tuple[int | None, int | None]:
    """``(generator_cpu, server_cpu)``: one core each when there are two."""
    available = cpus()
    if len(available) < 2:
        return None, None
    return available[0], available[1]


def filesystem(path: Path) -> str:
    """Type of the filesystem ``path`` lives on, from ``/proc/mounts``."""
    path = str(Path(path).resolve())
    best, kind = "", "unknown"
    with open("/proc/mounts", encoding="utf-8") as mounts:
        for line in mounts:
            fields = line.split()
            point = fields[1]
            inside = path == point or path.startswith(point.rstrip("/") + "/")
            if inside and len(point) > len(best):
                best, kind = point, fields[2]
    return kind


def source_digest(root: Path) -> str:
    """SHA-256 over the program's sources, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha(root: Path) -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def provenance(root: Path) -> dict:
    import numpy

    return {
        "git_sha": git_sha(root),
        "src_sha256": source_digest(root),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(cpus()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
