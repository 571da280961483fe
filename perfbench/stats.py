"""Arithmetic the benchmark reports: percentiles, failure ratio, output
digests and the environment record.  Standard library only."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import sys
from pathlib import Path

MANIFEST_NAME = "manifest.txt"
# The manifest timestamp is the one field that differs between identical reruns.
TIMESTAMP_PREFIX = b"created_utc ="


def percentile(values, q: float) -> float:
    """q-th percentile (0..100) by linear interpolation between closest ranks."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def beyond(values, q: float) -> int:
    """Number of samples strictly above the q-th percentile."""
    cut = percentile(values, q)
    return sum(1 for v in values if v > cut)


def fail_ratio(attempted: int, failed: int) -> float:
    """Failed ops over attempted ops; a run with no ops has no ratio."""
    if attempted <= 0:
        raise ValueError("fail_ratio needs at least one attempted op")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed ({failed}) must be in [0, attempted={attempted}]")
    return failed / attempted


def normalized_output(name: str, data: bytes, root: str) -> bytes:
    """Output bytes as digested: the manifest's timestamp line is dropped and
    the checkout path is replaced, so equal outputs digest equally across
    reruns and across checkouts."""
    if name == MANIFEST_NAME:
        data = b"".join(line for line in data.splitlines(keepends=True)
                        if not line.startswith(TIMESTAMP_PREFIX))
    return data.replace(root.encode(), b"<root>")


def digest_files(paths, root: str, status: str) -> str:
    """SHA-256 over the exit status and every byte of the given files."""
    h = hashlib.sha256(status.encode() + b"\0")
    for path in sorted(Path(p) for p in paths):
        data = normalized_output(path.name, path.read_bytes(), root)
        h.update(f"{path.name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def combine_digests(by_key: dict[str, str]) -> str:
    """One digest for an op kind from the digests of its inputs, in key order."""
    h = hashlib.sha256()
    for key in sorted(by_key):
        h.update(f"{key}\0{by_key[key]}\n".encode())
    return h.hexdigest()


class Tally:
    """attempted / failed counting, the rerun digest check and the
    correctness verdict."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.reasons: dict[str, int] = {}
        self.first_digest: dict[str, str] = {}
        self.kind_of: dict[str, str] = {}

    def record(self, op, outcome, solver: bool) -> None:
        self.attempted += 1
        failure = outcome.failure
        first = self.first_digest.setdefault(op.key, outcome.digest)
        self.kind_of[op.key] = op.kind
        if first != outcome.digest:
            failure, solver = "output differs from the first run of this input", False
        if failure is None:
            return
        self.failed += 1
        self.wrong += not solver
        reason = f"{op.kind}: {failure}"
        self.reasons[reason] = self.reasons.get(reason, 0) + 1

    @property
    def correct(self) -> bool:
        return self.wrong == 0

    def kind_digests(self) -> dict[str, str]:
        kinds: dict[str, dict[str, str]] = {}
        for key, digest in self.first_digest.items():
            kinds.setdefault(self.kind_of[key], {})[key] = digest
        return {kind: combine_digests(by_key) for kind, by_key in sorted(kinds.items())}


def git_commit(root: Path) -> str:
    """Commit of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root: Path, numpy_version: str) -> dict:
    return {
        "git_commit": git_commit(root),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": cpu_model(),
        "loadavg_1m_start": os.getloadavg()[0],
    }
