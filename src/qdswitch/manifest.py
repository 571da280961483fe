"""Reproducible run manifests.

Every CLI run writes a flat key = value manifest next to its outputs:
artifact version, timestamp, seed, SHA-256 digests of every input file,
digests of every emitted file, and the fully resolved configuration
snapshot.  Output CSVs are deterministic; the manifest timestamp is the
only field that varies between identical reruns.
"""

from __future__ import annotations

import hashlib
from datetime import datetime, timezone
from pathlib import Path
from typing import Mapping, Sequence

from .csvio import format_value

MANIFEST_NAME = "manifest.txt"
HASH_BLOCK_BYTES = 1 << 20


def sha256_file(path: Path | str) -> str:
    """Hex SHA-256 of a file, read in HASH_BLOCK_BYTES blocks, one at a time."""
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        while block := f.read(HASH_BLOCK_BYTES):
            digest.update(block)
            del block  # before the next read, so two blocks are never held
    return digest.hexdigest()


def write_manifest(
    out_dir: Path | str,
    *,
    command: str,
    version: str,
    seed: int,
    inputs: Mapping[str, Path],
    outputs: Sequence[Path],
    config_values: Mapping[str, object],
    extra: Mapping[str, object] | None = None,
) -> Path:
    out_dir = Path(out_dir)
    lines = [
        f"artifact_version = {version}",
        f"command = {command}",
        f"created_utc = {datetime.now(timezone.utc).strftime('%Y-%m-%dT%H:%M:%SZ')}",
        f"seed = {seed}",
    ]
    for name, path in inputs.items():
        lines.append(f"input.{name}.path = {path}")
        lines.append(f"input.{name}.sha256 = {sha256_file(path)}")
    for path in outputs:
        lines.append(f"output.{Path(path).name}.sha256 = {sha256_file(path)}")
    if extra:
        for key, value in extra.items():
            lines.append(f"{key} = {format_value(value)}")
    for key in sorted(config_values):
        lines.append(f"config.{key} = {_render(config_values[key])}")
    path = out_dir / MANIFEST_NAME
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def read_manifest(path: Path | str) -> dict[str, str]:
    entries: dict[str, str] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        key, _, value = line.partition("=")
        entries[key.strip()] = value.strip()
    return entries


def _render(value) -> str:
    if isinstance(value, tuple):
        if value and isinstance(value[0], tuple):  # (V, ratio) pair lists
            return ",".join(":".join(format_value(x) for x in pair) for pair in value)
        return ",".join(_render(v) for v in value)
    return format_value(value)
