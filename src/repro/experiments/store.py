"""On-disk JSON result store for the parallel experiment matrix.

One matrix run owns one directory (``results/<matrix>/``); each finished
(scenario × planner) cell streams into its own ``<cell>.json`` the moment
its worker returns.  A re-invoked matrix skips every cell whose file is
already present, so an interrupted grid resumes from where it died and
deleting a single cell file recomputes exactly that cell.

Writes are atomic (temp file + ``os.replace``) so a crashed run never
leaves a half-written cell that a resume would mistake for a finished one.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, Optional

from ..errors import ConfigurationError

_UNSAFE = re.compile(r"[^A-Za-z0-9._=+-]+")


def cell_filename(cell_id: str) -> str:
    """Map a cell id to a safe, stable filename (without directory)."""
    safe = _UNSAFE.sub("_", cell_id).strip("_")
    if not safe:
        raise ConfigurationError(f"cell id {cell_id!r} has no usable characters")
    return f"{safe}.json"


def assert_unique_filenames(cell_ids: Iterable[str]) -> None:
    """Fail fast when distinct cell ids map to the same result file.

    The filename sanitiser collapses runs of unsafe characters, so ids
    like ``mini/atp`` and ``mini:atp`` collide on disk — the second cell
    would silently overwrite (or resume from!) the first's results.  A
    repeated identical id is rejected too: it is the same double-write.
    Matrix builders call this before running anything.
    """
    by_file: Dict[str, str] = {}
    for cell_id in cell_ids:
        filename = cell_filename(cell_id)
        other = by_file.get(filename)
        if other is not None:
            raise ConfigurationError(
                f"matrix cell ids collide (same result file {filename!r}): "
                f"{other!r} vs {cell_id!r}")
        by_file[filename] = cell_id


class ResultStore:
    """A directory of per-cell JSON payloads, keyed by cell id."""

    def __init__(self, root: os.PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        # A crash between writing a temp file and renaming it leaves a
        # stale *.json.tmp behind; sweep them on open so they never
        # accumulate or confuse a directory listing.
        for stale in self.root.glob("*.json.tmp"):
            try:
                stale.unlink()
            except FileNotFoundError:
                pass

    def path(self, cell_id: str) -> Path:
        """Where the given cell's payload lives."""
        return self.root / cell_filename(cell_id)

    def has(self, cell_id: str) -> bool:
        """Whether the cell already finished in a previous run."""
        return self.path(cell_id).is_file()

    def load(self, cell_id: str) -> Dict[str, Any]:
        """Read one cell's payload, a JSON object."""
        with self.path(cell_id).open("r", encoding="utf-8") as fh:
            try:
                payload = json.load(fh)
            except ValueError:  # not JSON, or not even text
                payload = None
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"result file for {cell_id!r} holds no JSON object; "
                f"delete it to recompute")
        return payload

    def save(self, cell_id: str, payload: Dict[str, Any]) -> Path:
        """Atomically write one cell's payload; returns its path."""
        target = self.path(cell_id)
        tmp = target.with_suffix(".json.tmp")
        with tmp.open("w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, target)
        return target

    def delete(self, cell_id: str) -> None:
        """Drop one cell (forces recomputation on the next run)."""
        try:
            self.path(cell_id).unlink()
        except FileNotFoundError:
            pass

    def cell_files(self) -> Iterator[Path]:
        """All finished cell files, sorted by name."""
        return iter(sorted(self.root.glob("*.json")))

    def __len__(self) -> int:
        return sum(1 for __ in self.root.glob("*.json"))


def open_store(results_dir: Optional[os.PathLike],
               matrix_name: str) -> Optional[ResultStore]:
    """``ResultStore`` under ``results_dir/<matrix_name>``, or None."""
    if results_dir is None:
        return None
    return ResultStore(Path(results_dir) / matrix_name)
