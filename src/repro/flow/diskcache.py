"""Persistent on-disk tier for the flow's :class:`ArtifactCache`.

The in-memory cache dies with the process, so every ``repro table1``
invocation used to re-synthesize and re-simulate everything.  This
module adds a content-addressed directory of pickled stage payloads
keyed on the same ``(stage, library, design digest, clocks, input
digest, options key)`` tuple the memory tier uses, so a warm second run
of a whole suite is all-hit and skips synthesis and simulation entirely
-- and so ``ProcessPoolExecutor`` workers (separate address spaces) can
share artifacts at all.

Design points:

* **layout** -- ``root/<stage>/<hh>/<digest>.pkl`` where ``digest`` is
  the SHA-256 of the stable key repr (prefixed with the format version,
  so incompatible layouts never collide).  The per-stage directory makes
  ``stats``/``gc`` breakdowns cheap and the tree human-navigable.
* **atomic writes** -- payloads are pickled to a same-directory temp
  file and ``os.replace``-d into place, so readers never observe a
  partially written entry, even across processes.
* **single flight across processes** -- ``lock(key)`` takes an
  exclusive ``fcntl`` lock on a sidecar ``.lock`` file; concurrent
  misses on one key (three style runs needing the same synthesis) run
  the producer exactly once per machine, not once per process.  Where
  ``fcntl`` is unavailable the lock degrades to a no-op (the cache is
  then merely duplicate-work-tolerant, never incorrect).
* **corruption tolerance** -- any failure to read or unpickle an entry
  (truncated file, version skew, interrupted writer on a non-atomic
  filesystem) deletes the entry best-effort and reports a miss; the
  producer simply runs again.  A caller that finds a loaded entry
  unusable later (:class:`~repro.flow.pipeline.PickledNetlist`'s
  deferred netlist) drops it the same way (:meth:`drop`).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import time
from dataclasses import dataclass, field
from pathlib import Path

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

#: bump when the key schema or payload layout changes incompatibly;
#: entries written under another version hash to different paths and
#: simply age out via ``gc``.
DISK_FORMAT = "repro-diskcache-v8"

_MARKER = "CACHE_FORMAT"


def key_digest(key: tuple) -> str:
    """Stable content address of a cache key (format-versioned)."""
    return hashlib.sha256(f"{DISK_FORMAT}:{key!r}".encode()).hexdigest()


@dataclass
class DiskCacheStats:
    """What ``repro cache stats`` prints."""

    root: str
    entries: int = 0
    bytes: int = 0
    #: stage name -> (entries, bytes)
    stages: dict[str, tuple[int, int]] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready form: the one serializer shared by ``repro cache
        stats --format json`` and the serve daemon's ``/statsz``."""
        return {
            "root": self.root,
            "entries": self.entries,
            "bytes": self.bytes,
            "stages": {
                stage: {"entries": n, "bytes": size}
                for stage, (n, size) in sorted(self.stages.items())
            },
        }


@dataclass(frozen=True)
class GcReport:
    """What a ``gc`` pass removed — or, under ``dry_run``, would remove."""

    entries: int = 0
    bytes: int = 0
    dry_run: bool = False


class CacheDirError(ValueError):
    """The cache root exists but is not a directory, or cannot be made."""


class _FileLock:
    """Exclusive advisory lock on one key's sidecar file."""

    __slots__ = ("path", "_fh", "wait_s")

    def __init__(self, path: Path):
        self.path = path
        self._fh = None
        self.wait_s = 0.0

    def __enter__(self) -> "_FileLock":
        if fcntl is not None:
            t0 = time.monotonic()
            self._fh = open(self.path, "a+b")
            fcntl.lockf(self._fh, fcntl.LOCK_EX)
            self.wait_s = time.monotonic() - t0
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._fh is not None:
            try:
                fcntl.lockf(self._fh, fcntl.LOCK_UN)
            finally:
                self._fh.close()
                self._fh = None
        return False


class DiskCache:
    """Content-addressed pickle store under one root directory."""

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except FileExistsError:
            raise CacheDirError(
                f"{self.root} exists and is not a directory") from None
        except OSError as exc:
            raise CacheDirError(
                f"cannot create {self.root}: {exc.strerror}") from None
        marker = self.root / _MARKER
        if not marker.exists():
            try:
                marker.write_text(DISK_FORMAT + "\n", encoding="utf-8")
            except OSError:  # pragma: no cover - read-only cache dir
                pass
        self.loads = 0
        self.load_hits = 0
        self.stores = 0
        self.dropped_corrupt = 0

    # -- paths ---------------------------------------------------------------

    def _entry_path(self, key: tuple) -> Path:
        stage = str(key[0]) if key else "_"
        digest = key_digest(key)
        return self.root / stage / digest[:2] / (digest + ".pkl")

    def lock(self, key: tuple) -> _FileLock:
        """Cross-process single-flight lock for ``key`` (context manager).

        The lock file sits next to the entry so ``clear`` removes both.
        """
        path = self._entry_path(key).with_suffix(".lock")
        path.parent.mkdir(parents=True, exist_ok=True)
        return _FileLock(path)

    # -- load / store --------------------------------------------------------

    def load(self, key: tuple) -> tuple[object | None, int]:
        """``(artifact, entry bytes)``; ``(None, 0)`` on a miss *or* an
        unreadable entry."""
        path = self._entry_path(key)
        self.loads += 1
        try:
            with open(path, "rb") as fh:
                value = pickle.load(fh)
                size = os.fstat(fh.fileno()).st_size
        except FileNotFoundError:
            return None, 0
        except Exception:
            # Truncated/corrupt/incompatible entry: drop it and miss, so
            # the producer re-creates it.  Never let a bad cache file
            # poison a run.
            self.drop(key)
            return None, 0
        self.load_hits += 1
        return value, size

    def drop(self, key: tuple) -> None:
        """Delete ``key``'s entry, best-effort, as corrupt: the next
        load misses and the producer re-creates it."""
        self.dropped_corrupt += 1
        try:
            self._entry_path(key).unlink()
        except OSError:
            pass

    def store(self, key: tuple, value: object) -> int:
        """Pickle ``value`` under ``key`` atomically; returns the entry's
        size in bytes, 0 if ``value`` is unpicklable."""
        path = self._entry_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.stem}.tmp{os.getpid()}")
        try:
            with open(tmp, "wb") as fh:
                pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
                size = fh.tell()
            os.replace(tmp, path)
        except Exception:
            try:
                tmp.unlink()
            except OSError:
                pass
            return 0
        self.stores += 1
        return size

    # -- maintenance (the ``repro cache`` CLI) -------------------------------

    def _entries(self):
        yield from self.root.glob("*/*/*.pkl")

    def stats(self) -> DiskCacheStats:
        out = DiskCacheStats(root=str(self.root))
        for path in self._entries():
            size = path.stat().st_size
            stage = path.parent.parent.name
            n, b = out.stages.get(stage, (0, 0))
            out.stages[stage] = (n + 1, b + size)
            out.entries += 1
            out.bytes += size
        return out

    def gc(self, max_age_s: float, dry_run: bool = False) -> GcReport:
        """Remove entries older than ``max_age_s`` (plus stale temp and
        lock files); returns what was removed.  ``dry_run`` reports what
        *would* be evicted — entries and bytes — without deleting."""
        cutoff = time.time() - max_age_s
        removed = 0
        reclaimed = 0
        for path in self._entries():
            try:
                stat = path.stat()
                if stat.st_mtime < cutoff:
                    if not dry_run:
                        path.unlink()
                    removed += 1
                    reclaimed += stat.st_size
            except OSError:
                continue
        if not dry_run:
            for pattern in ("*/*/*.lock", "*/*/*.tmp*"):
                for path in self.root.glob(pattern):
                    try:
                        if path.stat().st_mtime < cutoff:
                            path.unlink()
                    except OSError:
                        continue
        return GcReport(entries=removed, bytes=reclaimed, dry_run=dry_run)

    def clear(self) -> GcReport:
        """Remove every entry; returns what was removed."""
        return self.gc(max_age_s=-1.0)
