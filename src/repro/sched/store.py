"""Content-addressed result store for campaign and sweep outcomes.

Every task a campaign runs is identified by a **canonical content key**:
the SHA-256 of the task's spec (the function it runs, its keyword
arguments, and any seed material) together with the code-relevant version
(:data:`repro.__version__` by default).  Storing outcomes under that key
gives every driver one shared, resumable cache:

* the same (function, params, version) triple always maps to the same
  entry, whichever driver or campaign computed it — a Table 1 point run
  by ``python -m repro t1a`` and the same point run inside a campaign
  share one result;
* bumping ``repro.__version__`` (or passing an explicit ``version=``)
  invalidates every entry at once, because results of changed code are
  different content;
* a killed run resumes by construction: whatever reached the store stays
  there, and only missing keys re-execute.

Layout: one JSON file per entry under ``<root>/objects/<k[:2]>/<k>.json``
(fan-out keeps directories small at campaign scale).  Writes are atomic
(temp file + ``os.replace``), reads validate the entry schema and
**quarantine** corrupt files (rename to ``*.quarantined``) instead of
failing the run — the same contract the legacy ``BENCH_*.json`` caches
had.  :meth:`ResultStore.prune` garbage-collects by age (or everything),
and :func:`import_bench_cache` migrates a legacy per-driver
``BENCH_*.json`` into the store, which supersedes those caches behind the
``parallel_sweep(store=...)`` compatibility path.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile
import time
import warnings
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional

__all__ = [
    "ResultStore",
    "StoreStats",
    "content_key",
    "canonical_spec",
    "fn_ref",
    "task_spec",
    "import_bench_cache",
    "STORE_ENV",
]

#: Environment variable naming the default store directory for the CLI.
STORE_ENV = "REPRO_STORE"

#: Keys every stored entry must carry to be considered well-formed.
_ENTRY_SCHEMA = ("key", "version", "spec", "outcome", "created")


def canonical_spec(spec: Mapping[str, Any]) -> str:
    """Canonical JSON text of a task spec (sorted keys, stable repr fallback).

    Two specs that differ only in key order serialize identically, so they
    address the same content.
    """
    return json.dumps(dict(spec), sort_keys=True, default=repr)


def content_key(spec: Mapping[str, Any], version: str) -> str:
    """SHA-256 content address of ``(spec, version)`` as a hex string."""
    digest = hashlib.sha256(
        f"{version}|{canonical_spec(spec)}".encode("utf-8")
    )
    return digest.hexdigest()


def fn_ref(fn: Callable[..., Any]) -> str:
    """Stable textual identity of a task callable: ``module:qualname``.

    :func:`functools.partial` objects resolve to the wrapped function with
    the frozen arguments appended, so two partials over the same function
    with different bindings address different content.
    """
    if isinstance(fn, functools.partial):
        inner = fn_ref(fn.func)
        bound = canonical_spec({"args": list(fn.args), "kwargs": fn.keywords or {}})
        return f"{inner}|partial:{bound}"
    module = getattr(fn, "__module__", None) or "?"
    qualname = getattr(fn, "__qualname__", None) or getattr(fn, "__name__", repr(fn))
    return f"{module}:{qualname}"


def task_spec(
    fn: Any,
    kwargs: Mapping[str, Any],
    extra: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """The canonical spec dict for one task call — what gets hashed.

    ``fn`` may be the callable itself or an explicit scope string (a
    driver name) to address by; ``extra`` carries seed material that is
    part of the task's identity but not of its keyword arguments.
    """
    ref = fn if isinstance(fn, str) else fn_ref(fn)
    spec: Dict[str, Any] = {"fn": ref, "kwargs": dict(kwargs)}
    if extra:
        spec.update(extra)
    return spec


@dataclass(frozen=True)
class StoreStats:
    """Size summary returned by :meth:`ResultStore.stats`."""

    entries: int
    bytes: int
    quarantined: int


class ResultStore:
    """Filesystem-backed content-addressed store of task outcomes.

    Parameters
    ----------
    root:
        Directory holding the store (created on first write).
    version:
        Code-relevant version salt folded into every key; defaults to
        :data:`repro.__version__`.  Change the code meaningfully, bump the
        version, and every old entry silently misses.
    """

    def __init__(self, root: str, version: Optional[str] = None) -> None:
        if version is None:
            from repro import __version__ as version
        self.root = os.path.abspath(root)
        self.version = str(version)

    # -- keys --------------------------------------------------------------

    def key_for(
        self,
        fn: Any,
        kwargs: Mapping[str, Any],
        extra: Optional[Mapping[str, Any]] = None,
    ) -> str:
        """Content key of one task call under this store's version.

        ``fn`` is a callable (addressed by its ``module:qualname``) or an
        explicit scope string.
        """
        return content_key(task_spec(fn, kwargs, extra), self.version)

    # -- paths -------------------------------------------------------------

    @property
    def _objects_dir(self) -> str:
        return os.path.join(self.root, "objects")

    def path_for(self, key: str) -> str:
        """Filesystem path of ``key``'s entry (which may not exist yet)."""
        return os.path.join(self._objects_dir, key[:2], f"{key}.json")

    # -- read/write --------------------------------------------------------

    def contains(self, key: str) -> bool:
        return os.path.exists(self.path_for(key))

    def put(
        self,
        key: str,
        outcome: Mapping[str, Any],
        spec: Optional[Mapping[str, Any]] = None,
    ) -> str:
        """Atomically persist ``outcome`` under ``key``; returns the path.

        The entry records the spec (for ``status``/debugging), the store
        version, and a creation timestamp (used by :meth:`prune`).
        """
        entry = {
            "key": key,
            "version": self.version,
            "spec": dict(spec) if spec is not None else {},
            "outcome": dict(outcome),
            "created": time.time(),
        }
        path = self.path_for(key)
        directory = os.path.dirname(path)
        # A concurrent prune() may rmdir the shard directory between our
        # makedirs and the mkstemp/replace below (it only removes *empty*
        # shards, and ours is empty until the replace lands).  That
        # surfaces as FileNotFoundError here — or as FileExistsError from
        # makedirs itself, when the rmdir lands between its mkdir seeing
        # the shard and its isdir check; recreate the shard and try again
        # rather than failing a task whose result is in hand.
        for attempt in range(3):
            try:
                os.makedirs(directory, exist_ok=True)
                fd, tmp = tempfile.mkstemp(prefix=".store-", dir=directory)
            except (FileExistsError, FileNotFoundError):
                continue
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    json.dump(entry, fh, indent=1, sort_keys=True, default=repr)
                os.replace(tmp, path)  # atomic: readers never see a torn entry
            except FileNotFoundError:
                if os.path.exists(tmp):
                    os.unlink(tmp)
                continue
            except BaseException:
                if os.path.exists(tmp):
                    os.unlink(tmp)
                raise
            return path
        raise OSError(
            f"could not persist {key}: shard directory {directory} kept "
            "vanishing (racing prune?)"
        )

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The full entry for ``key``, or None when missing/quarantined.

        An unreadable or schema-invalid entry is renamed to
        ``*.quarantined`` (with a warning) and reported as missing, so one
        torn write costs one re-run, never the campaign.
        """
        path = self.path_for(key)
        if not os.path.exists(path):
            return None
        try:
            with open(path, "r", encoding="utf-8") as fh:
                entry = json.load(fh)
            if not isinstance(entry, dict) or any(k not in entry for k in _ENTRY_SCHEMA):
                raise ValueError("entry does not match the store schema")
            if not isinstance(entry["outcome"], dict):
                raise ValueError("entry outcome is not an object")
        except (OSError, ValueError) as exc:
            self._quarantine(path, str(exc))
            return None
        return entry

    def get_outcome(self, key: str) -> Optional[Dict[str, Any]]:
        """Just the outcome dict for ``key`` (None when absent)."""
        entry = self.get(key)
        return None if entry is None else entry["outcome"]

    def _quarantine(self, path: str, reason: str) -> None:
        quarantined = path + ".quarantined"
        try:
            os.replace(path, quarantined)
        except OSError:  # pragma: no cover - lost a race with another reader
            return
        warnings.warn(
            f"result-store entry {path} is unusable ({reason}); moved to "
            f"{quarantined} — the task will re-run",
            RuntimeWarning,
            stacklevel=3,
        )

    # -- enumeration and GC ------------------------------------------------

    def keys(self) -> Iterator[str]:
        """All stored keys (quarantined files excluded)."""
        objects = self._objects_dir
        if not os.path.isdir(objects):
            return
        for shard in sorted(os.listdir(objects)):
            shard_dir = os.path.join(objects, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if name.endswith(".json"):
                    yield name[: -len(".json")]

    def stats(self) -> StoreStats:
        """Entry count, total bytes, and quarantined-file count."""
        entries = 0
        size = 0
        quarantined = 0
        objects = self._objects_dir
        if os.path.isdir(objects):
            for shard in os.listdir(objects):
                shard_dir = os.path.join(objects, shard)
                if not os.path.isdir(shard_dir):
                    continue
                for name in os.listdir(shard_dir):
                    path = os.path.join(shard_dir, name)
                    if name.endswith(".quarantined"):
                        quarantined += 1
                    elif name.endswith(".json"):
                        entries += 1
                        size += os.path.getsize(path)
        return StoreStats(entries=entries, bytes=size, quarantined=quarantined)

    def prune(
        self,
        older_than_s: Optional[float] = None,
        keep: Optional[Any] = None,
        dry_run: bool = False,
    ) -> List[str]:
        """Garbage-collect entries; returns the pruned keys.

        ``older_than_s`` keeps entries created within the last that-many
        seconds (``0`` prunes everything, ``None`` likewise — an explicit
        full GC); ``keep`` is an optional collection of keys to retain
        regardless of age.  Quarantined files are always removed.  With
        ``dry_run`` nothing is deleted.
        """
        keep_set = set(keep) if keep is not None else set()
        cutoff = None if older_than_s is None else time.time() - older_than_s
        pruned: List[str] = []
        for key in list(self.keys()):
            if key in keep_set:
                continue
            path = self.path_for(key)
            if cutoff is not None:
                entry = self.get(key)
                if entry is None:
                    continue  # quarantined by the read; swept below
                if entry["created"] > cutoff:
                    continue
            pruned.append(key)
            if not dry_run:
                try:
                    os.unlink(path)
                except OSError:  # pragma: no cover - racing GC
                    pass
        if not dry_run:
            objects = self._objects_dir
            if os.path.isdir(objects):
                for shard in os.listdir(objects):
                    shard_dir = os.path.join(objects, shard)
                    if not os.path.isdir(shard_dir):
                        continue
                    for name in os.listdir(shard_dir):
                        if name.endswith(".quarantined"):
                            try:
                                os.unlink(os.path.join(shard_dir, name))
                            except OSError:  # pragma: no cover
                                pass
                    try:
                        os.rmdir(shard_dir)
                    except OSError:
                        # Not empty (live entries, or a racing put's temp
                        # file), or already gone: leave the shard be.
                        pass
        return pruned


def import_bench_cache(
    store: ResultStore,
    cache_path: str,
    run: Callable[..., Any],
    base_seed: Any = None,
) -> int:
    """Migrate a legacy ``BENCH_*.json`` sweep cache into ``store``.

    Entries are re-keyed exactly the way ``parallel_sweep(store=...)``
    keys live runs — so after migrating, a store-backed re-run of the same
    driver is served entirely from the imported results.  Legacy keys that
    do not parse back to a parameter dict are skipped.  Returns the number
    of imported entries.
    """
    if not os.path.exists(cache_path):
        return 0
    with open(cache_path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{cache_path} is not a sweep cache (top level not an object)")
    imported = 0
    for legacy_key, outcome in data.items():
        try:
            params = json.loads(legacy_key)
        except ValueError:
            continue
        if not isinstance(params, dict) or not isinstance(outcome, dict):
            continue
        extra = {"base_seed": base_seed} if base_seed is not None else None
        key = store.key_for(run, params, extra)
        store.put(key, outcome, spec=task_spec(run, params, extra))
        imported += 1
    return imported
