"""On-disk memoization of simulation results, with entry integrity.

Packet-batch statistics are pure functions of (link configuration,
operating point, seed, packet budget) — *not* of the code revision — so a
benchmark re-run after an unrelated change can reuse yesterday's points.
The cache keys entries by a stable SHA-256 over a canonicalized view of
those inputs: dataclasses are flattened to ``{class, fields}`` mappings,
numpy arrays to lists, dict keys are sorted, so the hash is reproducible
across processes, platforms and insertion orders.

The cache is **opt-in**: it activates only when the ``REPRO_CACHE``
environment variable is set — to ``1`` for the default location
(``~/.cache/repro-bhss``) or to an explicit directory path — or when a
caller passes a ``cache`` argument, which :func:`resolve_cache` reads
the same way for every layer.  Entries are
JSON documents ``{"sha256": <hex>, "value": {...}}`` whose checksum covers
the canonical encoding of the value, so a truncated, bit-flipped or
half-written entry is *detected* rather than served:  a corrupt entry is
moved to ``<root>/quarantine/`` and reported as a miss, and the caller
recomputes — corruption can cost time, never correctness.  Pre-checksum
entries (plain JSON dicts) are still served as legacy hits.

Write failures (disk full, permissions) never abort a sweep: ``put`` is
best-effort and emits one ``RuntimeWarning`` per cache directory instead
of raising.  ``repro-bhss cache verify`` audits a cache directory and
``repro-bhss cache gc`` deletes corrupt/quarantined/stray files;
invalidation is still ``rm -rf`` (or :meth:`ResultCache.clear`).

Callers must only cache results whose inputs the key fully captures —
the link layer skips caching for stateful jammers for exactly that
reason.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import warnings
from typing import Callable

import numpy as np

from repro.runtime.faults import FaultPlan

__all__ = [
    "ResultCache",
    "CacheAudit",
    "cached_record",
    "canonical",
    "resolve_cache",
    "stable_hash",
]

_DEFAULT_ROOT = os.path.join("~", ".cache", "repro-bhss")
_OFF_VALUES = {"", "0", "off", "no", "false"}
_ON_VALUES = {"1", "on", "yes", "true"}

#: name of the per-cache subdirectory corrupt entries are moved into
QUARANTINE_DIR = "quarantine"

#: cache roots that already warned about write/corruption problems
_WARNED_WRITE_ROOTS: set[str] = set()
_WARNED_CORRUPT_ROOTS: set[str] = set()

#: sentinel distinguishing "corrupt" from any decodable value
_CORRUPT = object()


def canonical(obj):
    """Reduce ``obj`` to a JSON-able structure with a stable layout.

    Handles the configuration vocabulary of this library: dataclasses,
    numpy arrays/scalars, tuples/sets, callables (by qualified name), and
    arbitrary objects with a ``__dict__`` (by class name + fields).
    """
    if isinstance(obj, np.generic):
        obj = obj.item()  # numpy scalars subclass float/int — unify first
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return repr(obj)  # repr round-trips; avoids JSON NaN/Infinity quirks
    if isinstance(obj, bytes):
        return {"__bytes__": obj.hex()}
    if isinstance(obj, np.ndarray):
        return [canonical(v) for v in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(canonical(v) for v in obj)
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {f.name: canonical(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
        return {"__dataclass__": type(obj).__name__, **fields}
    if callable(obj):
        return {"__callable__": getattr(obj, "__qualname__", repr(obj))}
    if hasattr(obj, "__dict__"):
        return {"__class__": type(obj).__name__, **canonical(vars(obj))}
    return {"__repr__": repr(obj)}


def stable_hash(obj) -> str:
    """Hex SHA-256 of the canonical JSON encoding of ``obj``."""
    text = json.dumps(canonical(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _value_digest(value) -> str:
    """Integrity checksum of one cache entry's value payload."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _decode_entry(raw: bytes):
    """Decode one entry file's raw bytes.

    Returns ``(value, kind)`` where kind is ``"valid"`` (checksummed and
    intact) or ``"legacy"`` (pre-checksum plain dict), or ``(_CORRUPT,
    "corrupt")`` for anything undecodable, unparsable, mis-shaped or
    checksum-failed.  A dict that mentions ``sha256`` at all but is not
    an exact, intact wrapper is corrupt, not legacy — bit rot inside the
    wrapper must never demote an entry into the unchecksummed class.
    """
    try:
        data = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        return _CORRUPT, "corrupt"
    if isinstance(data, dict) and set(data) == {"sha256", "value"}:
        if _value_digest(data["value"]) != data["sha256"]:
            return _CORRUPT, "corrupt"
        return data["value"], "valid"
    if isinstance(data, dict) and "sha256" not in data and "value" not in data:
        return data, "legacy"
    return _CORRUPT, "corrupt"


@dataclasses.dataclass(frozen=True)
class CacheAudit:
    """Result of a cache integrity pass (``verify``/``gc``).

    ``entries`` counts live entry files; ``valid``/``legacy``/``corrupt``
    partition them.  ``quarantined`` counts files already moved to the
    quarantine directory, ``removed`` counts files deleted by ``gc``.
    """

    entries: int = 0
    valid: int = 0
    legacy: int = 0
    corrupt: int = 0
    quarantined: int = 0
    removed: int = 0
    corrupt_paths: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        """Whether the cache holds no corrupt entries."""
        return self.corrupt == 0


class ResultCache:
    """A directory of JSON result files addressed by stable key hashes.

    Parameters
    ----------
    root:
        Cache directory (created lazily on the first ``put``).
    """

    def __init__(self, root: str) -> None:
        self.root = os.path.expanduser(root)
        self.hits = 0
        self.misses = 0
        self.corrupt = 0

    @classmethod
    def from_env(cls, env: str = "REPRO_CACHE") -> "ResultCache | None":
        """The cache configured by ``REPRO_CACHE``, or ``None`` (disabled).

        Unset / ``0`` / ``off`` → disabled; ``1`` / ``on`` → the default
        directory; anything else is taken as the cache directory path.
        """
        raw = os.environ.get(env)
        if raw is None or raw.strip().lower() in _OFF_VALUES:
            return None
        if raw.strip().lower() in _ON_VALUES:
            return cls(_DEFAULT_ROOT)
        return cls(raw)

    def _path(self, digest: str) -> str:
        return os.path.join(self.root, digest[:2], f"{digest}.json")

    def _quarantine_dir(self) -> str:
        return os.path.join(self.root, QUARANTINE_DIR)

    def _quarantine(self, path: str) -> None:
        """Move a corrupt entry aside so it is inspectable but never served."""
        target = os.path.join(self._quarantine_dir(), os.path.basename(path))
        try:
            os.makedirs(self._quarantine_dir(), exist_ok=True)
            os.replace(path, target)
        except OSError:
            # cannot even move it — drop it so it is not served again
            try:
                os.unlink(path)
            except OSError:
                pass
        if self.root not in _WARNED_CORRUPT_ROOTS:
            _WARNED_CORRUPT_ROOTS.add(self.root)
            warnings.warn(
                f"corrupt cache entry detected under {self.root!r}; quarantined and "
                "recomputing (run `repro-bhss cache verify` / `cache gc` to audit)",
                RuntimeWarning,
                stacklevel=3,
            )

    def get(self, key) -> dict | None:
        """The cached dict for ``key``, or ``None`` on a miss.

        A corrupt entry (unparsable, mis-shaped, or failing its checksum)
        is quarantined and reported as a miss, so the caller transparently
        recomputes instead of crashing or consuming bad data.
        """
        path = self._path(stable_hash(key))
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError:
            self.misses += 1
            return None
        value, kind = _decode_entry(raw)
        if kind == "corrupt":
            self._quarantine(path)
            self.corrupt += 1
            self.misses += 1
            return None
        self.hits += 1
        return value

    def put(self, key, value: dict) -> None:
        """Store a JSON-able dict under ``key`` (atomic rename, checksummed).

        Best-effort: filesystem failures (disk full, permissions, a root
        that is not a directory) emit one ``RuntimeWarning`` per cache
        directory and leave the sweep running uncached.  A ``value`` that
        is not JSON-able still raises ``TypeError`` — that is a caller
        bug, not an environment fault.
        """
        digest = stable_hash(key)
        path = self._path(digest)
        document = {"sha256": _value_digest(value), "value": value}
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        except OSError as exc:
            self._warn_write_failure(exc)
            return
        try:
            try:
                with os.fdopen(fd, "w") as fh:
                    json.dump(document, fh)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError as exc:
            self._warn_write_failure(exc)
            return
        plan = FaultPlan.from_env()
        if plan is not None:
            plan.maybe_corrupt(path, digest)

    def _warn_write_failure(self, exc: OSError) -> None:
        if self.root in _WARNED_WRITE_ROOTS:
            return
        _WARNED_WRITE_ROOTS.add(self.root)
        warnings.warn(
            f"cannot write result cache under {self.root!r}: {exc} "
            "(caching disabled for this run; results are unaffected)",
            RuntimeWarning,
            stacklevel=3,
        )

    # -- integrity audit ------------------------------------------------------

    def _entry_files(self) -> list[str]:
        """Live entry files (quarantine excluded), in sorted order."""
        qdir = self._quarantine_dir()
        out: list[str] = []
        if not os.path.isdir(self.root):
            return out
        for dirpath, dirs, files in os.walk(self.root):
            if os.path.abspath(dirpath) == os.path.abspath(qdir):
                dirs[:] = []
                continue
            for name in files:
                if name.endswith(".json"):
                    out.append(os.path.join(dirpath, name))
        return sorted(out)

    def _quarantined_files(self) -> list[str]:
        qdir = self._quarantine_dir()
        if not os.path.isdir(qdir):
            return []
        return sorted(
            os.path.join(qdir, name)
            for name in os.listdir(qdir)
            if os.path.isfile(os.path.join(qdir, name))
        )

    def _stray_tmp_files(self) -> list[str]:
        out: list[str] = []
        if not os.path.isdir(self.root):
            return out
        for dirpath, _dirs, files in os.walk(self.root):
            for name in files:
                if name.endswith(".tmp"):
                    out.append(os.path.join(dirpath, name))
        return sorted(out)

    def verify(self) -> CacheAudit:
        """Read-only integrity audit of every entry in the cache.

        Classifies each entry as valid (checksummed, intact), legacy
        (pre-checksum format) or corrupt; corrupt paths are listed so the
        CLI can print them.  Nothing is modified — use :meth:`gc` to
        delete corrupt and quarantined files.
        """
        valid = legacy = 0
        corrupt_paths: list[str] = []
        for path in self._entry_files():
            try:
                with open(path, "rb") as fh:
                    raw = fh.read()
            except OSError:
                corrupt_paths.append(path)
                continue
            _value, kind = _decode_entry(raw)
            if kind == "valid":
                valid += 1
            elif kind == "legacy":
                legacy += 1
            else:
                corrupt_paths.append(path)
        return CacheAudit(
            entries=valid + legacy + len(corrupt_paths),
            valid=valid,
            legacy=legacy,
            corrupt=len(corrupt_paths),
            quarantined=len(self._quarantined_files()),
            corrupt_paths=tuple(corrupt_paths),
        )

    def gc(self) -> CacheAudit:
        """Delete corrupt entries, quarantined files and stray temp files.

        Valid and legacy entries are kept.  Returns the post-collection
        audit with ``removed`` counting every deleted file.
        """
        removed = 0
        before = self.verify()
        for path in before.corrupt_paths + tuple(
            self._quarantined_files() + self._stray_tmp_files()
        ):
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        after = self.verify()
        return dataclasses.replace(after, removed=removed)

    def clear(self) -> int:
        """Delete every cache entry; returns the number removed."""
        removed = 0
        if not os.path.isdir(self.root):
            return removed
        for dirpath, _dirs, files in os.walk(self.root):
            for name in files:
                if name.endswith(".json"):
                    os.unlink(os.path.join(dirpath, name))
                    removed += 1
        return removed


def resolve_cache(cache: "ResultCache | str | bool | None") -> ResultCache | None:
    """The store a ``cache`` argument names, or ``None`` (caching off).

    The one convention of every ``cache=`` parameter: ``None`` defers to
    ``REPRO_CACHE``, ``False`` turns caching off, ``True`` selects the
    default directory (as ``REPRO_CACHE=1`` does), a string is the cache
    directory, and a :class:`ResultCache` is used as it is.
    """
    if cache is None:
        return ResultCache.from_env()
    if cache is False:
        return None
    if cache is True:
        return ResultCache(_DEFAULT_ROOT)
    if isinstance(cache, ResultCache):
        return cache
    return ResultCache(str(cache))


def cached_record(
    cache: "ResultCache | str | bool | None", key: dict, compute: Callable[[], dict]
) -> dict:
    """``compute()``, memoized under ``key`` in the store ``cache`` names.

    A hit returns a fresh copy of the stored dict and never calls
    ``compute``; a miss computes, stores and returns the record.
    """
    store = resolve_cache(cache)
    if store is None:
        return compute()
    hit = store.get(key)
    if isinstance(hit, dict):
        return dict(hit)
    record = compute()
    store.put(key, record)
    return record
