"""Content-addressed artifact cache for the experiment harness.

Everything the experiment suite derives deterministically from a seed
— generated :class:`~repro.graph.webgraph.WebGraph`\\ s, site
partitions, centralized reference PageRank vectors, and whole sweep-
point results — is addressed by a stable hash of the parameters that
produced it.  Repeated sweep points (``run_all`` recomputes the same
centralized reference inside fig6, fig7 and every ablation) and
repeated CI invocations then skip regeneration entirely.

Key properties:

* **Stable keys** — :func:`cache_key` hashes a canonical JSON
  rendering of ``(kind, schema version, params)``; keys never depend
  on process hash randomization, dict order, or platform integer
  width.  Bumping :data:`CACHE_SCHEMA_VERSION` invalidates every
  entry at once, which is the escape hatch when a solver or generator
  changes behaviour.
* **Corruption safety** — entries are written to a temporary file in
  the destination directory and atomically renamed into place, so a
  crashed or concurrent writer can never publish a half-written
  artifact.  Unreadable or truncated entries are treated as misses
  (and removed), never as errors.
* **Determinism** — artifacts round-trip bit-exactly (npz for arrays,
  pickle for result objects), so a warm run is byte-identical to a
  cold one.

The active cache is process-global (set with :func:`activate` or
:func:`set_active_cache`); when none is active every helper computes
directly, which is the pre-cache code path, bit for bit.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import inspect
import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, Mapping, Optional, Union

import numpy as np

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CACHE_DIR_ENV",
    "ArtifactCache",
    "cache_key",
    "canonical_params",
    "active_cache",
    "set_active_cache",
    "activate",
    "cache_from_env",
    "cached_point",
    "cached_call",
    "array_fingerprint",
]

#: Bump to invalidate every existing cache entry (schema is part of
#: every key).  Bump whenever the *meaning* of stored artifacts
#: changes: solver semantics, generator behaviour, result layouts.
CACHE_SCHEMA_VERSION = 1

#: Environment variable naming the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def canonical_params(params: Any) -> Any:
    """Normalize ``params`` into a JSON-stable structure.

    Tuples become lists, numpy scalars become Python scalars, dict
    keys are coerced to strings (json sorts them), and floats pass
    through json's shortest-roundtrip repr.  Raises ``TypeError`` for
    anything without an obvious canonical form — silent fallback reprs
    would make keys fragile.
    """
    if isinstance(params, Mapping):
        return {str(k): canonical_params(v) for k, v in params.items()}
    if isinstance(params, (list, tuple)):
        return [canonical_params(v) for v in params]
    if isinstance(params, np.generic):
        return params.item()
    if params is None or isinstance(params, (bool, int, float, str)):
        return params
    raise TypeError(f"cannot canonicalize cache-key component of type {type(params)!r}")


def cache_key(kind: str, params: Mapping[str, Any]) -> str:
    """Content-address for an artifact: sha256 over canonical JSON.

    ``kind`` namespaces the artifact family (``"webgraph"``,
    ``"reference"``, ``"partition"``, ``"point/<experiment>"`` …);
    ``params`` must contain *every* input that determines the
    artifact's value, including the producing graph's fingerprint for
    graph-derived artifacts.
    """
    payload = json.dumps(
        {"kind": kind, "schema": CACHE_SCHEMA_VERSION, "params": canonical_params(params)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def array_fingerprint(arr: np.ndarray) -> str:
    """Short stable digest of an array's dtype/shape/contents."""
    h = hashlib.sha1()
    arr = np.ascontiguousarray(arr)
    h.update(str(arr.dtype).encode())
    h.update(str(arr.shape).encode())
    h.update(arr.tobytes())
    return h.hexdigest()


class ArtifactCache:
    """Filesystem-backed content-addressed store.

    Layout: ``<root>/<key[:2]>/<key><suffix>`` — the two-character fan
    -out keeps directories small at large entry counts.  All writes are
    atomic (temp file + ``os.replace``); all reads treat unreadable
    entries as misses.
    """

    def __init__(self, root: Union[str, os.PathLike]):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def __repr__(self) -> str:
        return (
            f"ArtifactCache(root={str(self.root)!r}, hits={self.hits}, "
            f"misses={self.misses}, stores={self.stores})"
        )

    # ------------------------------------------------------------------
    # Paths and atomic I/O
    # ------------------------------------------------------------------
    def path_for(self, key: str, suffix: str) -> Path:
        """Filesystem location of an entry (it may not exist)."""
        return self.root / key[:2] / f"{key}{suffix}"

    def _atomic_write(self, path: Path, writer: Callable[[Any], None]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                writer(fh)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
        self.stores += 1

    def _discard(self, path: Path) -> None:
        with contextlib.suppress(OSError):
            path.unlink()

    # ------------------------------------------------------------------
    # Array entries (npz)
    # ------------------------------------------------------------------
    def store_arrays(self, key: str, **arrays: np.ndarray) -> None:
        """Store named arrays under ``key`` (atomic npz write)."""
        path = self.path_for(key, ".npz")
        self._atomic_write(path, lambda fh: np.savez(fh, **arrays))

    def load_arrays(self, key: str) -> Optional[Dict[str, np.ndarray]]:
        """Load an array entry; ``None`` on miss or corruption."""
        path = self.path_for(key, ".npz")
        if not path.is_file():
            self.misses += 1
            return None
        try:
            with np.load(path, allow_pickle=False) as data:
                out = {name: data[name] for name in data.files}
        except Exception:
            # Truncated/corrupt archive: drop it and regenerate.
            self._discard(path)
            self.misses += 1
            return None
        self.hits += 1
        return out

    # ------------------------------------------------------------------
    # Object entries (pickle)
    # ------------------------------------------------------------------
    def store_object(self, key: str, obj: Any) -> None:
        """Store a picklable object under ``key`` (atomic write)."""
        path = self.path_for(key, ".pkl")
        self._atomic_write(
            path, lambda fh: pickle.dump(obj, fh, protocol=pickle.HIGHEST_PROTOCOL)
        )

    def load_object(self, key: str) -> Optional[Any]:
        """Load an object entry; ``None`` on miss or corruption.

        Stored objects are wrapped (``{"value": obj}``) by
        :func:`cached_point`, so a legitimately-``None`` value is
        distinguishable from a miss.
        """
        path = self.path_for(key, ".pkl")
        if not path.is_file():
            self.misses += 1
            return None
        try:
            with open(path, "rb") as fh:
                obj = pickle.load(fh)
        except Exception:
            self._discard(path)
            self.misses += 1
            return None
        self.hits += 1
        return obj

    # ------------------------------------------------------------------
    # Graph entries (versioned npz via repro.graph.io)
    # ------------------------------------------------------------------
    def store_graph(self, key: str, graph) -> None:
        """Store a WebGraph under ``key`` in the repo's npz format."""
        from repro.graph.io import save_webgraph

        path = self.path_for(key, ".graph.npz")
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp.npz")
        os.close(fd)
        try:
            save_webgraph(graph, tmp)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
        self.stores += 1

    def load_graph(self, key: str):
        """Load a WebGraph entry; ``None`` on miss or corruption."""
        from repro.graph.io import load_webgraph

        path = self.path_for(key, ".graph.npz")
        if not path.is_file():
            self.misses += 1
            return None
        try:
            graph = load_webgraph(path)
        except Exception:
            self._discard(path)
            self.misses += 1
            return None
        self.hits += 1
        return graph


# ----------------------------------------------------------------------
# Active-cache plumbing
# ----------------------------------------------------------------------
_ACTIVE: Optional[ArtifactCache] = None


def active_cache() -> Optional[ArtifactCache]:
    """The process-wide cache, or ``None`` when caching is off."""
    return _ACTIVE


def set_active_cache(cache: Optional[ArtifactCache]) -> Optional[ArtifactCache]:
    """Install ``cache`` as the process-wide cache; returns the old one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = cache
    return previous


@contextlib.contextmanager
def activate(cache: Optional[ArtifactCache]):
    """Scope ``cache`` as the active cache for a ``with`` block."""
    previous = set_active_cache(cache)
    try:
        yield cache
    finally:
        set_active_cache(previous)


def cache_from_env() -> Optional[ArtifactCache]:
    """Build a cache from ``$REPRO_CACHE_DIR`` (``None`` if unset/empty)."""
    root = os.environ.get(CACHE_DIR_ENV, "").strip()
    return ArtifactCache(root) if root else None


def cached_point(kind: str, params: Mapping[str, Any], compute: Callable[[], Any]) -> Any:
    """Memoize one deterministic sweep point through the active cache.

    ``params`` must capture every input of ``compute`` (seeds, grid
    values, graph/reference fingerprints).  With no active cache this
    is exactly ``compute()``.
    """
    cache = active_cache()
    if cache is None:
        return compute()
    key = cache_key(kind, params)
    hit = cache.load_object(key)
    if hit is not None:
        return hit["value"]
    value = compute()
    cache.store_object(key, {"value": value})
    return value


def _key_component(value: Any) -> Any:
    """A bound argument as a cache-key component: arrays and graphs by
    content fingerprint, everything else as itself."""
    if isinstance(value, np.ndarray):
        return array_fingerprint(value)
    fingerprint = getattr(value, "fingerprint", None)  # WebGraph
    return fingerprint() if callable(fingerprint) else value


def cached_call(kind: str, **constants: Any) -> Callable[[Callable], Callable]:
    """Decorator: memoize a point function, keyed by its bound call.

    Every call of the decorated function goes through
    :func:`cached_point` under ``kind``.  The key is derived, not
    written: the call is bound to the function's signature (defaults
    applied, so positional/keyword spelling and keyword order do not
    matter) and each argument becomes one key component — a
    :class:`~repro.graph.webgraph.WebGraph` by ``fingerprint()``, an
    array by :func:`array_fingerprint`, scalars as themselves.
    ``constants`` adds what the function bakes in beyond its arguments
    (a module-level period, a scenario table).  The decorated function
    exposes ``key_params(*args, **kwargs)``, the parameter dict a call
    would be keyed by.
    """

    def decorate(fn: Callable) -> Callable:
        signature = inspect.signature(fn)

        def key_params(*args: Any, **kwargs: Any) -> Dict[str, Any]:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return {
                **constants,
                **{name: _key_component(v) for name, v in bound.arguments.items()},
            }

        @functools.wraps(fn)
        def call(*args: Any, **kwargs: Any) -> Any:
            if active_cache() is None:  # nothing to key: skip the fingerprints
                return fn(*args, **kwargs)
            return cached_point(
                kind, key_params(*args, **kwargs), lambda: fn(*args, **kwargs)
            )

        call.key_params = key_params
        return call

    return decorate
