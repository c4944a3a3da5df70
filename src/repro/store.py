"""One on-disk store for the eps-independent artifacts.

The paper's Sec. 4 split makes weight vectors and the correlated pass's
pair discovery independent of the gate failure probabilities: each is
computed once per circuit and can be reused across processes.  This
module persists every such artifact the same way.  The kinds it knows
are declared in :data:`KINDS`:

* ``weights`` — a full-circuit :class:`~repro.probability.weights.WeightData`;
* ``conewt`` — the weights of one output cone of a large netlist
  (:mod:`repro.scale.lazy_weights`);
* ``corrplan`` — the correlated kernel's discovered pair table, or its
  refusal (:mod:`repro.reliability.compiled_pass`);
* ``wstate`` — one named edit session's workspace snapshot
  (:mod:`repro.engine.state`).

An entry is one ``<prefix>-<digest>.npz`` file under a caller-chosen
directory.  Its *key* is a dict of the fields the artifact depends on
(circuit structural hash plus parameters).  The key, stamped with the
kind's format version and ``kind`` tag, is embedded in the archive as a
JSON manifest and re-checked on every read, so a stale file (a netlist
edited in place), an entry of another kind, a truncated write or a
corrupt archive is a miss, never an exception.  Content-addressed kinds
name the file by the SHA-256 of that manifest; a *slot* kind (``wstate``)
names it by one key field, so a session's snapshot is overwritten in
place.

Each kind keeps only its array codec next to its owner: ``save`` takes the
encoded arrays, ``load`` takes a ``decode(archive, manifest)`` callable
whose exceptions read as corruption.  Writes go through
:func:`atomic_write`, which ``engine-state.json`` uses too.

Kinds flagged ``memory`` also keep decoded values in a process-local LRU
keyed by entry path; each value is remembered with its file's
``(mtime_ns, size)`` fingerprint, so a file changed or removed on disk
drops it and the read falls through to the checks above.

Every load and store counts into one metric family,
``cache.{hits,memory_hits,misses,corrupt,stores}`` labelled ``kind=``,
and runs in a ``<prefix>_cache.{load,store}`` span.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections import OrderedDict
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple

import numpy as np

from .obs import metrics as obs_metrics
from .obs import trace_span


class Kind(NamedTuple):
    #: Entry file prefix; also the ``kind=`` metric label.
    prefix: str
    #: Format version; bump it when the layout changes and old entries
    #: read as misses.
    version: int
    #: The manifest's ``kind`` field (weights entries were written
    #: without one, and keep that layout so existing entries still hit).
    tag: Optional[str]
    #: Keep decoded values in the process memory tier.
    memory: bool
    #: Key field naming a slot that each save overwrites, or None for
    #: entries named by their manifest digest.
    slot: Optional[str] = None


#: Every artifact kind the store persists.
KINDS: Dict[str, Kind] = {kind.prefix: kind for kind in (
    Kind("weights", 1, None, memory=True),
    Kind("conewt", 1, "cone_weights", memory=True),
    Kind("corrplan", 1, "correlation_plan", memory=False),
    Kind("wstate", 1, "workspace_state", memory=False, slot="session"),
)}

#: The events each kind counts as ``cache.<event>{kind=...}``.
EVENTS = ("hits", "memory_hits", "misses", "corrupt", "stores")


class MemoryTier:
    """Process-local LRU of decoded entries, validated against the disk.

    Entries are keyed by their disk path and checked on every read
    against the file's ``(mtime_ns, size)`` fingerprint, so the memory
    tier never serves a value the disk tier would reject.
    """

    def __init__(self, capacity: int = 32):
        self.capacity = capacity
        self._entries: "OrderedDict[str, Tuple[Tuple[int, int], Any]]" = \
            OrderedDict()

    @staticmethod
    def _fingerprint(path: str) -> Optional[Tuple[int, int]]:
        try:
            st = os.stat(path)
        except OSError:
            return None
        return (st.st_mtime_ns, st.st_size)

    def get(self, path: str) -> Any:
        item = self._entries.get(path)
        if item is None:
            return None
        if self._fingerprint(path) != item[0]:
            del self._entries[path]
            return None
        self._entries.move_to_end(path)
        return item[1]

    def put(self, path: str, value: Any) -> None:
        fp = self._fingerprint(path)
        if fp is None:
            return
        self._entries[path] = (fp, value)
        self._entries.move_to_end(path)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()


#: The process-wide memory tier.
_MEMORY = MemoryTier()


def memory_tier() -> MemoryTier:
    """The process-wide memory tier (for inspection and clearing)."""
    return _MEMORY


def _manifest(kind: Kind, key: Dict[str, Any]) -> Dict[str, Any]:
    doc = dict(key, format=kind.version)
    if kind.tag is not None:
        doc["kind"] = kind.tag
    return doc


def _dumps(doc: Dict[str, Any]) -> str:
    return json.dumps(doc, sort_keys=True)


def digest(kind: str, key: Dict[str, Any]) -> str:
    """The digest naming one entry: its file is ``<prefix>-<digest>.npz``."""
    spec = KINDS[kind]
    if spec.slot is not None:
        return hashlib.sha256(str(key[spec.slot]).encode()).hexdigest()[:24]
    return hashlib.sha256(_dumps(_manifest(spec, key)).encode()).hexdigest()


def entry_path(root: str, kind: str, key: Dict[str, Any]) -> str:
    """The file holding the ``kind`` entry for ``key`` under ``root``."""
    return os.path.join(root, f"{kind}-{digest(kind, key)}.npz")


def atomic_write(path: str, write: Callable[[Any], None]) -> None:
    """Write ``path`` through a synced temp file and one ``os.replace``.

    ``write`` receives a binary file object.  A reader sees the old file
    or the whole new one; after a crash the old file is still intact,
    because the new bytes reach the disk before the rename.
    """
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=directory)
    try:
        with os.fdopen(fd, "wb") as fh:
            write(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _count(event: str, kind: Kind, labels: Dict[str, str]) -> None:
    if obs_metrics.is_enabled():
        obs_metrics.inc(f"cache.{event}", kind=kind.prefix, **labels)


def load(root: str, kind: str, key: Dict[str, Any],
         decode: Callable[[Any, Dict[str, Any]], Any],
         **labels: str) -> Any:
    """The decoded ``kind`` entry for ``key``, or None on a miss.

    ``decode(archive, manifest)`` turns the open ``.npz`` archive (and its
    parsed manifest) into the value; anything it raises, like a manifest
    that does not match ``key``, counts as ``corrupt`` and reads as a
    miss.  ``labels`` label the span and the counters.
    """
    spec = KINDS[kind]
    path = entry_path(root, kind, key)
    if spec.memory:
        value = _MEMORY.get(path)
        if value is not None:
            _count("memory_hits", spec, labels)
            return value
    if not os.path.exists(path):
        _count("misses", spec, labels)
        return None
    expected = _manifest(spec, key)
    with trace_span(f"{kind}_cache.load", **labels):
        try:
            with np.load(path, allow_pickle=False) as archive:
                manifest = json.loads(
                    bytes(archive["manifest"].tobytes()).decode())
                stored = {name: manifest.get(name) for name in expected}
                if (manifest.get("kind") != spec.tag
                        or _dumps(stored) != _dumps(expected)):
                    raise ValueError("manifest mismatch")
                value = decode(archive, manifest)
        except Exception:
            _count("corrupt", spec, labels)
            return None
    _count("hits", spec, labels)
    if spec.memory:
        _MEMORY.put(path, value)
    return value


def save(root: str, kind: str, key: Dict[str, Any],
         arrays: Dict[str, np.ndarray], value: Any = None,
         meta: Optional[Dict[str, Any]] = None, **labels: str) -> str:
    """Atomically write one entry; returns its path.

    ``arrays`` is the kind's encoding of ``value``; ``meta`` adds
    descriptive fields to the embedded manifest (they are not part of the
    key).  Memory-tier kinds keep ``value`` resident when it is given.
    """
    spec = KINDS[kind]
    manifest = dict(meta or {}, **_manifest(spec, key))
    payload = dict(arrays)
    payload["manifest"] = np.frombuffer(_dumps(manifest).encode(),
                                        dtype=np.uint8)
    os.makedirs(root, exist_ok=True)
    path = entry_path(root, kind, key)
    with trace_span(f"{kind}_cache.store", **labels):
        atomic_write(path, lambda fh: np.savez(fh, **payload))
    if spec.memory and value is not None:
        _MEMORY.put(path, value)
    _count("stores", spec, labels)
    return path
