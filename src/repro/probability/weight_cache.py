"""Persistent disk cache for weight vectors.

Weight vectors depend only on circuit structure and the estimator
parameters — never on gate failure probabilities — which makes them ideal
to cache across processes: an eps sweep, a Monte Carlo cross-check and a
report over the same netlist can all reuse one weight computation.

Entries are ``.npz`` files under a user-supplied directory, keyed by a
SHA-256 digest over

* the circuit's *structural hash* (topological ``name|type|fanins`` lines
  plus the input/output interface — see :func:`structural_hash`), and
* the estimator parameters ``(method, seed, n_patterns, input_probs)``,
  plus ``bdd_node_limit`` for ``method="auto"`` (the limit decides whether
  the auto tier's weights come out exact or sampled).

Every entry embeds its full key manifest; :func:`load_weights` re-verifies
it on read, so a stale file (e.g. a netlist edited in place under the same
name), a truncated write, or a corrupt archive is treated as a miss and
recomputed — never an exception.  Writes go through a temp file +
``os.replace`` so concurrent readers cannot observe partial entries.

A process-local **memory tier** sits in front of the disk files: decoded
:class:`WeightData` objects are kept in an LRU keyed by entry path, each
remembered together with the file's ``(mtime_ns, size)`` fingerprint.  A
memory hit whose backing file changed (or vanished) is invalidated and
falls through to the disk read, so the corruption/staleness guarantees
above survive unchanged — the tier only skips redundant ``.npz`` decoding.
Long-lived services (the :mod:`repro.engine` session registry) can
:func:`pin_weights` hot circuits so eviction never touches them.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections import OrderedDict
from typing import Dict, Optional, Tuple

import numpy as np

from ..circuit import Circuit
from ..obs import metrics as obs_metrics
from ..obs import trace_span
from .weights import DEFAULT_BDD_NODE_LIMIT, WeightData

#: Bump when the on-disk layout changes; old entries become misses.
CACHE_FORMAT_VERSION = 1


class MemoryTier:
    """Process-local LRU of decoded weight entries over the disk tier.

    Entries are keyed by their disk path and validated on every read
    against the file's ``(mtime_ns, size)`` fingerprint, so the memory
    tier can never serve data the disk tier would reject.  Pinned paths
    are exempt from LRU eviction (but not from freshness invalidation).
    """

    def __init__(self, capacity: int = 32):
        self.capacity = capacity
        self._entries: "OrderedDict[str, Tuple[Tuple[int, int], WeightData]]"\
            = OrderedDict()
        self._pinned = set()

    @staticmethod
    def _fingerprint(path: str) -> Optional[Tuple[int, int]]:
        try:
            st = os.stat(path)
        except OSError:
            return None
        return (st.st_mtime_ns, st.st_size)

    def get(self, path: str) -> Optional[WeightData]:
        item = self._entries.get(path)
        if item is None:
            return None
        if self._fingerprint(path) != item[0]:
            # Backing file changed or vanished: the decoded copy is stale.
            del self._entries[path]
            return None
        self._entries.move_to_end(path)
        return item[1]

    def put(self, path: str, data: WeightData) -> None:
        fp = self._fingerprint(path)
        if fp is None:
            return
        self._entries[path] = (fp, data)
        self._entries.move_to_end(path)
        while len(self._entries) > self.capacity:
            victim = next((p for p in self._entries
                           if p not in self._pinned), None)
            if victim is None:
                break  # everything is pinned; let the tier overfill
            del self._entries[victim]

    def pin(self, path: str) -> None:
        self._pinned.add(path)

    def unpin(self, path: str) -> None:
        self._pinned.discard(path)

    def clear(self) -> None:
        self._entries.clear()
        self._pinned.clear()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def pinned_count(self) -> int:
        return len(self._pinned)


#: The process-wide memory tier consulted by :func:`load_weights`.
_MEMORY = MemoryTier()


def memory_tier() -> MemoryTier:
    """The process-wide memory tier (for inspection, pinning, clearing)."""
    return _MEMORY


def pin_weights(cache_dir: str, circuit: Circuit, method: str,
                n_patterns: int, seed: int,
                input_probs: Optional[Dict[str, float]] = None,
                bdd_node_limit: int = DEFAULT_BDD_NODE_LIMIT) -> str:
    """Exempt one entry from memory-tier eviction; returns its path.

    Pinning does not load anything by itself — the next
    :func:`load_weights` (or :func:`store_weights`) populates the tier,
    after which the decoded entry stays resident until
    :func:`unpin_weights`.
    """
    path = _entry_path(cache_dir,
                       cache_key(circuit, method, n_patterns, seed,
                                 input_probs, bdd_node_limit))
    _MEMORY.pin(path)
    return path


def unpin_weights(path: str) -> None:
    """Release a pin taken by :func:`pin_weights`."""
    _MEMORY.unpin(path)


def structural_hash(circuit: Circuit) -> str:
    """SHA-256 digest of the circuit's structure (not its name).

    Two circuits hash equal iff they have the same inputs (in order), the
    same outputs (in order), and the same gates — name, type and ordered
    fanin list — in topological order.  Gate failure probabilities, weight
    sources and other analysis state do not participate.
    """
    h = hashlib.sha256()
    h.update(("inputs:" + ",".join(circuit.inputs) + "\n").encode())
    h.update(("outputs:" + ",".join(circuit.outputs) + "\n").encode())
    for name in circuit.topological_order():
        node = circuit.node(name)
        line = f"{name}|{node.gate_type.value}|{','.join(node.fanins)}\n"
        h.update(line.encode())
    return h.hexdigest()


def cache_key(circuit: Circuit, method: str, n_patterns: int, seed: int,
              input_probs: Optional[Dict[str, float]] = None,
              bdd_node_limit: int = DEFAULT_BDD_NODE_LIMIT) -> str:
    """Digest naming the cache entry for one (circuit, parameters) pair."""
    manifest = _manifest(structural_hash(circuit), method, n_patterns, seed,
                         input_probs, bdd_node_limit)
    return hashlib.sha256(manifest.encode()).hexdigest()


def _manifest(circuit_hash: str, method: str, n_patterns: int, seed: int,
              input_probs: Optional[Dict[str, float]],
              bdd_node_limit: int) -> str:
    fields = {
        "format": CACHE_FORMAT_VERSION,
        "circuit_hash": circuit_hash,
        "method": method,
        "n_patterns": int(n_patterns),
        "seed": int(seed),
        "input_probs": sorted((input_probs or {}).items()),
    }
    if method == "auto":
        fields["bdd_node_limit"] = int(bdd_node_limit)
    return json.dumps(fields, sort_keys=True)


def _entry_path(cache_dir: str, key: str) -> str:
    return os.path.join(cache_dir, f"weights-{key}.npz")


def _decode_weight_archive(path: str, expected: str) -> WeightData:
    """Decode one weight-entry archive, re-verifying its manifest.

    Raises on any corruption/mismatch; callers turn that into a miss.
    """
    with np.load(path, allow_pickle=False) as archive:
        if bytes(archive["manifest"].tobytes()).decode() != expected:
            raise ValueError("manifest mismatch")
        names = [str(n) for n in archive["gate_names"]]
        nodes = [str(n) for n in archive["node_names"]]
        signal = archive["signal_prob"].astype(np.float64)
        if len(nodes) != len(signal):
            raise ValueError("signal_prob length mismatch")
        flat = archive["weights_flat"].astype(np.float64)
        lengths = archive["weights_len"].astype(np.int64)
        if len(lengths) != len(names) or lengths.sum() != len(flat):
            raise ValueError("weight vector layout mismatch")
        offsets = np.concatenate(([0], np.cumsum(lengths)))
        weights = {}
        for i, gate in enumerate(names):
            vec = flat[offsets[i]:offsets[i + 1]].copy()
            if len(vec) == 0 or len(vec) & (len(vec) - 1):
                raise ValueError("weight vector not 2**k long")
            weights[gate] = vec
        source = str(archive["source"][()])
    return WeightData(
        weights=weights,
        signal_prob={n: float(p) for n, p in zip(nodes, signal)},
        source=source,
    )


def _encode_weight_archive(manifest: str, data: WeightData) -> Dict[str, np.ndarray]:
    gate_names = list(data.weights)
    node_names = list(data.signal_prob)
    vectors = [np.asarray(data.weights[g], dtype=np.float64)
               for g in gate_names]
    return {
        "manifest": np.frombuffer(manifest.encode(), dtype=np.uint8),
        "gate_names": np.asarray(gate_names),
        "node_names": np.asarray(node_names),
        "signal_prob": np.asarray(
            [data.signal_prob[n] for n in node_names], dtype=np.float64),
        "source": np.asarray(data.source),
        "weights_flat": (np.concatenate(vectors) if vectors
                         else np.empty(0, dtype=np.float64)),
        "weights_len": np.asarray([len(v) for v in vectors],
                                  dtype=np.int64),
    }


def _atomic_savez(cache_dir: str, path: str,
                  arrays: Dict[str, np.ndarray]) -> None:
    fd, tmp = tempfile.mkstemp(suffix=".npz.tmp", dir=cache_dir)
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, **arrays)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def load_weights(cache_dir: str, circuit: Circuit, method: str,
                 n_patterns: int, seed: int,
                 input_probs: Optional[Dict[str, float]] = None,
                 bdd_node_limit: int = DEFAULT_BDD_NODE_LIMIT
                 ) -> Optional[WeightData]:
    """Return the cached :class:`WeightData`, or None on miss.

    Corrupt archives, layout-version skew, and manifest mismatches all
    read as misses (the caller recomputes and overwrites); only the
    file-system errors of an *existing, healthy* directory propagate.
    """
    expected = _manifest(structural_hash(circuit), method, n_patterns,
                         seed, input_probs, bdd_node_limit)
    key = hashlib.sha256(expected.encode()).hexdigest()
    path = _entry_path(cache_dir, key)
    resident = _MEMORY.get(path)
    if resident is not None:
        _note("weights_cache.memory_hits", circuit)
        return resident
    if not os.path.exists(path):
        _note("weights_cache.misses", circuit)
        return None
    with trace_span("weights_cache.load", circuit=circuit.name):
        try:
            data = _decode_weight_archive(path, expected)
        except Exception:
            # Anything unreadable is a stale/corrupt entry: miss, not crash.
            _note("weights_cache.corrupt", circuit)
            return None
    _note("weights_cache.hits", circuit)
    _MEMORY.put(path, data)
    return data


def store_weights(cache_dir: str, circuit: Circuit, method: str,
                  n_patterns: int, seed: int,
                  input_probs: Optional[Dict[str, float]],
                  data: WeightData,
                  bdd_node_limit: int = DEFAULT_BDD_NODE_LIMIT) -> None:
    """Atomically persist one weight computation."""
    manifest = _manifest(structural_hash(circuit), method, n_patterns, seed,
                         input_probs, bdd_node_limit)
    key = hashlib.sha256(manifest.encode()).hexdigest()
    os.makedirs(cache_dir, exist_ok=True)
    arrays = _encode_weight_archive(manifest, data)
    path = _entry_path(cache_dir, key)
    with trace_span("weights_cache.store", circuit=circuit.name):
        _atomic_savez(cache_dir, path, arrays)
    _MEMORY.put(path, data)
    _note("weights_cache.stores", circuit)


# ======================================================================
# Per-cone weight entries (lazy scaling tier)
# ======================================================================
#
# The lazy weight store (repro.scale.LazyWeightData) materializes weight
# vectors one output cone at a time, and each materialized cone is worth
# persisting on its own.  Cone entries are *partial* views of a circuit,
# so they live in a dedicated key namespace — a ``conewt-`` filename
# prefix plus a ``kind: "cone_weights"`` manifest field — and can never
# shadow (or be shadowed by) the full-circuit ``weights-`` entries even
# if a digest ever collided: the embedded manifest is re-verified on
# every read and the two manifest schemas are disjoint.

#: Bump when the per-cone entry layout changes; old entries become misses.
CONE_WEIGHTS_FORMAT_VERSION = 1


def _cone_manifest(circuit_hash: str, cone_root: str, method: str,
                   n_patterns: int, seed: int,
                   input_probs: Optional[Dict[str, float]]) -> str:
    return json.dumps({
        "format": CONE_WEIGHTS_FORMAT_VERSION,
        "kind": "cone_weights",
        "circuit_hash": circuit_hash,
        "cone_root": cone_root,
        "method": method,
        "n_patterns": int(n_patterns),
        "seed": int(seed),
        "input_probs": sorted((input_probs or {}).items()),
    }, sort_keys=True)


def _cone_entry_path(cache_dir: str, key: str) -> str:
    return os.path.join(cache_dir, f"conewt-{key}.npz")


def load_cone_weights(cache_dir: str, circuit: Circuit, cone_root: str,
                      method: str, n_patterns: int, seed: int,
                      input_probs: Optional[Dict[str, float]] = None
                      ) -> Optional[WeightData]:
    """Cached weights for one cone of ``circuit``, or None on miss.

    ``circuit`` is the *full* circuit the cone was cut from (its
    structural hash keys the entry, so an edited netlist invalidates all
    its cones at once); ``cone_root`` names the node whose transitive
    fanin the entry covers.  Same corruption policy as
    :func:`load_weights`.
    """
    expected = _cone_manifest(structural_hash(circuit), cone_root, method,
                              n_patterns, seed, input_probs)
    key = hashlib.sha256(expected.encode()).hexdigest()
    path = _cone_entry_path(cache_dir, key)
    resident = _MEMORY.get(path)
    if resident is not None:
        _note("conewt_cache.memory_hits", circuit)
        return resident
    if not os.path.exists(path):
        _note("conewt_cache.misses", circuit)
        return None
    with trace_span("conewt_cache.load", circuit=circuit.name):
        try:
            data = _decode_weight_archive(path, expected)
        except Exception:
            _note("conewt_cache.corrupt", circuit)
            return None
    _note("conewt_cache.hits", circuit)
    _MEMORY.put(path, data)
    return data


def store_cone_weights(cache_dir: str, circuit: Circuit, cone_root: str,
                       method: str, n_patterns: int, seed: int,
                       input_probs: Optional[Dict[str, float]],
                       data: WeightData) -> None:
    """Atomically persist one materialized cone's weights."""
    manifest = _cone_manifest(structural_hash(circuit), cone_root, method,
                              n_patterns, seed, input_probs)
    key = hashlib.sha256(manifest.encode()).hexdigest()
    os.makedirs(cache_dir, exist_ok=True)
    arrays = _encode_weight_archive(manifest, data)
    path = _cone_entry_path(cache_dir, key)
    with trace_span("conewt_cache.store", circuit=circuit.name):
        _atomic_savez(cache_dir, path, arrays)
    _MEMORY.put(path, data)
    _note("conewt_cache.stores", circuit)


def _note(counter: str, circuit: Circuit) -> None:
    if obs_metrics.is_enabled():
        obs_metrics.inc(counter, circuit=circuit.name)


# ======================================================================
# Correlation-plan cache
# ======================================================================
#
# The compiled correlated kernel's pair-discovery walk (which wire pairs
# get a coefficient row) depends only on circuit structure and the two
# correlation knobs — never on eps — so its result is cached the same way
# as weight vectors: an ``.npz`` per (structure, max_level_gap, max_pairs)
# key holding the canonical pair table as an ``(n, 4)`` int array of
# ``(later_slot, event, earlier_slot, event)`` rows over the topological
# order, or an explicit "unsupported" marker when the budget was exceeded
# (so repeat runs skip straight to the scalar fallback).

#: Bump when the correlation-plan layout changes; old entries become misses.
CORRELATION_PLAN_FORMAT_VERSION = 1


def _corr_manifest(circuit_hash: str, max_level_gap: Optional[int],
                   max_pairs: int) -> str:
    return json.dumps({
        "format": CORRELATION_PLAN_FORMAT_VERSION,
        "kind": "correlation_plan",
        "circuit_hash": circuit_hash,
        "max_level_gap": max_level_gap,
        "max_pairs": int(max_pairs),
    }, sort_keys=True)


def _corr_entry_path(cache_dir: str, key: str) -> str:
    return os.path.join(cache_dir, f"corrplan-{key}.npz")


def load_correlation_plan(cache_dir: str, circuit: Circuit,
                          max_level_gap: Optional[int],
                          max_pairs: int) -> Optional[dict]:
    """Return ``{"unsupported": bool, "pairs": (n, 4) int array}`` or None.

    Same corruption policy as :func:`load_weights`: anything unreadable or
    with a mismatched manifest is a miss, never an exception.
    """
    expected = _corr_manifest(structural_hash(circuit), max_level_gap,
                              max_pairs)
    key = hashlib.sha256(expected.encode()).hexdigest()
    path = _corr_entry_path(cache_dir, key)
    if not os.path.exists(path):
        _note("corrplan_cache.misses", circuit)
        return None
    with trace_span("corrplan_cache.load", circuit=circuit.name):
        try:
            with np.load(path, allow_pickle=False) as archive:
                if bytes(archive["manifest"].tobytes()).decode() != expected:
                    raise ValueError("manifest mismatch")
                unsupported = bool(archive["unsupported"][()])
                pairs = archive["pairs"].astype(np.int64)
                if pairs.ndim != 2 or pairs.shape[1] != 4:
                    raise ValueError("pair table layout mismatch")
                n_nodes = len(circuit.topological_order())
                if len(pairs) and (pairs[:, (0, 2)].min() < 0
                                   or pairs[:, (0, 2)].max() >= n_nodes):
                    raise ValueError("pair slot out of range")
        except Exception:
            _note("corrplan_cache.corrupt", circuit)
            return None
    _note("corrplan_cache.hits", circuit)
    return {"unsupported": unsupported, "pairs": pairs}


# ======================================================================
# Workspace-state entries (durable engine warm state)
# ======================================================================
#
# The serve tier checkpoints named edit sessions by serializing each
# session's :class:`~repro.incremental.CircuitWorkspace` — mutated
# netlist, simulation packs, weight vectors, eps state, typed edit log —
# into one ``.npz`` per session name, stored alongside the weight and
# correlation-plan entries and following the same rules: a full manifest
# embedded in the archive and re-verified on read, atomic
# temp-file + ``os.replace`` writes, and corruption treated as a miss
# (the engine then rebuilds cold), never an exception.

#: Bump when the workspace-state layout changes; old entries become misses.
WORKSPACE_STATE_FORMAT_VERSION = 1


def _workspace_entry_path(state_dir: str, session_name: str) -> str:
    digest = hashlib.sha256(session_name.encode()).hexdigest()[:24]
    return os.path.join(state_dir, f"wstate-{digest}.npz")


def store_workspace_state(state_dir: str, session_name: str,
                          manifest: dict, arrays: dict) -> str:
    """Atomically persist one workspace state; returns the entry path.

    ``manifest``/``arrays`` come from ``CircuitWorkspace.to_state()``;
    the session name is stamped into the stored manifest so an entry can
    never be replayed under a different name (hash-prefix collisions
    read as misses instead of resurrecting the wrong session).
    """
    manifest = dict(manifest)
    manifest["session"] = session_name
    blob = json.dumps(manifest, sort_keys=True)
    payload = dict(arrays)
    payload["manifest"] = np.frombuffer(blob.encode(), dtype=np.uint8)
    os.makedirs(state_dir, exist_ok=True)
    path = _workspace_entry_path(state_dir, session_name)
    with trace_span("wstate_cache.store", session=session_name):
        fd, tmp = tempfile.mkstemp(suffix=".npz.tmp", dir=state_dir)
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez(fh, **payload)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    if obs_metrics.is_enabled():
        obs_metrics.inc("wstate_cache.stores", session=session_name)
    return path


def load_workspace_state(state_dir: str, session_name: str
                         ) -> Optional[Tuple[dict, dict]]:
    """Return ``(manifest, arrays)`` for one session, or None on miss.

    Same policy as :func:`load_weights`: a missing file, a truncated or
    corrupt archive, a format-version skew, or a manifest naming a
    different session all read as misses.
    """
    path = _workspace_entry_path(state_dir, session_name)
    if not os.path.exists(path):
        return None
    with trace_span("wstate_cache.load", session=session_name):
        try:
            with np.load(path, allow_pickle=False) as archive:
                manifest = json.loads(
                    bytes(archive["manifest"].tobytes()).decode())
                if manifest.get("kind") != "workspace_state":
                    raise ValueError("not a workspace-state entry")
                if manifest.get("format") != WORKSPACE_STATE_FORMAT_VERSION:
                    raise ValueError("format version skew")
                if manifest.get("session") != session_name:
                    raise ValueError("session name mismatch")
                arrays = {name: archive[name].copy()
                          for name in ("packs", "weights_flat",
                                       "weights_len", "signal_prob")}
        except Exception:
            if obs_metrics.is_enabled():
                obs_metrics.inc("wstate_cache.corrupt",
                                session=session_name)
            return None
    if obs_metrics.is_enabled():
        obs_metrics.inc("wstate_cache.hits", session=session_name)
    return manifest, arrays


def store_correlation_plan(cache_dir: str, circuit: Circuit,
                           max_level_gap: Optional[int], max_pairs: int,
                           pairs=None, unsupported: bool = False) -> None:
    """Atomically persist one pair-discovery result (or its refusal)."""
    manifest = _corr_manifest(structural_hash(circuit), max_level_gap,
                              max_pairs)
    key = hashlib.sha256(manifest.encode()).hexdigest()
    os.makedirs(cache_dir, exist_ok=True)
    table = (np.asarray(pairs, dtype=np.int64).reshape(-1, 4)
             if pairs is not None and len(pairs)
             else np.empty((0, 4), dtype=np.int64))
    arrays = {
        "manifest": np.frombuffer(manifest.encode(), dtype=np.uint8),
        "unsupported": np.asarray(bool(unsupported)),
        "pairs": table,
    }
    with trace_span("corrplan_cache.store", circuit=circuit.name):
        fd, tmp = tempfile.mkstemp(suffix=".npz.tmp", dir=cache_dir)
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez(fh, **arrays)
            os.replace(tmp, _corr_entry_path(cache_dir, key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    _note("corrplan_cache.stores", circuit)
