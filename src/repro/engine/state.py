"""Durable engine warm state: snapshot and restore named edit sessions.

A serve process accumulates expensive per-session state — simulation
packs, weight vectors, incrementally maintained eps maps and edit logs —
that historically died with the process.  This module makes it durable:
:func:`save_engine_state` writes every named edit session's
:class:`~repro.incremental.CircuitWorkspace` as a ``wstate`` entry of
:mod:`repro.store` (one ``wstate-*.npz`` per session name) plus one
``engine-state.json`` manifest listing the sessions, and
:func:`load_engine_state` rebuilds them on the next start.  Restores are
best-effort per session: a missing or corrupt entry, or one that does
not match the manifest, skips that session (counted in
``engine.state.load_errors``) and never aborts the rest.

The same directory doubles as a shared warm artifact store: pointing the
engine's ``weights_cache_dir`` at it (the CLI's ``--state-dir`` does
this automatically when ``--weights-cache`` is unset) lets N serve
replicas share weight vectors and correlation plans through the store
while each checkpoints its own sessions.
"""

from __future__ import annotations

import json
import os
import time
import weakref
from typing import Any, Dict, Optional

from .. import store
from ..incremental import CircuitWorkspace
from ..obs import metrics as obs_metrics
from ..obs import trace_span
from .session import CircuitSession, SessionConfig

__all__ = [
    "ENGINE_STATE_FORMAT_VERSION",
    "STATE_MANIFEST_NAME",
    "load_engine_state",
    "load_workspace_state",
    "save_engine_state",
    "store_workspace_state",
]

#: Bump when the engine-state manifest layout changes.
ENGINE_STATE_FORMAT_VERSION = 1

#: File name of the per-directory snapshot manifest.
STATE_MANIFEST_NAME = "engine-state.json"


def store_workspace_state(state_dir: str, session_name: str,
                          manifest: dict, arrays: dict) -> str:
    """Write one session's ``CircuitWorkspace.to_state()`` output as its
    ``wstate`` entry; returns the entry path.

    The session name is the entry's key, so an entry can never be
    replayed under a different name.
    """
    return store.save(state_dir, "wstate", {"session": session_name},
                      arrays, meta=manifest, session=session_name)


def load_workspace_state(state_dir: str, session_name: str,
                         circuit_hash: Optional[str] = None
                         ) -> Optional[CircuitWorkspace]:
    """The workspace stored for one session, or None on a miss.

    With ``circuit_hash`` set, an entry whose workspace has another
    structural hash is a miss too.
    """
    key = {"session": session_name}
    if circuit_hash is not None:
        key["structural_hash"] = circuit_hash
    return store.load(
        state_dir, "wstate", key,
        lambda archive, manifest: CircuitWorkspace.from_state(manifest,
                                                              archive),
        session=session_name)


def _config_options(config: SessionConfig) -> Dict[str, Any]:
    """A ``SessionConfig`` as the options dict ``from_options`` accepts."""
    options: Dict[str, Any] = {}
    for name in SessionConfig.FIELDS:
        value = getattr(config, name)
        if name == "input_probs" and value is not None:
            value = {k: v for k, v in value}
        options[name] = value
    return options


def _manifest_entry(name: str, path: str, structural_hash: str,
                    config: SessionConfig) -> Dict[str, Any]:
    """One session's line in ``engine-state.json``."""
    return {"name": name, "file": os.path.basename(path),
            "structural_hash": structural_hash,
            "config": _config_options(config)}


#: Per workspace, ``(state_dir, name, revision, entry, file signature)``
#: of the ``wstate`` entry last written for it or restored into it.
_SAVED: "weakref.WeakKeyDictionary[CircuitWorkspace, tuple]" = \
    weakref.WeakKeyDictionary()


def _file_signature(path: str) -> Optional[tuple]:
    """``(inode, size, mtime_ns)`` of ``path``, or None when it is gone."""
    try:
        st = os.stat(path)
    except FileNotFoundError:
        return None
    return (st.st_ino, st.st_size, st.st_mtime_ns)


def _mark_saved(workspace: CircuitWorkspace, state_dir: str, name: str,
                entry: Dict[str, Any]) -> None:
    """Record that ``state_dir``'s entry for ``name`` holds ``workspace``."""
    _SAVED[workspace] = (os.path.abspath(state_dir), name,
                         workspace.revision, entry,
                         _file_signature(os.path.join(state_dir,
                                                      entry["file"])))


def _saved_entry(workspace: CircuitWorkspace, state_dir: str,
                 name: str) -> Optional[Dict[str, Any]]:
    """The manifest entry of ``name`` if its file in ``state_dir`` still
    holds ``workspace`` as it is now, else None."""
    mark = _SAVED.get(workspace)
    if (mark is None
            or mark[:3] != (os.path.abspath(state_dir), name,
                            workspace.revision)
            or _file_signature(os.path.join(state_dir, mark[3]["file"]))
            != mark[4]):
        return None
    return mark[3]


def save_engine_state(engine, state_dir: str) -> Dict[str, Any]:
    """Snapshot every named edit session into ``state_dir``.

    Each session's workspace is written as its own atomic ``.npz`` entry
    first; the ``engine-state.json`` manifest is replaced last.  A crash
    in between leaves the previous manifest in place; an entry it lists
    that was already overwritten no longer matches the manifest's
    structural hash, and :func:`load_engine_state` skips that session.

    A session whose workspace applied no edit since its entry in
    ``state_dir`` was written (or restored from) is not rewritten while
    that entry file is unchanged (same inode, size and mtime); the
    manifest still lists it.  Returns a summary dict
    (``{state_dir, sessions, written, elapsed_ms}``) that the serve
    ``save`` control op echoes to the client.
    """
    started = time.perf_counter()
    os.makedirs(state_dir, exist_ok=True)
    entries = []
    written = 0
    with trace_span("engine.state.save",
                    sessions=len(engine._edit_sessions)):
        for name in sorted(engine._edit_sessions):
            session = engine._edit_sessions[name]
            workspace = session.workspace()
            entry = _saved_entry(workspace, state_dir, name)
            if entry is None:
                manifest, arrays = workspace.to_state()
                path = store_workspace_state(state_dir, name, manifest,
                                             arrays)
                entry = _manifest_entry(name, path,
                                        manifest["structural_hash"],
                                        session.config)
                _mark_saved(workspace, state_dir, name, entry)
                written += 1
            entries.append(entry)
        doc = {
            "format": ENGINE_STATE_FORMAT_VERSION,
            "kind": "engine_state",
            "saved_at": time.time(),
            "sessions": entries,
        }
        blob = json.dumps(doc, sort_keys=True, indent=1).encode()
        store.atomic_write(os.path.join(state_dir, STATE_MANIFEST_NAME),
                           lambda fh: fh.write(blob))
    elapsed_ms = (time.perf_counter() - started) * 1e3
    if obs_metrics.is_enabled():
        obs_metrics.inc("engine.state.snapshots")
        obs_metrics.inc("engine.state.sessions_saved", written)
    return {"state_dir": state_dir, "sessions": len(entries),
            "written": written, "elapsed_ms": round(elapsed_ms, 3)}


def load_engine_state(engine, state_dir: str) -> Dict[str, Any]:
    """Restore named edit sessions from a prior snapshot, best-effort.

    Returns ``{state_dir, found, sessions, errors}``; ``found`` is False
    when no (readable) manifest exists.  Individual sessions that fail to
    restore — corrupt entry, an entry newer than the manifest (its
    structural hash differs), bad config — are reported in ``errors``
    and skipped, so one bad entry cannot poison a restart.  Already-registered session names are left untouched.
    """
    manifest_path = os.path.join(state_dir, STATE_MANIFEST_NAME)
    summary: Dict[str, Any] = {"state_dir": state_dir, "found": False,
                               "sessions": 0, "errors": []}
    try:
        with open(manifest_path) as fh:
            doc = json.load(fh)
        if doc.get("kind") != "engine_state":
            raise ValueError("not an engine-state manifest")
        if doc.get("format") != ENGINE_STATE_FORMAT_VERSION:
            raise ValueError("format version skew")
    except FileNotFoundError:
        return summary
    except Exception as exc:
        summary["errors"].append(f"manifest: {exc}")
        return summary
    summary["found"] = True
    with trace_span("engine.state.load",
                    sessions=len(doc.get("sessions", []))):
        for entry in doc.get("sessions", []):
            name = entry.get("name")
            if not isinstance(name, str) or name in engine._edit_sessions:
                continue
            try:
                workspace = load_workspace_state(
                    state_dir, name, entry.get("structural_hash"))
                if workspace is None:
                    raise ValueError("state entry missing, corrupt or "
                                     "not the one the manifest lists")
                options = dict(entry.get("config") or {})
                # Manifests written before the array-backend option was
                # removed carry ``"backend": null``; drop it so those
                # sessions still restore.
                options.pop("backend", None)
                config = SessionConfig.from_options(options)
                session = CircuitSession(workspace.circuit, config)
                session.adopt_workspace(workspace)
                engine._edit_sessions[name] = session
                _mark_saved(workspace, state_dir, name, _manifest_entry(
                    name, store.entry_path(state_dir, "wstate",
                                           {"session": name}),
                    entry["structural_hash"], config))
                summary["sessions"] += 1
            except Exception as exc:
                summary["errors"].append(f"{name}: {exc}")
    if obs_metrics.is_enabled():
        obs_metrics.inc("engine.state.sessions_restored",
                        summary["sessions"])
        if summary["errors"]:
            obs_metrics.inc("engine.state.load_errors",
                            len(summary["errors"]))
    return summary
