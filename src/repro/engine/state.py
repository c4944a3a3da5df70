"""Durable engine warm state: snapshot and restore named edit sessions.

A serve process accumulates expensive per-session state — simulation
packs, weight vectors, incrementally maintained eps maps and edit logs —
that historically died with the process.  This module makes it durable:
:func:`save_engine_state` serializes every named edit session's
:class:`~repro.incremental.CircuitWorkspace` into the weight cache's
on-disk ``.npz`` format (one ``wstate-*.npz`` per session, see
:mod:`repro.probability.weight_cache`) plus one ``engine-state.json``
manifest listing the sessions, and :func:`load_engine_state` rebuilds
them on the next start.  Restores are best-effort per session: a missing
or corrupt entry skips that session (counted in
``engine.state.load_errors``) and never aborts the rest.

The same directory doubles as a shared warm artifact store: pointing the
engine's ``weights_cache_dir`` at it (the CLI's ``--state-dir`` does
this automatically when ``--weights-cache`` is unset) lets N serve
replicas share weight vectors and correlation plans through the existing
disk tier while each checkpoints its own sessions.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from typing import Any, Dict

from ..incremental import CircuitWorkspace
from ..obs import metrics as obs_metrics
from ..obs import trace_span
from ..probability.weight_cache import (
    load_workspace_state,
    store_workspace_state,
)
from .session import CircuitSession, SessionConfig

__all__ = [
    "ENGINE_STATE_FORMAT_VERSION",
    "STATE_MANIFEST_NAME",
    "load_engine_state",
    "save_engine_state",
]

#: Bump when the engine-state manifest layout changes.
ENGINE_STATE_FORMAT_VERSION = 1

#: File name of the per-directory snapshot manifest.
STATE_MANIFEST_NAME = "engine-state.json"


def _config_options(config: SessionConfig) -> Dict[str, Any]:
    """A ``SessionConfig`` as the options dict ``from_options`` accepts."""
    options: Dict[str, Any] = {}
    for name in SessionConfig.FIELDS:
        value = getattr(config, name)
        if name == "input_probs" and value is not None:
            value = {k: v for k, v in value}
        options[name] = value
    return options


def save_engine_state(engine, state_dir: str) -> Dict[str, Any]:
    """Snapshot every named edit session into ``state_dir``.

    Each session's workspace is written as its own atomic ``.npz`` entry
    first; the ``engine-state.json`` manifest is replaced last, so a
    crash mid-snapshot leaves the previous manifest pointing at entries
    that still exist.  Returns a summary dict
    (``{state_dir, sessions, elapsed_ms}``) that the serve ``save``
    control op echoes to the client.
    """
    started = time.perf_counter()
    os.makedirs(state_dir, exist_ok=True)
    entries = []
    with trace_span("engine.state.save",
                    sessions=len(engine._edit_sessions)):
        for name in sorted(engine._edit_sessions):
            session = engine._edit_sessions[name]
            manifest, arrays = session.workspace().to_state()
            path = store_workspace_state(state_dir, name, manifest, arrays)
            entries.append({
                "name": name,
                "file": os.path.basename(path),
                "structural_hash": manifest["structural_hash"],
                "config": _config_options(session.config),
            })
        doc = {
            "format": ENGINE_STATE_FORMAT_VERSION,
            "kind": "engine_state",
            "saved_at": time.time(),
            "sessions": entries,
        }
        fd, tmp = tempfile.mkstemp(suffix=".json.tmp", dir=state_dir)
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(doc, fh, sort_keys=True, indent=1)
            os.replace(tmp, os.path.join(state_dir, STATE_MANIFEST_NAME))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    elapsed_ms = (time.perf_counter() - started) * 1e3
    if obs_metrics.is_enabled():
        obs_metrics.inc("engine.state.snapshots")
        obs_metrics.inc("engine.state.sessions_saved", len(entries))
    return {"state_dir": state_dir, "sessions": len(entries),
            "elapsed_ms": round(elapsed_ms, 3)}


def load_engine_state(engine, state_dir: str) -> Dict[str, Any]:
    """Restore named edit sessions from a prior snapshot, best-effort.

    Returns ``{state_dir, found, sessions, errors}``; ``found`` is False
    when no (readable) manifest exists.  Individual sessions that fail to
    restore — corrupt entry, structural-hash mismatch, bad config — are
    reported in ``errors`` and skipped, so one bad entry cannot poison a
    restart.  Already-registered session names are left untouched.
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
                loaded = load_workspace_state(state_dir, name)
                if loaded is None:
                    raise ValueError("state entry missing or corrupt")
                ws_manifest, arrays = loaded
                workspace = CircuitWorkspace.from_state(ws_manifest, arrays)
                options = dict(entry.get("config") or {})
                # Manifests written before the array-backend option was
                # removed carry ``"backend": null``; drop it so those
                # sessions still restore.
                options.pop("backend", None)
                config = SessionConfig.from_options(options)
                session = CircuitSession(workspace.circuit, config)
                session.adopt_workspace(workspace)
                engine._edit_sessions[name] = session
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
