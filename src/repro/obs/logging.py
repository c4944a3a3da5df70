"""Structured stdlib logging, configured once for the whole library.

Every module gets its logger through :func:`get_logger` (namespaced under
``repro.``); the CLI calls :func:`configure` with the ``-v`` count.  By
default the ``repro`` logger carries a ``NullHandler`` — a library must
never print unless asked — and ``configure`` attaches exactly one stream
handler no matter how many times it runs; :func:`reset` detaches it.
"""

from __future__ import annotations

import logging
import sys
from typing import Optional

__all__ = ["get_logger", "configure", "reset", "verbosity_to_level"]

_ROOT_NAME = "repro"
_FORMAT = "%(asctime)s %(levelname)-7s %(name)s: %(message)s"
_DATEFMT = "%H:%M:%S"

#: The handler `configure` installed, if any (so reconfiguring replaces
#: the level rather than stacking handlers).
_handler: Optional[logging.Handler] = None

logging.getLogger(_ROOT_NAME).addHandler(logging.NullHandler())


class _StderrHandler(logging.StreamHandler):
    """Writes to whatever ``sys.stderr`` is when a record is emitted.

    Binding the stream at ``configure`` time would keep a replaced stderr
    (a test's capture buffer, a redirected CLI run) alive in the handler;
    a thread logging after that stream was closed — e.g. a serve worker
    finishing its last request — then hits "I/O operation on closed file".
    """

    def __init__(self):
        logging.Handler.__init__(self)

    @property
    def stream(self):
        return sys.stderr


def get_logger(name: Optional[str] = None) -> logging.Logger:
    """A logger under the ``repro`` namespace.

    ``get_logger("sim.montecarlo")`` and ``get_logger(__name__)`` (for a
    ``repro.*`` module) both yield ``repro.sim.montecarlo``.
    """
    if not name:
        return logging.getLogger(_ROOT_NAME)
    if name == _ROOT_NAME or name.startswith(_ROOT_NAME + "."):
        return logging.getLogger(name)
    return logging.getLogger(f"{_ROOT_NAME}.{name}")


def verbosity_to_level(verbosity: int) -> int:
    """Map a ``-v`` count to a stdlib level: 0→WARNING, 1→INFO, 2+→DEBUG."""
    if verbosity <= 0:
        return logging.WARNING
    if verbosity == 1:
        return logging.INFO
    return logging.DEBUG


def configure(verbosity: int = 0, stream=None) -> logging.Logger:
    """Install (or retune) the single stream handler on the root logger.

    Idempotent: repeated calls adjust the level in place instead of
    attaching duplicate handlers.  Returns the ``repro`` root logger.
    """
    global _handler
    root = logging.getLogger(_ROOT_NAME)
    level = verbosity_to_level(verbosity)
    if _handler is None or stream is not None:
        reset()
        _handler = (_StderrHandler() if stream is None
                    else logging.StreamHandler(stream))
        _handler.setFormatter(logging.Formatter(_FORMAT, datefmt=_DATEFMT))
        root.addHandler(_handler)
    _handler.setLevel(level)
    root.setLevel(level)
    return root


#: The name :mod:`repro.obs` exports :func:`configure` under.
configure_logging = configure


def reset() -> None:
    """Detach the handler :func:`configure` installed and restore the
    ``repro`` logger's default level."""
    global _handler
    root = logging.getLogger(_ROOT_NAME)
    if _handler is not None:
        root.removeHandler(_handler)
        _handler = None
    root.setLevel(logging.NOTSET)
