"""One logging setup for the whole project.

Everything logs under the ``repro`` logger hierarchy
(``repro.cli``, ``repro.service``, ...), configured once by
:func:`setup_logging`: the CLIs call it early with their ``--quiet`` flag,
the daemon calls it at startup, and ``$REPRO_LOG_LEVEL`` overrides the
default level from the environment (``REPRO_LOG_LEVEL=debug repro-cli ...``).

The handler writes to stderr, keeping stdout clean for reports and JSON —
the same contract the ad-hoc ``print(..., file=sys.stderr)`` warnings had
before they moved here.  :func:`survive_closed_stdout` completes that
contract for the CLI entry points: a reader that stops early
(``repro-cli trace summary t.jsonl | head -1``) ends the process quietly.
"""

from __future__ import annotations

import functools
import logging
import os
import sys
from typing import Callable, Optional

#: Environment variable naming the default log level (``debug``, ``info``,
#: ``warning``, ``error`` or a numeric level).
LOG_LEVEL_ENV = "REPRO_LOG_LEVEL"

#: Root of the project's logger hierarchy.
ROOT_LOGGER = "repro"

#: Marker attribute identifying the handler :func:`setup_logging` installed.
_HANDLER_MARK = "_repro_obs_handler"


def get_logger(name: Optional[str] = None) -> logging.Logger:
    """The ``repro`` logger, or the ``repro.<name>`` child."""
    return logging.getLogger(f"{ROOT_LOGGER}.{name}" if name else ROOT_LOGGER)


class _StderrHandler(logging.StreamHandler):
    """A stream handler resolving ``sys.stderr`` at *emit* time.

    Capturing ``sys.stderr`` once at setup would pin whatever object was
    installed then — under pytest's per-test capture (or any stream
    redirection) that object is later closed, turning every log call into a
    "Logging error" traceback.  An explicit stream (``setup_logging``'s
    *stream* argument) pins normally.
    """

    def __init__(self) -> None:
        logging.StreamHandler.__init__(self)
        self._pinned = None

    def setStream(self, stream):  # noqa: N802 - logging API name
        self._pinned = stream
        return None

    @property
    def stream(self):
        return self._pinned if self._pinned is not None else sys.stderr

    @stream.setter
    def stream(self, value) -> None:
        # StreamHandler.__init__ assigns here; only an explicit setStream pins.
        pass


def _resolve_level(level: Optional[str], quiet: bool) -> int:
    """The effective level: ``quiet`` > explicit *level* > env > WARNING."""
    if quiet:
        return logging.ERROR
    text = level if level is not None else os.environ.get(LOG_LEVEL_ENV)
    if text is None or not str(text).strip():
        return logging.WARNING
    text = str(text).strip()
    if text.isdigit():
        return int(text)
    resolved = logging.getLevelName(text.upper())
    if isinstance(resolved, int):
        return resolved
    raise ValueError(
        f"unknown log level {text!r}; expected debug/info/warning/error or a number"
    )


def setup_logging(
    level: Optional[str] = None, *, quiet: bool = False, stream=None
) -> logging.Logger:
    """Configure the ``repro`` logger (idempotently) and return it.

    Safe to call many times — a second call adjusts the level of the
    handler installed by the first instead of stacking duplicates.  *quiet*
    raises the threshold to ERROR; otherwise *level* (or
    ``$REPRO_LOG_LEVEL``, or WARNING) applies.
    """
    logger = logging.getLogger(ROOT_LOGGER)
    resolved = _resolve_level(level, quiet)
    handler = next(
        (h for h in logger.handlers if getattr(h, _HANDLER_MARK, False)), None
    )
    if handler is None:
        handler = _StderrHandler()
        handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        setattr(handler, _HANDLER_MARK, True)
        logger.addHandler(handler)
    if stream is not None:
        handler.setStream(stream)
    logger.setLevel(resolved)
    # The repro hierarchy is self-contained: without this, environments that
    # configure a root logger (pytest plugins, user scripts) would print
    # every record twice.
    logger.propagate = False
    return logger


def survive_closed_stdout(main: Callable[..., int]) -> Callable[..., int]:
    """Wrap a CLI entry point so a closed stdout ends it without a traceback.

    Once the reader of a pipe has gone, the next write (or the final flush)
    raises :class:`BrokenPipeError`.  The wrapper then points stdout at
    ``os.devnull`` — the interpreter flushes it once more on exit — and
    returns exit status 1, the status Python itself uses for ``EPIPE``.
    """

    @functools.wraps(main)
    def entry(*args, **kwargs) -> int:
        try:
            status = main(*args, **kwargs)
            sys.stdout.flush()
        except BrokenPipeError:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return 1
        return status

    return entry
