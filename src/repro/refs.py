"""The unified reference grammar: ``<prefix>:<name>?key=value&key=value``.

Every pluggable artefact of the system is addressable by a *reference
string* sharing one grammar::

    policy    EGS                      WF         EASY?reserve_depth=2
    trace     trace:das3-synthetic     trace:kth-sp2?window=0:86400&malleable=0
    fault     fault:churn              fault:outage?cluster=vu&at=3600

The grammar is

.. code-block:: text

    reference  = [prefix ":"] name ["?" query]
    query      = pair *("&" pair)
    pair       = key "=" value

and the canonical form sorts the query pairs by key, so equal references
always render equally — the property the result cache's config hashing
relies on.

This module owns parsing (:func:`split_reference`, :func:`parse_query`),
canonical rendering (:func:`render_reference`) and name validation with
registered-name suggestions (:func:`unknown_name_error`).  Each family's
reference type — :class:`repro.policies.registry.PolicySpec` (no prefix),
:class:`repro.workloads.traces.TraceRef` (``TRACE_PREFIX``) and
:class:`repro.faults.models.FaultRef` (``FAULT_PREFIX``) — owns its prefix,
parses through these functions and keeps its exact error-message contracts.

Value parsing differs by family and is pluggable: policies parse values as
Python literals (``parse_literal``: ``30`` is an int, ``0.5`` a float,
``True`` a bool), traces and faults use the narrower numeric fallback
(``parse_scalar``: int, then float, then string).  Both are exported here so
the families stay individually byte-compatible with their pre-unification
behaviour.
"""

from __future__ import annotations

import ast
import difflib
from typing import Any, Callable, Dict, Iterable, Mapping, Optional, Tuple, Union


def parse_literal(text: str) -> Any:
    """Parse a value as a Python literal, falling back to the string.

    The policy family's value parser: ``30`` is an int, ``0.5`` a float,
    ``True`` a bool and anything else a plain string.
    """
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


def parse_scalar(text: str) -> Union[int, float, str]:
    """Parse a value as int, then float, then plain string.

    The trace/fault families' value parser; narrower than
    :func:`parse_literal` (no bools, no quoting) but stable for references
    whose canonical form feeds cache keys.
    """
    for parser in (int, float):
        try:
            return parser(text)
        except ValueError:
            continue
    return text


def split_reference(
    reference: str, *, prefix: Optional[str] = None
) -> Tuple[str, str]:
    """Split *reference* into ``(name, query)``, stripping *prefix* if present.

    The query is returned raw (possibly empty); parse it with
    :func:`parse_query`.  The prefix is optional in the input — both
    ``"fault:churn"`` and ``"churn"`` split to ``("churn", "")``.
    """
    text = reference
    if prefix and text.startswith(prefix):
        text = text[len(prefix):]
    name, _, query = text.partition("?")
    return name, query


def parse_query(
    query: str,
    *,
    value_parser: Callable[[str], Any] = parse_scalar,
    malformed: Optional[Callable[[str], str]] = None,
) -> Dict[str, Any]:
    """Parse ``"k=v&k=v"`` into a dict using *value_parser* per value.

    A pair without ``=`` (or with an empty key) raises :class:`ValueError`;
    *malformed* maps the offending pair text to the message, letting each
    family keep its historical wording.
    """
    params: Dict[str, Any] = {}
    if not query:
        return params
    for part in query.split("&"):
        key, separator, value = part.partition("=")
        if not separator or not key:
            message = (
                malformed(part)
                if malformed is not None
                else f"malformed reference parameter {part!r} (expected key=value)"
            )
            raise ValueError(message)
        params[key.strip()] = value_parser(value.strip())
    return params


def render_reference(
    name: str, params: Mapping[str, Any], *, prefix: str = ""
) -> str:
    """The canonical string form: prefix, name, sorted ``key=value`` pairs."""
    if not params:
        return f"{prefix}{name}"
    query = "&".join(f"{key}={params[key]}" for key in sorted(params))
    return f"{prefix}{name}?{query}"


def suggest(name: str, known: Iterable[str]) -> Optional[str]:
    """The registered name closest to *name*, or ``None`` if nothing is close.

    Case-insensitive; used to turn "unknown X" errors into "unknown X — did
    you mean Y?" across every reference family.
    """
    candidates = list(known)
    by_fold = {candidate.casefold(): candidate for candidate in candidates}
    folded = difflib.get_close_matches(
        name.casefold(), list(by_fold), n=1, cutoff=0.6
    )
    return by_fold[folded[0]] if folded else None


def unknown_name_error(
    family: str, name: str, known: Iterable[str]
) -> ValueError:
    """A uniform unknown-name error listing the registry and a suggestion."""
    candidates = sorted(known)
    listing = ", ".join(candidates) or "(none)"
    hint = suggest(name, candidates)
    suffix = f"; did you mean {hint!r}?" if hint else ""
    return ValueError(
        f"unknown {family} {name!r}; registered: {listing}{suffix}"
    )
