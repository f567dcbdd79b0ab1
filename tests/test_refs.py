"""The unified reference grammar (``repro.refs``) directly.

The three families (``PolicySpec``, ``TraceRef``, ``FaultRef``) keep their
own behavioural tests; these pin the shared grammar they all delegate to.
"""

from __future__ import annotations

import pytest

from repro.faults.models import FAULT_PREFIX
from repro.refs import (
    parse_literal,
    parse_query,
    parse_scalar,
    render_reference,
    split_reference,
    suggest,
    unknown_name_error,
)


def test_split_reference_prefix_is_optional():
    assert split_reference("fault:churn?mtbf=3600", prefix=FAULT_PREFIX) == (
        "churn",
        "mtbf=3600",
    )
    assert split_reference("churn", prefix=FAULT_PREFIX) == ("churn", "")
    assert split_reference("EASY?reserve_depth=2") == ("EASY", "reserve_depth=2")


def test_value_parsers_differ_by_family():
    # Policies parse Python literals; traces/faults the narrower scalar.
    assert parse_literal("True") is True
    assert parse_scalar("True") == "True"
    for parser in (parse_literal, parse_scalar):
        assert parser("30") == 30
        assert parser("0.5") == 0.5
        assert parser("delft") == "delft"


def test_parse_query_rejects_malformed_pairs():
    with pytest.raises(ValueError, match="key=value"):
        parse_query("mtbf")
    with pytest.raises(ValueError, match="custom wording"):
        parse_query("=3600", malformed=lambda part: f"custom wording {part!r}")


def test_canonical_form_sorts_query_pairs():
    def canonical(reference: str) -> str:
        name, query = split_reference(reference, prefix="trace:")
        return render_reference(name, parse_query(query), prefix="trace:")

    assert canonical("trace:x?b=2&a=1") == "trace:x?a=1&b=2"
    assert render_reference("x", {}, prefix="trace:") == "trace:x"
    # The property the cache keys rely on: equal refs render equally.
    assert canonical("trace:x?a=1&b=2") == canonical("trace:x?b=2&a=1")


def test_unknown_name_error_suggests():
    error = unknown_name_error("fault model", "xchurn", ["churn", "outage"])
    assert "unknown fault model 'xchurn'" in str(error)
    assert "registered: churn, outage" in str(error)
    assert "did you mean 'churn'?" in str(error)
    assert suggest("zzzz", ["churn"]) is None
