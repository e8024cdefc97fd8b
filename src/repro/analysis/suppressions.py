"""Inline suppression comments: ``# repro: noqa RULE-ID -- justification``.

A suppression silences one or more rule ids on exactly the line the
finding is reported on (the first line of the offending statement).  The
justification after ``--`` is mandatory: a silenced invariant with no
recorded reason is itself a finding (``RPA000``), as is a suppression
that never matches anything — stale noqa comments rot into false
documentation.

Comments are located with :mod:`tokenize` rather than a text scan, so
the marker appearing inside a string literal (as it does in this very
module's tests) is never mistaken for a directive.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass

#: Rule ids look like RPD001 / RPP003 / RPA000.
RULE_ID_RE = re.compile(r"^RP[A-Z]\d{3}$")

_MARKER_RE = re.compile(r"#\s*repro:\s*noqa\b(?P<rest>.*)$")


@dataclass(frozen=True)
class Suppression:
    """A well-formed noqa directive on one source line."""

    line: int
    rules: tuple[str, ...]
    justification: str


@dataclass(frozen=True)
class SuppressionProblem:
    """A malformed directive (reported as an ``RPA000`` finding)."""

    line: int
    message: str


def _parse_rest(rest: str) -> tuple[tuple[str, ...], str | None, str | None]:
    """(rule ids, justification, error-message) for a directive tail."""
    head, sep, tail = rest.partition("--")
    ids = tuple(tok for tok in re.split(r"[,\s]+", head.strip()) if tok)
    if not ids:
        return (), None, "suppression names no rule id"
    bad = [tok for tok in ids if not RULE_ID_RE.match(tok)]
    if bad:
        return (), None, f"malformed rule id {bad[0]!r} in suppression"
    justification = tail.strip()
    if not sep or not justification:
        return (), None, (
            "suppression has no justification (use "
            "'# repro: noqa RULE-ID -- reason')")
    return ids, justification, None


def scan_suppressions(
        source: str,
) -> tuple[dict[int, Suppression], list[SuppressionProblem]]:
    """Extract all directives from *source*, keyed by line number."""
    suppressions: dict[int, Suppression] = {}
    problems: list[SuppressionProblem] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError):
        return suppressions, problems  # the parser reports the real error
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        match = _MARKER_RE.search(tok.string)
        if match is None:
            continue
        line = tok.start[0]
        ids, justification, error = _parse_rest(match.group("rest"))
        if error is not None:
            problems.append(SuppressionProblem(line=line, message=error))
        else:
            assert justification is not None
            suppressions[line] = Suppression(
                line=line, rules=ids, justification=justification)
    return suppressions, problems
