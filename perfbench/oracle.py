"""Output checks against an independent engine, run outside timed windows.

A served body is decoded with the :mod:`repro.io` codecs into N[X]
polynomials (or N[X] ⊗ M tensors for aggregates) and compared, as
values, with the same query evaluated in process by the SQLite backend
(:class:`repro.db.sqlite_backend.SQLiteDatabase`), a different engine
than the server's hashjoin.  Each distinct (query, database state) is
checked once; every other body for that state must equal the checked
one byte for byte once its ``version`` fields are blanked
(:func:`normalize`).
"""

from __future__ import annotations

import json
import re
from typing import Dict, List, Mapping, Optional, Tuple

from repro.db.instance import AnnotatedDatabase
from repro.db.sqlite_backend import SQLiteDatabase
from repro.io import (
    aggregate_results_from_list,
    apply_changefeed_event,
    changefeed_event_from_dict,
    results_from_list,
    results_to_list,
)
from repro.query.aggregate import AggregateQuery
from repro.query.parser import parse_query

Mirror = Mapping[str, Mapping[Tuple, str]]

_VERSION = re.compile(rb'"version":\d+')


def normalize(body: bytes) -> bytes:
    """The body with every ``version`` field blanked.

    Result tuples hold only integers, so ``"version":`` can only be a
    payload key.
    """
    return _VERSION.sub(b'"version":0', body)


def canonical(payload) -> bytes:
    """Canonical JSON as the ``/v1`` surface documents it."""
    return (
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def to_database(mirror: Mirror) -> AnnotatedDatabase:
    """An annotated database holding exactly the mirror's facts."""
    db = AnnotatedDatabase()
    for relation in sorted(mirror):
        for row, annotation in mirror[relation].items():
            db.add(relation, row, annotation=annotation)
    return db


def decode(payload: Mapping):
    """Decode one result payload (``kind`` + ``results``) with repro.io."""
    if payload.get("kind") == "aggregate":
        return aggregate_results_from_list(payload["results"])
    if payload.get("kind") == "polynomial":
        return results_from_list(payload["results"])
    raise ValueError("unknown result kind {!r}".format(payload.get("kind")))


class Oracle:
    """SQLite evaluation over one database state."""

    def __init__(self, mirror: Mirror):  # noqa: D107
        self._sqlite = SQLiteDatabase.from_annotated(to_database(mirror))

    def expected(self, text: str):
        """The query's annotated answer, evaluated by SQLite."""
        query = parse_query(text)
        if isinstance(query, AggregateQuery):
            return "aggregate", self._sqlite.evaluate_aggregate(query)
        return "polynomial", self._sqlite.evaluate(query)

    def check_payload(self, payload: Mapping, text: str) -> Optional[str]:
        """``None`` when the payload's results are the query's answer."""
        kind, expected = self.expected(text)
        if payload.get("kind") != kind:
            return "{!r}: kind {!r}, expected {!r}".format(
                text, payload.get("kind"), kind
            )
        try:
            served = decode(payload)
        except (ValueError, KeyError, TypeError) as error:
            return "{!r}: undecodable body ({})".format(text, error)
        if served != expected:
            missing = len(set(expected) - set(served))
            extra = len(set(served) - set(expected))
            return "{!r}: {} rows differ ({} missing, {} extra) of {}".format(
                text,
                sum(1 for row in expected if served.get(row) != expected[row])
                + extra,
                missing,
                extra,
                len(expected),
            )
        return None

    def check_body(self, body: bytes, text: str) -> Optional[str]:
        """Check one ``/v1/query`` or ``/v1/views/<name>`` body."""
        try:
            payload = json.loads(body)
        except ValueError as error:
            return "{!r}: body is not JSON ({})".format(text, error)
        if not isinstance(payload, dict):
            return "{!r}: body is not a JSON object".format(text)
        return self.check_payload(payload, text)

    def close(self) -> None:
        """Release the SQLite connection."""
        self._sqlite.close()


def table_size(body: bytes) -> Tuple[int, int]:
    """``(result tuples, monomials)`` of a polynomial result body."""
    payload = json.loads(body)
    rows = payload["results"]
    return len(rows), sum(len(row["provenance"]) for row in rows)


def check_changefeed(
    subscribe_body: bytes,
    events: List[dict],
    update_versions: List[int],
    final_view_body: bytes,
) -> List[str]:
    """Replay the subscribe snapshot plus every event onto a table.

    The replayed table, encoded, must equal the final ``GET
    /v1/views/<name>`` body byte for byte, and every update version must
    have arrived exactly once, in cursor order.
    """
    problems: List[str] = []
    subscribed = json.loads(subscribe_body)
    cursors = [event["cursor"] for event in events]
    if any(b <= a for a, b in zip(cursors, cursors[1:])):
        problems.append("changefeed cursors are not strictly increasing")
    if sorted(cursors) != sorted(update_versions):
        problems.append(
            "changefeed delivered {} events for {} updates ({} unmatched)".format(
                len(cursors),
                len(update_versions),
                len(set(cursors) ^ set(update_versions)),
            )
        )
    if cursors and cursors[0] <= subscribed["cursor"]:
        problems.append("changefeed replayed an event at or before the subscribe cursor")
    state: Dict = decode(subscribed["snapshot"])
    for event in events:
        apply_changefeed_event(state, changefeed_event_from_dict(json.loads(event["data"])))
    final = json.loads(final_view_body)
    if subscribed["aggregate"]:
        problems.append("replay check expects a plain (polynomial) view")
        return problems
    replayed = canonical(
        {
            "version": cursors[-1] if cursors else subscribed["cursor"],
            "view": subscribed["view"],
            "kind": "polynomial",
            "results": results_to_list(state),
        }
    )
    if replayed != final_view_body:
        problems.append(
            "snapshot + changefeed replay differs from GET /v1/views/{} "
            "(version {} vs {})".format(
                subscribed["view"],
                cursors[-1] if cursors else subscribed["cursor"],
                final.get("version"),
            )
        )
    return problems
