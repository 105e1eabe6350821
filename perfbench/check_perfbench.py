"""The benchmark's own checks: ``python3 -m pytest perfbench -q``.

Named ``check_*`` (see ``perfbench/pytest.ini``) so the repository's
tier-1 ``pytest`` run from the root does not collect them.
"""

from __future__ import annotations

import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from harness import Connection, Server  # noqa: E402
from layers import _covered, _self_times  # noqa: E402
from oracle import Oracle, to_database  # noqa: E402
from updates import SlidingWindow  # noqa: E402
from workloads import VIEWS_PROGRAM, make_mirror, write_data  # noqa: E402

from repro.query.parser import parse_program  # noqa: E402
from repro.server.app import ServerState  # noqa: E402

JOIN = "ans(x, z) :- R(x, y), S(y, z)"
COUNT = "ans(x, count(*)) :- R(x, y), S(y, z)"


def _served(mirror, text: str) -> bytes:
    with ServerState(to_database(mirror), config="hashjoin") as state:
        return state.run_query(text)


@pytest.fixture(scope="module")
def small():
    return make_mirror(30, 200, seed=7)


@pytest.mark.parametrize("text", [JOIN, COUNT])
def test_oracle_accepts_the_served_body(small, text):
    oracle = Oracle(small)
    try:
        assert oracle.check_body(_served(small, text), text) is None
    finally:
        oracle.close()


def _corruptions(payload):
    """Ways a body can be wrong while still decoding."""
    first = payload["results"][0]
    terms = first["provenance"]
    yield "coefficient", lambda p: p["results"][0]["provenance"][0].update(
        coefficient=terms[0]["coefficient"] + 1
    )
    yield "symbol", lambda p: p["results"][0]["provenance"][0].update(
        monomial={"s999999": 1}
    )
    yield "dropped row", lambda p: p["results"].pop()
    yield "tuple", lambda p: p["results"][0].update(
        **{key: [-1] * len(first[key]) for key in ("tuple", "group") if key in first}
    )
    yield "kind", lambda p: p.update(kind="aggregate" if p["kind"] == "polynomial" else "polynomial")


@pytest.mark.parametrize("text", [JOIN, COUNT])
def test_oracle_rejects_a_corrupted_body(small, text):
    body = _served(small, text)
    oracle = Oracle(small)
    try:
        for label, corrupt in _corruptions(json.loads(body)):
            payload = json.loads(body)
            corrupt(payload)
            assert oracle.check_payload(payload, text) is not None, label
        assert oracle.check_body(body[:-10], text) is not None
    finally:
        oracle.close()


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_update_generator_never_emits_a_rejected_delta(seed):
    mirror = make_mirror(40, 400, seed)
    window = SlidingWindow(
        {relation: dict(facts) for relation, facts in mirror.items()},
        domain=40, window=8, seed=seed,
    )
    program = parse_program(VIEWS_PROGRAM)
    with ServerState(to_database(mirror), program=program, config="hashjoin") as state:
        version = state.session.db_version()
        sizes = []
        for _ in range(40):
            reply = json.loads(state.apply_update(window.next_batch()))
            assert reply["version"] > version
            # Every batch changes V, so it yields one changefeed event.
            changed = re.search(r"\bV \+(\d+) -(\d+) ~(\d+)", reply["maintenance"][0])
            assert changed and sum(map(int, changed.groups())) > 0
            version = reply["version"]
            sizes.append(len(window.mirror["R"]))
        served = dict(state.registry.serving_db.facts("R"))
    assert served == window.mirror["R"]
    assert len(set(sizes[8:])) == 1  # steady once the window is full


def test_layer_accounting_helpers():
    spans = [
        [0, "outer", 0, 100, {}],
        [0, "inner", 10, 40, {}],
        [0, "after", 120, 150, {}],
    ]
    own = {span[1]: value for span, value in _self_times(spans)}
    assert own == {"outer": 70, "inner": 30, "after": 30}
    assert _covered(spans, 0, 130) == 110


def test_traced_launcher_leaves_response_bytes_unchanged(tmp_path):
    mirror = make_mirror(30, 300, seed=3)
    data = str(tmp_path / "data.json")
    program = str(tmp_path / "views.dl")
    write_data(data, mirror)
    with open(program, "w") as handle:
        handle.write(VIEWS_PROGRAM)
    window = SlidingWindow(
        {relation: dict(facts) for relation, facts in mirror.items()},
        domain=30, window=4, seed=3,
    )
    batches = [window.next_batch() for _ in range(6)]
    requests = [("POST", "/v1/query", {"query": JOIN}), ("POST", "/v1/query", {"query": COUNT})]
    requests += [("POST", "/v1/update", batch) for batch in batches]
    requests += [
        ("POST", "/v1/query", {"query": JOIN}),
        ("POST", "/v1/batch", {"queries": [JOIN, COUNT, JOIN]}),
        ("GET", "/v1/views/V", None),
        ("GET", "/v1/views/C", None),
    ]
    spans = str(tmp_path / "spans.json")
    bodies = []
    for traced in (None, spans):
        label = "traced" if traced else "plain"
        server = Server(
            data, str(tmp_path / "{}.log".format(label)), program_path=program,
            data_dir=str(tmp_path / label), snapshot_every=2, traced_spans=traced,
        )
        connection = Connection(server.port)
        try:
            replies = [connection.call("check", *request) for request in requests]
        finally:
            connection.close()
            assert server.stop() == 0
        assert all(reply.ok for reply in replies)
        bodies.append([reply.body for reply in replies])
    assert bodies[0] == bodies[1]
    with open(spans) as handle:
        dump = json.load(handle)
    names = {span[1] for span in dump["spans"]}
    assert {
        "query.parse", "session.evaluate", "engine.plan", "engine.join_step",
        "session.merge", "encode.results", "encode.json", "incremental.apply",
        "durability.wal_append", "durability.snapshot", "views.read",
    } <= names
    assert len(dump["requests"]) == len(requests)
