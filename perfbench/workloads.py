"""The three serving workloads: inputs, warm-up, timed loop and checks.

Each workload makes its inputs from the seed, starts the real CLI
server on a data file it wrote, warms it up, runs a closed loop for a
fixed time (every client waits for its reply before sending the next
request, as ``repro.client`` users and dashboards do) and checks every
output against the oracle once the server is stopped.

* ``join10k_cold`` — bare server on the reference database; one
  connection loops update → ``/v1/query`` miss → ``/v1/batch``.  The
  write moves the version on, so every query is a full miss through
  parse, plan, join, merge, encode and the chunked writer.
* ``join10k_hot`` — same server, no writes, warmed until every answer
  is cached; two connections loop over the reference join (9.2 MB
  cached body) and eight small cached queries.
* ``views_rw`` — a view registry over 2,000 facts with durability on;
  one connection holds an SSE changefeed on ``V`` while the other
  loops sliding-window update → changefeed event → ad-hoc miss, with
  view reads every few cycles.
"""

from __future__ import annotations

import json
import math
import os
import random
import statistics
import threading
import time
from typing import Dict, List, Optional, Tuple

from harness import BenchError, ChangefeedReader, Connection, Server
from oracle import Oracle, check_changefeed, normalize, table_size
from updates import SlidingWindow

from repro.db.generators import random_database

#: The ROADMAP's reference query.
REFERENCE = "ans(x, z) :- R(x, y), S(y, z)"

#: The reference database: 10,000 facts over a 150-value domain, drawn
#: with the ROADMAP's seed 31 (22,488 result tuples, 166,795 monomials,
#: a 9,223,504-byte body) whatever ``--seed`` is.  Whether the chunked
#: writer's final write stalls on the delayed ACK depends on the exact
#: body size, so a per-seed database flips the cached large hit between
#: ~15 ms and ~60 ms from seed to seed.  ``--seed`` picks the small
#: queries' constants and the update rows instead.
JOIN_DOMAIN = 150
JOIN_FACTS = 10_000
JOIN_DATA_SEED = 31

#: ``join10k_cold`` sends this many single-row updates per cycle.  One
#: would do to invalidate the cache; several give ``small_p50_ms`` a
#: median over more than a handful of samples.
COLD_UPDATES = 4

#: Each ``join10k_cold`` server runs at least this many cycles, and its
#: peak RSS is read after exactly this many: every cycle leaves one
#: more ~80 MB version in the result cache, so the peak is only
#: comparable over equal cycle counts.  A cycle takes 4-6 s, so at the
#: usual run length every server does exactly this many cycles and goes
#: through the same heap sizes.
COLD_CYCLES = 3

#: ``views_rw`` sizes: 2,000 facts over a 120-value domain give a
#: ~0.6 MB ``V`` and a ~0.9 MB ``C``, both clear of the async tier's
#: 1 MiB chunked-streaming threshold (a body that crosses it from one
#: read to the next would switch write paths mid-run).  The sliding
#: window holds this many inserted rows.
VIEWS_DOMAIN = 120
VIEWS_FACTS = 2_000
WINDOW = 16

#: WAL rotation into a fresh snapshot every N update batches, so a run
#: sees several rotations.  Every batch is fsynced to the WAL before it
#: is applied (the program's policy, not a setting).
SNAPSHOT_EVERY = 16

#: ``views_rw`` reads ``V`` every cycle and ``C`` every this many
#: cycles, and checks every this many ad-hoc answers against the oracle.
VIEW_READ_EVERY = 4
ADHOC_CHECK_EVERY = 8

#: How long the loop waits for a changefeed event before failing it.
EVENT_TIMEOUT = 30.0

VIEWS_PROGRAM = (
    "V(x, z) :- R(x, y), S(y, z)\n"
    "C(x, count(*)) :- R(x, y), S(y, z)\n"
)


def write_data(path: str, mirror) -> None:
    """Write ``{relation: [{"row", "annotation"}]}`` (the CLI's -d format)."""
    payload = {
        relation: [
            {"row": list(row), "annotation": annotation}
            for row, annotation in sorted(facts.items())
        ]
        for relation, facts in sorted(mirror.items())
    }
    with open(path, "w") as handle:
        json.dump(payload, handle)


def make_mirror(domain: int, facts: int, seed: int) -> Dict[str, Dict[Tuple, str]]:
    """The seeded database ``random_database({R: 2, S: 2}, ...)`` as dicts."""
    db = random_database({"R": 2, "S": 2}, range(domain), n_facts=facts, seed=seed)
    return {
        relation: dict(db.facts(relation)) for relation in ("R", "S")
    }


class Phase:
    """Everything one server lifetime produced."""

    def __init__(self, kinds):  # noqa: D107
        self.latencies: Dict[str, List[float]] = {kind: [] for kind in kinds}
        self.setup_s = 0.0
        self.cycles = 0
        self.window_s = 0.0
        self.requests = 0
        self.failed = 0
        self.mismatches: List[str] = []
        self.rss_mb = 0.0
        self.stats_before: dict = {}
        self.stats_after: dict = {}
        self.counts: Dict[str, float] = {}
        #: Normalized bodies by (kind, cycle), compared across the
        #: untraced and traced runs where no checked body covers them.
        self.digests: Dict[object, bytes] = {}
        self.connections: List[Connection] = []
        self.lags: List[float] = []
        #: Completed loop requests per second of each server lifetime.
        self.rates: List[float] = []
        self.spans_path: Optional[str] = None

    def record(self, response) -> bool:
        """Count one loop request; a failure records an infinite latency."""
        self.requests += 1
        kind = response.kind
        if response.ok:
            self.latencies[kind].append(response.latency)
            return True
        self.failed += 1
        self.latencies[kind].append(float("inf"))
        self.mismatches.append(
            "{} answered {}: {!r}".format(kind, response.status, response.body[:200])
        )
        return False

    def mismatch(self, message: str) -> None:
        """An output check failed: the request counts as failed too."""
        self.failed += 1
        self.mismatches.append(message)

    def body_bytes(self, kind: str, body: bytes) -> None:
        """Remember the response size of a request kind (exact count)."""
        self.counts["body_bytes.{}".format(kind)] = len(body)

    @classmethod
    def merged(cls, phases: List["Phase"]) -> "Phase":
        """One phase holding the samples of several server lifetimes.

        Samples, cycles, windows and requests add up; every server's
        request rate is kept; the peak RSS is the median server's; exact
        counts are the last phase's.
        """
        merged = cls(phases[0].latencies)
        for phase in phases:
            completed = 0
            for kind, values in phase.latencies.items():
                merged.latencies[kind].extend(values)
                completed += sum(1 for value in values if math.isfinite(value))
            merged.rates.append(completed / phase.window_s)
            merged.lags.extend(phase.lags)
            merged.cycles += phase.cycles
            merged.window_s += phase.window_s
            merged.requests += phase.requests
            merged.failed += phase.failed
            merged.mismatches.extend(phase.mismatches)
        merged.counts = dict(phases[-1].counts)
        merged.rss_mb = statistics.median(phase.rss_mb for phase in phases)
        return merged


class Workload:
    """Shared plumbing: temp files, setup timing, server lifetime."""

    name = ""
    kinds: Tuple[str, ...] = ()
    #: Servers the timed window is shared out over in an untraced run.
    #: Each one's set-up counts towards ``setup_s``.
    phases = 1
    #: The request kinds behind the ``large_p50_ms`` / ``small_p50_ms``
    #: end-to-end metrics on this workload.
    large = ""
    small = ""

    def __init__(self, tmp: str, seed: int):  # noqa: D107
        self.tmp = tmp
        self.seed = seed
        self._serial = 0
        self.setup_mismatches: List[str] = []
        self.forced_stops = 0

    def path(self, name: str) -> str:
        """A fresh path under the run's temp directory."""
        self._serial += 1
        return os.path.join(self.tmp, "{}-{}".format(self._serial, name))

    def spawn(self, spans_path: Optional[str]) -> Server:
        """Start this workload's server (traced when ``spans_path``)."""
        return Server(self.data_path, self.path("server.log"), traced_spans=spans_path)

    def warm_up(self, server: Server, context: dict) -> None:
        """Open the loop's connections and warm the server up."""
        raise NotImplementedError

    def start(self, spans_path: Optional[str] = None):
        """Spawn and warm one server: ``(server, context, seconds)``.

        The seconds run from spawning the server to the end of warm-up:
        data load, view materialization, initial snapshot, cache fill.
        """
        context: dict = {"connections": []}
        started = time.perf_counter()
        server = self.spawn(spans_path)
        try:
            self.warm_up(server, context)
        except BaseException:
            self.close_context(context)
            self.stopped(server)
            raise
        return server, context, time.perf_counter() - started

    def loop(self, server, context, seconds: float, phase: Phase) -> None:
        """The timed closed loop."""
        raise NotImplementedError

    def finish(self, server, context, phase: Phase) -> None:
        """Untimed reads after the loop, before the server stops."""

    def check(self, context, phase: Phase) -> None:
        """Oracle checks once the server has stopped."""

    def close_context(self, context) -> None:
        """Release client-side resources of one server lifetime."""
        for connection in context.get("connections", ()):
            connection.close()
        reader = context.get("reader")
        if reader is not None:
            reader.close()

    def setup_only(self) -> float:
        """One throwaway set-up: spawn, warm up, stop.  Returns seconds."""
        server, context, seconds = self.start()
        self.close_context(context)
        self.stopped(server)
        return seconds

    def stopped(self, server: Server, phase: Optional[Phase] = None) -> None:
        """Stop a server; a crash fails the run, a forced stop is counted."""
        code = server.stop()
        if server.forced:
            self.forced_stops += 1
        elif code != 0:
            message = "server exited with code {}: {}".format(code, server.log_tail()[-1500:])
            if phase is None:
                self.setup_mismatches.append(message)
            else:
                phase.mismatch(message)

    def run_phase(self, seconds: float, traced: bool = False) -> Phase:
        """Set up one server, run the timed loop, stop it, check outputs."""
        phase = Phase(self.kinds)
        if traced:
            phase.spans_path = self.path("spans.json")
        server, context, phase.setup_s = self.start(phase.spans_path)
        try:
            before = context["connections"][0].stats()
            started = time.perf_counter()
            self.loop(server, context, seconds, phase)
            phase.window_s = time.perf_counter() - started
            phase.stats_before = before
            phase.stats_after = context["connections"][0].stats()
            if not phase.rss_mb:
                phase.rss_mb = server.rss_peak_mb()
            self.finish(server, context, phase)
        finally:
            self.close_context(context)
            self.stopped(server, phase)
        self.check(context, phase)
        return phase


# ----------------------------------------------------------------------
# join10k_cold and join10k_hot
# ----------------------------------------------------------------------
class _Join10k(Workload):
    """The reference database behind a bare (program-less) server."""

    def __init__(self, tmp: str, seed: int):  # noqa: D107
        super().__init__(tmp, seed)
        self.mirror = make_mirror(JOIN_DOMAIN, JOIN_FACTS, JOIN_DATA_SEED)
        self.data_path = self.path("data.json")
        write_data(self.data_path, self.mirror)
        rng = random.Random(seed)
        r_x = sorted({row[0] for row in self.mirror["R"]})
        r_y = sorted({row[1] for row in self.mirror["R"]})
        s_x = sorted({row[0] for row in self.mirror["S"]})
        s_y = sorted({row[1] for row in self.mirror["S"]})
        s_row = rng.choice(sorted(self.mirror["S"]))
        #: Small queries: selections, selective joins, a union and an
        #: aggregate.  Every body stays under ~10 KB: bodies of 60-150 KB
        #: may or may not hit the small-write stall depending on their
        #: exact size, which would make the mix differ from seed to seed.
        self.small_queries = [
            "ans(y) :- R({}, y)".format(rng.choice(r_x)),
            "ans(x) :- R(x, {})".format(rng.choice(r_y)),
            "ans(z) :- S({}, z)".format(rng.choice(s_x)),
            "ans(y) :- S(y, {})".format(rng.choice(s_y)),
            "ans(y) :- R({}, y), S(y, {})".format(rng.choice(r_x), rng.choice(s_y)),
            "ans(y) :- R({0}, y)\nans(y) :- S({0}, y)".format(rng.choice(r_x)),
            "ans(count(*)) :- R({}, y), S(y, {})".format(rng.choice(r_x), rng.choice(s_y)),
            "ans(x) :- R(x, {}), S({}, {})".format(s_row[0], s_row[0], s_row[1]),
        ]
        #: The first body of each query: oracle-checked once, and every
        #: later body (other set-ups, the traced run) must match it.
        self.checked: Dict[str, bytes] = {}
        self._oracle_done = False
        self._reference_size: Optional[Tuple[int, int]] = None

    def query(self, connection: Connection, kind: str, text: str):
        return connection.call(kind, "POST", "/v1/query", {"query": text})

    def check(self, context, phase: Phase) -> None:
        if not self._oracle_done:
            self._oracle_done = True
            oracle = Oracle(self.mirror)
            try:
                for text, body in self.checked.items():
                    problem = oracle.check_body(body, text)
                    if problem is not None:
                        phase.mismatch("oracle: " + problem)
            finally:
                oracle.close()
        if self._reference_size is None:
            self._reference_size = table_size(self.checked[REFERENCE])
        tuples, monomials = self._reference_size
        phase.counts["reference.result_tuples"] = tuples
        phase.counts["reference.monomials"] = monomials

    def warm(self, connection: Connection, texts, phase_kind: str) -> None:
        for text in texts:
            response = self.query(connection, phase_kind, text)
            if not response.ok:
                raise BenchError(
                    "warm-up query {!r} answered {}".format(text, response.status)
                )
            checked = self.checked.setdefault(text, response.body)
            if normalize(checked) != normalize(response.body):
                self.setup_mismatches.append(
                    "warm-up {!r}: body differs between set-ups".format(text)
                )


class Join10kCold(_Join10k):
    """Every query misses: engine plus encoder on the 10k join."""

    name = "join10k_cold"
    kinds = ("update", "miss", "batch")
    large = "miss"
    small = "update"
    #: A cycle is a few CPU-bound seconds, so a run holds only a few and
    #: the host's speed moves from one to the next.  Every set-up runs
    #: cycles, which spreads them over the whole run.
    phases = 3

    def warm_up(self, server: Server, context: dict) -> None:
        connection = Connection(server.port)
        context["connections"].append(connection)
        # One miss of each query pays the first-run costs (plan
        # compilation, intern-table growth) before the timed loop.
        self.warm(connection, [REFERENCE, self.small_queries[0]], "warm")

    def loop(self, server, context, seconds: float, phase: Phase) -> None:
        connection = context["connections"][0]
        phase.connections = [connection]
        small = self.small_queries[0]
        bodies = context["bodies"] = []
        deadline = time.perf_counter() + seconds
        while phase.cycles < COLD_CYCLES or time.perf_counter() < deadline:
            cycle = phase.cycles
            for step in range(COLD_UPDATES):
                row = [self.seed, cycle, step]
                update = connection.call(
                    "update", "POST", "/v1/update",
                    {"insert": {"T": [{"row": row, "annotation": "t{}x{}".format(cycle, step)}]}},
                )
                if phase.record(update):
                    phase.body_bytes("update", update.body)
            response = self.query(connection, "miss", REFERENCE)
            if phase.record(response):
                phase.body_bytes("miss", response.body)
            batch = connection.call(
                "batch", "POST", "/v1/batch", {"queries": [REFERENCE, small]}
            )
            if phase.record(batch):
                phase.body_bytes("batch", batch.body)
            # Compared once the window is over: normalizing two 9.2 MB
            # bodies is the client's bookkeeping, not the server's time.
            bodies.append((cycle, response, batch))
            phase.cycles += 1
            if phase.cycles == COLD_CYCLES:
                phase.rss_mb = server.rss_peak_mb()

    def finish(self, server, context, phase: Phase) -> None:
        reference = normalize(self.checked[REFERENCE])
        expected_batch = normalize(
            b'{"results":['
            + self.checked[REFERENCE].rstrip(b"\n")
            + b","
            + self.checked[self.small_queries[0]].rstrip(b"\n")
            + b"]}\n"
        )
        for cycle, response, batch in context.pop("bodies"):
            if response.ok and normalize(response.body) != reference:
                phase.mismatch("cycle {}: /v1/query body differs from the checked one".format(cycle))
            if batch.ok and normalize(batch.body) != expected_batch:
                phase.mismatch("cycle {}: /v1/batch body differs from the checked answers".format(cycle))


class Join10kHot(_Join10k):
    """Every answer cached: cache lookup, re-parse and the HTTP writer."""

    name = "join10k_hot"
    kinds = ("hit_large", "hit_small")
    large = "hit_large"
    small = "hit_small"
    connections = 2

    def warm_up(self, server: Server, context: dict) -> None:
        connections = [Connection(server.port) for _ in range(self.connections)]
        context["connections"].extend(connections)
        self.warm(connections[0], [REFERENCE] + self.small_queries, "warm")
        stats = connections[0].stats()
        if stats["cache"]["size"] < 1 + len(self.small_queries):
            raise BenchError("warm-up left {} cached answers".format(stats["cache"]["size"]))

    def loop(self, server, context, seconds: float, phase: Phase) -> None:
        texts = [REFERENCE] + self.small_queries
        deadline = time.perf_counter() + seconds
        lock = threading.Lock()
        cycles = [0] * self.connections

        def client(index: int, connection: Connection) -> None:
            # The first connection polls the large body, the second the
            # small ones.  Mixing both on one connection makes a large
            # body's trailing write stall or not depending on which
            # request came before it on both connections, which moves
            # the median from run to run.
            order = texts[:1] if index == 0 else texts[1:]
            while time.perf_counter() < deadline:
                for text in order:
                    kind = "hit_large" if text == REFERENCE else "hit_small"
                    response = self.query(connection, kind, text)
                    with lock:
                        if phase.record(response):
                            if response.body != self.checked[text]:
                                phase.mismatch("{!r}: cached body differs from the checked one".format(text))
                cycles[index] += 1

        phase.connections = list(context["connections"])
        threads = [
            threading.Thread(target=client, args=(index, connection))
            for index, connection in enumerate(phase.connections)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        phase.cycles = sum(cycles)
        phase.body_bytes("hit_large", self.checked[REFERENCE])
        phase.counts["body_bytes.hit_small"] = sum(
            len(self.checked[text]) for text in self.small_queries
        ) / len(self.small_queries)


# ----------------------------------------------------------------------
# views_rw
# ----------------------------------------------------------------------
class ViewsRW(Workload):
    """Writes beside reads: maintenance, WAL, snapshots, changefeeds."""

    name = "views_rw"
    kinds = ("update", "adhoc", "view_V", "view_C")
    large = "view_V"
    small = "update"

    def __init__(self, tmp: str, seed: int):  # noqa: D107
        super().__init__(tmp, seed)
        self.initial = make_mirror(VIEWS_DOMAIN, VIEWS_FACTS, seed)
        self.data_path = self.path("data.json")
        write_data(self.data_path, self.initial)
        self.program_path = self.path("views.dl")
        with open(self.program_path, "w") as handle:
            handle.write(VIEWS_PROGRAM)
        rng = random.Random(seed)
        r_x = sorted({row[0] for row in self.initial["R"]})
        self.adhoc_constants = [rng.choice(r_x) for _ in range(16)]

    def adhoc_text(self, cycle: int) -> str:
        return "ans(y, z) :- R({}, y), S(y, z)".format(
            self.adhoc_constants[cycle % len(self.adhoc_constants)]
        )

    def spawn(self, spans_path: Optional[str]) -> Server:
        self._data_dir = self.path("state")
        return Server(
            self.data_path,
            self.path("server.log"),
            program_path=self.program_path,
            data_dir=self._data_dir,
            snapshot_every=SNAPSHOT_EVERY,
            traced_spans=spans_path,
        )

    def warm_up(self, server: Server, context: dict) -> None:
        mirror = {relation: dict(facts) for relation, facts in self.initial.items()}
        window = SlidingWindow(mirror, VIEWS_DOMAIN, WINDOW, self.seed)
        connection = Connection(server.port)
        context["connections"].append(connection)
        subscribed = connection.call("warm", "POST", "/v1/subscribe", {"view": "V"})
        if not subscribed.ok:
            raise BenchError("subscribe answered {}".format(subscribed.status))
        reader = ChangefeedReader(server.port, json.loads(subscribed.body)["subscription"])
        context.update(
            reader=reader,
            mirror=mirror,
            window=window,
            data_dir=self._data_dir,
            subscribed=subscribed.body,
            versions=[],
            samples=[],
        )
        # Fill the sliding window so every timed batch inserts one row
        # and deletes one: the database size is steady from here on.
        while not window.full:
            update = connection.call("warm", "POST", "/v1/update", window.next_batch())
            if not update.ok:
                raise BenchError("warm-up update answered {}".format(update.status))
            version = json.loads(update.body)["version"]
            context["versions"].append(version)
            if reader.wait_for(version, EVENT_TIMEOUT) is None:
                raise BenchError("no changefeed event for warm-up version {}".format(version))
        for kind, method, path, payload in (
            ("warm", "POST", "/v1/query", {"query": self.adhoc_text(0)}),
            ("warm", "GET", "/v1/views/V", None),
            ("warm", "GET", "/v1/views/C", None),
        ):
            if not connection.call(kind, method, path, payload).ok:
                raise BenchError("warm-up {} {} failed".format(method, path))

    def _wal_size(self, data_dir: str) -> Tuple[str, int]:
        wals = sorted(name for name in os.listdir(data_dir) if name.startswith("wal-"))
        if not wals:
            return "", 0
        return wals[-1], os.path.getsize(os.path.join(data_dir, wals[-1]))

    def loop(self, server, context, seconds: float, phase: Phase) -> None:
        connection = context["connections"][0]
        phase.connections = [connection]
        reader = context["reader"]
        window = context["window"]
        wal_bytes: List[int] = []
        rotations = 0
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            cycle = phase.cycles
            wal_before = self._wal_size(context["data_dir"])
            update = connection.call("update", "POST", "/v1/update", window.next_batch())
            if phase.record(update):
                phase.body_bytes("update", update.body)
                wal_after = self._wal_size(context["data_dir"])
                if wal_after[0] == wal_before[0]:
                    wal_bytes.append(wal_after[1] - wal_before[1])
                else:
                    rotations += 1
                version = json.loads(update.body)["version"]
                context["versions"].append(version)
                arrived = reader.wait_for(version, EVENT_TIMEOUT)
                if arrived is None:
                    phase.mismatch("no changefeed event for version {}".format(version))
                else:
                    phase.lags.append(arrived - update.end)
            text = self.adhoc_text(cycle)
            adhoc = connection.call("adhoc", "POST", "/v1/query", {"query": text})
            if phase.record(adhoc):
                phase.body_bytes("adhoc", adhoc.body)
                phase.digests[("adhoc", cycle)] = normalize(adhoc.body)
                if cycle % ADHOC_CHECK_EVERY == 0:
                    context["samples"].append(
                        (text, {r: dict(f) for r, f in window.mirror.items()}, adhoc.body)
                    )
            for view in ("V", "C") if cycle % VIEW_READ_EVERY == 0 else ("V",):
                kind = "view_" + view
                read = connection.call(kind, "GET", "/v1/views/" + view)
                if phase.record(read):
                    phase.body_bytes(kind, read.body)
                    phase.digests[(kind, cycle)] = normalize(read.body)
            phase.cycles += 1
        if wal_bytes:
            phase.counts["wal_bytes_per_update"] = sum(wal_bytes) / len(wal_bytes)
        phase.counts["snapshot_rotations"] = rotations

    def finish(self, server, context, phase: Phase) -> None:
        connection = context["connections"][0]
        context["final"] = {}
        for view in ("V", "C"):
            read = connection.call("final", "GET", "/v1/views/" + view)
            if read.ok:
                context["final"][view] = read.body
            else:
                phase.mismatch("final read of {} answered {}".format(view, read.status))
        # Let the feed deliver anything still in flight before closing.
        if context["versions"]:
            context["reader"].wait_for(context["versions"][-1], EVENT_TIMEOUT)
        context["events"] = list(context["reader"].events)
        if context["reader"].error:
            phase.mismatch("changefeed: " + context["reader"].error)

    def check(self, context, phase: Phase) -> None:
        for text, mirror, body in context["samples"]:
            oracle = Oracle(mirror)
            try:
                problem = oracle.check_body(body, text)
            finally:
                oracle.close()
            if problem is not None:
                phase.mismatch("oracle (ad-hoc): " + problem)
        oracle = Oracle(context["mirror"])
        try:
            for view, text in (
                ("V", "V(x, z) :- R(x, y), S(y, z)"),
                ("C", "C(x, count(*)) :- R(x, y), S(y, z)"),
            ):
                body = context["final"].get(view)
                if body:
                    problem = oracle.check_body(body, text)
                    if problem is not None:
                        phase.mismatch("oracle (view {}): {}".format(view, problem))
        finally:
            oracle.close()
        if context["final"].get("V"):
            for problem in check_changefeed(
                context["subscribed"],
                context["events"],
                context["versions"],
                context["final"]["V"],
            ):
                phase.mismatch("changefeed: " + problem)
            tuples, monomials = table_size(context["final"]["V"])
            phase.counts["view_V.result_tuples"] = tuples
            phase.counts["view_V.monomials"] = monomials
        phase.counts["changefeed.events"] = len(context["events"])
        phase.counts["changefeed.updates"] = len(context["versions"])
        phase.counts["adhoc.checked"] = len(context["samples"])


WORKLOADS = {cls.name: cls for cls in (Join10kCold, Join10kHot, ViewsRW)}

