"""Traced launcher: ``repro-prov serve`` with layer spans recorded.

Usage::

    python perfbench/traced_serve.py SPANS.json serve -d data.json ...

Before handing over to the CLI entry point it wraps the public entry
points of each serving layer so every call records a span
``(request, name, start_ns, end_ns, attrs)`` on the shared monotonic
clock.  The program's own engine spans (``evaluate``, ``plan``,
``join.step``, ``merge``) are collected by installing
:func:`repro.obs.trace.tracing` around ``compute_query_entry`` and
``compute_batch_entries`` in the executor thread.  Spans stay in
memory and are written to ``SPANS.json`` when the server shuts down.

A request starts at ``ServerState.request_started`` and its response
is about to be written at ``observe_request``.  The request and
connection identifiers travel in :mod:`contextvars`, which the async
tier copies into its executor threads, so spans recorded off the event
loop land on the request that caused them.  Nothing here changes a
response byte; the benchmark asserts that.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import os
import signal
import sys
from time import perf_counter_ns

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro import cli  # noqa: E402
from repro.durability.store import DurableStore  # noqa: E402
from repro.incremental.registry import ViewRegistry  # noqa: E402
from repro.obs.trace import tracing  # noqa: E402
from repro.server import aio, app  # noqa: E402
from repro.server.subscriptions import SubscriptionHub  # noqa: E402

_REQUEST = contextvars.ContextVar("perfbench_request", default=None)
_CONNECTION = contextvars.ContextVar("perfbench_connection", default=None)

#: Engine spans the program records itself, by the layer name they get.
ENGINE_SPANS = {
    "evaluate": "session.evaluate",
    "plan": "engine.plan",
    "join.step": "engine.join_step",
    "merge": "session.merge",
}


class Recorder:
    """In-memory request and span log (appends are atomic under the GIL)."""

    def __init__(self):  # noqa: D107
        self.requests = []
        self.spans = []
        self._connections = itertools.count()

    def span(self, name, start, end, **attrs):
        """Record one finished span on the current request."""
        self.spans.append([_REQUEST.get(), name, start, end, attrs])

    def timed(self, name, measure=None):
        """Decorator: record a span around every call of ``fn``.

        ``measure(result, args)`` adds attributes computed from the call.
        """

        def wrap(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                start = perf_counter_ns()
                result = fn(*args, **kwargs)
                end = perf_counter_ns()
                attrs = measure(result, args) if measure is not None else {}
                self.span(name, start, end, **attrs)
                return result

            return wrapper

        return wrap

    def request_started(self) -> None:
        """A request enters ``_dispatch`` on its connection's task."""
        connection = _CONNECTION.get()
        if connection is None:
            connection = next(self._connections)
            _CONNECTION.set(connection)
        _REQUEST.set(len(self.requests))
        self.requests.append(
            {"connection": connection, "start": perf_counter_ns()}
        )

    def observed(self, endpoint, method, status) -> None:
        """The response is about to be written."""
        index = _REQUEST.get()
        if index is not None:
            self.requests[index].update(
                endpoint=endpoint, method=method, status=status,
                observed=perf_counter_ns(),
            )

    def dump(self, path: str) -> None:
        """Write every request and span as JSON."""
        with open(path, "w") as handle:
            json.dump({"requests": self.requests, "spans": self.spans}, handle)


def _body_bytes(result, _args):
    return {"bytes": len(result)}


def _view_changes(report, _args):
    return {
        "changes": sum(
            len(change.inserted) + len(change.deleted) + len(change.updated)
            for change in report.changes.values()
        )
    }


def _newest_size(files) -> int:
    return os.path.getsize(files[-1][1]) if files else 0


def install(recorder: Recorder) -> None:
    """Wrap the layer entry points (once per process)."""
    state_cls = app.ServerState

    started = state_cls.request_started
    observe = state_cls.observe_request

    def request_started(self):
        recorder.request_started()
        return started(self)

    def observe_request(self, endpoint, method, status, duration_s):
        recorder.observed(endpoint, method, status)
        return observe(self, endpoint, method, status, duration_s)

    state_cls.request_started = request_started
    state_cls.observe_request = observe_request

    state_cls.prepare_query = recorder.timed("query.parse")(state_cls.prepare_query)
    state_cls.read_view = recorder.timed("views.read", _body_bytes)(state_cls.read_view)

    def traced_compute(fn):
        @functools.wraps(fn)
        def wrapper(self, *args):
            memo_before = self.session.stats()["memo_hits"]
            with tracing("perfbench") as tracer:
                result = fn(self, *args)
            for span in tracer.root.walk():
                name = ENGINE_SPANS.get(span.name)
                if name is None:
                    continue
                attrs = dict(span.attrs)
                if span.name == "evaluate":
                    attrs["memo_hits"] = (
                        self.session.stats()["memo_hits"] - memo_before
                    )
                recorder.span(name, span.start_ns, span.end_ns, **attrs)
            return result

        return wrapper

    state_cls.compute_query_entry = traced_compute(state_cls.compute_query_entry)
    state_cls.compute_batch_entries = traced_compute(state_cls.compute_batch_entries)

    # The encoder: result tables to payload dicts, payloads to bytes.
    # ``_entry``/``read_view`` call the app module's globals; the async
    # tier re-serializes ``/batch`` envelopes with its own import.
    app.encode_results = recorder.timed("encode.results")(app.encode_results)
    app.canonical_json = recorder.timed("encode.json", _body_bytes)(app.canonical_json)
    aio.canonical_json = recorder.timed("encode.json", _body_bytes)(aio.canonical_json)

    ViewRegistry.apply = recorder.timed("incremental.apply", _view_changes)(
        ViewRegistry.apply
    )
    SubscriptionHub.publish = recorder.timed("subscriptions.publish")(
        SubscriptionHub.publish
    )

    log_update = DurableStore.log_update
    snapshot = DurableStore.snapshot

    def traced_log_update(self, payload):
        before = _newest_size(self.wal_files())
        start = perf_counter_ns()
        result = log_update(self, payload)
        end = perf_counter_ns()
        recorder.span(
            "durability.wal_append", start, end,
            bytes=_newest_size(self.wal_files()) - before,
        )
        return result

    def traced_snapshot(self, *args, **kwargs):
        start = perf_counter_ns()
        result = snapshot(self, *args, **kwargs)
        end = perf_counter_ns()
        recorder.span(
            "durability.snapshot", start, end,
            bytes=_newest_size(self.snapshot_files()),
        )
        return result

    DurableStore.log_update = traced_log_update
    DurableStore.snapshot = traced_snapshot


def main(argv) -> int:
    """Install the wrappers, run the CLI, then write the spans."""
    if len(argv) < 2:
        print("usage: traced_serve.py SPANS.json serve ...", file=sys.stderr)
        return 2
    recorder = Recorder()
    install(recorder)

    def interrupted(_signum, _frame):
        # Written now as well as on exit: the async tier's Ctrl-C path
        # can hang cancelling tasks, and the benchmark then terminates it.
        recorder.dump(argv[0])
        raise KeyboardInterrupt

    signal.signal(signal.SIGINT, interrupted)
    try:
        return cli.main(argv[1:])
    finally:
        recorder.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
