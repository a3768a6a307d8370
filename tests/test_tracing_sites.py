"""Tooling check of the benchmark's span tracer: every library name it wraps
still exists where its callers look it up.

perfbench/tracing.py replaces functions by module global or class attribute,
so a library change that removes or renames one of them would otherwise
surface only when the benchmark runs with tracing on.
"""

import importlib.util
import pathlib
import sys

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_site_resolves(monkeypatch):
    # no __pycache__ is left beside the benchmark's sources
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{name}: {getattr(owner, '__name__', owner)}.{attr}"
        for table in (tracing.SPANS, tracing.COUNTS)
        for name, sites in table.items()
        for owner, attr in sites
        if not callable(owner.__dict__.get(attr))
    ]
    assert missing == [], "traced names missing from detline:\n" + "\n".join(missing)
    tracer = tracing.Tracer()
    with tracer:
        pass
    assert tracer.snapshot() == ({}, {})
