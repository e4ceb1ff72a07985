"""The benchmark's tracer still finds every name it wraps, and puts each one back."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs_and_restores_every_patched_attribute():
    # A name the tracer patches that the library renamed or removed fails here, not in a traced run.
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        patched = list(tracer._patched)
        assert patched
        assert all(getattr(owner, attr) is not original for owner, attr, original in patched)
    finally:
        tracer.uninstall()
    assert not tracer._patched
    assert all(getattr(owner, attr) is original for owner, attr, original in patched)
