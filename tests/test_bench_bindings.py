"""Every name the benchmark's wrappers patch still resolves in ctrules.

bench/tracing.py replaces attributes such as ``solver.overlap`` or
``UtilityFunction.deriv`` at the sites where callers bind them.  A change
that drops one of those imports would only fail when the benchmark runs;
this test fails first.  The module is loaded from its file and left as it
is."""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while they are built
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_patched_binding_resolves(monkeypatch):
    tracing = load_tracing(monkeypatch)
    sites = tracing.SOLVER_SITES + [site for sites in tracing.TRACED.values() for site in sites]
    for owner, attr in sites:
        # classes are patched through their own __dict__, modules by getattr
        target = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        assert callable(target), f"bench/tracing.py patches {owner.__name__}.{attr}, which is not a function"
