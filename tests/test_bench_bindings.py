"""Every name the benchmark's wrappers patch still resolves in ctrules.

bench/tracing.py replaces attributes such as ``solver.overlap`` or
``UtilityFunction.deriv`` at the sites where callers bind them.  A change
that drops one of those imports would only fail when the benchmark runs;
this test fails first.  The module is loaded from its file and left as it
is."""

import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from ctrules.cli import main

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


SPIED = ("core.overlap", "bounds.welfare_loss", "bounds.egalitarian_loss", "bounds.gamma", "axioms.cohesive_groups")


def spied_sweep(monkeypatch, tracing, directory: Path, grid: str) -> Counter:
    """Calls of each SPIED span in one ``ctr sweep``, counted at every
    binding bench/tracing.py patches for it, as its tracer counts them."""
    calls = Counter()

    def counting(name, fn):
        def spy(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return spy

    with monkeypatch.context() as mp:
        for name in SPIED:
            for owner, attr in tracing.TRACED[name]:
                mp.setattr(owner, attr, counting(name, getattr(owner, attr)))
        assert main(["sweep", "--profile-dir", str(directory), "--lambda-grid", grid, "--out", str(directory / "out.csv")]) == 0
    return calls


def write_profiles(directory: Path, *profiles: list) -> Path:
    directory.mkdir()
    for k, prefs in enumerate(profiles):
        doc = {"n": len(prefs), "m": len(prefs[0]), "prefs": prefs, "seed": k}
        (directory / f"p{k}.json").write_text(json.dumps(doc), encoding="utf-8")
    return directory


def test_sweep_calls_each_traced_layer_once_per_row(monkeypatch, tmp_path):
    """The benchmark's per-layer counters read one loss of each kind per
    row, one gamma per row with n >= 2, one subset table per profile, and
    overlap calls that do not grow with the ladder: the rows read their
    losses from the rung reports' satisfactions."""
    tracing = load_tracing(monkeypatch)
    rng = np.random.default_rng(3)
    profiles = [rng.dirichlet(np.ones(3), size=n).tolist() for n in (1, 4, 6)]
    calls = spied_sweep(monkeypatch, tracing, write_profiles(tmp_path / "three", *profiles), "0.25:4:5")
    assert calls["bounds.welfare_loss"] == calls["bounds.egalitarian_loss"] == 3 * 5
    assert calls["bounds.gamma"] == 2 * 5
    assert calls["axioms.cohesive_groups"] == 3
    one = write_profiles(tmp_path / "one", profiles[2])
    one_rung, five_rungs = (spied_sweep(monkeypatch, tracing, one, grid)["core.overlap"] for grid in ("1:1:1", "0.25:4:5"))
    assert one_rung == five_rungs
