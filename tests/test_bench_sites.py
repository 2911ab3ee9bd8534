"""The traced benchmark wraps functions at the module attributes where
their callers look them up (bench/spans.py, LAYERS).  A change that
removes or renames one of those names fails here, not only in a traced
benchmark run."""
import importlib
import os

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench")


def test_every_span_site_resolves_to_a_callable(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    spans = importlib.import_module("spans")
    sites = [(name, site) for name, (names, _) in spans.LAYERS.items()
             for site in names]
    assert sites
    for name, site in sites:
        owner, attr = spans._resolve(site)
        assert callable(getattr(owner, attr, None)), f"{name}: {site}"
