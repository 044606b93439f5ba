import csv
from importlib import resources

import pytest


def load_golden_sporadic() -> list[tuple[int, ...]]:
    text = resources.files("wcidp").joinpath("data/sporadic_catalog.csv").read_text()
    reader = csv.DictReader(text.splitlines())
    rows = [
        tuple(int(row[k]) for k in ("a0", "a1", "a2", "a3", "a4", "d1", "d2"))
        for row in reader
    ]
    return sorted(rows)


@pytest.fixture(scope="session")
def golden_sporadic():
    return load_golden_sporadic()


@pytest.fixture
def fake_pool(monkeypatch):
    """Replace ``multiprocessing.Pool``, which the enumerator imports when a
    run starts more than one worker, by one that solves the chunks in this
    process; the list returned holds each worker count asked for."""
    started = []

    class FakePool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, args):
            return map(fn, args)

    monkeypatch.setattr("multiprocessing.Pool", FakePool)
    return started
