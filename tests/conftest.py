import os
from pathlib import Path

import pytest

import xorcomm.engine
import xorcomm.protocols


@pytest.fixture(autouse=True, scope="session")
def package_on_subprocess_path():
    """Put the directory of the imported package on PYTHONPATH, so a test
    that runs `python -m xorcomm` in a subprocess finds it from a clean
    checkout, as the suite itself does through pyproject's pythonpath."""
    src = str(Path(xorcomm.engine.__file__).resolve().parents[1])
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        yield


@pytest.fixture
def recorder(monkeypatch):
    """A Channel subclass that also logs each send, installed as
    `xorcomm.engine.Channel` so run_protocol uses it.

    It logs a block of one trial, as run_protocol runs: each instance logs
    (direction, bits) for each send that charges the trial, direction "a2b"
    or "b2a" and bits the count charged, the final answer included; the
    class keeps every instance, in creation order, in `channels`.
    """

    class Recorder(xorcomm.engine.Channel):
        channels = []

        def __init__(self, one_way=False, trials=1):
            assert trials == 1, "the recorder logs a block of one trial"
            super().__init__(one_way, trials)
            self.log = []
            self.channels.append(self)

        def _count(self, to_bob, bits, trials=None):
            super()._count(to_bob, bits, trials)
            charges = 1 if trials is None else len(trials)
            self.log.extend([("a2b" if to_bob else "b2a", bits)] * charges)

    monkeypatch.setattr(xorcomm.engine, "Channel", Recorder)
    return Recorder


@pytest.fixture
def regions(monkeypatch):
    """The list of the regions the XOR protocols place each run in: each
    call of `protocols._region` appends its array, one entry per trial."""
    taken = []
    region = xorcomm.protocols._region

    def spy(votes):
        taken.append(region(votes))
        return taken[-1]

    monkeypatch.setattr(xorcomm.protocols, "_region", spy)
    return taken


@pytest.fixture
def tape_draws(monkeypatch):
    """The list of the numbers of values that each `RandomTape.integers`
    call returns, in call order (a draw block's call counts all its rows);
    clear it to count a part of a test."""
    drawn = []
    integers = xorcomm.engine.RandomTape.integers

    def counted(tape, upper, size):
        values = integers(tape, upper, size)
        drawn.append(values.size)
        return values

    monkeypatch.setattr(xorcomm.engine.RandomTape, "integers", counted)
    return drawn
