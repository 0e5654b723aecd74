import os
from pathlib import Path

import pytest

import xorcomm.engine


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
    """A Channel subclass that also logs each message, installed as
    `xorcomm.engine.Channel` so run_protocol uses it.

    Each instance logs (direction, bits) per message, direction "a2b" or
    "b2a" and bits a tuple of ints, the final answer included; the class
    keeps every instance, in creation order, in `channels`.
    """

    class Recorder(xorcomm.engine.Channel):
        channels = []

        def __init__(self, one_way=False):
            super().__init__(one_way)
            self.log = []
            self.channels.append(self)

        def _count(self, to_bob, bits):
            super()._count(to_bob, bits)
            self.log.append(("a2b" if to_bob else "b2a",
                             tuple(int(b) for b in bits)))

    monkeypatch.setattr(xorcomm.engine, "Channel", Recorder)
    return Recorder
