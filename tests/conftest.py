import os
from pathlib import Path

import numpy as np
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

    It logs a block of one trial, as run_protocol runs: each instance logs
    (direction, bits) per message, direction "a2b" or "b2a" and bits a
    tuple of ints, the final answer included (an array send of two or more
    axes holds a message per last-axis row); the class keeps every
    instance, in creation order, in `channels`.
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
            if np.ndim(bits) < 2:  # one message
                bits = [bits]
            else:
                bits = np.reshape(bits, (-1, np.shape(bits)[-1]))
            self.log.extend(("a2b" if to_bob else "b2a",
                             tuple(int(b) for b in message))
                            for message in bits)

    monkeypatch.setattr(xorcomm.engine, "Channel", Recorder)
    return Recorder
