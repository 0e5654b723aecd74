import pytest

import xorcomm.engine


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
