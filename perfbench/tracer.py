"""Outside-in tracing of xorcomm's public functions.

The tracer replaces each traced function, at every module binding that holds
it, with a wrapper that records one span: name, start, end, parent span and
the id of the benchmark step (one CLI call) it belongs to.  Self time is a
span's duration minus the time its child spans cover.  A traced function
that the library no longer has is skipped, so its metrics are absent.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from collections import defaultdict
from time import perf_counter

# span name -> (module, attribute path)
FUNCTIONS = {
    "cli.main": ("xorcomm.cli", "main"),
    "symfun.gap_params": ("xorcomm.symfun", "gap_params"),
    "symfun.parse_profile": ("xorcomm.symfun", "parse_profile"),
    "symfun.evaluate_F": ("xorcomm.symfun", "evaluate_F"),
    "spectral.krawtchouk_matrix": ("xorcomm.spectral", "krawtchouk_matrix"),
    "spectral.weight_spectrum": ("xorcomm.spectral", "weight_spectrum"),
    "spectral.deterministic_bounds": ("xorcomm.spectral", "deterministic_bounds"),
    "oracle.brute_rank": ("xorcomm.oracle", "brute_rank"),
    "oracle.exhaustive_lemma_scan": ("xorcomm.oracle", "exhaustive_lemma_scan"),
    "oracle.sampled_lemma_scan": ("xorcomm.oracle", "sampled_lemma_scan"),
    "oracle.brute_symmetric_fourier_matrix":
        ("xorcomm.oracle", "brute_symmetric_fourier_matrix"),
    "oracle.weighted_pair": ("xorcomm.oracle", "weighted_pair"),
    "oracle.mc_error_estimate": ("xorcomm.oracle", "mc_error_estimate"),
    "engine.run_protocol": ("xorcomm.engine", "run_protocol"),
    "engine.make_report": ("xorcomm.engine", "make_report"),
    "engine.sweep": ("xorcomm.engine", "sweep"),
    "engine.RandomTape.integers": ("xorcomm.engine", "RandomTape.integers"),
}
# Channel methods share one span name; the value is the message direction.
CHANNEL_METHODS = {"a_to_b": "a2b", "b_to_a": "b2a", "_final_answer": "b2a"}
PROTOCOLS = ("ham", "xor2way", "xor1way")
# Reported as <name>.calls; every traced name also gets <name>.self_s.
CALL_COUNTS = ("cli.main", "symfun.gap_params", "spectral.krawtchouk_matrix",
               "spectral.weight_spectrum", "oracle.brute_rank",
               "oracle.weighted_pair", "engine.run_protocol",
               "engine.RandomTape.integers") + tuple(
                   f"protocols.{p}.run" for p in PROTOCOLS)


def _xorcomm_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "xorcomm" or name.startswith("xorcomm."))]


class Tracer:
    def __init__(self):
        self.step = 0            # id shared by the spans of one benchmark step
        self.spans = []          # (id, name, start, end, parent, step)
        self._stack = []         # [id, child_time] of the open spans
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._n = None           # n of the protocol run in progress
        self.installed = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, before=None):
        stack, spans = self._stack, self.spans
        calls, self_s = self.calls, self.self_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            parent = stack[-1][0] if stack else None
            frame = [len(spans), 0.0]
            spans.append(None)   # reserve the id; filled in on exit
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                spans[frame[0]] = (frame[0], name, start, end, parent, self.step)
                calls[name] += 1
                self_s[name] += dur - frame[1]
        return traced

    def _on_channel(self, direction):
        def before(args, kwargs):
            payload = args[1] if len(args) > 1 else kwargs.get("payload", "")
            bits = len(payload)
            self.counts["engine.Channel.messages"] += 1
            self.counts[f"engine.Channel.bits_{direction}"] += bits
            if direction == "a2b" and self._n is not None and bits > self._n:
                self.counts["padded_a2b_bits"] += bits
        return before

    def _on_run_protocol(self, args, kwargs):
        profile = args[2] if len(args) > 2 else kwargs.get("profile")
        self._n = getattr(profile, "n", None)

    def _on_integers(self, args, kwargs):
        size = args[2] if len(args) > 2 else kwargs.get("size")
        self.counts["engine.RandomTape.values_drawn"] += 1 if size is None else int(size)

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every traced function at each binding in xorcomm's modules."""
        import xorcomm.cli  # noqa: F401  (loads every xorcomm module)

        modules = _xorcomm_modules()
        hooks = {"engine.run_protocol": self._on_run_protocol,
                 "engine.RandomTape.integers": self._on_integers}
        for name, (modname, path) in FUNCTIONS.items():
            owner = sys.modules.get(modname)
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = self.wrap(name, original, hooks.get(name))
            if cls_path:
                setattr(owner, attr, wrapper)
            else:
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
            self.installed.append(name)
        engine = sys.modules["xorcomm.engine"]
        channel = getattr(engine, "Channel", None)
        for method, direction in CHANNEL_METHODS.items():
            original = getattr(channel, method, None)
            if original is not None:
                setattr(channel, method, self.wrap(
                    "engine.Channel", original, self._on_channel(direction)))
                if "engine.Channel" not in self.installed:
                    self.installed.append("engine.Channel")
        protocols = sys.modules["xorcomm.protocols"]
        for cls in vars(protocols).values():
            pname = getattr(cls, "name", None)
            if isinstance(cls, type) and pname in PROTOCOLS and "run" in vars(cls):
                cls.run = self.wrap(f"protocols.{pname}.run", cls.run)
                self.installed.append(f"protocols.{pname}.run")

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of the traced functions that exist."""
        out = {}
        for name in self.installed:
            if name in CALL_COUNTS:
                out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        if "engine.RandomTape.integers" in self.installed:
            out["engine.RandomTape.values_drawn"] = (
                self.counts["engine.RandomTape.values_drawn"], "count")
        if "engine.Channel" in self.installed:
            for key in ("messages", "bits_a2b", "bits_b2a"):
                out[f"engine.Channel.{key}"] = (
                    self.counts[f"engine.Channel.{key}"], "count")
            a2b = self.counts["engine.Channel.bits_a2b"]
            out["engine.Channel.padded_share"] = (
                self.counts["padded_a2b_bits"] / a2b if a2b else 0.0, "ratio")
        spectral = sys.modules.get("xorcomm.spectral")
        info = getattr(getattr(spectral, "binomial_table", None), "cache_info", None)
        if info is not None:
            ci = info()
            total = ci.hits + ci.misses
            out["spectral.binomial_table.hit_ratio"] = (
                ci.hits / total if total else 0.0, "ratio")
        return out

    def write_spans(self, path) -> None:
        """Write the recorded spans as gzipped JSON lines."""
        keys = ("id", "name", "start", "end", "parent", "step")
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
