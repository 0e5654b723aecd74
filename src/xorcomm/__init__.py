"""Exact analysis and protocol simulation for symmetric XOR communication
problems F(x, y) = S(|x xor y|)."""

from .engine import (Channel, Protocol, ProtocolReport, RandomTape,
                     ScheduleViolation, Transcript, run_protocol, sweep)
from .oracle import (MCResult, TruthTable, brute_fourier, brute_rank,
                     exhaustive_lemma_scan, mc_error_estimate,
                     sampled_lemma_scan)
from .protocols import (FullSendProtocol, HamConfig, HamProtocol,
                        OneWayXorProtocol, ParityProtocol, TwoWayXorProtocol,
                        XorProtocolConfig, make_protocol)
from .spectral import (WeightSpectrum, deterministic_bounds,
                       krawtchouk_coefficient, lemma_window_check,
                       weight_spectrum)
from .symfun import (GapParams, InputPair, SymmetricProfile, TrivialClass,
                     classify, conjectured_unbounded_measure, evaluate_F,
                     flip_reduction, gap_params, parity_decompose,
                     parse_profile)

__all__ = [name for name in dir() if not name.startswith("_")]
