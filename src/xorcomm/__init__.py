"""Exact analysis and protocol simulation for symmetric XOR communication
problems F(x, y) = S(|x xor y|)."""

from .engine import (Channel, MCResult, Protocol, ProtocolReport, RandomTape,
                     ScheduleViolation, Transcript, mc_error_estimate,
                     run_protocol, sweep, weight_estimates)
from .oracle import (TruthTable, brute_fourier, brute_rank,
                     exhaustive_lemma_scan, sampled_lemma_scan)
from .protocols import (FullSendProtocol, HamProtocol, OneWayXorProtocol,
                        ParityProtocol, TwoWayXorProtocol, make_protocol)
from .spectral import (WeightSpectrum, deterministic_bounds,
                       krawtchouk_coefficient, lemma_window_check,
                       weight_spectrum)
from .symfun import (GapParams, InputPair, SymmetricProfile, TrivialClass,
                     classify, conjectured_unbounded_measure, evaluate_F,
                     flip_reduction, gap_params, parse_profile)

__all__ = [name for name in dir() if not name.startswith("_")]
