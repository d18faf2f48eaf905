"""Exact interval exchange transformations with flips: Rauzy-style
induction, self-similarity certification, spectral screening, and the
blow-up construction of affine exchanges with wandering intervals."""

from .errors import *                                              # noqa: F401,F403
from .polys import IntPolynomial, char_poly, factor_rational, isolate_real_roots
from .numfield import AlgebraicNumber, NumberField, nf_field_make, nf_root
from .iet import IetSpec, OrbitSegment
from .selfsim import (InducedMap, ItinerarySet, SelfSimilarity, Substitution,
                      associated_matrix, cylinder_locate, fixed_word, induce,
                      self_similarity_check, substitution_from)
from .rauzy import (RauzyCycle, RauzyStep, cycle_matrix, rauzy_cycle_detect,
                    rauzy_run, rauzy_step)
from .spectral import (BhmVerdict, SpectralData, bhm_screen, eigen_left,
                       perron_data)
from .denjoy import (AietApprox, BlowupChain, GapSystem, InductionCycle,
                     LogSlopeVector, WanderingCertificate, aiet_from_gaps,
                     blowup_chain, ergodic_probe, gap_system_build,
                     induction_cycle, log_slope_select, verify_wandering)
from .search import (CycleCandidate, RauzyGraph, SearchResult, cycle_search,
                     cycle_validate, rauzy_graph_build, signed_perms_enumerate)

__version__ = "0.1.0"
