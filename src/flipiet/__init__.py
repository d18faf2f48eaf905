"""Exact interval exchange transformations with flips: Rauzy-style
induction, spectral screening, and, in flipiet.selfsim and flipiet.denjoy
(not imported here), self-similarity certification and the blow-up
construction of affine exchanges with wandering intervals.  Unless it is
set, OPENBLAS_NUM_THREADS is 1: flipiet makes no multi-threaded BLAS call,
so numpy starts no OpenBLAS worker threads, and search's --jobs workers
inherit the setting.  flipiet calls os.fork nowhere: the gap dump
(flipiet.reprs, loaded by io.gaps_csv) runs in process, and the census pool
starts its workers with spawn."""

import os
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")    # before numpy loads
from .errors import *                                              # noqa: F401,F403
from .polys import IntPolynomial, char_poly, factor_rational, isolate_real_roots
from .numfield import AlgebraicNumber, NumberField, nf_field_make, nf_root
from .iet import IetSpec, OrbitSegment
from .rauzy import (RauzyCycle, RauzyStep, cycle_matrix, rauzy_cycle_detect,
                    rauzy_run, rauzy_step)
from .spectral import (BhmVerdict, SpectralData, bhm_screen, eigen_left,
                       perron_data)
from .search import (CycleCandidate, RauzyGraph, SearchResult, cycle_search,
                     cycle_validate, rauzy_graph_build, signed_perms_enumerate)

__version__ = "0.1.0"
