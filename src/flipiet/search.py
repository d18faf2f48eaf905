"""Bounded exploration of signed-permutation induction graphs.

Nodes are irreducible signed permutations (with at least one flip when flips
are required); the two typed edges out of a node are computed by running one
geometric induction step on generic exact-rational lengths realizing the
type, so the graph carries exactly the combinatorics the induction engine
produces, with the elementary matrix attached to each edge.

Cycles are primitive closed walks, deduplicated up to rotation.  Every cycle
product is screened for the dominant-plus-conjugate eigenvalue hypotheses;
screen survivors can be validated end to end by rebuilding the exchange with
exact Perron lengths and rerunning the induction.

Since a flipped exchange can induce to an orientation-preserving one but
never back, no closed walk through an unflipped node returns to a flipped
one; restricting the flipped graph to flipped nodes therefore loses no
cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from multiprocessing import Pool
from .errors import DegenerateStep, FlipIetError
from .iet import IetSpec, SignedPermutation
from .polys import mat_identity, mat_mul
from .rauzy import rauzy_cycle_detect
from .selfsim import induce
from .spectral import bhm_screen, perron_data


def signed_perms_enumerate(n: int, require_flips: bool = True):
    """All irreducible signed permutations on n symbols, sorted."""
    if not (2 <= n <= 7):
        raise ValueError("n must be between 2 and 7")
    out = []
    for base in permutations(range(1, n + 1)):
        mx = 0
        red = False
        for k, v in enumerate(base[:-1], start=1):
            mx = max(mx, v)
            if mx == k:
                red = True
                break
        if red:
            continue
        for mask in range(2 ** n):
            if require_flips and mask == 0:
                continue
            out.append(tuple((-base[i] if (mask >> i) & 1 else base[i])
                             for i in range(n)))
    return sorted(out)


def _typed_edge(sp_entries, type_bit):
    """Target signed permutation and matrix of one typed move on generic
    lengths; None when the move is unrealizable."""
    sp = SignedPermutation(sp_entries)
    n = len(sp)
    s = sp.pi_inv[n]
    if s == n:
        return None, None, "last piece maps to last slot"
    lengths = [Fraction(7 + i, 7) for i in range(n)]
    loser = n - 1 if type_bit == 1 else s - 1
    lengths[loser] = Fraction(1, 2)
    E = IetSpec(lengths, sp, origin=0)
    d = E.x[-1] - min(E.lengths[n - 1], E.lengths[s - 1])
    try:
        ind = induce(E, (E.origin, d))
    except FlipIetError as exc:
        return None, None, f"induction failed: {exc}"
    if ind.sub_iet.n != n:
        return None, None, f"induced map has {ind.sub_iet.n} pieces"
    return ind.sub_iet.sp.entries, ind.itineraries.counts_matrix(), None


@dataclass
class RauzyGraph:
    n: int
    require_flips: bool
    nodes: tuple                    # sorted signed-permutation tuples
    succ: tuple                     # succ[ix][type] = target index or None
    mats: tuple                     # mats[ix][type] = elementary matrix or None
    absent: tuple                   # (node, type, reason)

    def index(self, entries):
        return self._ix[tuple(entries)]

    def __post_init__(self):
        self._ix = {node: k for k, node in enumerate(self.nodes)}


def rauzy_graph_build(n: int, require_flips: bool = True) -> RauzyGraph:
    """Full typed-move graph over the irreducible (flipped) permutations."""
    nodes = tuple(signed_perms_enumerate(n, require_flips))
    ix = {node: k for k, node in enumerate(nodes)}
    succ = []
    mats = []
    absent = []
    for node in nodes:
        row_s = [None, None]
        row_m = [None, None]
        for t in (0, 1):
            target, m, reason = _typed_edge(node, t)
            if target is None:
                absent.append((node, t, reason))
            elif target not in ix:
                # target lost all flips (or reducibility); dead end for cycles
                absent.append((node, t, "target outside node class"))
            else:
                row_s[t] = ix[target]
                row_m[t] = m
        succ.append(tuple(row_s))
        mats.append(tuple(row_m))
    return RauzyGraph(n=n, require_flips=require_flips, nodes=nodes,
                      succ=tuple(succ), mats=tuple(mats), absent=tuple(absent))


# ---------------------------------------------------------------------------
# closed-walk enumeration

def _canonical_rotation(seq):
    return min(tuple(seq[i:] + seq[:i]) for i in range(len(seq)))


def _is_primitive(seq):
    L = len(seq)
    for p in range(1, L):
        if L % p == 0 and seq == seq[p:] + seq[:p]:
            return p == L
    return True


def _walk_worker(args):
    succ, starts, max_len = args
    found = set()
    for start in starts:
        stack = [(start, ())]
        while stack:
            v, types = stack.pop()
            depth = len(types)
            if depth > 0 and v == start:
                seq = []
                u = start
                for t in types:
                    seq.append((u, t))
                    u = succ[u][t]
                seq = tuple(seq)
                if _is_primitive(seq):
                    found.add(_canonical_rotation(seq))
            if depth < max_len:
                for t in (0, 1):
                    u = succ[v][t]
                    if u is not None:
                        stack.append((u, types + (t,)))
    return found


def _screen_worker(args):
    mats, cycles = args
    out = []
    for seq in cycles:
        prod = mat_identity(len(mats[seq[0][0]][seq[0][1]]))
        for (v, t) in seq:
            prod = mat_mul(prod, mats[v][t])
        verdict = bhm_screen(prod)
        if verdict.qualifies:
            out.append((seq, prod,
                        verdict.theta1.decimal(12), verdict.theta2.decimal(12)))
    return out


@dataclass
class CycleCandidate:
    nodes: tuple                    # node entries along the cycle
    types: tuple
    product: tuple
    theta1: str                     # 12-digit decimal renderings
    theta2: str
    validated: bool = False
    validation_reason: str = ""

    def rotate_to(self, node_entries, graph: RauzyGraph):
        """The same cycle starting at the given node, with its product."""
        if node_entries not in self.nodes:
            raise ValueError("node not on this cycle")
        k = self.nodes.index(node_entries)
        nodes = self.nodes[k:] + self.nodes[:k]
        types = self.types[k:] + self.types[:k]
        prod = mat_identity(len(node_entries))
        for entries, t in zip(nodes, types):
            prod = mat_mul(prod, graph.mats[graph.index(entries)][t])
        return nodes, types, prod


@dataclass
class SearchResult:
    n: int
    require_flips: bool
    max_len: int
    node_count: int
    cycles_checked: int
    qualifying: list


def cycle_search(graph: RauzyGraph, max_len: int, jobs: int = 1,
                 validate: bool = True) -> SearchResult:
    """Enumerate primitive cycles up to max_len (up to rotation), screen every
    product, and validate the survivors with exact induction."""
    if max_len > 20:
        raise ValueError("max_len capped at 20")
    nodes = list(range(len(graph.nodes)))
    chunks = max(1, jobs * 4)
    starts = [nodes[i::chunks] for i in range(chunks)]
    payloads = [(graph.succ, chunk, max_len) for chunk in starts if chunk]
    if jobs > 1:
        with Pool(jobs) as pool:
            sets = pool.map(_walk_worker, payloads)
    else:
        sets = [_walk_worker(p) for p in payloads]
    cycles = set()
    for s in sets:
        cycles |= s
    cycles = sorted(cycles)

    batches = [cycles[i::chunks] for i in range(chunks)]
    payloads = [(graph.mats, b) for b in batches if b]
    if jobs > 1:
        with Pool(jobs) as pool:
            hits = pool.map(_screen_worker, payloads)
    else:
        hits = [_screen_worker(p) for p in payloads]
    qualifying = []
    for batch in hits:
        for seq, prod, th1, th2 in batch:
            qualifying.append(CycleCandidate(
                nodes=tuple(graph.nodes[v] for (v, t) in seq),
                types=tuple(t for (v, t) in seq),
                product=prod, theta1=th1, theta2=th2))
    qualifying.sort(key=lambda c: (len(c.types), c.nodes, c.types))
    if validate:
        for cand in qualifying:
            cycle_validate(cand)
    return SearchResult(n=graph.n, require_flips=graph.require_flips,
                        max_len=max_len, node_count=len(graph.nodes),
                        cycles_checked=len(cycles), qualifying=qualifying)


def cycle_validate(cand: CycleCandidate) -> CycleCandidate:
    """Rebuild the exchange with exact Perron lengths and check that the
    induction really follows the candidate cycle."""
    try:
        sd = perron_data(cand.product)
    except FlipIetError as exc:
        cand.validated = False
        cand.validation_reason = f"perron data failed: {exc}"
        return cand
    theta1, alpha = sd.perron
    E = IetSpec(alpha, SignedPermutation(cand.nodes[0]), origin=0)
    try:
        cyc = rauzy_cycle_detect(E, len(cand.types) + 2)
    except DegenerateStep as exc:
        cand.validated = False
        cand.validation_reason = f"degenerate step: {exc}"
        return cand
    if cyc is None:
        cand.validated = False
        cand.validation_reason = "no cycle detected within the bound"
        return cand
    got_nodes = tuple(tuple(st.before) for st in cyc.steps)
    got_types = tuple(st.type_bit for st in cyc.steps)
    if got_nodes != cand.nodes or got_types != cand.types:
        cand.validated = False
        cand.validation_reason = "detected cycle differs"
        return cand
    if cyc.product != cand.product:
        cand.validated = False
        cand.validation_reason = "matrix product differs"
        return cand
    if cyc.scale != theta1:
        cand.validated = False
        cand.validation_reason = "contraction is not the dominant eigenvalue"
        return cand
    cand.validated = True
    cand.validation_reason = "ok"
    return cand
