"""Bounded exploration of signed-permutation induction graphs.

Nodes are irreducible signed permutations (with at least one flip when flips
are required); the two typed edges out of a node are rauzy.typed_move, the
closed-form move that rauzy_step itself takes, so the graph carries exactly
the combinatorics of the induction engine, with the elementary matrix
attached to each edge.  Building it runs no induction.

Cycles are primitive closed walks up to rotation: Lyndon words over the edge
alphabet (v, t), enumerated level by level by a walk cut at every prefix that
is not a prenecklace.  Every cycle product is screened for the
dominant-plus-conjugate eigenvalue hypotheses; screen survivors can be
validated end to end by stepping the exact Perron lengths along the cycle:
each Rauzy step is one exact comparison of two lengths, which picks the typed
move, and one exact subtraction.

Since a flipped exchange can induce to an orientation-preserving one but
never back, no closed walk through an unflipped node returns to a flipped
one; restricting the flipped graph to flipped nodes therefore loses no
cycles.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import permutations

import numpy as np

from .errors import DegenerateStep, FlipIetError
from .polys import mat_mul, row_masks, rows_quasi_positive, rows_table
from .rauzy import rauzy_cycle_detect, step_product, typed_move
from .spectral import SCREEN_REASONS, bhm_screen, perron_data


def signed_perms_enumerate(n: int, require_flips: bool = True):
    """All irreducible signed permutations on n symbols, sorted."""
    if not (2 <= n <= 7):
        raise ValueError("n must be between 2 and 7")
    out = []
    for base in permutations(range(1, n + 1)):
        if any(max(base[:k]) == k for k in range(1, n)):
            continue                    # reducible: base[:k] is {1..k}
        for mask in range(1 if require_flips else 0, 2 ** n):
            out.append(tuple((-base[i] if (mask >> i) & 1 else base[i])
                             for i in range(n)))
    return sorted(out)


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
            target, m = typed_move(node, t)
            if target not in ix:
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

# starts walked side by side: one bit each of four uint64 words of
# distance masks per node
WALK_BATCH = 256


def _census_worker(args):
    """Screen every cycle whose smallest node is one of starts; return the
    screen-reason counts and the qualifying cycles as CycleCandidates, each
    validated (cycle_validate) right after its screen.  The screen's verdict
    and the roots that the validation's Perron data reads are those of the
    product's characteristic polynomial, worked out once per polynomial
    (spectral._Spectrum); the validation reads the screen's
    Faddeev-LeVerrier loop too.

    Each cycle passes once, as its rotation that is a Lyndon word over the
    edge alphabet (v, t); it starts at the cycle's smallest node.  From each
    start s the walk visits only nodes >= s and extends only prenecklaces,
    the prefixes of Lyndon words, by Duval's period p: an edge below the one
    p back cuts the branch, and a closed walk is Lyndon exactly when p is
    its length (Duval 1983; Ruskey, Savage and Wang 1992).  A branch is also
    cut when its depth plus the distance back to s (reverse BFS within nodes
    >= s) exceeds max_len.  The product's zero pattern rides down the walk
    as row bitmasks, one rows_table lookup per row; only cycles whose
    pattern is quasi-positive get the exact product, by column moves
    (rauzy.step_product), and the screen, which does not check the pattern
    again; each distinct pattern of a level is looked up once.

    The walk is level-synchronous (_Walker): the starts go in batches of
    WALK_BATCH, and each step of a batch's whole frontier is one set of
    array operations.
    """
    nodes, succ, mats, starts, max_len = args
    n = len(nodes[0])
    walker = _Walker(succ, mats, n)
    pack = 1 << (7 * np.arange(n, dtype=np.int64))  # 7 bits a row, n <= 7
    pattern_ok = {}                 # packed pattern -> rows_quasi_positive
    reasons = Counter()
    hits = []

    def screen(edges):
        seq = [divmod(e, 2) for e in edges]
        prod = step_product(mats[v][t] for (v, t) in seq)
        verdict = bhm_screen(prod, known_quasi_positive=True)
        reasons[verdict.reason] += 1
        if verdict.qualifies:
            hits.append(cycle_validate(CycleCandidate(
                nodes=tuple(nodes[v] for (v, t) in seq),
                types=tuple(t for (v, t) in seq), product=prod,
                theta1=verdict.theta1.decimal(12),
                theta2=verdict.theta2.decimal(12))))

    starts = sorted(starts)
    for k in range(0, len(starts), WALK_BATCH):
        for rows, edges in walker.walk(starts[k:k + WALK_BATCH], max_len):
            keys, first, inv = np.unique(rows @ pack, return_index=True,
                                         return_inverse=True)
            keys = keys.tolist()
            for key, i in zip(keys, first.tolist()):
                if key not in pattern_ok:
                    pattern_ok[key] = rows_quasi_positive(
                        tuple(rows[i].tolist()))
            ok = np.array([pattern_ok[key] for key in keys])[inv]
            reasons["not_quasi_positive"] += int(np.count_nonzero(~ok))
            for path in edges[ok].tolist():
                screen(path)
    return reasons, hits


class _Walker:
    """The graph as arrays for the level-synchronous walk, and the distance
    masks of the batch being walked.

    Slot b of a batch is its b-th smallest start, bit b % 64 of word
    b // 64.  Node u's words are entries W u .. W u + W - 1 of within,
    W = WALK_BATCH // 64, and a (node, word) pair is one flat index W u + k.
    Bit b is set when a walk of at most the current radius leads from u to
    start b through nodes > start b, or u is start b.  Node N stands for
    the target of an absent edge and its words stay 0.  The node tables
    have W (N + 1) entries or fewer; nothing has N times the batch.
    """

    def __init__(self, succ, mats, n):
        N = len(succ)
        tables = {}                 # zero pattern -> its rows_table's index
        ids = {}                    # matrix -> its pattern's index
        for row in mats:
            for m in row:
                if m and m not in ids:
                    ids[m] = tables.setdefault(row_masks(m), len(tables))
        self.n = n
        # the rows_table of every pattern, stacked flat: edge (v, t) maps a
        # row mask r to tab[offset[v, t] | r]
        self.tab = np.array([rows_table(b) for b in tables], np.uint8).ravel()
        self.offset = np.fromiter((ids.get(m, 0) << n for row in mats
                                   for m in row), np.int32, 2 * N)
        self.offset = self.offset.reshape(N, 2)
        self.succ = np.fromiter((N if u is None else u for row in succ
                                 for u in row), np.int32, 2 * N).reshape(N, 2)
        # pred[u] lists the sources of u's in-edges, padded with -1: one
        # column per pass, each scattering the edges no pass has placed
        edge = np.flatnonzero(self.succ.ravel() < N).astype(np.int32)
        v, u = edge >> 1, self.succ.ravel()[edge]
        self.pred = np.full((N, 0), -1, np.int32)
        while len(u):
            col = np.full((N, 1), -1, np.int32)
            col[u, 0] = v
            placed = col[u, 0] == v
            self.pred = np.hstack([self.pred, col])
            v, u = v[~placed], u[~placed]
        self.words = WALK_BATCH // 64
        self.within = np.zeros((N + 1) * self.words, np.uint64)
        # low[k] has the bits 0 .. k - 1 of a word
        self.low = np.array([(1 << k) - 1 for k in range(65)], np.uint64)

    def _distances(self, starts, max_len):
        """Reverse BFS from every start of the batch at once, to radius
        max_len - 1: return its levels as (flat indices, word masks), with
        bit b of a node's words in the level of its distance to start b,
        and leave within at that radius."""
        W = self.words
        slot = np.arange(len(starts))
        bits = np.uint64(1) << (slot % 64).astype(np.uint64)
        level = (W * starts + slot // 64, bits)
        self.within[level[0]] = level[1]
        levels = [level]
        for _ in range(1, max_len):
            w = self.pred[level[0] // W]
            keep = w >= 0
            m = np.broadcast_to(level[1][:, None], w.shape)[keep]
            w = (W * w + (level[0] % W)[:, None])[keep]
            order = np.argsort(w)           # OR the masks of each index
            w, m = w[order], m[order]
            head = np.flatnonzero(np.diff(w, prepend=-1))
            w, m = w[head], np.bitwise_or.reduceat(m, head)
            # start b < node: slots 64 k .. j - 1 of word k, j starts below
            j = np.searchsorted(starts, w // W)
            m &= ~self.within[w] & self.low[np.clip(j - 64 * (w % W), 0, 64)]
            keep = m != 0
            if not keep.any():
                break
            level = (w[keep], m[keep])
            self.within[level[0]] |= level[1]
            levels.append(level)
        return levels

    def walk(self, starts, max_len):
        """Walk the prenecklaces from every start of one batch (sorted, at
        most WALK_BATCH) level by level; yield, per level, the closing
        Lyndon walks' zero patterns (uint8 row bitmasks, one column per
        row) and their edge codes 2 * v + t."""
        s = v = np.array(starts, np.int32)  # each row's start and node
        levels = self._distances(s, max_len)
        word = np.arange(len(s), dtype=np.int32) // 64  # each row's slot,
        bit = levels[0][1]                  # as its word and bit
        W = self.words
        p = np.ones(len(s), np.intp)        # Duval's period
        rows = np.broadcast_to((1 << np.arange(self.n)).astype(np.uint8),
                               (len(s), self.n))
        path = np.full((len(s), max_len + 1), -1, np.int32)
        try:
            for depth in range(1, max_len + 1):
                # within is at radius max_len - depth
                c = path[np.arange(len(v)), depth - p]  # one period back
                u = self.succ[v]
                e = 2 * v[:, None] + np.arange(2, dtype=np.int32)
                # cut: too long, or no Lyndon word's prefix
                reach = self.within[W * u + word[:, None]] & bit[:, None]
                parent, t = np.nonzero((reach != 0) & (e >= c[:, None]))
                if max_len - depth < len(levels):
                    nodes, masks = levels[max_len - depth]
                    self.within[nodes] &= ~masks
                if not len(parent):
                    return
                rows = self.tab[self.offset[v[parent], t][:, None]
                                | rows[parent]]
                e = e[parent, t]
                v = u[parent, t]
                s = s[parent]
                word = word[parent]
                bit = bit[parent]
                p = np.where(e > c[parent], depth, p[parent])
                path = path[parent]
                path[:, depth] = e
                closed = np.flatnonzero((v == s) & (p == depth))
                if len(closed):
                    yield rows[closed], path[closed, 1:depth + 1]
        finally:
            for nodes, _ in levels:
                self.within[nodes] = 0


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
        prod = step_product(graph.mats[graph.index(entries)][t]
                            for entries, t in zip(nodes, types))
        return nodes, types, prod


@dataclass
class SearchResult:
    n: int
    require_flips: bool
    max_len: int
    node_count: int
    cycles_checked: int
    qualifying: list
    screen_reasons: dict            # bhm_screen reason -> cycle count


def cycle_search(graph: RauzyGraph, max_len: int, jobs: int = 1) -> SearchResult:
    """Enumerate primitive cycles up to max_len (up to rotation), screen every
    product, and validate the survivors with exact induction.  With jobs > 1
    the start nodes, and so the screening and validation, are dealt out in
    one chunk per process of a pool of that many processes, so each worker
    receives the graph once."""
    if not 1 <= max_len <= 20:
        raise ValueError("max_len must be between 1 and 20")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    nodes = list(range(len(graph.nodes)))
    chunks = jobs
    payloads = [(graph.nodes, graph.succ, graph.mats, nodes[i::chunks], max_len)
                for i in range(chunks) if nodes[i::chunks]]
    if jobs > 1:
        from multiprocessing import get_context     # only pools pay its import
        with get_context("spawn").Pool(jobs) as pool:
            parts = pool.map(_census_worker, payloads)
    else:
        parts = [_census_worker(p) for p in payloads]
    reasons = Counter(dict.fromkeys(SCREEN_REASONS, 0))
    for part_reasons, _hits in parts:
        reasons.update(part_reasons)
    qualifying = sorted((c for _reasons, hits in parts for c in hits),
                        key=lambda c: (len(c.types), c.nodes, c.types))
    return SearchResult(n=graph.n, require_flips=graph.require_flips,
                        max_len=max_len, node_count=len(graph.nodes),
                        cycles_checked=sum(reasons.values()),
                        qualifying=qualifying, screen_reasons=dict(reasons))


def cycle_validate(cand: CycleCandidate) -> CycleCandidate:
    """Run the induction on the exact Perron lengths from the candidate's
    first node (rauzy_cycle_detect, on entries and lengths alone) and check
    that it really follows the candidate cycle."""
    cand.validation_reason = _validation_failure(cand) or "ok"
    cand.validated = cand.validation_reason == "ok"
    return cand


def _validation_failure(cand: CycleCandidate):
    try:
        sd = perron_data(cand.product)
    except FlipIetError as exc:
        return f"perron data failed: {exc}"
    try:
        cyc = rauzy_cycle_detect(cand.nodes[0], sd.perron[1], 0, len(cand.types) + 2)
    except DegenerateStep as exc:
        return f"degenerate step: {exc}"
    if cyc is None:
        return "no cycle detected within the bound"
    got_nodes = tuple(st.before for st in cyc.steps)
    got_types = tuple(st.type_bit for st in cyc.steps)
    if got_nodes != cand.nodes or got_types != cand.types:
        return "detected cycle differs"
    # the generic product: a route independent of the column moves that
    # built cand.product
    if reduce(mat_mul, (st.matrix for st in cyc.steps)) != cand.product:
        return "matrix product differs"
    return None
