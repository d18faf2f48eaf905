"""Bounded exploration of signed-permutation induction graphs.

Nodes are irreducible signed permutations (with at least one flip when flips
are required); the two typed edges out of a node are rauzy.typed_move, the
closed-form move that rauzy_step itself takes, so the graph carries exactly
the combinatorics of the induction engine, with the elementary matrix
attached to each edge.  The graph is arrays (RauzyGraph): the move's closed
form runs as array expressions over all nodes at once (Rauzy 1979;
Nogueira 1989), and builds no tuple and runs no induction.

Cycles are primitive closed walks up to rotation: Lyndon words over the edge
alphabet (v, t), enumerated level by level by a walk cut at every prefix that
is not a prenecklace.  Every cycle product is screened for the
dominant-plus-conjugate eigenvalue hypotheses; screen survivors can be
validated end to end by stepping the exact Perron lengths along the cycle:
each Rauzy step is one exact subtraction of two lengths, whose sign picks
the typed move.

Since a flipped exchange can induce to an orientation-preserving one but
never back, no closed walk through an unflipped node returns to a flipped
one; restricting the flipped graph to flipped nodes therefore loses no
cycles.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import permutations

import numpy as np

from .errors import DegenerateStep, FlipIetError
from .polys import mat_mul, row_masks, rows_quasi_positive, rows_table
from .rauzy import _step_matrix, rauzy_cycle_detect, step_product
from .spectral import SCREEN_REASONS, bhm_screen, perron_data


def signed_perms_enumerate(n: int, require_flips: bool = True):
    """All irreducible signed permutations on n symbols, as the rows of an
    int8 array in the sorted order of their entries tuples."""
    if not (2 <= n <= 7):
        raise ValueError("n must be between 2 and 7")
    base = np.array(list(permutations(range(1, n + 1))), np.int8)
    # reducible: base[:k] is {1..k} for some k < n
    base = base[(np.maximum.accumulate(base[:, :-1], axis=1)
                 > np.arange(1, n)).all(axis=1)]
    masks = np.arange(1 if require_flips else 0, 2 ** n)
    signs = (1 - 2 * (masks[:, None] >> np.arange(n) & 1)).astype(np.int8)
    perms = (base[:, None, :] * signs).reshape(-1, n)
    return perms[np.argsort(_row_keys(perms))]


def _row_keys(rows):
    """Each row of entries in [-7, 7] packed into an int64, four bits an
    entry, the first one highest: the keys sort as the rows' tuples do."""
    n = rows.shape[1]
    keys = np.zeros(len(rows), np.int64)
    for j in range(n):
        keys <<= 4
        keys |= rows[:, j] + n
    return keys


@dataclass(eq=False)
class RauzyGraph:
    """The typed-move graph as arrays.  Node k is row k of perms, the
    irreducible (flipped) signed permutations in the sorted order of their
    entries tuples, whose packed keys (_row_keys) are keys; targets[k, t] is
    the node that edge (k, t) leads to, or -1 when its target leaves the
    node class; the edge's step matrix is rauzy._step_matrix(n, s[k], None)
    for t = 0 and rauzy._step_matrix(n, s[k], through[k]) for t = 1.

    nodes, succ and mats are tuple views of the arrays, each built when
    first read, for perfbench's spectra pool: nodes[k] is row k as a tuple,
    succ[k][t] a target or None, and mats[k][t] a step matrix or None."""
    n: int
    require_flips: bool
    perms: np.ndarray               # (nodes, n) int8 entries
    keys: np.ndarray                # (nodes,) int64, ascending
    targets: np.ndarray             # (nodes, 2) int32
    s: np.ndarray                   # (nodes,) int8, pi^-1(n)
    through: np.ndarray             # (nodes,) int8, type 1's through part

    @cached_property
    def nodes(self):
        return tuple(map(tuple, self.perms.tolist()))

    @cached_property
    def succ(self):
        return tuple((None if u0 < 0 else u0, None if u1 < 0 else u1)
                     for u0, u1 in self.targets.tolist())

    @cached_property
    def mats(self):
        n = self.n
        return tuple((None if u0 < 0 else _step_matrix(n, s, None),
                      None if u1 < 0 else _step_matrix(n, s, through))
                     for (u0, u1), s, through in zip(self.targets.tolist(),
                                                     self.s.tolist(),
                                                     self.through.tolist()))

    def index(self, entries):
        """The node with these entries, by a binary search of keys;
        KeyError when there is none."""
        row = np.array(entries, np.int64).reshape(1, -1)
        if row.shape[1] == self.n:
            k = int(self.keys.searchsorted(_row_keys(row)[0]))
            if k < len(self.keys) and (self.perms[k] == row[0]).all():
                return k
        raise KeyError(tuple(entries))


def rauzy_graph_build(n: int, require_flips: bool = True) -> RauzyGraph:
    """Full typed-move graph over the irreducible (flipped) permutations:
    both typed moves of every node at once, rauzy.typed_move's closed form
    as array expressions, and each target's rank by a binary search of the
    nodes' packed keys."""
    perms = signed_perms_enumerate(n, require_flips)
    keys = _row_keys(perms)
    rows = np.arange(len(perms))
    s = np.argmax(np.abs(perms) == n, axis=1)   # pi^-1(n) - 1, below n - 1
    e_n, e_s = perms[:, n - 1], perms[rows, s]
    m = np.abs(e_n)
    same = (e_s > 0) == (e_n > 0)
    # type 0: n and s share slots m and m + 1, every other slot above m
    # moves up by one
    after0 = perms + (perms > m[:, None]) - (perms < -m[:, None])
    after0[:, n - 1] = np.where(e_n > 0, m, -m - 1)
    slot = np.where(e_n > 0, m + 1, m)
    after0[rows, s] = np.where(same, slot, -slot)
    # type 1: piece n leaves, and s splits into a kept and a through part
    after1 = perms.copy()
    for j in range(2, n):
        after1[:, j] = np.where(j > s + 1, perms[:, j - 1], perms[:, j])
    kept = np.where(e_s > 0, n, -n)
    through = np.where(same, m, -m)
    after1[rows, s] = np.where(e_s > 0, kept, through)
    after1[rows, s + 1] = np.where(e_s > 0, through, kept)
    targets = np.empty((len(perms), 2), np.int32)
    for t, after in enumerate((after0, after1)):
        key = _row_keys(after)
        ix = np.searchsorted(keys, key).clip(max=len(keys) - 1)
        targets[:, t] = np.where(keys[ix] == key, ix, -1)
    s = (s + 1).astype(np.int8)
    return RauzyGraph(n=n, require_flips=require_flips, perms=perms,
                      keys=keys, targets=targets, s=s,
                      through=(s + (e_s > 0)).astype(np.int8))


# ---------------------------------------------------------------------------
# closed-walk enumeration

# starts walked side by side: one bit each of four uint64 words of
# distance masks per node
WALK_BATCH = 256


def _census_worker(args):
    """Screen every cycle whose smallest node is one of starts, on the
    graph's arrays (perms, targets, s, through, starts, max_len); return the
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
    pattern is quasi-positive get their step matrices, from the walker's
    table of them, their exact product, by column moves
    (rauzy.step_product), and the screen, which does not check the pattern again; each distinct pattern
    of a level is looked up once.  Only qualifying cycles get their nodes
    as tuples.

    The walk is level-synchronous (_Walker): the starts go in batches of
    WALK_BATCH, and each step of a batch's whole frontier is one set of
    array operations.
    """
    perms, targets, s, through, starts, max_len = args
    n = perms.shape[1]
    walker = _Walker(targets, s, through, n)
    pack = 1 << (7 * np.arange(n, dtype=np.int64))  # 7 bits a row, n <= 7
    pattern_ok = {}                 # packed pattern -> rows_quasi_positive
    reasons = Counter()
    hits = []

    def screen(edges):
        prod = step_product(map(walker.mats.__getitem__,
                                (walker.offset[edges] >> n).tolist()))
        verdict = bhm_screen(prod, known_quasi_positive=True)
        reasons[verdict.reason] += 1
        if verdict.qualifies:
            hits.append(cycle_validate(CycleCandidate(
                nodes=tuple(map(tuple, perms[edges >> 1].tolist())),
                types=tuple((edges & 1).tolist()), product=prod,
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
            for path in edges[ok]:
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
    have W (N + 1) entries or fewer; nothing has N times the batch.  Edge
    (v, t) is the code e = 2 v + t, which indexes succ and offset flat.
    """

    def __init__(self, targets, s, through, n):
        N = len(targets)
        self.n = n
        # every step matrix, in the order (s, None), (s, s), (s, s + 1) of
        # (s, through) for s = 1 .. n - 1, and the rows_tables of their zero
        # patterns, stacked flat: edge e has matrix mats[offset[e] >> n] and
        # maps a row mask r to tab[offset[e] | r]
        self.mats = [_step_matrix(n, k, part)
                     for k in range(1, n) for part in (None, k, k + 1)]
        self.tab = np.array([rows_table(row_masks(m)) for m in self.mats],
                            np.uint8).ravel()
        code = 3 * (s.astype(np.int32) - 1)
        self.offset = (np.stack([code, code + 1 + (through - s)], axis=1)
                       << n).ravel()
        self.succ = np.where(targets < 0, N, targets).astype(np.int32)
        self.types = np.arange(2, dtype=np.int32)
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
            src, col = (w >= 0).nonzero()
            if not len(src):
                break
            w = W * w[src, col] + level[0][src] % W
            order = w.argsort()             # OR the masks of each index
            w, m = w[order], level[1][src[order]]
            head = np.empty(len(w), bool)   # the first of each run of w
            head[0] = True
            np.not_equal(w[1:], w[:-1], out=head[1:])
            head = head.nonzero()[0]
            w, m = w[head], np.bitwise_or.reduceat(m, head)
            # start b < node: slots 64 k .. j - 1 of word k, j starts below
            j = starts.searchsorted(w // W) - 64 * (w % W)
            m &= ~self.within[w] & self.low[np.minimum(np.maximum(j, 0), 64)]
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
                e = 2 * v[:, None] + self.types
                # cut: too long, or no Lyndon word's prefix
                reach = self.within[W * self.succ[v] + word[:, None]]
                keep = np.logical_and(reach & bit[:, None], e >= c[:, None])
                parent = keep.ravel().nonzero()[0]
                if max_len - depth < len(levels):
                    nodes, masks = levels[max_len - depth]
                    self.within[nodes] &= ~masks
                if not len(parent):
                    return
                e = e.ravel()[parent]
                parent >>= 1
                rows = self.tab[self.offset[e][:, None] | rows[parent]]
                v = self.succ.ravel()[e]
                s = s[parent]
                word = word[parent]
                bit = bit[parent]
                p = np.where(e > c[parent], depth, p[parent])
                path = path[parent]
                path[:, depth] = e
                closed = ((v == s) & (p == depth)).nonzero()[0]
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
        ks = [graph.index(entries) for entries in nodes]
        if (graph.targets[ks, list(types)] < 0).any():
            raise KeyError("the cycle walks an edge absent from the graph")
        s, through = graph.s[ks].tolist(), graph.through[ks].tolist()
        prod = step_product(
            _step_matrix(graph.n, s[i], through[i] if t else None)
            for i, t in enumerate(types))
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
    nodes = list(range(len(graph.perms)))
    chunks = jobs
    payloads = [(graph.perms, graph.targets, graph.s, graph.through,
                 nodes[i::chunks], max_len)
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
                        max_len=max_len, node_count=len(graph.perms),
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
