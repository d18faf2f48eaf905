"""Bounded exploration of signed-permutation induction graphs.

Nodes are irreducible signed permutations (with at least one flip when flips
are required); the two typed edges out of a node are rauzy.typed_move, the
closed-form move that rauzy_step itself takes, so the graph carries exactly
the combinatorics of the induction engine, with the elementary matrix
attached to each edge.  The graph is arrays (RauzyGraph): the move's closed
form runs as array expressions over all nodes at once (Rauzy 1979;
Nogueira 1989), and builds no tuple and runs no induction.

Cycles are primitive closed walks up to rotation: Lyndon words over the edge
alphabet (v, t), enumerated by a walk cut at every prefix that is not a
prenecklace.  A closed walk never leaves the Rauzy class of its start, its
strongly connected component (Rauzy 1979), so the census goes class by
class: the classes come from one Tarjan search per census (Tarjan 1972),
and _class_payload alone lays them out, class after class and each in its
graph order, with the targets renumbered and -1 for every edge that is
absent or leaves its class.  The census stages read that layout, not the
graph.  The walk goes in batches of at most WALK_STARTS starts and
frontier slices of at most WALK_ROWS rows.  A class whose edges' zero
patterns together are reducible holds no quasi-positive cycle, so its
cycles are counted, by the traces of its adjacency matrix's powers, and
not walked.  Every cycle product is screened for the dominant-plus-conjugate
eigenvalue hypotheses; screen survivors can be validated end to end by
stepping the exact Perron lengths along the cycle: each Rauzy step is one
exact subtraction of two lengths, whose sign picks the typed move.

Since a flipped exchange can induce to an orientation-preserving one but
never back, no closed walk through an unflipped node returns to a flipped
one; restricting the flipped graph to flipped nodes therefore loses no
cycles.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import accumulate, permutations

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

# a walk batch has at most WALK_STARTS starts, whose reverse BFS and walk
# grow from them, and the walk extends at most WALK_ROWS rows of a frontier
# at once
WALK_STARTS = 1 << 9
WALK_ROWS = 1 << 12


def _rauzy_classes(targets):
    """The Rauzy classes of the graph with these targets that carry a cycle:
    its strongly connected components but the single nodes without a loop,
    each as an ascending int32 array, by one iterative depth-first search
    over the edges (Tarjan 1972, with Pearce's one rank a node: a node's
    rank falls to the lowest rank it reaches on the stack, and a node whose
    rank stays its own roots a class)."""
    t0, t1 = targets.T.tolist()
    N = len(t0)
    rank = [0] * N              # 0 until found; N + 1 once its class is out
    label = [-1] * N            # its class, if that carries a cycle
    stack, path, resume, owns = [], [], [], []  # each node on path, its
                                                # next edge and own rank
    count = classes = 0
    for root in range(N):
        if rank[root]:
            continue
        count += 1
        v, t, own = root, 0, count
        rank[v] = own
        while True:
            while t < 2:                # v's edges t and on, up to a new
                u = t1[v] if t else t0[v]   # target
                t += 1
                if u >= 0:
                    low = rank[u]
                    if not low:
                        break
                    if low < rank[v]:
                        rank[v] = low
            else:                       # v is done
                if rank[v] < own:
                    stack.append(v)
                else:                   # v roots a class: pop it
                    members = [v]
                    while stack and rank[stack[-1]] >= own:
                        members.append(stack.pop())
                    cyclic = len(members) > 1 or v in (t0[v], t1[v])
                    for u in members:
                        rank[u] = N + 1
                        if cyclic:
                            label[u] = classes
                    classes += cyclic
                if not path:
                    break
                u, v, t, own = v, path.pop(), resume.pop(), owns.pop()
                if rank[u] < rank[v]:
                    rank[v] = rank[u]
                continue
            path.append(v)
            resume.append(t)
            owns.append(own)
            count += 1
            v, t, own = u, 0, count
            rank[v] = own
    label = np.array(label, np.int32)
    nodes = np.argsort(label, kind="stable").astype(np.int32)
    ends = list(accumulate(np.bincount(label[label >= 0],
                                       minlength=classes).tolist()))
    nodes = nodes[len(nodes) - ends[-1]:] if ends else nodes[:0]
    return [nodes[a:b] for a, b in zip([0] + ends, ends)]


def _class_payload(graph, classes, max_len):
    """The census payload of these classes (ascending node arrays, as
    _rauzy_classes gives them), the one layout every census stage reads:
    (perms, targets, mat_ids, sizes, max_len).  Its nodes are the classes'
    nodes laid out class after class, so class c is the run of local nodes
    from its head, the sum of sizes[:c], on.  targets[i, t] is the local
    node that edge (i, t) leads to, or -1 when the edge is absent or leaves
    its class; mat_ids[i, t] is its step matrix's index into
    _edge_matrices."""
    nodes = np.concatenate(classes)
    sizes = [len(c) for c in classes]
    local = np.full(len(graph.perms) + 1, -1, np.int32)  # entry -1: no edge
    local[nodes] = np.arange(len(nodes))
    targets = local[graph.targets[nodes]]
    # an edge stays when its target lies in its class's run head .. end - 1
    end = np.repeat(np.cumsum(sizes), sizes)[:, None]
    targets[(targets < end - np.repeat(sizes, sizes)[:, None])
            | (targets >= end)] = -1
    # (s, None), (s, s), (s, s + 1) are 3 s - 3, 3 s - 2 and 3 s - 1
    s, through = graph.s[nodes], graph.through[nodes]
    mat_ids = np.stack([3 * s - 3, 2 * s - 2 + through], 1)
    return graph.perms[nodes], targets, mat_ids, sizes, max_len


def _edge_matrices(n):
    """Every step matrix at n, in the order (s, None), (s, s), (s, s + 1)
    of (s, through) for s = 1 .. n - 1."""
    return [_step_matrix(n, k, part)
            for k in range(1, n) for part in (None, k, k + 1)]


def _qualifiable(payload):
    """Whether each class of the payload (_class_payload) can hold a
    quasi-positive cycle: whether the zero patterns of its edges' step
    matrices, ORed, are irreducible, that is whether the pattern with the
    identity added is primitive.  A product of matrices that share a block
    of zeros keeps it, so no cycle of a class whose patterns together are
    reducible is quasi-positive."""
    perms, targets, mat_ids, sizes, _max_len = payload
    n = perms.shape[1]
    used = np.bitwise_or.reduce(
        np.where(targets >= 0, 1 << mat_ids.astype(np.int64), 0), axis=1)
    used = np.bitwise_or.reduceat(used, np.cumsum([0] + sizes[:-1]))
    patterns = [row_masks(m) for m in _edge_matrices(n)]
    verdict = {}
    for mask in set(used.tolist()):
        rows = [1 << i for i in range(n)]
        for m, b in enumerate(patterns):
            if mask >> m & 1:
                rows = [r | c for r, c in zip(rows, b)]
        verdict[mask] = rows_quasi_positive(tuple(rows))
    return [verdict[mask] for mask in used.tolist()]


def _mobius(k):
    """The Moebius function of k >= 1."""
    mu, p = 1, 2
    while p * p <= k:
        if k % p == 0:
            k //= p
            if k % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if k > 1 else mu


def _cycle_count(payload):
    """The number of primitive cycles of length at most max_len, up to
    rotation, in the classes of the payload (_class_payload): the sum over
    lengths k of (1/k) times the sum over d | k of mu(k/d) tr(A^d), A
    running over the classes' adjacency matrices with one count per edge.
    A class's nodes rank by local node minus its head.  Classes whose sizes
    round up to one power of 2 go as one stack of matrices, and each power
    costs two row gathers, as a node has at most two edges; A^d has entries
    at most 2^d."""
    _perms, targets, _mat_ids, sizes, max_len = payload
    traces = [0] * (max_len + 1)
    targets = np.vstack([targets, [[-1, -1]]])  # row -1 pads: no edge
    groups = {}                 # (head, size) by size up to a power of 2
    for head, m in zip(accumulate([0] + sizes), sizes):
        groups.setdefault(1 << (m - 1).bit_length(), []).append((head, m))
    for size, group in groups.items():
        head, m = np.array(group).T[:, :, None]
        rank = np.arange(size)
        t = targets[np.where(rank < m, head + rank, -1)]
        succ = np.where(t >= 0, t - head[..., None], size)  # size: no edge
        row = np.arange(len(group))[:, None]
        # A^d, a zero row below it: row i of A^d is the sum of the rows of
        # A^(d - 1) at i's targets
        power = np.zeros((len(group), size + 1, size), np.int64)
        power[:, rank, rank] = 1
        for d in range(1, max_len + 1):
            power[:, :size] = (power[row, succ[..., 0]]
                               + power[row, succ[..., 1]])
            traces[d] += int(np.trace(power[:, :size], axis1=1,
                                      axis2=2).sum())
    return sum(sum(_mobius(k // d) * traces[d]
                   for d in range(1, k + 1) if k % d == 0) // k
               for k in range(1, max_len + 1))


def _walk_batches(sizes):
    """The walk batches of the classes of these sizes, laid out one after
    another: yield (x, slot, k) for the batch of nodes x .. x + len(slot) - 1,
    whose first k are its starts and where slot[u - x] is node u's rank
    among its class's nodes in the batch.  A batch holds whole classes, all
    of whose nodes are starts, while they have at most WALK_STARTS nodes;
    a bigger class goes in windows of WALK_STARTS starts, each batch holding
    a window and the rest of the class above it."""
    ends = list(accumulate(sizes))
    x = i = 0
    while i < len(sizes):
        j = i
        while j < len(sizes) and ends[j] - x <= WALK_STARTS:
            j += 1
        if j > i:
            heads = np.repeat(np.array(ends[i:j]) - sizes[i:j], sizes[i:j])
            yield x, np.arange(x, ends[j - 1]) - heads, ends[j - 1] - x
            x, i = ends[j - 1], j
            continue
        for x in range(x, ends[i], WALK_STARTS):
            yield x, np.arange(ends[i] - x), min(ends[i] - x, WALK_STARTS)
        x, i = ends[i], i + 1


def _census_worker(args):
    """Screen every cycle of the classes of the payload (_class_payload:
    perms, targets, mat_ids, class sizes, max_len); return the
    screen-reason counts and the qualifying cycles as CycleCandidates, each
    validated (cycle_validate) right after its screen.  The screen's verdict
    and the roots that the validation's Perron data reads are those of the
    product's characteristic polynomial, worked out once per polynomial
    (spectral._Spectrum); the validation reads the screen's
    Faddeev-LeVerrier loop too.

    A closed walk never leaves the Rauzy class of its start, so the walk
    reads only the payload's classes, whose nodes it indexes class after
    class; within a class that order is the graph's, so the cycle's
    rotations compare as they do in the graph.  Each cycle passes once, as
    its rotation that is a Lyndon word over the edge alphabet (v, t); it
    starts at the cycle's smallest node.  From each start s the walk visits
    only nodes >= s and extends only prenecklaces, the prefixes of Lyndon
    words, by Duval's period p: an edge below the one p back cuts the
    branch, and a closed walk is Lyndon exactly when p is its length (Duval
    1983; Ruskey, Savage and Wang 1992).  A branch is also cut when its
    depth plus the distance back to s (reverse BFS within nodes >= s of s's
    class) exceeds max_len.  The product's zero pattern rides down the walk
    as row bitmasks, one rows_table lookup per row; only cycles whose
    pattern is quasi-positive get their step matrices, from the walker's
    table of them, their exact product, by column moves
    (rauzy.step_product), and the screen, which does not check the pattern
    again; each distinct pattern of a closing slice is looked up once.  Only
    qualifying cycles get their nodes as tuples.

    The walk goes by batches (_walk_batches), whole classes of at most
    WALK_STARTS nodes together or a window of WALK_STARTS starts of a
    bigger class; each step of a frontier slice of at most WALK_ROWS rows
    is one set of array operations (_Walker).
    """
    perms, _targets, _mat_ids, sizes, max_len = args
    n = perms.shape[1]
    walker = _Walker(args)
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

    for batch in _walk_batches(sizes):
        for rows, edges in walker.walk(*batch, max_len):
            keys, first, inv = np.unique(pack @ rows, return_index=True,
                                         return_inverse=True)
            keys = keys.tolist()
            for key, i in zip(keys, first.tolist()):
                if key not in pattern_ok:
                    pattern_ok[key] = rows_quasi_positive(
                        tuple(rows[:, i].tolist()))
            ok = np.array([pattern_ok[key] for key in keys])[inv]
            reasons["not_quasi_positive"] += int(np.count_nonzero(~ok))
            for path in edges[ok]:
                screen(path)
    return reasons, hits


class _Walker:
    """A payload's arrays for the walk (_class_payload), read as laid out:
    succ is its targets, -1 for an edge that is absent or leaves its class,
    and offset[e] >> n edge e's matrix id; and the distance words of the
    batch being walked.

    A batch (_walk_batches) is the run of nodes x .. x + M - 1 of one
    class, or of whole classes; the walk indexes them u - x, which keeps
    their order within a class, and local node M stands for a target -1 or
    one below the batch.  Its starts are its first k nodes.  Node u's slot,
    slot[u - x], is its rank among its class's nodes in the batch; a start
    owns bit slot % 64 of word slot // 64 of the W words of every node of
    its class, W = 1 + (largest start slot) // 64: local node u's words
    are entries W u .. W u + W - 1 of within, and a (node, word) pair is
    one flat index W u + j.  A bit is set when a walk of at most the
    current radius leads from the node to its start through nodes above
    that start, or the node is that start; node M's words stay 0.  Every
    table but the payload's is sized by the batch: within has W (M + 1)
    entries, W at most WALK_STARTS / 64, and the reverse BFS never leaves
    a class, as the payload has no edge between two.  Edge (v, t) is the
    code e = 2 v + t, which indexes succ and offset flat.
    """

    def __init__(self, payload):
        perms, targets, mat_ids, _sizes, _max_len = payload
        N, n = perms.shape
        self.n = n
        # every step matrix (_edge_matrices) and the rows_tables of their
        # zero patterns, stacked flat: edge e has matrix mats[offset[e] >> n]
        # and maps a row mask r to tab[offset[e] | r]
        self.mats = _edge_matrices(n)
        self.tab = np.array([rows_table(row_masks(m)) for m in self.mats],
                            np.uint8).ravel()
        self.offset = (mat_ids.astype(np.uint16) << n).ravel()
        self.succ = targets
        self.types = np.arange(2, dtype=np.int32)
        # pred[u] lists the sources of u's in-edges, padded with -1: one
        # column per pass, each scattering the edges no pass has placed
        edge = np.flatnonzero(targets.ravel() >= 0).astype(np.int32)
        v, u = edge >> 1, targets.ravel()[edge]
        self.pred = np.full((N, 0), -1, np.int32)
        while len(u):
            col = np.full((N, 1), -1, np.int32)
            col[u, 0] = v
            placed = col[u, 0] == v
            self.pred = np.hstack([self.pred, col])
            v, u = v[~placed], u[~placed]
        # low[k] has the bits 0 .. k - 1 of a word
        self.low = np.array([(1 << k) - 1 for k in range(65)], np.uint64)

    def _distances(self, x, slot, k, max_len):
        """Reverse BFS from the k starts of the batch (x, slot, k) at once,
        to radius max_len - 2, as the walk's first step reads no distance:
        size words and within by the batch, leave within at that radius and
        return its levels as (flat indices, word masks), with a start's bit
        of a node's words in the level of its distance to that start."""
        M = len(slot)
        W = self.words = 1 + int(slot[:k].max()) // 64
        within = self.within = np.zeros((M + 1) * W, np.uint64)
        # the batch's targets, local node M for -1 or one below x, and (W
        # times) them by edge code
        succ = self.succ[x:x + M].ravel() - x
        succ[succ < 0] = M
        self.local, self.local_w = succ, W * succ
        pred = self.pred[x:x + M] - x               # sources below x: < 0
        stamp = np.empty((M + 1) * W, np.int32)
        level = (W * np.arange(k, dtype=np.int32) + slot[:k] // 64,
                 np.uint64(1) << (slot[:k] % 64).astype(np.uint64))
        within[level[0]] = level[1]
        levels = [level]
        for _ in range(1, max_len - 1):
            # the (node, word) entries of the sources of the level's in-edges
            v = level[0] // W
            w = pred.take(v, 0)
            w = (W * w + (level[0] - W * v)[:, None])[w >= 0]
            if not len(w):
                break
            # one entry per flat index: the last one written to its stamp
            rank = np.arange(len(w), dtype=np.int32)
            stamp[w] = rank
            w = w[stamp.take(w) == rank]
            v = w // W
            j = w - W * v
            # a bit new to the node's words is at this distance when one of
            # its targets has it and its start is below the node: of word j,
            # slots 64 j .. b - 1, b the node's slot
            m = (within.take(self.local_w.take(2 * v) + j)
                 | within.take(self.local_w.take(2 * v + 1) + j))
            m &= ~within.take(w)
            m &= self.low.take(np.clip(slot.take(v) - 64 * j, 0, 64))
            keep = np.flatnonzero(m)
            if not len(keep):
                break
            level = (w.take(keep), m.take(keep))
            within[level[0]] |= level[1]
            levels.append(level)
        return levels

    def walk(self, x, slot, k, max_len):
        """Walk the prenecklaces from the k starts of the batch (x, slot, k)
        depth first, in slices of at most WALK_ROWS rows of a frontier;
        yield, per slice, the closing Lyndon walks' zero patterns (uint8
        row bitmasks, one row of the array per row of the pattern, one
        column per walk) and their edge codes 2 v + t, one row per walk.

        A row of the frontier is a column of its arrays: its doubled start
        and node, Duval's period p, its pattern, and its path of edge codes
        after a sentinel, int16 while the batch's codes fit.  The stack
        holds the slices still to walk; within is put back at the radius a
        slice needs when a deeper one has cleared more of it.  The first
        step only keeps the targets not below the start."""
        levels = self._distances(x, slot, k, max_len)
        within = self.within
        M = len(slot)
        succ2, succW = 2 * self.local, self.local_w
        offset = self.offset[2 * x:2 * (x + M)]
        types = self.types[:, None]
        code = np.int16 if 2 * M < 1 << 15 else np.int32
        # each start's word and bit, by doubled start
        word = np.repeat(slot[:k] // 64, 2)
        bit = np.repeat(levels[0][1], 2)
        held = len(levels)                  # levels 0 .. held - 1 in within
        s2 = 2 * np.arange(k, dtype=np.int32)
        stack = [(1, 0, s2, s2, np.ones(k, np.int8),
                  np.repeat((1 << np.arange(self.n, dtype=np.uint8))[:, None],
                            k, 1),
                  np.full((1, k), -1, code))]
        while stack:
            depth, lo, s2, v2, p, rows, path = stack.pop()
            # rows lo .. hi - 1 of a frontier whose paths have depth - 1
            # edges after a sentinel; the rest waits below
            hi = lo + WALK_ROWS
            if hi < len(v2):
                stack.append((depth, hi, s2, v2, p, rows, path))
            row = np.arange(lo, min(hi, len(v2)))
            s2, v2, p = s2[lo:hi], v2[lo:hi], p[lo:hi]
            # within goes to radius max_len - depth
            for nodes, masks in levels[held:max_len - depth + 1]:
                within[nodes] |= masks
            held = max(held, min(len(levels), max_len - depth + 1))
            # the edge one period back
            c = path.take(row + len(path[0]) * (depth - p).astype(np.intp))
            e = v2 + types
            # cut: too long, or no Lyndon word's prefix
            if depth > 1:
                keep = within.take(succW.take(e) + word.take(s2))
                keep = np.logical_and(keep & bit.take(s2), e >= c)
            else:       # the first step, which reads no distance
                keep = succ2.take(e)
                keep = (keep >= s2) & (keep < 2 * M)
            flat = np.flatnonzero(keep)
            e, parent = e.take(flat), flat % len(row)
            if max_len - depth < held:
                nodes, masks = levels[max_len - depth]
                within[nodes] &= ~masks
                held = max_len - depth
            if not len(e):
                continue
            u2, s2 = succ2.take(e), s2.take(parent)
            p = np.where(e > c.take(parent), np.int8(depth),
                         p.take(parent))
            parent += lo
            rows = self.tab.take(offset.take(e) | rows.take(parent, 1))
            path_c = np.empty((depth + 1, len(e)), code)
            path.take(parent, 1, path_c[:depth], "clip")
            path_c[depth] = e
            closed = np.flatnonzero((u2 == s2) & (p == depth))
            if len(closed):
                yield (rows.take(closed, 1),
                       path_c[1:].take(closed, 1).T + np.intp(2 * x))
            if depth < max_len:
                stack.append((depth + 1, 0, s2, u2, p, rows, path_c))


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
    product, and validate the survivors with exact induction.  The walk goes
    class by class over the graph's Rauzy classes that carry a cycle and can
    hold a quasi-positive one (_qualifiable); the cycles of the other
    classes are counted as not quasi-positive (_cycle_count).  With
    jobs > 1 the classes, and so the screening and validation, are dealt out
    in shares of about equal node counts, largest class first, one share per
    process of a pool of at most that many processes, so each worker
    receives only its own classes' arrays."""
    if not 1 <= max_len <= 20:
        raise ValueError("max_len must be between 1 and 20")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    classes = _rauzy_classes(graph.targets)
    # a class that cannot hold a quasi-positive cycle is counted, not walked
    qualifiable = (_qualifiable(_class_payload(graph, classes, max_len))
                   if classes else [])
    counted = [c for c, ok in zip(classes, qualifiable) if not ok]
    classes = [c for c, ok in zip(classes, qualifiable) if ok]
    shares = [[] for _ in range(min(jobs, len(classes)))]
    loads = [0] * len(shares)
    for c in sorted(classes, key=len, reverse=True):
        i = loads.index(min(loads))
        shares[i].append(c)
        loads[i] += len(c)
    # each share's smallest classes first, so that a batch's classes have
    # about the same size and words
    payloads = [_class_payload(graph, sorted(share, key=len), max_len)
                for share in shares]
    if len(payloads) > 1:
        from multiprocessing import get_context     # only pools pay its import
        with get_context("spawn").Pool(len(payloads)) as pool:
            parts = pool.map(_census_worker, payloads)
    else:
        parts = [_census_worker(p) for p in payloads]
    reasons = Counter(dict.fromkeys(SCREEN_REASONS, 0))
    if counted:
        reasons["not_quasi_positive"] += _cycle_count(
            _class_payload(graph, counted, max_len))
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
