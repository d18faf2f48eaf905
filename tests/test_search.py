import json
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import cache, reduce
from itertools import permutations

import numpy as np
import pytest

import flipiet.search
from conftest import N7_START, N7_TYPES, n7_product
from flipiet.cli import main
from flipiet.errors import DegenerateStep
from flipiet.iet import IetSpec
from flipiet.polys import (mat_det, mat_identity, mat_mul, quasi_positive,
                           row_masks, rows_mul, rows_quasi_positive,
                           rows_table)
from flipiet.quintic import (MATRIX, REFERENCE_STEPS, SIGNED_PERMUTATION,
                             bundled_iet)
from flipiet.rauzy import (_step_matrix, cycle_matrix, length_step,
                           step_product, typed_move)
from flipiet.search import (WALK_BATCH, CycleCandidate, _census_worker,
                            cycle_search, cycle_validate, rauzy_graph_build,
                            signed_perms_enumerate)
from flipiet.spectral import SCREEN_REASONS, bhm_screen, perron_data
from test_rauzy import (assert_detect_matches_steps, induced_step,
                        lengths_of_type)


def test_enumerate_n2():
    assert signed_perms_enumerate(2, True).tolist() == [[-2, -1], [-2, 1],
                                                        [2, -1]]
    assert [2, 1] in signed_perms_enumerate(2, False).tolist()
    assert [1, 2] not in signed_perms_enumerate(2, False).tolist()  # reducible


def test_enumerate_contains_bundled_node():
    assert list(SIGNED_PERMUTATION) in signed_perms_enumerate(5, True).tolist()


# ---------------------------------------------------------------------------
# reference graph: the tuples, one rauzy.typed_move call per edge

def _reference_nodes(n, require_flips):
    out = []
    for base in permutations(range(1, n + 1)):
        if any(max(base[:k]) == k for k in range(1, n)):
            continue                    # reducible: base[:k] is {1..k}
        for mask in range(1 if require_flips else 0, 2 ** n):
            out.append(tuple((-base[i] if (mask >> i) & 1 else base[i])
                             for i in range(n)))
    return sorted(out)


@cache
def _reference_graph(n, require_flips):
    """(nodes, succ, mats, absent) as tuples: the first three as
    RauzyGraph's views read, and absent as (node, type, reason) per edge
    whose target leaves the node class."""
    nodes = tuple(_reference_nodes(n, require_flips))
    ix = {node: k for k, node in enumerate(nodes)}
    succ, mats, absent = [], [], []
    for node in nodes:
        row_s = [None, None]
        row_m = [None, None]
        for t in (0, 1):
            target, m = typed_move(node, t)
            if target not in ix:
                absent.append((node, t, "target outside node class"))
            else:
                row_s[t] = ix[target]
                row_m[t] = m
        succ.append(tuple(row_s))
        mats.append(tuple(row_m))
    return nodes, tuple(succ), tuple(mats), tuple(absent)


@pytest.mark.parametrize("n, require_flips",
                         [(n, f) for n in range(2, 7) for f in (True, False)])
def test_graph_matches_the_tuple_reference(n, require_flips):
    # a fresh graph, so that each view is built from the arrays here
    g = rauzy_graph_build(n, require_flips)
    nodes, succ, mats, absent = _reference_graph(n, require_flips)
    assert g.perms.dtype == np.int8 and g.targets.dtype == np.int32
    assert g.nodes == nodes
    assert g.succ == succ
    assert g.mats == mats
    v, t = np.nonzero(g.targets < 0)
    assert tuple((nodes[k], u, "target outside node class")
                 for k, u in zip(v.tolist(), t.tolist())) == absent
    for k in random.Random(n).sample(range(len(nodes)), min(50, len(nodes))):
        assert g.index(nodes[k]) == k
        assert g.index(list(nodes[k])) == k


@pytest.mark.parametrize("n, require_flips",
                         [(n, f) for n in range(2, 7) for f in (True, False)])
def test_cli_search_counts_the_reference_absent_edges(n, require_flips,
                                                      capsys):
    # the report counts the absent edges off targets < 0; the tuple
    # reference lists them one typed move at a time
    absent = _reference_graph(n, require_flips)[3]
    argv = ["search", "--n", str(n), "--max-len", "1"]
    assert main(argv + ([] if require_flips else ["--no-flips"])) == 0
    assert json.loads(capsys.readouterr().out)["absent_edges"] == (
        {"target outside node class": len(absent)} if absent else {})


def _in_class(entries, require_flips):
    """Whether signed permutation entries are a node of the graph."""
    base = [abs(e) for e in entries]
    return (not any(max(base[:k]) == k for k in range(1, len(base)))
            and (min(entries) < 0 or not require_flips))


@pytest.mark.parametrize("require_flips", [True, False])
def test_n7_graph_matches_typed_move_on_a_sample(require_flips):
    # the node count is the irreducible permutations' times the sign masks;
    # the rows are strictly sorted; and every edge of 5,000 seeded nodes is
    # the typed move's, present exactly when its target is in the class
    g = rauzy_graph_build(7, require_flips)
    irreducible = sum(1 for base in permutations(range(1, 8))
                      if not any(max(base[:k]) == k for k in range(1, 7)))
    assert len(g.perms) == irreducible * (127 if require_flips else 128)
    assert (np.diff(flipiet.search._row_keys(g.perms)) > 0).all()
    for k in random.Random(7).sample(range(len(g.perms)), 5000):
        node = tuple(g.perms[k].tolist())
        assert _in_class(node, require_flips)
        for t in (0, 1):
            target, m = typed_move(node, t)
            u = int(g.targets[k, t])
            if not _in_class(target, require_flips):
                assert u == -1
                continue
            assert tuple(g.perms[u].tolist()) == target
            through = int(g.through[k]) if t else None
            assert _step_matrix(7, int(g.s[k]), through) == m


def test_n2_graph_closure(rauzy_graph):
    g = rauzy_graph(2, True)
    assert g.nodes == ((-2, -1), (-2, 1), (2, -1))
    # each typed edge lands back in the node set (here: two self loops)
    edges = [(g.nodes[i], t, g.nodes[g.succ[i][t]])
             for i in range(len(g.nodes)) for t in (0, 1)
             if g.succ[i][t] is not None]
    assert ((-2, 1), 0, (-2, 1)) in edges
    assert ((2, -1), 1, (2, -1)) in edges


def test_empty_graph(rauzy_graph):
    # a bound that admits no cycle, or no worker, is an error, not an empty
    # census
    g = rauzy_graph(2, True)
    for max_len, jobs in ((0, 1), (-1, 1), (21, 1), (1, 0), (1, -2)):
        with pytest.raises(ValueError):
            cycle_search(g, max_len, jobs=jobs)
    assert cycle_search(g, 1).cycles_checked == 2


def test_graph_contains_reference_path(rauzy_graph):
    g = rauzy_graph(5, True)
    cur = g.index(SIGNED_PERMUTATION)
    for k in range(14):
        sp, t = REFERENCE_STEPS[k]
        assert g.nodes[cur] == sp
        nxt = g.succ[cur][t]
        assert nxt is not None
        cur = nxt
    assert g.nodes[cur] == SIGNED_PERMUTATION


@pytest.mark.parametrize("n, absent", [(2, 4), (3, 16), (4, 96), (5, 768)])
def test_graph_absent_edges_have_one_reason(n, absent, rauzy_graph):
    # an irreducible node never sends its last piece to the last slot, the
    # loser's length 1/2 ties no other length, and a one-cut step keeps n
    # pieces: an edge is absent only when it leaves the node class
    for require_flips in (True, False):
        g = rauzy_graph(n, require_flips)
        assert np.count_nonzero(g.targets < 0) == absent
        assert (g.targets >= -1).all()


def test_edges_match_induction_on_random_lengths(rauzy_graph):
    # the graph is built on integer lengths; every edge of it, present or
    # absent, must agree with the first-return induction on random rational
    # lengths
    g = rauzy_graph(4, True)
    rng = random.Random(31)
    for ix, sp in enumerate(g.nodes):
        for t in (0, 1):
            for _ in range(3):
                E = IetSpec(lengths_of_type(sp, t, rng), sp)
                t_ref, after, m, _sub = induced_step(E)
                assert t_ref == t
                if g.succ[ix][t] is None:
                    assert g.targets[ix, t] == -1
                    assert after not in g.nodes
                    continue
                assert after == g.nodes[g.succ[ix][t]]
                assert m == g.mats[ix][t]


def test_cycle_products_unimodular(rauzy_graph):
    g = rauzy_graph(4, True)
    r = cycle_search(g, 6)
    # no qualifiers expected this small; spot-check dets via a fresh walk
    from flipiet.polys import mat_identity, mat_mul
    rng = random.Random(5)
    for _ in range(50):
        ix = rng.randrange(len(g.nodes))
        prod = mat_identity(4)
        cur = ix
        ok = True
        for _ in range(rng.randint(1, 6)):
            t = rng.choice([0, 1])
            if g.succ[cur][t] is None:
                ok = False
                break
            prod = mat_mul(prod, g.mats[cur][t])
            cur = g.succ[cur][t]
        if ok:
            assert abs(mat_det(prod)) == 1


def test_validate_bogus_candidate(rauzy_graph):
    # the reference path with one type flipped somewhere is not realizable
    from flipiet.polys import mat_identity, mat_mul
    g = rauzy_graph(5, True)
    tested = 0
    for flip_at in range(14):
        nodes = []
        types = []
        cur = g.index(SIGNED_PERMUTATION)
        dead = False
        for k in range(14):
            _sp, t = REFERENCE_STEPS[k]
            t2 = (1 - t) if k == flip_at else t
            nodes.append(g.nodes[cur])
            types.append(t2)
            nxt = g.succ[cur][t2]
            if nxt is None:
                dead = True
                break
            cur = nxt
        if dead:
            continue
        prod = mat_identity(5)
        cur = g.index(SIGNED_PERMUTATION)
        for t in types:
            prod = mat_mul(prod, g.mats[cur][t])
            cur = g.succ[cur][t]
        cand = CycleCandidate(nodes=tuple(nodes), types=tuple(types),
                              product=prod, theta1="", theta2="")
        cycle_validate(cand)
        assert not cand.validated
        tested += 1
    assert tested >= 3


@pytest.fixture(scope="module")
def qualifiers_5_14(rauzy_graph):
    """The 24 qualifying cycles of the n=5 census at max_len 14."""
    qualifying = cycle_search(rauzy_graph(5, True), 14).qualifying
    assert len(qualifying) == 24
    return qualifying


def test_detect_matches_step_chain_on_the_census_qualifiers(qualifiers_5_14):
    # each qualifier's Perron exchange: the lengths-only detection finds
    # the step chain's cycle, which is the qualifier itself
    for c in qualifiers_5_14:
        alpha = perron_data(c.product).perron[1]
        E = IetSpec(alpha, c.nodes[0])
        cyc = assert_detect_matches_steps(E, len(c.types) + 2)
        assert tuple(st.type_bit for st in cyc.steps) == c.types
        assert cycle_matrix(cyc.steps) == c.product


def test_validation_lays_out_no_exchange(qualifiers_5_14, monkeypatch):
    # validation steps the Perron lengths on entries and lengths alone: no
    # IetSpec is built, so no positivity check or breakpoint layout runs
    built = []
    real = IetSpec.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(IetSpec, "__init__", counted)
    for c in qualifiers_5_14:
        assert cycle_validate(c).validated
    assert built == []


def test_rotate_to_matches_mat_mul(qualifiers_5_14, rauzy_graph):
    g = rauzy_graph(5, True)
    for c in qualifiers_5_14:
        for node in c.nodes:
            nodes, types, prod = c.rotate_to(node, g)
            assert nodes[0] == node
            assert prod == reduce(mat_mul, [g.mats[g.index(v)][t]
                                            for v, t in zip(nodes, types)])


def test_rotate_to_matches_the_typed_moves_on_the_n7_cycle(rauzy_graph):
    # at every node of the n = 7 cycle of length 11, the product of the
    # typed moves' own matrices along the rotated cycle
    g = rauzy_graph(7, True)
    nodes, entries = [], N7_START
    for t in N7_TYPES:
        nodes.append(entries)
        entries = typed_move(entries, t)[0]
    cand = CycleCandidate(nodes=tuple(nodes), types=N7_TYPES,
                          product=n7_product(), theta1="", theta2="")
    for node in nodes:
        got_nodes, types, prod = cand.rotate_to(node, g)
        assert got_nodes[0] == node
        assert prod == reduce(mat_mul, [typed_move(v, t)[1]
                                        for v, t in zip(got_nodes, types)])


def test_graph_readers_raise_the_errors_the_census_check_catches(rauzy_graph):
    # an unknown node and a missing edge raise KeyError (or TypeError),
    # which perfbench's census check reads as "no such rotation"
    g = rauzy_graph(5, True)
    assert g.index(list(SIGNED_PERMUTATION)) == g.index(SIGNED_PERMUTATION)
    for entries in ((5, 4, 3, 2, 1), (1, 2, 3, 4, 5), (-5, -3, 2, 1),
                    (-5, -3, 2, 1, -4, 6), (-5, -3, 2, 1, 9),
                    (-9, -3, 2, 1, -4)):
        with pytest.raises(KeyError):
            g.index(entries)
    unknown = CycleCandidate(nodes=((5, 4, 3, 2, 1),), types=(0,),
                             product=(), theta1="", theta2="")
    with pytest.raises((KeyError, TypeError)):
        unknown.rotate_to((5, 4, 3, 2, 1), g)
    k, t = np.argwhere(g.targets < 0)[0].tolist()
    node = tuple(g.perms[k].tolist())
    missing = CycleCandidate(nodes=(node,), types=(t,), product=(),
                             theta1="", theta2="")
    with pytest.raises((KeyError, TypeError)):
        missing.rotate_to(node, g)


def _length_step_reference(entries, lengths):
    """rauzy.length_step with a comparison for equality, one for order and
    a subtraction for the new length."""
    n = len(entries)
    s = (entries.index(n) if n in entries else entries.index(-n)) + 1
    if s == n:
        raise DegenerateStep("last piece is sent to the last slot")
    l_n, l_s = lengths[n - 1], lengths[s - 1]
    if l_n == l_s:
        raise DegenerateStep("saddle connection: competing lengths are equal")
    type_bit = 0 if l_n > l_s else 1
    after, m = typed_move(entries, type_bit)
    if type_bit == 0:
        new = lengths[:n - 1] + (l_n - l_s,)
    else:
        pair = (l_s - l_n, l_n) if entries[s - 1] > 0 else (l_n, l_s - l_n)
        new = lengths[:s - 1] + pair + lengths[s:n - 1]
    return type_bit, after, m, new


def test_length_step_matches_the_reference(qualifiers_5_14):
    # the 24 census qualifiers' Perron lengths, and the bundled exchange's,
    # each stepped once around its cycle and once more; then the saddle
    # connection and the last piece sent to the last slot
    starts = [(c.nodes[0], perron_data(c.product).perron[1],
               len(c.types)) for c in qualifiers_5_14]
    E = bundled_iet()
    starts.append((E.sp, E.lengths, 14))
    for entries, lengths, period in starts:
        for _ in range(period + 1):
            got = length_step(entries, lengths)
            assert got == _length_step_reference(entries, lengths)
            _type, entries, _m, lengths = got
    half = (Fraction(1, 2), Fraction(1, 2))
    for entries in ((-2, 1), (-1, 2)):
        messages = []
        for step in (length_step, _length_step_reference):
            with pytest.raises(DegenerateStep) as info:
                step(entries, half)
            messages.append(str(info.value))
        assert messages[0] == messages[1]


_REFERENCE_NODES = tuple(sp for sp, _t in REFERENCE_STEPS[:-1])
_REFERENCE_TYPES = tuple(t for _sp, t in REFERENCE_STEPS[:-1])


@pytest.mark.parametrize("mutation, reason", [
    ({}, "ok"),
    # a later type flipped: the lengths still follow the bundled cycle
    ({"types": _REFERENCE_TYPES[:5] + (1 - _REFERENCE_TYPES[5],)
      + _REFERENCE_TYPES[6:]}, "detected cycle differs"),
    # five steps: the bound of seven stops short of the fourteen-step cycle
    ({"nodes": _REFERENCE_NODES[:5], "types": _REFERENCE_TYPES[:5]},
     "no cycle detected within the bound"),
    # the square has the same Perron vector, so the same cycle is detected
    ({"product": mat_mul(MATRIX, MATRIX)}, "matrix product differs"),
    ({"product": mat_identity(5)},
     "perron data failed: no power of the matrix is positive"),
    # Perron lengths (1/2, 1/2): the first step ties
    ({"nodes": ((-2, 1),), "types": (0,), "product": ((1, 1), (1, 1))},
     "degenerate step: saddle connection: competing lengths are equal")])
def test_validation_reasons_of_mutated_candidates(mutation, reason):
    fields = dict(nodes=_REFERENCE_NODES, types=_REFERENCE_TYPES,
                  product=MATRIX, theta1="", theta2="")
    fields.update(mutation)
    cand = cycle_validate(CycleCandidate(**fields))
    assert cand.validation_reason == reason
    assert cand.validated == (reason == "ok")


def test_validate_reference_candidate(rauzy_graph):
    g = rauzy_graph(5, True)
    from flipiet.polys import mat_identity, mat_mul
    nodes, types = [], []
    cur = g.index(SIGNED_PERMUTATION)
    prod = mat_identity(5)
    for k in range(14):
        _sp, t = REFERENCE_STEPS[k]
        nodes.append(g.nodes[cur])
        types.append(t)
        prod = mat_mul(prod, g.mats[cur][t])
        cur = g.succ[cur][t]
    assert prod == MATRIX
    cand = CycleCandidate(nodes=tuple(nodes), types=tuple(types), product=prod,
                          theta1="", theta2="")
    cycle_validate(cand)
    assert cand.validated and cand.validation_reason == "ok"


def test_oriented_smoke_n2(rauzy_graph):
    g = rauzy_graph(2, require_flips=False)
    assert len(g.nodes) == 4
    r = cycle_search(g, 6)
    assert r.cycles_checked > 0
    assert r.qualifying == []        # the second root is 1/theta1 < 1


def test_search_results_independent_of_worker_count(rauzy_graph):
    g = rauzy_graph(4, True)
    r1 = cycle_search(g, 10, jobs=1)
    r2 = cycle_search(g, 10, jobs=3)
    assert r1.cycles_checked == r2.cycles_checked
    assert r1.screen_reasons == r2.screen_reasons
    key = lambda c: (c.nodes, c.types, c.product, c.theta1, c.theta2,
                     c.validation_reason)
    assert [key(c) for c in r1.qualifying] == [key(c) for c in r2.qualifying]


def test_census_on_two_workers_matches_one(rauzy_graph):
    # n=5 at max_len 12: the starts dealt out to two spawned workers
    g = rauzy_graph(5, True)
    r1 = cycle_search(g, 12, jobs=1)
    r2 = cycle_search(g, 12, jobs=2)
    assert r1 == r2
    assert r1.cycles_checked > 0


# ---------------------------------------------------------------------------
# reference walk: the census worker as one recursive call per prenecklace
# extension, with a dict of reverse-BFS distances per start

def _reference_census_worker(args):
    nodes, succ, mats, starts, max_len = args
    n = len(nodes[0])
    table = cache(rows_table)
    patterns = [[m and table(row_masks(m)) for m in row] for row in mats]
    pred = [[] for _ in succ]
    for v, row in enumerate(succ):
        for u in row:
            if u is not None:
                pred[u].append(v)
    pattern_ok = {}
    reasons = Counter()
    hits = []
    path = [-1]                     # edge codes 2 * v + t after a sentinel

    def screen(rows):
        if rows not in pattern_ok:
            pattern_ok[rows] = rows_quasi_positive(rows)
        if not pattern_ok[rows]:
            reasons["not_quasi_positive"] += 1
            return
        seq = [divmod(e, 2) for e in path[1:]]
        prod = mat_identity(n)
        for (v, t) in seq:
            prod = mat_mul(prod, mats[v][t])
        verdict = bhm_screen(prod)
        reasons[verdict.reason] += 1
        if verdict.qualifies:
            hits.append(cycle_validate(CycleCandidate(
                nodes=tuple(nodes[v] for (v, t) in seq),
                types=tuple(t for (v, t) in seq), product=prod,
                theta1=verdict.theta1.decimal(12),
                theta2=verdict.theta2.decimal(12))))

    def extend(s, dist, v, depth, rows, p):
        # path[1:depth] is a prenecklace of period p ending at v
        c = path[depth - p]         # the edge one period back
        for t in (0, 1):
            u = succ[v][t]
            du = dist.get(u)
            e = 2 * v + t
            if du is None or depth + du > max_len or e < c:
                continue            # too long, or no Lyndon word's prefix
            q = depth if e > c else p
            tab = patterns[v][t]
            nxt = tuple([tab[r] for r in rows])
            path.append(e)
            if u == s and q == depth:
                screen(nxt)
            extend(s, dist, u, depth + 1, nxt, q)
            path.pop()

    for s in starts:
        dist = {s: 0}
        frontier = [s]
        for d in range(1, max_len):
            frontier = {u for v in frontier for u in pred[v]
                        if u > s and u not in dist}
            dist.update(dict.fromkeys(frontier, d))
        extend(s, dist, s, 1, tuple(1 << i for i in range(n)), 1)
    return reasons, hits


def _candidate_key(c):
    return (len(c.types), c.nodes, c.types, c.product, c.theta1, c.theta2,
            c.validated, c.validation_reason)


def _assert_worker_matches_reference(g, starts, max_len):
    reasons, hits = _census_worker((g.perms, g.targets, g.s, g.through,
                                    starts, max_len))
    ref_reasons, ref_hits = _reference_census_worker(
        (g.nodes, g.succ, g.mats, starts, max_len))
    assert reasons == ref_reasons
    assert (sorted(map(_candidate_key, hits))
            == sorted(map(_candidate_key, ref_hits)))
    return reasons, hits


@pytest.mark.parametrize("n, require_flips, max_len",
                         [(n, f, 10) for n in (2, 3, 4, 5)
                          for f in (True, False)]
                         + [(5, True, 14), (6, True, 10)])
def test_census_worker_matches_reference_walk(n, require_flips, max_len,
                                              rauzy_graph):
    g = rauzy_graph(n, require_flips)
    reasons, hits = _assert_worker_matches_reference(
        g, list(range(len(g.nodes))), max_len)
    assert sum(reasons.values()) > 0
    if (n, max_len) == (5, 14):
        assert sum(reasons.values()) == 35964 and len(hits) == 24


@pytest.mark.parametrize("pick", ["bundled node", "every third",
                                  "batch and a half, reversed"])
def test_census_worker_matches_reference_on_start_lists(pick, rauzy_graph):
    # one start (whose cycles include the bundled one), the start list of
    # the second of three workers, and a list whose length is no multiple
    # of the batch, given in decreasing order
    g = rauzy_graph(5, True)
    starts = {"bundled node": [g.index(SIGNED_PERMUTATION)],
              "every third": list(range(len(g.nodes)))[1::3],
              "batch and a half, reversed":
                  list(range(3 * WALK_BATCH // 2 + 5))[::-1]}[pick]
    max_len = 14 if pick == "bundled node" else 12
    _assert_worker_matches_reference(g, starts, max_len)


def _reference_walker_tables(succ, mats, n):
    """The walker's successor, offset, stacked row table and predecessor
    arrays, built from the tuple graph: one table per distinct zero
    pattern, in the order the edges first show it."""
    N = len(succ)
    tables = {}                 # zero pattern -> its rows_table's index
    ids = {}                    # matrix -> its pattern's index
    for row in mats:
        for m in row:
            if m and m not in ids:
                ids[m] = tables.setdefault(row_masks(m), len(tables))
    tab = np.array([rows_table(b) for b in tables], np.uint8).ravel()
    offset = np.array([[ids.get(m, 0) << n for m in row] for row in mats],
                      np.int32)
    succ = np.array([[N if u is None else u for u in row] for row in succ],
                    np.int32)
    edge = np.flatnonzero(succ.ravel() < N).astype(np.int32)
    v, u = edge >> 1, succ.ravel()[edge]
    pred = np.full((N, 0), -1, np.int32)
    while len(u):
        col = np.full((N, 1), -1, np.int32)
        col[u, 0] = v
        placed = col[u, 0] == v
        pred = np.hstack([pred, col])
        v, u = v[~placed], u[~placed]
    return succ, offset, tab, pred


@pytest.mark.parametrize("n, require_flips",
                         [(n, f) for n in range(2, 7) for f in (True, False)])
def test_walker_tables_match_the_tuple_reference(n, require_flips,
                                                 rauzy_graph):
    # the same successors and in-edge sources, and every present edge maps
    # each row mask as its matrix's rows_table does
    g = rauzy_graph(n, require_flips)
    nodes, succ, mats, _absent = _reference_graph(n, require_flips)
    walker = flipiet.search._Walker(g.targets, g.s, g.through, n)
    ref_succ, ref_offset, ref_tab, ref_pred = _reference_walker_tables(
        succ, mats, n)
    assert walker.succ.dtype == np.int32
    assert (walker.succ == ref_succ).all()
    assert walker.pred.shape == ref_pred.shape
    assert (walker.pred == ref_pred).all()
    present = ref_succ < len(nodes)
    masks = np.arange(1 << n)
    assert (walker.tab[walker.offset[present.ravel()][:, None] | masks]
            == ref_tab[ref_offset[present][:, None] | masks]).all()


@pytest.mark.parametrize("max_len", [4, 10])
def test_walker_distance_levels_match_reverse_bfs(max_len, rauzy_graph):
    # one batch of seeded starts: bit b of a node's words sits in the level
    # of its distance to start b through nodes above it, as the reference
    # walk's reverse BFS finds it, and in no other level
    g = rauzy_graph(5, True)
    walker = flipiet.search._Walker(g.targets, g.s, g.through, 5)
    starts = sorted(random.Random(max_len).sample(range(len(g.nodes)),
                                                  WALK_BATCH))
    words = WALK_BATCH // 64
    got = {}
    levels = walker._distances(np.array(starts, np.int32), max_len)
    for d, (flat, masks) in enumerate(levels):
        for f, m in zip(flat.tolist(), masks.tolist()):
            node, k = divmod(f, words)
            for bit in range(64):
                if m >> bit & 1:
                    assert (64 * k + bit, node) not in got
                    got[64 * k + bit, node] = d
    pred = [[] for _ in g.succ]
    for v, row in enumerate(g.succ):
        for u in row:
            if u is not None:
                pred[u].append(v)
    want = {}
    for b, s in enumerate(starts):
        dist = {s: 0}
        frontier = [s]
        for d in range(1, max_len):
            frontier = {u for v in frontier for u in pred[v]
                        if u > s and u not in dist}
            dist.update(dict.fromkeys(frontier, d))
        want.update({(b, u): d for u, d in dist.items()})
    assert got == want


@pytest.mark.parametrize("n, max_len, bound",
                         [(5, 14, 2 * 2 ** 20), (6, 10, 5 * 2 ** 19)])
def test_census_walk_working_set_is_fixed(n, max_len, bound, rauzy_graph):
    # the graph's arrays, the distance masks and one batch's frontier: about
    # 1.2 MB at n=5/14 and 1.7 MB at n=6/10 (29,043 nodes).  One table of a
    # byte per start of a batch and node would add 1.9 MB at n=6, and the
    # recursive walk's distance dicts took 6.4 MB at n=6/10.
    g = rauzy_graph(n, True)
    arrays = (g.perms, g.targets, g.s, g.through)
    _census_worker(arrays + ([0], 4))                   # one-time imports
    payload = arrays + (list(range(len(g.perms))), max_len)
    tracemalloc.start()
    try:
        _census_worker(payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


# ---------------------------------------------------------------------------
# reference enumeration: every closed walk from every node, deduplicated
# through the canonical rotation, each product multiplied out

def _canonical_rotation(seq):
    return min(tuple(seq[i:] + seq[:i]) for i in range(len(seq)))


def _is_primitive(seq):
    L = len(seq)
    for p in range(1, L):
        if L % p == 0 and seq == seq[p:] + seq[:p]:
            return p == L
    return True


def _reference_cycles(g, max_len):
    found = set()
    for start in range(len(g.nodes)):
        stack = [(start, ())]
        while stack:
            v, seq = stack.pop()
            if seq and v == start and _is_primitive(seq):
                found.add(_canonical_rotation(seq))
            if len(seq) < max_len:
                for t in (0, 1):
                    u = g.succ[v][t]
                    if u is not None:
                        stack.append((u, seq + ((v, t),)))
    return found


def _is_least_rotation(seq):
    """True when seq is primitive and smaller than each of its other
    rotations, so that each cycle up to rotation passes exactly once.

    Only a rotation starting with an element <= seq[0] can be as small as
    seq, and a rotation equal to seq makes it a proper power.
    """
    head = seq[0]
    return all(seq[k:] + seq[:k] > seq
               for k in range(1, len(seq)) if seq[k] <= head)


def _product(g, seq):
    prod = mat_identity(g.n)
    for v, t in seq:
        prod = mat_mul(prod, g.mats[v][t])
    return prod


def _check_rows_table(b):
    table = rows_table(b)
    assert len(table) == 1 << len(b)
    assert table == [rows_mul((mask,), b)[0] for mask in range(len(table))]


def test_rows_table_matches_rows_mul_on_graph_patterns(rauzy_graph):
    for n in (4, 5):
        g = rauzy_graph(n, True)
        patterns = {row_masks(m) for row in g.mats for m in row if m}
        for b in patterns:
            _check_rows_table(b)


@pytest.mark.parametrize("n", [6, 7])
def test_rows_table_matches_rows_mul_on_random_patterns(n):
    # the identity plus 3 to 6 off-diagonal ones; every edge of the n=4, 5
    # and 6 graphs has exactly one, so these reach wider tables than the
    # graphs do
    rng = random.Random(n)
    off = [(i, j) for i in range(n) for j in range(n) if i != j]
    for _ in range(40):
        b = [1 << i for i in range(n)]
        for i, j in rng.sample(off, rng.randint(3, 6)):
            b[i] |= 1 << j
        _check_rows_table(tuple(b))


def test_least_rotation_matches_canonical_and_primitive():
    rng = random.Random(8)
    seqs = [tuple(rng.choice("aab") for _ in range(rng.randint(1, 9)))
            for _ in range(3000)]
    seqs += [w * k for w in (("a",), ("a", "b"), ("a", "a", "b"))
             for k in (1, 2, 3)]
    for seq in seqs:
        want = seq == _canonical_rotation(seq) and _is_primitive(seq)
        assert _is_least_rotation(seq) == want, seq


@pytest.mark.parametrize("n, max_len", [(4, 12), (4, 14), (5, 8)])
def test_census_matches_reference_enumeration(n, max_len, monkeypatch,
                                               rauzy_graph):
    g = rauzy_graph(n, True)
    ref = sorted(_reference_cycles(g, max_len))
    ref_qp = sorted(p for p in (_product(g, seq) for seq in ref)
                    if quasi_positive(p))
    screened = []
    screen = flipiet.search.bhm_screen

    def recording_screen(m, **kwargs):
        screened.append(m)
        return screen(m, **kwargs)

    monkeypatch.setattr(flipiet.search, "bhm_screen", recording_screen)
    r = cycle_search(g, max_len)
    assert r.cycles_checked == len(ref)
    assert set(r.screen_reasons) == set(SCREEN_REASONS)
    assert sum(r.screen_reasons.values()) == len(ref)
    assert r.screen_reasons["not_quasi_positive"] == len(ref) - len(ref_qp)
    assert r.screen_reasons["qualifies"] == len(r.qualifying)
    assert sorted(screened) == ref_qp and ref_qp


def test_walk_patterns_are_the_screened_products_patterns(rauzy_graph):
    # the census screens a product without checking quasi-positivity again:
    # for every cycle it screens at n = 5 to max length 14, the row bitmasks
    # that the walk carried, which rows_quasi_positive passed, are the zero
    # pattern of the exact product, whose entries are nonnegative
    g = rauzy_graph(5, True)
    walker = flipiet.search._Walker(g.targets, g.s, g.through, 5)
    starts = list(range(len(g.nodes)))
    screened = 0
    for k in range(0, len(starts), WALK_BATCH):
        for rows, edges in walker.walk(starts[k:k + WALK_BATCH], 14):
            for pattern, path in zip(map(tuple, rows.tolist()), edges.tolist()):
                if not rows_quasi_positive(pattern):
                    continue
                prod = step_product(g.mats[v][t]
                                    for v, t in (divmod(e, 2) for e in path))
                assert row_masks(prod) == pattern
                assert min(map(min, prod)) >= 0 and quasi_positive(prod)
                screened += 1
    assert screened == 132
