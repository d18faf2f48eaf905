import json
import multiprocessing
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import cache, reduce
from itertools import permutations
from types import SimpleNamespace

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
from flipiet.search import (CycleCandidate, _census_worker, _class_payload,
                            _rauzy_classes, _walk_batches, cycle_search,
                            cycle_validate, rauzy_graph_build,
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
    # n=5 at max_len 12: the classes dealt out to two spawned workers
    g = rauzy_graph(5, True)
    r1 = cycle_search(g, 12, jobs=1)
    r2 = cycle_search(g, 12, jobs=2)
    assert r1 == r2
    assert r1.cycles_checked > 0


@pytest.mark.parametrize("n, require_flips, walked",
                         [(2, True, 0), (2, False, 1), (3, True, 2),
                          (3, False, 3)])
def test_search_pool_is_no_larger_than_its_payloads(n, require_flips, walked,
                                                    rauzy_graph, monkeypatch):
    # the census walks 0, 1, 2 and 3 classes of these graphs (it counts
    # the rest), so --jobs 8 deals out that many payloads: the pool starts
    # no more processes, and none for one payload.  The stand-in pool
    # records its size and maps in process, so no process starts here.
    pools = []

    class Pool:
        def __init__(self, processes):
            self.processes = processes

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, payloads):
            pools.append((self.processes, len(payloads)))
            return list(map(fn, payloads))

    monkeypatch.setattr(multiprocessing, "get_context",
                        lambda method: SimpleNamespace(Pool=Pool))
    g = rauzy_graph(n, require_flips)
    assert cycle_search(g, 10, jobs=8) == cycle_search(g, 10, jobs=1)
    assert pools == ([(walked, walked)] if walked > 1 else [])


@pytest.mark.parametrize("n", [4, 5, 6])
@pytest.mark.parametrize("pick", ["all classes", "every third class"])
def test_class_payload_matches_the_tuple_layout(n, pick, rauzy_graph):
    # the one class layout every census stage reads, against one built from
    # the tuple graph: the classes' nodes class after class, each class in
    # ascending order; the class sizes; an edge renumbered when its target
    # lies in its class, so inside the class's run of local nodes, and -1
    # when it is absent or leaves its class; and each edge's step matrix
    g = rauzy_graph(n, True)
    classes = _rauzy_classes(g.targets)
    if pick == "every third class":
        classes = classes[1::3]
    perms, targets, mat_ids, sizes, max_len = _class_payload(g, classes, 9)
    order = [u for c in classes for u in sorted(c.tolist())]
    local = {u: i for i, u in enumerate(order)}
    home = {u: h for h, c in enumerate(classes) for u in c.tolist()}
    assert list(map(tuple, perms.tolist())) == [g.nodes[u] for u in order]
    assert sizes == [len(c) for c in classes] and max_len == 9
    assert targets.tolist() == [
        [-1 if w is None or home.get(w) != home[u] else local[w]
         for w in g.succ[u]] for u in order]
    head = 0
    for size in sizes:
        run = targets[head:head + size]
        assert ((run == -1) | ((run >= head) & (run < head + size))).all()
        head += size
    assert head == len(targets) and (targets >= 0).any()
    mats = flipiet.search._edge_matrices(n)
    assert all(mats[i] == m for u, ids in zip(order, mat_ids.tolist())
               for i, m in zip(ids, g.mats[u]) if m)


def _mobius(k):
    mu, p = 1, 2
    while p * p <= k:
        if k % p == 0:
            k //= p
            if k % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if k > 1 else mu


@pytest.mark.parametrize("n, require_flips, max_len, total",
                         [(4, True, 20, 79300), (4, False, 16, None),
                          (5, True, 14, 35964)])
def test_walk_checks_each_class_s_primitive_cycles(n, require_flips, max_len,
                                                    total, rauzy_graph):
    # the primitive cycles of length k in a class, up to rotation, number
    # (1/k) sum over d | k of mu(k/d) tr(A^d), A the class's edge-count
    # adjacency matrix, whose exact int64 powers have entries at most
    # 2^max_len; the walk must close exactly that many from the class's
    # starts
    g = rauzy_graph(n, require_flips)
    classes = sorted(_rauzy_classes(g.targets), key=len)
    payload = _class_payload(g, classes, max_len)
    home = np.repeat(np.arange(len(classes)), [len(c) for c in classes])
    walker = flipiet.search._Walker(payload)
    walked = Counter()
    for batch in _walk_batches(payload[3]):
        for rows, edges in walker.walk(*batch, max_len):
            walked.update((h, edges.shape[1])
                          for h in home[edges[:, 0] >> 1].tolist())
    counted = Counter()
    for h, c in enumerate(classes):
        rank = {u: i for i, u in enumerate(c.tolist())}
        a = np.zeros((len(c), len(c)), np.int64)
        for u in c.tolist():
            for v in g.targets[u].tolist():
                if v in rank:
                    a[rank[u], rank[v]] += 1
        power, traces = np.eye(len(c), dtype=np.int64), [None]
        for _ in range(max_len):
            power = power @ a
            traces.append(int(np.trace(power)))
        for k in range(1, max_len + 1):
            cycles, rest = divmod(sum(_mobius(k // d) * traces[d]
                                      for d in range(1, k + 1)
                                      if k % d == 0), k)
            assert rest == 0
            if cycles:
                counted[h, k] = cycles
    assert walked == counted
    assert (flipiet.search._cycle_count(payload)
            == sum(counted.values()))
    if total is not None:
        assert sum(counted.values()) == total


@pytest.mark.parametrize("n, max_len", [(4, 16), (5, 14), (6, 10)])
def test_classes_the_census_counts_hold_no_quasi_positive_cycle(n, max_len,
                                                               rauzy_graph):
    # cycle_search counts the cycles of a class whose edges' zero patterns
    # together are reducible instead of walking them: the walk finds no
    # quasi-positive pattern in such a class, and every class the census
    # walks is one whose patterns together are irreducible
    g = rauzy_graph(n, True)
    classes = _rauzy_classes(g.targets)
    qualifiable = flipiet.search._qualifiable(
        _class_payload(g, classes, max_len))
    counted = [c for c, ok in zip(classes, qualifiable) if not ok]
    assert counted and len(counted) < len(classes)
    payload = _class_payload(g, counted, max_len)
    walker = flipiet.search._Walker(payload)
    walks = 0
    for batch in _walk_batches(payload[3]):
        for rows, edges in walker.walk(*batch, max_len):
            assert not any(map(rows_quasi_positive,
                               map(tuple, rows.T.tolist())))
            walks += len(edges)
    assert walks == flipiet.search._cycle_count(payload) > 0
    for c, ok in zip(classes, qualifiable):
        patterns = {row_masks(g.mats[v][t]) for v in c.tolist()
                    for t in (0, 1) if g.succ[v][t] in c}
        union = reduce(lambda a, b: tuple(x | y for x, y in zip(a, b)),
                       patterns, tuple(1 << i for i in range(n)))
        assert ok == rows_quasi_positive(union)


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


def _assert_worker_matches_reference(g, classes, max_len, starts=None):
    # the worker on these classes against the reference walk from their
    # nodes, or from the given starts
    reasons, hits = _census_worker(_class_payload(g, classes, max_len))
    if starts is None:
        starts = np.concatenate(classes).tolist()
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
    # every class, in the order cycle_search deals them to one worker,
    # against the reference walk from every node
    g = rauzy_graph(n, require_flips)
    classes = sorted(_rauzy_classes(g.targets), key=len)
    reasons, hits = _assert_worker_matches_reference(
        g, classes, max_len, list(range(len(g.nodes))))
    assert sum(reasons.values()) > 0
    if (n, max_len) == (5, 14):
        assert sum(reasons.values()) == 35964 and len(hits) == 24


@pytest.mark.parametrize("pick", ["bundled node's class", "every third class",
                                  "largest class, split",
                                  "small batches and slices"])
def test_census_worker_matches_reference_on_class_lists(pick, rauzy_graph,
                                                        monkeypatch):
    # the class whose cycles include the bundled one; the classes of one
    # worker of three; the largest class (171 nodes) in windows of 64
    # starts; and every class in batches of at most 5 starts whose
    # frontiers the walk extends 7 rows at a time, so that it puts back
    # the distances a deeper slice has cleared
    g = rauzy_graph(5, True)
    classes = _rauzy_classes(g.targets)
    bundled = g.index(SIGNED_PERMUTATION)
    if pick == "largest class, split":
        monkeypatch.setattr(flipiet.search, "WALK_STARTS", 64)
    if pick == "small batches and slices":
        monkeypatch.setattr(flipiet.search, "WALK_STARTS", 5)
        monkeypatch.setattr(flipiet.search, "WALK_ROWS", 7)
    picked = {"bundled node's class": [c for c in classes if bundled in c],
              "every third class": classes[1::3],
              "largest class, split": [max(classes, key=len)],
              "small batches and slices": classes}[pick]
    max_len = 14 if pick == "bundled node's class" else 12
    _assert_worker_matches_reference(g, picked, max_len)


def _reference_walker_tables(succ, mats, n):
    """The walker's successor (-1 for an absent edge), offset, stacked row
    table and predecessor arrays, built from the tuple graph: one table per
    distinct zero pattern, in the order the edges first show it."""
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
    succ = np.array([[-1 if u is None else u for u in row] for row in succ],
                    np.int32)
    edge = np.flatnonzero(succ.ravel() >= 0).astype(np.int32)
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
    # each row mask as its matrix's rows_table does, on the payload that
    # holds every node of the graph as one class, where _class_payload
    # keeps the graph's order and edges
    g = rauzy_graph(n, require_flips)
    _nodes, succ, mats, _absent = _reference_graph(n, require_flips)
    walker = flipiet.search._Walker(
        _class_payload(g, [np.arange(len(g.perms), dtype=np.int32)], 2))
    ref_succ, ref_offset, ref_tab, ref_pred = _reference_walker_tables(
        succ, mats, n)
    assert walker.succ.dtype == np.int32
    assert (walker.succ == ref_succ).all()
    assert walker.pred.shape == ref_pred.shape
    assert (walker.pred == ref_pred).all()
    present = ref_succ >= 0
    masks = np.arange(1 << n)
    assert (walker.tab[walker.offset[present.ravel()][:, None] | masks]
            == ref_tab[ref_offset[present][:, None] | masks]).all()


@pytest.mark.parametrize("max_len", [4, 10])
def test_walker_distance_levels_match_reverse_bfs(max_len, rauzy_graph,
                                                  monkeypatch):
    # every batch of the n = 5 classes, whole classes and windows of 64
    # starts of a bigger one: bit b of a node's words sits in the level of
    # its distance to start b of its class through nodes above that start,
    # as the reference walk's reverse BFS restricted to the start's class
    # finds it, up to max_len - 2 (the walk's first step reads no
    # distance), and in no other level
    monkeypatch.setattr(flipiet.search, "WALK_STARTS", 64)
    g = rauzy_graph(5, True)
    classes = sorted(_rauzy_classes(g.targets), key=len)
    payload = _class_payload(g, classes, max_len)
    nodes = np.concatenate(classes).tolist()
    home = {u: i for i, c in enumerate(classes) for u in c.tolist()}
    walker = flipiet.search._Walker(payload)
    pred = [[] for _ in g.succ]
    for v, row in enumerate(g.succ):
        for u in row:
            if u is not None:
                pred[u].append(v)
    windows = 0
    for x, slot, k in _walk_batches(payload[3]):
        windows += k < len(slot)
        got = {}
        levels = walker._distances(x, slot, k, max_len)
        for d, (flat, masks) in enumerate(levels):
            for f, m in zip(flat.tolist(), masks.tolist()):
                u, j = divmod(f, walker.words)
                for b in range(64):
                    if m >> b & 1:
                        start = nodes[x + u - slot[u] + 64 * j + b]
                        assert (start, nodes[x + u]) not in got
                        got[start, nodes[x + u]] = d
        want = {}
        for s in nodes[x:x + k]:
            dist = {s: 0}
            frontier = [s]
            for d in range(1, max_len - 1):
                frontier = {u for v in frontier for u in pred[v]
                            if u > s and u not in dist
                            and home.get(u) == home[s]}
                dist.update(dict.fromkeys(frontier, d))
            want.update({(s, u): d for u, d in dist.items()})
        assert got == want
    assert windows > 1


@pytest.mark.parametrize("n, max_len, bound",
                         [(5, 14, 2 * 2 ** 20), (6, 10, 5 * 2 ** 19),
                          (7, 8, 12 * 2 ** 20)])
def test_census_walk_working_set_is_fixed(n, max_len, bound, rauzy_graph):
    # the worker on every class at n=5/14 and n=6/10, and on the largest
    # n=7 class (56,987 nodes) at max length 8: the walker's arrays, one
    # batch's distance words and BFS levels and the frontier slices of its
    # walk, about 1.8, 1.8 and 10.8 MB.  Four words of start bits for every
    # node of the n=7 graph would take 13.4 MiB alone, and the recursive
    # walk's distance dicts took 6.4 MB at n=6/10.
    g = rauzy_graph(n, True)
    classes = sorted(_rauzy_classes(g.targets), key=len)
    _census_worker(_class_payload(g, classes[:1], 4))   # one-time imports
    payload = _class_payload(g, classes if n < 7 else classes[-1:], max_len)
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
    classes = sorted(_rauzy_classes(g.targets), key=len)
    payload = _class_payload(g, classes, 14)
    nodes = np.concatenate(classes)
    walker = flipiet.search._Walker(payload)
    screened = 0
    for batch in _walk_batches(payload[3]):
        for rows, edges in walker.walk(*batch, 14):
            for pattern, path in zip(map(tuple, rows.T.tolist()),
                                     edges.tolist()):
                if not rows_quasi_positive(pattern):
                    continue
                prod = step_product(g.mats[nodes[e >> 1]][e & 1]
                                    for e in path)
                assert row_masks(prod) == pattern
                assert min(map(min, prod)) >= 0 and quasi_positive(prod)
                screened += 1
    assert screened == 132
