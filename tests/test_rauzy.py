import random
import sys
from fractions import Fraction
from functools import reduce

import pytest

from flipiet import selfsim
from flipiet.errors import DegenerateStep
from flipiet.iet import IetSpec
from flipiet.polys import mat_det, mat_identity, mat_mul, mat_vec
from flipiet.quintic import MATRIX, REFERENCE_STEPS, bundled_iet, bundled_theta1
from flipiet.rauzy import (cycle_matrix, rauzy_cycle_detect, rauzy_run,
                           rauzy_step, step_product, typed_move)
from flipiet.search import rauzy_graph_build, signed_perms_enumerate
from flipiet.selfsim import induce
from test_iet import recompute_permutation


def induced_step(E):
    """The Rauzy step by the general first-return induction of E on
    [a, b - min(l_n, l_s)], with E's own lengths: the reference for
    rauzy_step.  Returns (type_bit, after, matrix, E')."""
    n = E.n
    l_n, l_s = E.lengths[n - 1], E.lengths[E.pi_inv[n] - 1]
    type_bit = 0 if l_n > l_s else 1
    ind = induce(E, (E.origin, E.x[-1] - (l_n if type_bit == 1 else l_s)))
    return (type_bit, ind.sub_iet.sp, ind.itineraries.counts_matrix(),
            ind.sub_iet)


def induced_move(sp, type_bit):
    """(after, matrix) of the typed move out of sp read off one
    first-return induction on integer lengths of that type, the loser of
    length 7 and every other length 2 * (7 + i) >= 14: the geometric
    reference for the closed-form typed_move."""
    n = len(sp)
    lengths = [2 * (7 + i) for i in range(n)]
    lengths[n - 1 if type_bit == 1 else list(map(abs, sp)).index(n)] = 7
    E = IetSpec(lengths, sp, origin=0)
    ind = induce(E, (0, E.x[-1] - 7))
    assert ind.sub_iet.n == n
    return ind.sub_iet.sp, ind.itineraries.counts_matrix()


def lengths_of_type(sp, type_bit, rng):
    """Random Fraction lengths for which the step out of sp has the given
    type: the loser is at most 10/31, every other length at least 20/29."""
    n = len(sp)
    lengths = [Fraction(rng.randint(20, 40), 29) for _ in range(n)]
    lengths[n - 1 if type_bit == 1 else list(map(abs, sp)).index(n)] = Fraction(
        rng.randint(1, 10), 31)
    return lengths


@pytest.fixture(scope="module")
def steps():
    return rauzy_run(bundled_iet(), 14)


def test_first_two_steps(steps):
    assert steps[0].type_bit == 1
    assert steps[0].after == (4, -5, -3, 2, 1)
    assert steps[1].type_bit == 0
    assert steps[1].after == (5, -2, -4, 3, 1)


def test_full_reference_trace(steps):
    got = [(steps[0].before, steps[0].type_bit)]
    for k, st in enumerate(steps):
        nxt = steps[k + 1].type_bit if k + 1 < len(steps) else None
        got.append((st.after, nxt))
    assert got == list(REFERENCE_STEPS)


def test_cycle_product_is_the_matrix(steps):
    assert cycle_matrix(steps) == MATRIX


def test_product_order_matters(steps):
    rev = mat_identity(5)
    for st in reversed(steps):
        rev = mat_mul(rev, st.matrix)
    assert rev != MATRIX


def test_step_matrices_are_unimodular_and_consistent(steps):
    for st in steps:
        assert abs(mat_det(st.matrix)) == 1
        assert all(v >= 0 for row in st.matrix for v in row)
        assert all(sum(col) >= 1 for col in zip(*st.matrix))
        recon = mat_vec(st.matrix, st.after_lengths)
        assert all(a == b for a, b in zip(recon, st.before_lengths))


def test_lengths_shrink_and_stay_positive(steps):
    E = bundled_iet()
    prev_total = E.total_length
    for st in steps:
        total = st.after_iet.total_length
        assert total < prev_total
        prev_total = total
        for v in st.after_iet.lengths:
            assert v.sign() > 0


def test_permutations_recomputable_from_geometry(steps):
    for st in steps:
        assert recompute_permutation(st.after_iet) == st.after


def test_steps_carry_the_typed_moves_entry_tuples(steps):
    # before and after are plain entry tuples: after is typed_move's, and
    # each step starts from the last one's after
    assert steps[0].before == bundled_iet().sp
    for k, st in enumerate(steps):
        assert type(st.before) is tuple and type(st.after) is tuple
        assert (st.after, st.matrix) == typed_move(st.before, st.type_bit)
        assert k == 0 or st.before == steps[k - 1].after


def test_run_zero_steps():
    assert rauzy_run(bundled_iet(), 0) == []


def test_eighth_permutation(steps):
    assert steps[7].after == (-3, 4, -2, 5, 1)


def test_degenerate_step():
    E = IetSpec((Fraction(1, 2), Fraction(1, 2)), (-2, 1))
    with pytest.raises(DegenerateStep):
        rauzy_step(E)


def test_typed_move_needs_n_pieces():
    # the last piece goes to the last slot: the induced map drops it
    for t in (0, 1):
        with pytest.raises(DegenerateStep, match="induced map has 2 pieces"):
            typed_move((2, -1, 3), t)


def _every_edge_nodes():
    for n in range(2, 6):
        for require_flips in (True, False):
            yield from map(tuple, signed_perms_enumerate(n, require_flips)
                           .tolist())
    nodes = list(map(tuple, signed_perms_enumerate(6, False).tolist()))
    yield from random.Random(6).sample(nodes, 3000)


def test_typed_move_matches_induction():
    # every edge out of every irreducible node for n = 2..5, with and without
    # flips required, and out of 3,000 seeded n = 6 nodes: the closed form
    # gives the geometric induction's permutation and matrix
    count = 0
    for node in _every_edge_nodes():
        for t in (0, 1):
            assert typed_move(node, t) == induced_move(node, t)
            count += 1
    assert count == 2 * (3 + 4 + 21 + 24 + 195 + 208 + 2201 + 2272 + 3000)


def test_graph_build_runs_no_induction(monkeypatch):
    # every module's binding of induce is counted, imported names included
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return induce(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("flipiet") and getattr(module, "induce", None) is induce:
            monkeypatch.setattr(module, "induce", counted)
    assert selfsim.induce is counted
    graph = rauzy_graph_build(5)
    assert len(graph.nodes) == 2201 and calls == []


def test_cycle_detect(steps):
    E = bundled_iet()
    th1 = bundled_theta1()
    cyc = rauzy_cycle_detect(E.sp, E.lengths, E.origin, 20)
    assert cyc is not None
    assert len(cyc.steps) == 14
    assert cycle_matrix(cyc.steps) == MATRIX
    assert cyc.scale == th1


def test_cycle_detect_needs_fourteen():
    E = bundled_iet()
    assert rauzy_cycle_detect(E.sp, E.lengths, E.origin, 5) is None


def test_cycle_detect_self_similarity_identity(steps):
    # alpha(14) * theta1 == alpha, componentwise and exactly
    E = bundled_iet()
    th1 = bundled_theta1()
    last = steps[-1].after_iet
    for i in range(5):
        assert last.lengths[i] * th1 == E.lengths[i]


def test_rational_rotation_induction():
    # lengths (1/3, 2/3), rotation-like: a short hand-checkable run
    E = IetSpec((Fraction(1, 3), Fraction(2, 3)), (2, 1))
    E1, st = rauzy_step(E)
    # the last piece (2/3) beats the piece mapped last (1/3): type 0
    assert st.type_bit == 0
    assert E1.total_length == Fraction(2, 3)
    # with equal lengths the next comparison ties
    with pytest.raises(DegenerateStep):
        rauzy_step(E1)


def test_unimodularity_randomized():
    rng = random.Random(21)
    done = 0
    while done < 1000:
        n = rng.randint(2, 5)
        base = list(range(1, n + 1))
        rng.shuffle(base)
        sp = tuple(b * rng.choice([1, -1]) for b in base)
        lengths = tuple(Fraction(rng.randint(1, 40), rng.randint(1, 40))
                        for _ in range(n))
        try:
            E = IetSpec(lengths, sp)
        except Exception:
            continue
        try:
            _, st = rauzy_step(E)
        except DegenerateStep:
            continue
        assert abs(mat_det(st.matrix)) == 1
        recon = mat_vec(st.matrix, st.after_lengths)
        assert all(a == b for a, b in zip(recon, st.before_lengths))
        done += 1


def test_golden_mean_rotation_cycle():
    # independent end-to-end case over a quadratic field: the oriented
    # 2-exchange with lengths from the Perron vector of [[2,1],[1,1]] closes
    # a period-2 induction cycle with scale theta1 = (3+sqrt(5))/2
    from flipiet.spectral import perron_data
    m = ((2, 1), (1, 1))
    th, alpha = perron_data(m).perron
    assert th.decimal(6) == "2.618034"
    assert [a.decimal(6) for a in alpha] == ["0.618034", "0.381966"]
    E = IetSpec(alpha, (2, 1))
    cyc = rauzy_cycle_detect(E.sp, E.lengths, E.origin, 10)
    assert cyc is not None and len(cyc.steps) == 2
    assert cycle_matrix(cyc.steps) == m
    assert [s.type_bit for s in cyc.steps] == [1, 0]
    assert cyc.scale == th


@pytest.mark.parametrize("n, require_flips", [(4, True), (4, False), (5, True)])
def test_step_matches_induction_on_every_edge(n, require_flips, rauzy_graph):
    # every node and type of the graph, on random Fraction lengths and on
    # irrational lengths of the bundled quintic field: the typed move and
    # one subtraction give the induction's exchange, breakpoints and slot
    # ends exactly; the geometry re-derives the permutation (Fraction
    # lengths).  A float view has no exact step
    small = [a * Fraction(1, 100) for a in bundled_iet().lengths]
    rng = random.Random(10 * n + require_flips)
    for sp in rauzy_graph(n, require_flips).nodes:
        for t in (0, 1):
            rational = lengths_of_type(sp, t, rng)
            algebraic = [v + rng.choice(small) for v in rational]
            origin = Fraction(rng.randint(-9, 9), 8)
            for lengths in (algebraic, rational):
                E = IetSpec(lengths, sp, origin=origin)
                E2, st = rauzy_step(E)
                t_ref, after, m, sub = induced_step(E)
                assert st.type_bit == t_ref == t
                assert st.after == after and st.matrix == m
                assert st.after_lengths == sub.lengths
                assert E2 is st.after_iet
                assert (E2.x, E2.y) == (sub.x, sub.y)
            assert recompute_permutation(E2) == after
            with pytest.raises(TypeError, match="must be exact"):
                rauzy_step(E.as_float())


def detect_by_steps(E, max_steps):
    """rauzy_cycle_detect as a chain of rauzy_step calls, each laying out
    its exchange: the return and proportionality tests read the laid-out
    exchange's permutation, lengths and total length, and the product is
    the generic mat_mul.  The reference for the lengths-only detection;
    returns (steps, product, scale) or None."""
    steps, cur = [], E
    for _ in range(max_steps):
        cur, st = rauzy_step(cur)
        steps.append(st)
        if cur.sp == E.sp and all(
                cur.lengths[j] * E.total_length == E.lengths[j] * cur.total_length
                for j in range(E.n)):
            return (steps, reduce(mat_mul, [st.matrix for st in steps]),
                    E.total_length / cur.total_length)
    return None


def step_fields(st):
    return (st.type_bit, st.before, st.after, st.matrix, st.before_lengths,
            st.after_lengths, st.origin)


def assert_detect_matches_steps(E, max_steps):
    """The lengths-only detection and the rauzy_step chain agree: the same
    steps, product and scale, or no cycle, or the same DegenerateStep."""
    try:
        ref = detect_by_steps(E, max_steps)
    except DegenerateStep as exc:
        with pytest.raises(DegenerateStep) as got:
            rauzy_cycle_detect(E.sp, E.lengths, E.origin, max_steps)
        assert str(got.value) == str(exc)
        return None
    cyc = rauzy_cycle_detect(E.sp, E.lengths, E.origin, max_steps)
    if ref is None:
        assert cyc is None
        return None
    steps, product, scale = ref
    assert list(map(step_fields, cyc.steps)) == list(map(step_fields, steps))
    assert cycle_matrix(cyc.steps) == product and cyc.scale == scale
    return cyc


def test_detect_matches_step_chain_on_the_bundled_exchange():
    cyc = assert_detect_matches_steps(bundled_iet(), 20)
    assert len(cyc.steps) == 14 and cycle_matrix(cyc.steps) == MATRIX
    assert assert_detect_matches_steps(bundled_iet(), 13) is None


@pytest.mark.parametrize("lengths, entries, message", [
    ((Fraction(1, 2), Fraction(1, 2)), (-2, 1), "saddle connection"),
    ((Fraction(1, 3), Fraction(2, 3)), (2, 1), "saddle connection"),
    ((1, 2, 3), (2, -1, 3), "last piece is sent to the last slot")])
def test_detect_raises_the_step_chains_degenerate_step(lengths, entries,
                                                       message):
    # the first two tie at the first and the second step
    E = IetSpec(lengths, entries)
    with pytest.raises(DegenerateStep, match=message):
        rauzy_cycle_detect(E.sp, E.lengths, E.origin, 10)
    assert assert_detect_matches_steps(E, 10) is None


@pytest.mark.parametrize("n, require_flips", [(n, f) for n in (2, 3, 4, 5)
                                              for f in (True, False)]
                         + [(6, True)])
def test_step_product_matches_mat_mul_on_every_edge_matrix(n, require_flips,
                                                           rauzy_graph):
    # prefix . m by column moves, from random integer prefixes, for every
    # distinct edge matrix of the graph; then seeded walks of 2 to 16 edges
    g = rauzy_graph(n, require_flips)
    rng = random.Random(100 * n + require_flips)
    edge_mats = sorted({m for row in g.mats for m in row if m})
    for m in edge_mats:
        for _ in range(3):
            prefix = tuple(tuple(rng.randint(-50, 50) for _ in range(n))
                           for _ in range(n))
            assert step_product([prefix, m]) == mat_mul(prefix, m)
        assert step_product([m]) == m
    for _ in range(200):
        mats = [rng.choice(edge_mats) for _ in range(rng.randint(2, 16))]
        assert step_product(mats) == reduce(mat_mul, mats)


def test_cycle_matrix_matches_mat_mul(steps):
    assert cycle_matrix(steps) == reduce(mat_mul, [st.matrix for st in steps])
    for k in range(1, len(steps)):
        assert cycle_matrix(steps[:k]) == reduce(
            mat_mul, [st.matrix for st in steps[:k]])
    with pytest.raises(ValueError):
        cycle_matrix([])
