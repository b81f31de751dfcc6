"""decode_batch against references written out here: the serial BP loop,
per-shot BFS plus networkx matching, a brute-force matching, the
dict-built lookup table, and MWPM one row per call. Each must agree trial
for trial, on batches with repeated syndromes, the all-zero syndrome and
(for lookup) undecodable rows; MWPM at or below DP_MAX_DEFECTS defects
agrees with networkx in total path length and logical class, as ties may
fall differently."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

from qnetcode import codes, decoders, gf2
from qnetcode.decoders import BpDecoder, LookupDecoder, MatchingDecoder
from qnetcode.noise import NoiseModel, sample_error
from qnetcode.pauli import PauliOperator
from qnetcode.rng import stream

from test_decoders import small_hgp, sparse_hgp


def syndrome_batch(code, p, shots, seed):
    """Sampled syndromes plus the all-zero syndrome and repeats of the
    first rows, shuffled."""
    noise = NoiseModel.independent_xz(p, p)
    rows = [codes.syndrome(code, sample_error(noise, code.n, stream(seed, t))) for t in range(shots)]
    rows.append(codes.syndrome(code, PauliOperator.identity(code.n)))
    rows += rows[:5]
    order = stream(seed, 10**6).permutation(len(rows))
    s_x = np.array([rows[i][0] for i in order], dtype=np.uint8).reshape(len(rows), code.r_x)
    s_z = np.array([rows[i][1] for i in order], dtype=np.uint8).reshape(len(rows), code.r_z)
    return s_x, s_z


def assert_batch_equals(batch, reference):
    """reference: per row (corr_x, corr_z, ok, converged, iterations)."""
    corr_x, corr_z, ok, converged, iterations = batch
    assert len(corr_x) == len(reference)
    for t, (rx, rz, rok, rconv, rit) in enumerate(reference):
        assert ok[t] == rok, t
        if rok:
            assert np.array_equal(corr_x[t], rx) and np.array_equal(corr_z[t], rz), t
            assert (converged[t], iterations[t]) == (rconv, rit), t


# --- BP: the serial loop -----------------------------------------------------


def serial_bp_side(h, syn, p, max_iters):
    """Serial-schedule sum-product BP, one check at a time."""
    n = h.shape[1]
    decision = np.zeros(n, dtype=np.uint8)
    if not syn.any():
        return decision, True, 0
    adj = [np.nonzero(h[c])[0] for c in range(h.shape[0])]
    total = np.full(n, float(np.log((1.0 - p) / p)), dtype=np.float64)
    c2v = [np.zeros(len(vs), dtype=np.float64) for vs in adj]
    for it in range(1, max_iters + 1):
        for c, vs in enumerate(adj):
            serial_check_update(total, c2v, c, vs, syn[c])
        decision = (total < 0.0).astype(np.uint8)
        if np.array_equal(h.astype(np.int64) @ decision % 2, syn):
            return decision, True, it
    return decision, False, max_iters


def serial_check_update(total, c2v, c, vs, bit):
    v2c = total[vs] - c2v[c]
    t = np.tanh(np.clip(v2c, -30, 30) / 2.0)
    prod = np.prod(t)
    with np.errstate(divide="ignore", invalid="ignore"):
        leave_one_out = np.where(t != 0.0, prod / t, 0.0)
    if (t == 0.0).sum() == 1:
        mask = t == 0.0
        leave_one_out[mask] = np.prod(t[~mask])
    elif (t == 0.0).sum() > 1:
        leave_one_out[t == 0.0] = 0.0
    sign = -1.0 if bit else 1.0
    new = 2.0 * np.arctanh(np.clip(sign * leave_one_out, -1 + 1e-12, 1 - 1e-12))
    total[vs] += new - c2v[c]
    c2v[c] = new


def serial_bp_reference(dec, s_x, s_z):
    code = dec.code
    out = []
    for sx, sz in zip(s_x, s_z):
        ex, cx, ix = serial_bp_side(code.h_z, sz, dec.p, dec.max_iters)
        ez, cz, iz = serial_bp_side(code.h_x, sx, dec.p, dec.max_iters)
        out.append((ex, ez, True, cx and cz, max(ix, iz)))
    return out


def bp_mismatches(dec, s_x, s_z, reference) -> int:
    corr_x, corr_z, ok, converged, iterations = dec.decode_batch(s_x, s_z)
    return sum(
        not (np.array_equal(corr_x[t], rx) and np.array_equal(corr_z[t], rz)
             and ok[t] and (converged[t], iterations[t]) == (rc, ri))
        for t, (rx, rz, _, rc, ri) in enumerate(reference)
    )


@pytest.fixture(scope="module")
def hgp_bp_case():
    """hgp:2:9:12:4 at p = 0.02: 36 rows, five of which BP does not
    converge on within 100 iterations, and their serial-loop results."""
    code = sparse_hgp()
    s_x, s_z = syndrome_batch(code, 0.02, 30, 70)
    return code, s_x, s_z, serial_bp_reference(BpDecoder(code, 0.01), s_x, s_z)


def test_bp_batch_matches_serial_loop(hgp_bp_case):
    code, s_x, s_z, reference = hgp_bp_case
    assert sum(not conv for _, _, _, conv, _ in reference) > 0
    assert_batch_equals(BpDecoder(code, 0.01).decode_batch(s_x, s_z), reference)


# (code, prior, iteration cap, p): each code has levels that need padding.
# BP seldom converges on the two small codes, so a 20-sweep cap keeps their
# serial references short.
BP_BATCH_CASES = [
    (small_hgp, 0.05, 20, 0.04),
    (sparse_hgp, 0.01, 100, 0.01),
    (lambda: codes.rotated_surface(5), 0.05, 20, 0.04),
]


@pytest.fixture(scope="module", params=BP_BATCH_CASES, ids=["small_hgp", "sparse_hgp", "surface:5"])
def bp_batch_case(request):
    """206 shuffled rows with repeats, and their serial-loop results."""
    make_code, prior, cap, p = request.param
    code = make_code()
    assert any(pad is not None for h in (code.h_x, code.h_z) for _, _, pad in decoders._bp_steps(h))
    dec = BpDecoder(code, prior, max_iters=cap)
    s_x, s_z = syndrome_batch(code, p, 200, 76)
    return dec, s_x, s_z, serial_bp_reference(dec, s_x, s_z)


def test_bp_batch_matches_serial_loop_at_every_batch_size(bp_batch_case):
    """The first 1, 2, 36 and all 206 rows, each decoded as one call. The
    rows converge at different sweeps, so some leave the sweeps while
    others go on, and some never converge."""
    dec, s_x, s_z, reference = bp_batch_case
    assert len({it for _, _, _, conv, it in reference if conv and it > 0}) >= 3
    assert not all(conv for _, _, _, conv, _ in reference)
    for size in (1, 2, 36, len(reference)):
        assert_batch_equals(dec.decode_batch(s_x[:size], s_z[:size]), reference[:size])


def test_bp_batch_matches_serial_loop_at_a_short_cap():
    """A 10-iteration cap on the small code leaves most shots unconverged;
    a 3-iteration cap on hgp:2:9:12:4 at p = 0.08 leaves a batch in which
    every row runs to the cap."""
    code = small_hgp()
    dec = BpDecoder(code, 0.05, max_iters=10)
    s_x, s_z = syndrome_batch(code, 0.1, 80, 70)
    assert_batch_equals(dec.decode_batch(s_x, s_z), serial_bp_reference(dec, s_x, s_z))

    code = sparse_hgp()
    dec = BpDecoder(code, 0.05, max_iters=3)
    s_x, s_z = syndrome_batch(code, 0.08, 24, 77)
    keep = s_x.any(axis=1) & s_z.any(axis=1)
    s_x, s_z = s_x[keep], s_z[keep]
    reference = serial_bp_reference(dec, s_x, s_z)
    assert len(reference) >= 20
    assert all(not conv and it == 3 for _, _, _, conv, it in reference)
    assert_batch_equals(dec.decode_batch(s_x, s_z), reference)


def test_bp_merging_two_adjacent_levels_breaks_the_oracle(hgp_bp_case, monkeypatch):
    """Checks of adjacent levels share variables; run as one step they
    read stale totals and lose updates. Every such mutant must differ
    from the serial loop on some row of the batch."""
    code, s_x, s_z, reference = hgp_bp_case
    original = decoders.serial_levels
    assert bp_mismatches(BpDecoder(code, 0.01), s_x, s_z, reference) == 0
    for a in range(len(original(code.h_x)) - 1):
        def merged(h, a=a):
            levels = original(h)
            return [*levels[:a], np.concatenate(levels[a : a + 2]), *levels[a + 2 :]]

        monkeypatch.setattr(decoders, "serial_levels", merged)
        assert bp_mismatches(BpDecoder(code, 0.01), s_x, s_z, reference) > 0, a


def test_level_update_matches_serial_checks_with_zero_messages():
    """Messages that are exactly 0 (t == 0) take the leave-one-out
    special cases. Three rows update at once, each with its own syndrome
    and its own zeros per check: row 0 has one zero in check 0 and two in
    check 1; row 1 none in check 0, one in check 1 and one in check 2;
    row 2 two in check 0 and none elsewhere. Checks 2 and 3 are padded,
    check 3 entirely."""
    h = np.array([
        [1, 1, 1, 0, 0, 0, 0, 0],
        [0, 0, 0, 1, 1, 1, 1, 0],
        [0, 0, 0, 0, 0, 0, 0, 1],
        [0, 0, 0, 0, 0, 0, 0, 0],
    ], dtype=np.uint8)
    (level,) = decoders.serial_levels(h)
    (checks, slots, pad), = decoders._bp_steps(h)
    assert np.array_equal(level, checks) and pad is not None
    total = np.array([  # last column: the dummy variable
        [0.0, 0.7, -1.3, 0.0, 0.0, 2.0, -0.4, 0.9, 5.0],
        [0.3, 0.7, -1.3, 0.5, 0.0, 2.0, -0.4, 0.0, 5.0],
        [0.0, 0.0, -1.3, 0.5, 1.1, 2.0, -0.4, 0.9, 5.0],
    ])
    syn = np.array([[1, 0, 1, 0], [0, 1, 1, 0], [1, 1, 0, 0]], dtype=np.uint8)
    idx = total.shape[1] * np.arange(len(total))[:, None, None] + slots  # into the raveled totals
    levels = [[idx, pad, (1.0 - 2.0 * syn)[:, checks, None], np.zeros((len(total), *slots.shape))]]
    batch_total = total / 2.0  # the kernel keeps half-LLRs
    with np.errstate(divide="ignore", invalid="ignore"):
        decoders._sweep(batch_total, levels, decoders._padded_supports(h).T)
    batch_total *= 2.0
    c2v = 2.0 * levels[0][3]

    adj = [np.flatnonzero(row) for row in h]
    for row in range(len(total)):
        ref_total = total[row, :8].copy()
        ref_c2v = [np.zeros(len(vs)) for vs in adj]
        for c, vs in enumerate(adj):
            serial_check_update(ref_total, ref_c2v, c, vs, syn[row, c])
        assert np.array_equal(batch_total[row, :8], ref_total), row
        for i, vs in enumerate(adj):
            assert np.array_equal(c2v[row, i, : len(vs)], ref_c2v[i]), (row, i)


def test_sweep_parity_check_equals_gf2_matmul():
    """The per-sweep check's parity of random hard decisions equals
    gf2.matmul(hard, h.T) on both sides of hgp:2:9:12:4, whose rows have
    several weights, so many checks have padded slots. The dummy column's
    total is set negative and positive: a check that read it would flip
    the parity of every padded check in one of the two."""
    code = sparse_hgp()
    rng = np.random.default_rng(5)
    for h in (code.h_x, code.h_z):
        slots = decoders._padded_supports(h)
        assert (slots == code.n).any()
        total = rng.normal(size=(40, code.n + 1))
        expected = gf2.matmul((total[:, : code.n] < 0.0).astype(np.uint8), h.T)
        for dummy in (-1.0, 1.0):
            total[:, code.n] = dummy
            hard, parity = decoders._sweep(total, [], slots.T.copy())  # no level: the check alone
            assert np.array_equal(hard, total[:, : code.n] < 0.0)
            assert np.array_equal(parity, expected), dummy


def test_serial_levels_structure():
    """16 levels per side on hgp:2:9:12:4; within a level no two checks
    share a variable; every variable meets its checks in index order."""
    code = sparse_hgp()
    for h in (code.h_x, code.h_z):
        levels = decoders.serial_levels(h)
        assert len(levels) == 16
        assert np.array_equal(np.sort(np.concatenate(levels)), np.arange(h.shape[0]))
        level_of = np.empty(h.shape[0], dtype=int)
        for lv, checks in enumerate(levels):
            assert h[checks].sum(axis=0).max() <= 1
            level_of[checks] = lv
        for v in range(h.shape[1]):
            assert np.all(np.diff(level_of[np.flatnonzero(h[:, v])]) > 0), v


# --- MWPM: per-shot BFS and matching, brute force, import path ---------------


def matching_graph(h):
    """networkx matching graph of h: a node per check and one boundary
    node, an edge per qubit carrying its index."""
    g = nx.Graph()
    g.add_node("boundary")
    g.add_nodes_from(range(h.shape[0]))
    for q in range(h.shape[1]):
        checks = np.nonzero(h[:, q])[0]
        if len(checks) == 1:
            g.add_edge(int(checks[0]), "boundary", qubit=q)
        elif len(checks) == 2:
            g.add_edge(int(checks[0]), int(checks[1]), qubit=q)
    return g


def path_qubits(g, path):
    return [g.edges[a, b]["qubit"] for a, b in zip(path, path[1:])]


def bfs_matching_side(h, syn):
    """(correction, total path length): shortest paths from each defect
    found per shot, minimum-weight perfect matching with one boundary node
    per defect."""
    n = h.shape[1]
    g = matching_graph(h)
    correction = np.zeros(n, dtype=np.uint8)
    defects = [int(i) for i in np.nonzero(syn)[0]]
    if not defects:
        return correction, 0
    paths = {d: nx.single_source_shortest_path(g, d) for d in defects}
    match_graph = nx.Graph()
    big = 4 * n
    for i, d1 in enumerate(defects):
        match_graph.add_edge(("d", d1), ("b", d1), weight=big - (len(paths[d1]["boundary"]) - 1))
        for d2 in defects[i + 1 :]:
            match_graph.add_edge(("d", d1), ("d", d2), weight=big - (len(paths[d1][d2]) - 1))
            match_graph.add_edge(("b", d1), ("b", d2), weight=big)
    length = 0
    for u, v in nx.max_weight_matching(match_graph, maxcardinality=True):
        if u[0] == v[0] == "b":
            continue
        if u[0] == v[0] == "d":
            path = paths[u[1]][v[1]]
        else:
            path = paths[u[1] if u[0] == "d" else v[1]]["boundary"]
        correction[path_qubits(g, path)] ^= 1
        length += len(path) - 1
    return correction, length


def assert_matches_per_shot_matching(code, s_x, s_z):
    """Per side syndrome: above DP_MAX_DEFECTS the correction is the
    reference's bit for bit (both run blossom on the same graph). At or
    below it the correction is the XOR of the DP's pairs' paths, it
    reproduces the syndrome, and its total path length and logical class
    are the reference's."""
    dec = MatchingDecoder(code)
    corr_x, corr_z, ok, converged, iterations = dec.decode_batch(s_x, s_z)
    assert ok.all() and converged.all() and not iterations.any()
    sides = [
        (code.h_z, code.logical_z, dec._paths_x_side, dec._lengths_x_side, s_z, corr_x),
        (code.h_x, code.logical_x, dec._paths_z_side, dec._lengths_z_side, s_x, corr_z),
    ]
    for h, logical, paths, lengths, syns, corrs in sides:
        for t, (syn, corr) in enumerate(zip(syns, corrs)):
            ref, ref_length = bfs_matching_side(h, syn)
            defects = np.flatnonzero(syn).tolist()
            if len(defects) > decoders.DP_MAX_DEFECTS:
                assert np.array_equal(corr, ref), t
                continue
            pairs = decoders._dp_matching(*lengths, sum(1 << d for d in defects), {0: (0, -1)})
            from_pairs = np.zeros(code.n, dtype=np.uint8)
            for a, b in pairs:
                from_pairs[paths[a][b]] ^= 1
            assert np.array_equal(corr, from_pairs), t
            assert np.array_equal(gf2.matvec(h, corr), syn), t
            assert sum(len(paths[a][b]) for a, b in pairs) == ref_length, t
            assert np.array_equal(gf2.matvec(logical, corr), gf2.matvec(logical, ref)), t


@pytest.mark.parametrize("d,p", [(3, 0.08), (5, 0.08), (5, 0.02)])
def test_mwpm_batch_matches_per_shot_matching(d, p):
    code = codes.rotated_surface(d)
    assert_matches_per_shot_matching(code, *syndrome_batch(code, p, 150, 71))


@pytest.mark.parametrize("d", [3, 5, 7])
def test_mwpm_batch_equals_one_row_per_call(d):
    """Rows at p = 0.04 and at p = 0.3, shuffled, with repeats and the
    all-zero row, decoded as one call: every correction equals the one
    the row gets alone, though the batch's rows share the subset DP's
    memo. surface:7's side syndromes reach DP_MAX_DEFECTS and pass it;
    surface:3 and 5 have 4 and 12 checks per side."""
    code = codes.rotated_surface(d)
    low, high = syndrome_batch(code, 0.04, 100, 78), syndrome_batch(code, 0.3, 100, 79)
    order = stream(80).permutation(len(low[0]) + len(high[0]))
    s_x, s_z = (np.concatenate([a, b])[order] for a, b in zip(low, high))
    defects = np.concatenate([s_x.sum(axis=1), s_z.sum(axis=1)])
    if d == 7:
        assert defects.min() == 0 and (defects == decoders.DP_MAX_DEFECTS).any()
        assert (defects > decoders.DP_MAX_DEFECTS).any()
    dec = MatchingDecoder(code)
    reference = []
    for t in range(len(s_x)):
        corr_x, corr_z, _, _, _ = dec.decode_batch(s_x[t : t + 1], s_z[t : t + 1])
        reference.append((corr_x[0], corr_z[0], True, True, 0))
    assert_batch_equals(dec.decode_batch(s_x, s_z), reference)


def test_mwpm_above_the_cap_is_the_blossom_reference():
    """surface:9 at p = 0.3, keeping the shots whose two side syndromes
    both have more than DP_MAX_DEFECTS defects: blossom decodes every side."""
    code = codes.rotated_surface(9)
    s_x, s_z = syndrome_batch(code, 0.3, 50, 73)
    cap = decoders.DP_MAX_DEFECTS
    keep = (s_x.sum(axis=1) > cap) & (s_z.sum(axis=1) > cap)
    assert keep.sum() >= 20
    assert_matches_per_shot_matching(code, s_x[keep], s_z[keep])


def test_mwpm_at_the_cap_and_one_above():
    """Side syndromes of exactly DP_MAX_DEFECTS and DP_MAX_DEFECTS + 1
    defects on surface:9, the DP on one side of each shot and blossom on
    the other."""
    code = codes.rotated_surface(9)
    cap = decoders.DP_MAX_DEFECTS
    rng = stream(74)

    def rows(r, counts):
        out = np.zeros((len(counts), r), dtype=np.uint8)
        for row, m in zip(out, counts):
            row[rng.choice(r, m, replace=False)] = 1
        return out

    counts = [cap, cap + 1] * 8
    s_x, s_z = rows(code.r_x, counts), rows(code.r_z, counts[::-1])
    assert_matches_per_shot_matching(code, s_x, s_z)


def all_matchings(defects):
    """Every matching of the defects in which each defect goes to a partner
    or to its own boundary copy (the copies left over pair among
    themselves at no cost), as (defect, partner or "boundary") pairs. The
    lowest unmatched defect takes the boundary first, then each partner in
    ascending order."""
    if not defects:
        yield []
        return
    first, rest = defects[0], defects[1:]
    for tail in all_matchings(rest):
        yield [(first, "boundary")] + tail
    for k, partner in enumerate(rest):
        for tail in all_matchings(rest[:k] + rest[k + 1 :]):
            yield [(first, partner)] + tail


def brute_force_side(g, n, syn):
    """Correction of the first minimum total path length matching, in the
    order of all_matchings, over networkx's shortest paths."""
    defects = np.flatnonzero(syn).tolist()
    paths = {d: nx.single_source_shortest_path(g, d) for d in defects}
    best = min(all_matchings(defects), key=lambda pairs: sum(len(paths[a][b]) - 1 for a, b in pairs))
    correction = np.zeros(n, dtype=np.uint8)
    for a, b in best:
        correction[path_qubits(g, paths[a][b])] ^= 1
    return correction


def every_side_syndrome(r):
    return np.array(list(itertools.product((0, 1), repeat=r)), dtype=np.uint8)


@pytest.mark.parametrize("d,p,shots", [(3, None, None), (5, 0.1, 150), (7, 0.07, 100)])
def test_mwpm_dp_matches_brute_force(d, p, shots):
    """Bit for bit: every side syndrome of surface:3; sampled side
    syndromes of surface:5 and surface:7 with at most 8 defects."""
    code = codes.rotated_surface(d)
    if p is None:
        s_x, s_z = every_side_syndrome(code.r_x), every_side_syndrome(code.r_z)
    else:
        s_x, s_z = syndrome_batch(code, p, shots, 75)
        keep = (s_x.sum(axis=1) <= 8) & (s_z.sum(axis=1) <= 8)
        s_x, s_z = s_x[keep], s_z[keep]
        assert max(s_x.sum(axis=1).max(), s_z.sum(axis=1).max()) == 8
    g_x, g_z = matching_graph(code.h_z), matching_graph(code.h_x)
    reference = [
        (brute_force_side(g_x, code.n, sz), brute_force_side(g_z, code.n, sx), True, True, 0)
        for sx, sz in zip(s_x, s_z)
    ]
    assert_batch_equals(MatchingDecoder(code).decode_batch(s_x, s_z), reference)


def side_syndromes_by_index(r):
    """Every side syndrome of r checks, row S with check c at bit c."""
    return ((np.arange(2**r)[:, None] >> np.arange(r)) & 1).astype(np.uint8)


@pytest.mark.parametrize("code_id", ["rep3", "shor9", "surface:3", "surface:5", "hgp:1:2:4:2"])
def test_mwpm_table_equals_the_subset_dp(code_id):
    """Each side's correction table, built by the vectorized DP, is
    _match_side's correction bit for bit on every side syndrome, and
    decode_batch reads its rows."""
    code = codes.from_id(code_id)
    dec = MatchingDecoder(code)
    sides = [(dec._table_x_side, dec._paths_x_side, dec._lengths_x_side, code.r_z),
             (dec._table_z_side, dec._paths_z_side, dec._lengths_z_side, code.r_x)]
    for table, paths, lengths, r in sides:
        assert table.shape == (2**r, code.n)
        assert np.array_equal(table, dec._match_side(paths, lengths, side_syndromes_by_index(r)))
    every_z = side_syndromes_by_index(code.r_z)
    rows = np.arange(len(every_z)) % 2**code.r_x
    corr_x, corr_z, _, _, _ = dec.decode_batch(side_syndromes_by_index(code.r_x)[rows], every_z)
    assert np.array_equal(corr_x, dec._table_x_side) and np.array_equal(corr_z, dec._table_z_side[rows])


def test_mwpm_builds_no_table_above_the_cap():
    """surface:7 has 24 checks per side, past DP_MAX_DEFECTS: no table,
    and each batch runs _match_side."""
    code = codes.rotated_surface(7)
    assert code.r_x == code.r_z == 24
    dec = MatchingDecoder(code)
    assert dec._table_x_side is None and dec._table_z_side is None


BFS_CODES = ["rep3", "shor9", *(f"surface:{d}" for d in range(3, 14, 2)),
             "hgp:1:2:4:2", "hgp:0:3:6:2", "hgp:0:4:5:2"]


@pytest.mark.parametrize("code_id", BFS_CODES)
def test_shortest_paths_match_networkx(code_id):
    """Same targets in the same order, and the same qubits along each path,
    as networkx's single_source_shortest_path, on both sides."""
    code = codes.from_id(code_id)
    for h in (code.h_x, code.h_z):
        g = matching_graph(h)
        paths = MatchingDecoder._shortest_paths(h)
        assert list(paths) == list(range(h.shape[0]))
        for c in range(h.shape[0]):
            reference = nx.single_source_shortest_path(g, c)
            assert list(paths[c]) == list(reference), (c,)
            for target, path in reference.items():
                assert paths[c][target] == path_qubits(g, path), (c, target)


def test_cli_import_leaves_networkx_out():
    """networkx is imported by the blossom path alone, not by the CLI."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c", "import sys, qnetcode.cli; print('networkx' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"


# --- lookup: the dict-built table --------------------------------------------


def dict_table(code, weight_cap):
    """Syndrome bytes -> first minimum-weight error, enumerated as Pauli
    operators in increasing weight, lexicographic (x_bits, z_bits) order
    within a weight."""
    table = {}
    for w in range(weight_cap + 1):
        if len(table) >= 2 ** (code.r_x + code.r_z):
            break
        batch = []
        for qubits in itertools.combinations(range(code.n), w):
            for letters in itertools.product("XYZ", repeat=w):
                x = np.zeros(code.n, dtype=np.uint8)
                z = np.zeros(code.n, dtype=np.uint8)
                for q, letter in zip(qubits, letters):
                    x[q] = letter in "XY"
                    z[q] = letter in "YZ"
                batch.append(PauliOperator(code.n, x, z))
        batch.sort(key=lambda e: (tuple(e.x_bits), tuple(e.z_bits)))
        for err in batch:
            s_x, s_z = codes.syndrome(code, err)
            table.setdefault((s_x.tobytes(), s_z.tobytes()), err)
    return table


LOOKUP_CASES = [
    (codes.rep3, 4),
    (codes.shor9, 4),
    (codes.shor9, 1),  # weight 1 leaves most syndromes undecodable
    (lambda: codes.rotated_surface(3), 2),
]


@pytest.mark.parametrize("make_code,cap", LOOKUP_CASES, ids=["rep3", "shor9", "shor9-cap1", "surface:3-cap2"])
def test_lookup_batch_matches_dict_table(make_code, cap):
    code = make_code()
    table = dict_table(code, cap)
    dec = LookupDecoder(code, weight_cap=cap)
    s_x, s_z = syndrome_batch(code, 0.1, 200, 72)
    # then every syndrome once, so the whole table is compared
    every = np.array(list(itertools.product((0, 1), repeat=code.r_x + code.r_z)), dtype=np.uint8)
    s_x = np.concatenate([s_x, every[:, : code.r_x]])
    s_z = np.concatenate([s_z, every[:, code.r_x :]])
    reference = []
    for sx, sz in zip(s_x, s_z):
        err = table.get((sx.tobytes(), sz.tobytes()))
        if err is None:
            reference.append((None, None, False, False, 0))
        else:
            reference.append((err.x_bits, err.z_bits, True, True, 0))
    if cap < 4:
        assert not all(ok for _, _, ok, _, _ in reference)  # the batch has undecodable rows
    assert_batch_equals(dec.decode_batch(s_x, s_z), reference)


@pytest.mark.parametrize("make_decoder", [
    lambda: LookupDecoder(codes.shor9()),
    lambda: MatchingDecoder(codes.rotated_surface(3)),
    lambda: BpDecoder(small_hgp(), 0.05),
], ids=["lookup", "mwpm", "bp"])
def test_decode_batch_of_no_rows(make_decoder):
    dec = make_decoder()
    code = dec.code
    corr_x, corr_z, ok, converged, iterations = dec.decode_batch(
        np.zeros((0, code.r_x), dtype=np.uint8), np.zeros((0, code.r_z), dtype=np.uint8))
    assert corr_x.shape == corr_z.shape == (0, code.n)
    assert ok.shape == converged.shape == iterations.shape == (0,)


def test_decode_batch_rejects_wrong_shapes():
    code = codes.shor9()
    dec = LookupDecoder(code)
    with pytest.raises(ValueError):
        dec.decode_batch(np.zeros((2, code.r_x)), np.zeros((3, code.r_z)))
    with pytest.raises(ValueError):
        dec.decode_batch(np.zeros(code.r_x), np.zeros(code.r_z))


# --- decoding leaves a decoder as it was built --------------------------------


def same_state(a, b) -> bool:
    """Arrays by dtype and value, lists, tuples and dicts item by item,
    anything else by identity or ==."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same_state, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    return a is b or a == b


# (code, decoder, p, shots, seed, whether a batch reaches the rare path)
UNCHANGED_CASES = [
    (lambda: codes.rotated_surface(7), MatchingDecoder, 0.3, 200, 80,
     lambda s_x, s_z, out: (np.maximum(s_x.sum(axis=1), s_z.sum(axis=1)) > decoders.DP_MAX_DEFECTS).any()),
    (lambda: codes.rotated_surface(5), MatchingDecoder, 0.1, 100, 82,
     lambda s_x, s_z, out: min(s_x.sum(axis=1).max(), s_z.sum(axis=1).max()) >= 5),
    (small_hgp, lambda code: BpDecoder(code, 0.05, max_iters=10), 0.1, 80, 70,
     lambda s_x, s_z, out: (out[4] == 10).any()),
    (lambda: codes.from_id("hgp:1:2:4:2"), LookupDecoder, 0.1, 100, 81,
     lambda s_x, s_z, out: not out[2].all()),
]


@pytest.mark.parametrize("make_code,make,p,shots,seed,rare", UNCHANGED_CASES,
                         ids=["mwpm-blossom", "mwpm-table", "bp-at-cap", "lookup-undecodable"])
def test_decoding_leaves_the_decoder_unchanged(make_code, make, p, shots, seed, rare):
    """The CLI shares one decoder among its calls: after batches with side
    syndromes past DP_MAX_DEFECTS (blossom), batches of surface:5 side
    syndromes of five or more defects (MWPM's correction tables), BP rows
    run to the iteration cap and undecodable lookup rows, every attribute
    equals that of a freshly built decoder, and the code's arrays and
    MWPM's tables are still read-only."""
    code = make_code()
    dec = make(code)
    for part in range(2):
        s_x, s_z = syndrome_batch(code, p, shots, seed + part)
        assert rare(s_x, s_z, dec.decode_batch(s_x, s_z))
    fresh = vars(make(code))
    assert vars(dec).keys() == fresh.keys()
    for name, value in vars(dec).items():
        assert same_state(value, fresh[name]), name
    for name in ("h_x", "h_z", "logical_x", "logical_z"):
        assert not getattr(code, name).flags.writeable, name
    if isinstance(dec, MatchingDecoder) and code.r_x <= decoders.DP_MAX_DEFECTS:
        assert not dec._table_x_side.flags.writeable and not dec._table_z_side.flags.writeable
