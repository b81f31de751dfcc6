"""Syndrome decoders: minimum-weight lookup tables, exact MWPM for surface
codes, and sum-product belief propagation for sparse-graph CSS codes.

MWPM and BP decode the X and Z sides independently (the standard CSS
simplification). Lookup decodes them jointly: it indexes one table by
both syndromes and counts Y as weight 1, so on shor9 X0·Z2 decodes to
Y0 while Z2 alone decodes to Z2. Every tie is broken by a fixed rule, so runs are reproducible. Lookup
keeps the first error in lexicographic (x_bits, z_bits) order within a
weight. MWPM's subset DP gives a side syndrome's lowest defect the
boundary before a partner and partners in ascending order; above
DP_MAX_DEFECTS defects, ties are whatever networkx's blossom returns on
a graph built in a fixed order. BP has no ties: it thresholds
posteriors.

Every decoder decodes a batch: ``decode_batch(s_x, s_z)`` takes (T, r_x)
and (T, r_z) uint8 syndrome arrays and returns
``(corr_x, corr_z, ok, converged, iterations)``: (T, n) correction bits,
and per shot whether the syndrome was decodable (False only where the
lookup table has no entry), whether BP converged, and BP's iteration
count (0 for the other decoders). ``decode(syn)`` is the one-row case,
returned as a DecodeResult. Lookup is one gather from a dense table, and
so is MWPM on a side of at most DP_MAX_DEFECTS checks: its table, built
once per decoder, holds the subset DP's correction of every defect set.
BP, and MWPM on larger sides, decode each distinct side syndrome of a
batch once, all of a side's together: BP sweeps them as rows of one
array, dropping each as it converges, and MWPM's subset DP keeps one memo
per side for the call, keyed by defect sets, so the syndromes share their
subproblems.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from qnetcode import gf2
from qnetcode.codes import CssCode, parities, syndrome as code_syndrome  # noqa: F401  (perfbench's tracer test reads it)
from qnetcode.pauli import LABEL_XZ, PauliOperator

Syndrome = tuple[np.ndarray, np.ndarray]
# (corr_x, corr_z, ok, converged, iterations) of a batch of T shots
Batch = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


@dataclass
class DecodeResult:
    correction: PauliOperator
    converged: Optional[bool] = None
    iterations: Optional[int] = None


class UndecodableError(Exception):
    """Syndrome not covered by the decoder's table."""


def logical_failure(code: CssCode, true_error: PauliOperator, correction: PauliOperator) -> bool:
    """True iff the residual true_error * correction acts as a logical
    operator, i.e. anticommutes with some logical X or Z representative."""
    x = true_error.x_bits ^ correction.x_bits
    z = true_error.z_bits ^ correction.z_bits
    _, _, l_x, l_z = parities(code, x[None], z[None])
    return bool(l_x.any() or l_z.any())


def _as_batch(code: CssCode, s_x, s_z) -> Syndrome:
    s_x = np.asarray(s_x, dtype=np.uint8)
    s_z = np.asarray(s_z, dtype=np.uint8)
    if s_x.shape != (len(s_x), code.r_x) or s_z.shape != (len(s_x), code.r_z):
        raise ValueError(
            f"syndrome batches must be (T, {code.r_x}) and (T, {code.r_z}) arrays, "
            f"got {s_x.shape} and {s_z.shape}"
        )
    return s_x, s_z


def _one_row(syn: Syndrome) -> Syndrome:
    return tuple(np.asarray(s, dtype=np.uint8).reshape(1, -1) for s in syn)


# --- lookup decoding -------------------------------------------------------


def _errors_of_weight(index1: np.ndarray, key1: np.ndarray, w: int):
    """(index, key) of every weight-w Pauli, in increasing key order.

    index1[q, l] and key1[q, l] (letter l = X, Y, Z on qubit q) are a
    single-qubit Pauli's packed syndrome and its row [x_bits | z_bits]
    read as a binary number, qubit 0 first. A product of single-qubit
    factors on distinct qubits has the XOR of their syndromes and the sum
    of their keys, and key order is lexicographic (x_bits, z_bits) order.
    """
    n = len(index1)
    supports = list(itertools.combinations(range(n), w))
    letters = list(itertools.product(range(3), repeat=w))
    supports = np.array(supports, dtype=np.intp).reshape(len(supports), w)
    letters = np.array(letters, dtype=np.intp).reshape(len(letters), w)
    index = np.zeros((len(supports), len(letters)), dtype=np.int64)
    key = np.zeros_like(index)
    for f in range(w):
        factor = (supports[:, f, None], letters[None, :, f])
        index ^= index1[factor]
        key += key1[factor]
    order = np.argsort(key, axis=None)
    return index.ravel()[order], key.ravel()[order]


class LookupDecoder:
    """Minimum-weight table decoder for small codes (n <= 20).

    Errors are enumerated in increasing weight; within a weight, ties are
    broken by lexicographic order of (x_bits, z_bits). The table is dense:
    row i of ``corrections`` holds the correction [x_bits | z_bits] of the
    syndrome whose bits, s_x then s_z, most significant first, spell i;
    ``filled`` marks the syndromes reached within ``weight_cap``.
    """

    def __init__(self, code: CssCode, weight_cap: int = 4):
        if code.n > 20 or code.r_x + code.r_z > 20:
            raise ValueError("lookup decoding is limited to n <= 20 and r_x + r_z <= 20")
        self.code = code
        self.weight_cap = weight_cap
        r, n = code.r_x + code.r_z, code.n
        self._place = 1 << np.arange(r - 1, -1, -1, dtype=np.int64)
        bits = 1 << np.arange(2 * n - 1, -1, -1, dtype=np.int64)
        # rows [x_bits | z_bits] of X, Y and Z (LABEL_XZ[1:]) on each qubit
        singles = np.zeros((n, 3, 2, n), dtype=np.uint8)
        q = np.arange(n)
        singles[q, :, :, q] = LABEL_XZ[1:]
        singles = singles.reshape(3 * n, 2 * n)
        s_x, s_z, _, _ = parities(code, singles[:, :n], singles[:, n:])
        index1 = (np.hstack([s_x, s_z]) @ self._place).reshape(n, 3)
        key1 = (singles @ bits).reshape(n, 3)
        self.corrections = np.zeros((2**r, 2 * n), dtype=np.uint8)
        self.filled = np.zeros(2**r, dtype=bool)
        for w in range(weight_cap + 1):
            if self.filled.all():
                break
            index, key = _errors_of_weight(index1, key1, w)
            index, first = np.unique(index, return_index=True)
            new = ~self.filled[index]
            self.corrections[index[new]] = (key[first[new], None] & bits) != 0
            self.filled[index[new]] = True

    def decode_batch(self, s_x, s_z) -> Batch:
        s_x, s_z = _as_batch(self.code, s_x, s_z)
        index = np.hstack([s_x, s_z]) @ self._place
        rows, ok = self.corrections[index], self.filled[index]
        n = self.code.n
        return rows[:, :n], rows[:, n:], ok, ok.copy(), np.zeros(len(index), dtype=np.int64)

    def decode(self, syn: Syndrome) -> DecodeResult:
        corr_x, corr_z, ok, _, _ = self.decode_batch(*_one_row(syn))
        if not ok[0]:
            raise UndecodableError(
                f"syndrome not in table (weight cap {self.weight_cap})"
            )
        return DecodeResult(correction=PauliOperator(self.code.n, corr_x[0], corr_z[0]), converged=True)


# --- minimum-weight perfect matching ----------------------------------------

_BOUNDARY = "boundary"

# Side syndromes with at most this many defects are matched by the subset DP,
# larger ones by networkx's blossom; a side with at most this many checks is
# decoded from a table of the DP's corrections. The DP's cost depends on the
# defect count alone and doubles or more per defect. The crossover, mean per
# syndrome over 30 random defect sets on surface:11 (2-core Intel Xeon): DP
# 0.4 ms against blossom 2.7 ms at 10 defects, 4.3–4.9 against 5.5–7.0 ms at 15,
# 5.2–7.7 against 5.0–6.1 ms at 16, and 10–15 against 7.5–8.1 ms at 17.
DP_MAX_DEFECTS = 15


def _dp_matching(to_boundary: list, dist: list, defects: int, solved: dict) -> list:
    """(defect, defect or _BOUNDARY) pairs of a minimum total path length
    matching of the defects, each of which may go to the boundary instead.

    defects is a bitmask over the side's check indices. A DP over the
    subsets S of the defects, memoized from the whole set down, so it
    visits only the subsets it reaches: with i the lowest defect of S,
    f(S) = min(b_i + f(S - i), min_j D_ij + f(S - i - j)), where
    b = to_boundary and D = dist are path lengths. Ties go to the boundary
    before a partner and to partners in ascending order; the first minimum
    wins. So f(S) and its pick depend on S alone, and ``solved``
    (S -> (f(S), partner of S's lowest defect or -1 for the boundary),
    holding at least {0: (0, -1)}) carries over from one syndrome of a
    side to the next."""

    def f(s: int) -> int:
        done = solved.get(s)
        if done is not None:
            return done[0]
        low = s & -s
        i = low.bit_length() - 1
        rest = s ^ low
        best, pick = to_boundary[i] + f(rest), -1
        r = rest
        while r:
            bit = r & -r
            j = bit.bit_length() - 1
            c = dist[i][j] + f(rest ^ bit)
            if c < best:
                best, pick = c, j
            r ^= bit
        solved[s] = (best, pick)
        return best

    s = defects
    f(s)
    pairs = []
    while s:
        low = s & -s
        i, j = low.bit_length() - 1, solved[s][1]
        pairs.append((i, _BOUNDARY if j < 0 else j))
        s ^= low if j < 0 else low | (1 << j)
    return pairs


def _blossom_matching(paths: dict, defects: list, n: int) -> list:
    """Pairs as _dp_matching gives them, of a minimum total path length
    matching found by networkx's blossom: a maximum-weight perfect
    matching of the defects and one boundary copy each, the copies pairing
    among themselves at no cost. Its ties are networkx's."""
    import networkx as nx  # imported here: only large defect sets need it

    match_graph = nx.Graph()
    big = 4 * n
    for i, d1 in enumerate(defects):
        match_graph.add_edge(("d", d1), ("b", d1), weight=big - len(paths[d1][_BOUNDARY]))
        for d2 in defects[i + 1 :]:
            match_graph.add_edge(("d", d1), ("d", d2), weight=big - len(paths[d1][d2]))
            match_graph.add_edge(("b", d1), ("b", d2), weight=big)
    pairs = []
    for u, v in nx.max_weight_matching(match_graph, maxcardinality=True):
        kinds = {u[0], v[0]}
        if kinds == {"d"}:
            pairs.append((u[1], v[1]))
        elif kinds == {"d", "b"}:
            pairs.append((u[1] if u[0] == "d" else v[1], _BOUNDARY))
    return pairs


class MatchingDecoder:
    """Exact MWPM decoder for codes whose qubits touch at most two checks
    per side (rotated surface codes) and whose checks all have a path to
    the boundary. Edge weights are uniform: under one i.i.d. error rate
    every edge has the same log-likelihood weight, so the rate cannot
    change a matching and the decoder takes none.

    The shortest paths from every check, and the path length tables the
    subset DP reads, are found once, here. A side of r <= DP_MAX_DEFECTS
    checks has only syndromes the subset DP decodes, so it also gets a
    read-only correction table, built here by _correction_table and
    decoded by one gather: 2**r rows of n bytes, 4096 x 25 B = 100 KiB
    per side on surface:5, and at most 2**15 x 34 B = 1.06 MiB per side
    among the ids codes.from_id builds that MWPM decodes
    (hgp:<seed>:3:5:2 and hgp:<seed>:5:3:1, whose sides have 15 checks
    on 34 qubits). On a larger side a batch runs one matching per
    distinct side syndrome (_match_side): the subset DP for at most
    DP_MAX_DEFECTS defects, blossom above. Both find a minimum total path
    length; they may pick different matchings of equal length."""

    def __init__(self, code: CssCode):
        self.code = code
        self._paths_x_side = self._shortest_paths(code.h_z)  # corrects X errors
        self._paths_z_side = self._shortest_paths(code.h_x)  # corrects Z errors
        for name, paths in (("h_z", self._paths_x_side), ("h_x", self._paths_z_side)):
            cut = [c for c, found in paths.items() if _BOUNDARY not in found]
            if cut:
                raise ValueError(f"check {cut[0]} of {name} has no path to the boundary")
        self._lengths_x_side = self._path_lengths(self._paths_x_side)
        self._lengths_z_side = self._path_lengths(self._paths_z_side)
        self._table_x_side = self._correction_table(self._paths_x_side, self._lengths_x_side)
        self._table_z_side = self._correction_table(self._paths_z_side, self._lengths_z_side)

    @staticmethod
    def _shortest_paths(h: np.ndarray) -> dict:
        """paths[c][target]: the qubits along a shortest path of the
        matching graph from check c to each check, or the boundary, that
        it reaches. Each qubit is an edge between its two checks, or its
        one check and the boundary; of parallel edges the last qubit
        counts. Breadth first, level by level, each node's edges in the
        order they were added; the first discovery of a node wins."""
        adj = {c: {} for c in range(h.shape[0])}
        adj[_BOUNDARY] = {}
        for q, column in enumerate(h.T):
            checks = np.flatnonzero(column).tolist()
            if len(checks) > 2:
                raise ValueError("matching requires <= 2 checks per qubit per side")
            if checks:
                a, b = (checks + [_BOUNDARY])[:2]
                adj[a][b] = adj[b][a] = q
        paths = {}
        for c in range(h.shape[0]):
            found = {c: []}
            level = [c]
            while level:
                next_level = []
                for v in level:
                    for w, q in adj[v].items():
                        if w not in found:
                            found[w] = found[v] + [q]
                            next_level.append(w)
                level = next_level
            paths[c] = found
        return paths

    @staticmethod
    def _path_lengths(paths: dict) -> tuple[list, list]:
        """(b, D) of one side, as the subset DP reads them: b[c] is the
        path length from check c to the boundary, D[a][c] from check a to
        check c."""
        checks = range(len(paths))
        to_boundary = [len(paths[c][_BOUNDARY]) for c in checks]
        return to_boundary, [[len(paths[a][c]) for c in checks] for a in checks]

    def _correction_table(self, paths: dict, lengths: tuple) -> Optional[np.ndarray]:
        """The read-only (2**r, n) correction table of a side with r <=
        DP_MAX_DEFECTS checks, or None above: row S is the correction
        _dp_matching's pairs give the defect set S, check c at bit c.

        It runs _dp_matching's recurrence over every defect set at once,
        one popcount layer at a time, since f(S) reads only the layers of
        |S| - 1 and |S| - 2 defects. With i the lowest defect of S,
        candidate 0 sends i to the boundary and candidate 1 + j pairs it
        with check j; a j outside S - i is priced out, so argmin keeps the
        first minimum over the boundary, then partners in ascending order,
        as the DP's strict < does. A set's correction is its remainder's
        XOR the path from i to its pick."""
        r, n = len(paths), self.code.n
        if r > DP_MAX_DEFECTS:
            return None
        to_boundary, dist = lengths
        step = np.array([[b, *row] for b, row in zip(to_boundary, dist)], dtype=np.int64).reshape(r, r + 1)
        path = np.zeros((r, r + 1, n), dtype=np.uint8)  # the qubits of candidate c's path from check i
        for i in range(r):
            for c, target in enumerate([_BOUNDARY, *range(r)]):
                path[i, c, paths[i][target]] = 1
        flip = np.concatenate([[0], 1 << np.arange(r, dtype=np.int64)])  # candidate c's partner bit
        sets = np.arange(2**r, dtype=np.int64)
        size = np.bitwise_count(sets)
        lowest = np.bitwise_count((sets & -sets) - 1).astype(np.intp)
        cost = np.zeros(2**r, dtype=np.int64)
        table = np.zeros((2**r, n), dtype=np.uint8)
        for k in range(1, r + 1):
            s = sets[size == k]
            i = lowest[s]
            rest = (s ^ (1 << i))[:, None]
            left = rest ^ flip  # the defects candidate c leaves; above rest where c is no partner
            totals = np.where(left <= rest, step[i] + cost[left], np.iinfo(np.int64).max)
            pick = totals.argmin(axis=1)
            row = np.arange(len(s))
            cost[s] = totals[row, pick]
            table[s] = table[left[row, pick]] ^ path[i, pick]
        table.flags.writeable = False
        return table

    def _match_side(self, paths: dict, lengths: tuple, syn: np.ndarray) -> np.ndarray:
        """(T, n) corrections of the (T, r) side syndromes syn: the paths
        of a minimum total length matching of each distinct row's defects.
        The rows of one call share the subset DP's memo, which is dropped
        when the call returns."""
        rows, inverse = gf2.distinct_rows(syn)
        n = self.code.n
        solved = {0: (0, -1)}
        owner, qubits = [], []  # the qubits of every matched path, and the row of each
        # each row's defects as a bitmask, check c at bit c
        masks = map(bytes, np.packbits(rows, axis=1, bitorder="little"))
        for k, (row, mask) in enumerate(zip(rows, masks)):
            defects = int.from_bytes(mask, "little")
            if defects.bit_count() <= DP_MAX_DEFECTS:
                pairs = _dp_matching(*lengths, defects, solved)
            else:
                pairs = _blossom_matching(paths, np.flatnonzero(row).tolist(), n)
            for a, b in pairs:
                qubits += paths[a][b]
                owner += [k] * len(paths[a][b])
        # a correction bit is the parity of the number of paths on its qubit
        hits = np.bincount(np.array(owner, dtype=np.intp) * n + np.array(qubits, dtype=np.intp),
                           minlength=len(rows) * n)
        return (hits.reshape(len(rows), n) & 1).astype(np.uint8)[inverse]

    def _decode_side(self, table: Optional[np.ndarray], paths: dict, lengths: tuple, syn: np.ndarray) -> np.ndarray:
        """(T, n) corrections of the (T, r) side syndromes syn: one gather
        from the side's table if it has one, else _match_side."""
        if table is None:
            return self._match_side(paths, lengths, syn)
        return table[syn @ (1 << np.arange(syn.shape[1], dtype=np.int64))]

    def decode_batch(self, s_x, s_z) -> Batch:
        s_x, s_z = _as_batch(self.code, s_x, s_z)
        corr_x = self._decode_side(self._table_x_side, self._paths_x_side, self._lengths_x_side, s_z)
        corr_z = self._decode_side(self._table_z_side, self._paths_z_side, self._lengths_z_side, s_x)
        ok = np.ones(len(s_x), dtype=bool)
        return corr_x, corr_z, ok, ok.copy(), np.zeros(len(s_x), dtype=np.int64)

    def decode(self, syn: Syndrome) -> DecodeResult:
        corr_x, corr_z, _, _, _ = self.decode_batch(*_one_row(syn))
        return DecodeResult(correction=PauliOperator(self.code.n, corr_x[0], corr_z[0]), converged=True)


# --- belief propagation -----------------------------------------------------


def serial_levels(h: np.ndarray) -> list[np.ndarray]:
    """The checks of h grouped into the levels of the serial BP schedule.

    A check's level is one more than the highest level of any earlier
    check that shares a variable with it. So the checks of one level
    touch disjoint variables, and every variable meets its checks in
    index order. Running the levels in turn, each as one vectorized step,
    therefore does the serial loop's arithmetic in the serial order.
    """
    r, n = h.shape
    level = np.zeros(r, dtype=np.intp)
    latest = np.full(n, -1, dtype=np.intp)  # level of the latest check on each variable
    for c in range(r):
        vs = np.flatnonzero(h[c])
        level[c] = latest[vs].max(initial=-1) + 1
        latest[vs] = level[c]
    return [np.flatnonzero(level == lv) for lv in range(level.max(initial=-1) + 1)]


def _bp_steps(h: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]]:
    """Per level: (checks, slots, pad). Row i of slots lists the variables
    of checks[i], padded to the level's largest row weight with the dummy
    variable n; pad marks the padding (None if the level has none)."""
    n = h.shape[1]
    steps = []
    for checks in serial_levels(h):
        adj = [np.flatnonzero(h[c]) for c in checks]
        slots = np.full((len(checks), max(map(len, adj))), n, dtype=np.intp)
        for i, vs in enumerate(adj):
            slots[i, : len(vs)] = vs
        pad = slots == n
        steps.append((checks, slots, pad if pad.any() else None))
    return steps


def _level_update(total, slots, pad, check_sign, c2v):
    """One level of the serial sweep on S rows at once, in place: each
    check of the level replaces its check-to-variable messages c2v
    (S, m, W) and moves its variables' totals (S, n + 1) by the change.
    check_sign (S, m, 1) is -1 where the check's syndrome bit is set and
    +1 elsewhere. A zero message divides by zero; the caller silences
    that with np.errstate."""
    # np.minimum(np.maximum(...)) is np.clip without its Python wrapper,
    # whose overhead cost about 8% of a BP decode
    t = np.tanh(np.minimum(np.maximum(total[:, slots] - c2v, -30.0), 30.0) / 2.0)
    if pad is not None:
        np.copyto(t, 1.0, where=pad)  # exact in the product
    prod = t.prod(axis=2, keepdims=True)
    leave_one_out = prod / t
    if not prod.all():
        # a check's single zeroed message gets the product of the rest;
        # with two or more zeros every zeroed one gets 0
        zero = t == 0.0
        lone = zero & (zero.sum(axis=2, keepdims=True) == 1)
        rest = np.where(zero, 1.0, t).prod(axis=2, keepdims=True)
        leave_one_out = np.where(zero, np.where(lone, rest, 0.0), leave_one_out)
    new = 2.0 * np.arctanh(np.minimum(np.maximum(check_sign * leave_one_out, -1 + 1e-12), 1 - 1e-12))
    total[:, slots] += new - c2v
    c2v[...] = new


class BpDecoder:
    """Sum-product syndrome BP on the Tanner graphs of h_z and h_x.

    Serial schedule (layered by check: each check's update is visible to
    the checks after it in the same sweep) with no damping. Hard decision
    after every sweep, stopping early once the tentative correction
    reproduces the syndrome. A sweep runs the checks level by level
    (serial_levels), one vectorized step per level, over all of a side's
    distinct syndromes that have not yet converged.
    """

    def __init__(self, code: CssCode, channel_prior: float, max_iters: int = 100):
        if not 0.0 < channel_prior < 0.5:
            raise ValueError(f"channel prior must lie in (0, 0.5), got {channel_prior}")
        self.code = code
        self.p = channel_prior
        self.max_iters = max_iters
        self._steps_z = _bp_steps(code.h_z)
        self._steps_x = _bp_steps(code.h_x)

    def _bp(self, h: np.ndarray, steps: list, syn: np.ndarray):
        """(decision, converged, iterations) of the (T, r) side syndromes
        syn. Each distinct row runs once, and all of them run together: a
        row leaves the sweeps once its hard decision reproduces it, and
        the rows left at the cap keep their last decision."""
        rows, inverse = gf2.distinct_rows(syn)
        n = h.shape[1]
        decision = np.zeros((len(rows), n), dtype=np.uint8)
        converged = ~rows.any(axis=1)
        iterations = np.zeros(len(rows), dtype=np.int64)
        active = np.flatnonzero(~converged)  # the rows still sweeping
        rows = rows[active]
        l0 = float(np.log((1.0 - self.p) / self.p))
        total = np.full((len(rows), n + 1), l0)  # column n: the padding slots' dummy variable
        sign = 1.0 - 2.0 * rows
        levels = [(slots, pad, sign[:, checks, None], np.zeros((len(rows), *slots.shape)))
                  for checks, slots, pad in steps]
        hard = decision[active]
        with np.errstate(divide="ignore", invalid="ignore"):
            for it in range(1, self.max_iters + 1):
                if not len(active):
                    break
                for level in levels:
                    _level_update(total, *level)
                hard = (total[:, :n] < 0.0).astype(np.uint8)
                done = (gf2.matmul(hard, h.T) == rows).all(axis=1)
                if done.any():
                    decision[active[done]] = hard[done]
                    converged[active[done]] = True
                    iterations[active[done]] = it
                    keep = ~done
                    active, rows, total, hard = active[keep], rows[keep], total[keep], hard[keep]
                    levels = [(slots, pad, sign[keep], c2v[keep]) for slots, pad, sign, c2v in levels]
        decision[active] = hard
        iterations[active] = self.max_iters
        return decision[inverse], converged[inverse], iterations[inverse]

    def decode_batch(self, s_x, s_z) -> Batch:
        s_x, s_z = _as_batch(self.code, s_x, s_z)
        corr_x, conv_x, it_x = self._bp(self.code.h_z, self._steps_z, s_z)
        corr_z, conv_z, it_z = self._bp(self.code.h_x, self._steps_x, s_x)
        return corr_x, corr_z, np.ones(len(s_x), dtype=bool), conv_x & conv_z, np.maximum(it_x, it_z)

    def decode(self, syn: Syndrome) -> DecodeResult:
        corr_x, corr_z, _, converged, iterations = self.decode_batch(*_one_row(syn))
        return DecodeResult(
            correction=PauliOperator(self.code.n, corr_x[0], corr_z[0]),
            converged=bool(converged[0]),
            iterations=int(iterations[0]),
        )


# decoder name -> class, in the order the CLI lists them
DECODERS = {"lookup": LookupDecoder, "mwpm": MatchingDecoder, "bp": BpDecoder}
