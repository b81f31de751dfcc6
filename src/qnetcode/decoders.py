"""Syndrome decoders: minimum-weight lookup tables, exact MWPM for surface
codes, and sum-product belief propagation for sparse-graph CSS codes.

X and Z sides are decoded independently (standard CSS simplification);
tie-breaking is lexicographic everywhere so runs are reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import networkx as nx
import numpy as np

from qnetcode import gf2
from qnetcode.codes import CssCode, syndrome as code_syndrome
from qnetcode.pauli import PauliOperator, multiply

Syndrome = tuple[np.ndarray, np.ndarray]


@dataclass
class DecodeResult:
    correction: PauliOperator
    converged: Optional[bool] = None
    iterations: Optional[int] = None


class UndecodableError(Exception):
    """Syndrome not covered by the decoder's table."""


def logical_failure(code: CssCode, true_error: PauliOperator, correction: PauliOperator) -> bool:
    """True iff the residual acts as a logical operator.

    residual = true_error * correction; failure iff it anticommutes with
    some logical X or Z representative.
    """
    residual = multiply(true_error, correction)
    for row in code.logical_x:  # X-type logical: anticommutes with residual Z part
        if int(row @ residual.z_bits.astype(np.int64)) % 2:
            return True
    for row in code.logical_z:
        if int(row @ residual.x_bits.astype(np.int64)) % 2:
            return True
    return False


# --- lookup decoding -------------------------------------------------------


def _pauli_key(p: PauliOperator):
    return (tuple(int(b) for b in p.x_bits), tuple(int(b) for b in p.z_bits))


class LookupDecoder:
    """Minimum-weight table decoder for small codes (n <= 20).

    Errors are enumerated in increasing weight; within a weight, ties are
    broken by lexicographic order of (x_bits, z_bits).
    """

    def __init__(self, code: CssCode, weight_cap: int = 4):
        if code.n > 20:
            raise ValueError("lookup decoding is limited to n <= 20")
        self.code = code
        self.weight_cap = weight_cap
        self.table: dict[tuple[bytes, bytes], PauliOperator] = {}
        full = 2 ** (code.r_x + code.r_z)
        for w in range(weight_cap + 1):
            if len(self.table) >= full:
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
            batch.sort(key=_pauli_key)
            for err in batch:
                s_x, s_z = code_syndrome(code, err)
                key = (s_x.tobytes(), s_z.tobytes())
                if key not in self.table:
                    self.table[key] = err

    def decode(self, syn: Syndrome) -> DecodeResult:
        s_x, s_z = (np.asarray(s, dtype=np.uint8) for s in syn)
        key = (s_x.tobytes(), s_z.tobytes())
        if key not in self.table:
            raise UndecodableError(
                f"syndrome not in table (weight cap {self.weight_cap})"
            )
        return DecodeResult(correction=self.table[key], converged=True)


# --- minimum-weight perfect matching ----------------------------------------

_BOUNDARY = "boundary"


class MatchingDecoder:
    """Exact MWPM decoder for codes whose qubits touch at most two checks
    per side (rotated surface codes). Edge weights are uniform: under one
    i.i.d. error rate every edge has the same log-likelihood weight, so
    the rate cannot change a matching and the decoder takes none."""

    def __init__(self, code: CssCode):
        self.code = code
        self.graph_x_side = self._build_graph(code.h_z)  # corrects X errors
        self.graph_z_side = self._build_graph(code.h_x)  # corrects Z errors

    @staticmethod
    def _build_graph(h: np.ndarray) -> nx.Graph:
        g = nx.Graph()
        g.add_node(_BOUNDARY)
        g.add_nodes_from(range(h.shape[0]))
        for q in range(h.shape[1]):
            checks = np.nonzero(h[:, q])[0]
            if len(checks) == 1:
                g.add_edge(int(checks[0]), _BOUNDARY, qubit=q)
            elif len(checks) == 2:
                g.add_edge(int(checks[0]), int(checks[1]), qubit=q)
            elif len(checks) > 2:
                raise ValueError("matching requires <= 2 checks per qubit per side")
        return g

    def _decode_side(self, g: nx.Graph, syn: np.ndarray) -> np.ndarray:
        n = self.code.n
        correction = np.zeros(n, dtype=np.uint8)
        defects = [int(i) for i in np.nonzero(syn)[0]]
        if not defects:
            return correction
        paths = {d: nx.single_source_shortest_path(g, d) for d in defects}
        match_graph = nx.Graph()
        big = 4 * self.code.n
        for i, d1 in enumerate(defects):
            match_graph.add_edge(("d", d1), ("b", d1), weight=big - (len(paths[d1][_BOUNDARY]) - 1))
            for d2 in defects[i + 1 :]:
                match_graph.add_edge(("d", d1), ("d", d2), weight=big - (len(paths[d1][d2]) - 1))
                match_graph.add_edge(("b", d1), ("b", d2), weight=big)
        matching = nx.max_weight_matching(match_graph, maxcardinality=True)
        for u, v in matching:
            kinds = {u[0], v[0]}
            if kinds == {"b"}:
                continue
            if kinds == {"d"}:
                path = paths[u[1]][v[1]]
            else:
                d = u[1] if u[0] == "d" else v[1]
                path = paths[d][_BOUNDARY]
            for a, b in zip(path, path[1:]):
                correction[g.edges[a, b]["qubit"]] ^= 1
        return correction

    def decode(self, syn: Syndrome) -> DecodeResult:
        s_x, s_z = (np.asarray(s, dtype=np.uint8) for s in syn)
        e_x = self._decode_side(self.graph_x_side, s_z)
        e_z = self._decode_side(self.graph_z_side, s_x)
        return DecodeResult(correction=PauliOperator(self.code.n, e_x, e_z), converged=True)


# --- belief propagation -----------------------------------------------------


class BpDecoder:
    """Sum-product syndrome BP on the Tanner graphs of h_z and h_x.

    Serial schedule (layered by check: each check's update is visible to
    the checks after it in the same sweep) with no damping. Hard decision
    after every sweep, stopping early once the tentative correction
    reproduces the syndrome.
    """

    def __init__(self, code: CssCode, channel_prior: float, max_iters: int = 100):
        if not 0.0 < channel_prior < 0.5:
            raise ValueError(f"channel prior must lie in (0, 0.5), got {channel_prior}")
        self.code = code
        self.p = channel_prior
        self.max_iters = max_iters
        self._adj_z = [np.nonzero(code.h_z[c])[0] for c in range(code.r_z)]
        self._adj_x = [np.nonzero(code.h_x[c])[0] for c in range(code.r_x)]

    def _bp_side(self, h: np.ndarray, adj: list, syn: np.ndarray) -> tuple[np.ndarray, bool, int]:
        n = h.shape[1]
        decision = np.zeros(n, dtype=np.uint8)
        if not syn.any():
            return decision, True, 0
        l0 = float(np.log((1.0 - self.p) / self.p))
        total = np.full(n, l0, dtype=np.float64)
        c2v = [np.zeros(len(vs), dtype=np.float64) for vs in adj]
        for it in range(1, self.max_iters + 1):
            for c, vs in enumerate(adj):
                v2c = total[vs] - c2v[c]
                t = np.tanh(np.clip(v2c, -30, 30) / 2.0)
                prod = np.prod(t)
                with np.errstate(divide="ignore", invalid="ignore"):
                    leave_one_out = np.where(t != 0.0, prod / t, 0.0)
                if (t == 0.0).sum() == 1:
                    # the single zeroed message gets the product of the rest
                    mask = t == 0.0
                    leave_one_out[mask] = np.prod(t[~mask])
                elif (t == 0.0).sum() > 1:
                    leave_one_out[t == 0.0] = 0.0
                sign = -1.0 if syn[c] else 1.0
                new = 2.0 * np.arctanh(np.clip(sign * leave_one_out, -1 + 1e-12, 1 - 1e-12))
                total[vs] += new - c2v[c]
                c2v[c] = new
            decision = (total < 0.0).astype(np.uint8)
            if np.array_equal(gf2.matvec(h, decision), syn):
                return decision, True, it
        return decision, False, self.max_iters

    def decode(self, syn: Syndrome) -> DecodeResult:
        s_x, s_z = (np.asarray(s, dtype=np.uint8) for s in syn)
        e_x, conv_x, it_x = self._bp_side(self.code.h_z, self._adj_z, s_z)
        e_z, conv_z, it_z = self._bp_side(self.code.h_x, self._adj_x, s_x)
        return DecodeResult(
            correction=PauliOperator(self.code.n, e_x, e_z),
            converged=conv_x and conv_z,
            iterations=max(it_x, it_z),
        )

