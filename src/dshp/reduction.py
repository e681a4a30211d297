"""Dominating-set machinery: build DSHP instances from regular graphs.

A connected d-regular graph on n vertices maps to an n-asset, n-scenario
instance with budget n-1: every first-stage value is 1, and asset i is
worth 1-B under scenario j when j is i itself or a neighbor, 1+S otherwise.
When S/B sits strictly inside (d/(n-d), (d+1)/(n-d-1)), the assets NOT sold
at the first stage of an optimal plan form a minimum dominating set, so the
optimizer doubles as an (exponential) dominating-set solver and vice versa.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .model import (
    DEFAULT_MAX_N,
    DshpError,
    EnumerationCapError,
    Instance,
    ParseError,
    Solution,
    as_rational,
    complete_first_stage,
)


class GraphError(DshpError):
    """A graph violates simplicity or vertex-range constraints."""


class ReductionError(DshpError):
    """The graph or parameters do not satisfy the construction's premises."""


class GenerationError(DshpError):
    """Random graph sampling exhausted its attempt budget."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n < 1:
            raise GraphError(f"need at least one vertex, got n={self.n}")
        normalized = set()
        for edge in self.edges:
            u, v = edge
            if u == v:
                raise GraphError(f"loop at vertex {u}")
            if u > v:
                u, v = v, u
            if not (0 <= u < v < self.n):
                raise GraphError(f"edge {edge} out of range for n={self.n}")
            normalized.add((u, v))
        object.__setattr__(self, "edges", frozenset(normalized))


def adjacency(graph: Graph) -> list[set[int]]:
    adj = [set() for _ in range(graph.n)]
    for u, v in graph.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def regular_degree(graph: Graph) -> int | None:
    """The common degree, or None if the graph is not regular."""
    degs = [0] * graph.n
    for u, v in graph.edges:
        degs[u] += 1
        degs[v] += 1
    return degs[0] if len(set(degs)) == 1 else None


def is_connected(graph: Graph) -> bool:
    adj = adjacency(graph)
    seen = {0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == graph.n


@dataclass(frozen=True)
class ReductionParams:
    """Degree plus the value offsets: discount B below 1, premium S above 1."""

    degree: int
    discount: Fraction
    premium: Fraction

    def __post_init__(self):
        object.__setattr__(self, "discount", as_rational(self.discount))
        object.__setattr__(self, "premium", as_rational(self.premium))
        if self.degree < 0:
            raise ValueError(f"degree must be >= 0, got {self.degree}")
        if self.discount <= 0 or self.premium <= 0:
            raise ValueError(
                f"discount and premium must be positive, got B={self.discount}, S={self.premium}"
            )


def window_bounds(n: int, degree: int) -> tuple[Fraction, Fraction]:
    """The open interval that S/B must lie in for the reduction to work."""
    if not 0 <= degree < n - 1:
        raise ReductionError(
            f"empty ratio window: need 0 <= degree < n-1, got degree={degree}, n={n}"
        )
    return Fraction(degree, n - degree), Fraction(degree + 1, n - degree - 1)


def window_holds(n: int, params: ReductionParams) -> bool:
    lo, hi = window_bounds(n, params.degree)
    ratio = params.premium / params.discount
    return lo < ratio < hi


def default_params(n: int, degree: int) -> ReductionParams:
    """B = 1/2 and S/B at the window midpoint: maximal margin from both bounds."""
    lo, hi = window_bounds(n, degree)
    midpoint = (lo + hi) / 2
    return ReductionParams(degree=degree, discount=Fraction(1, 2), premium=midpoint / 2)


def build_reduction(graph: Graph, params: ReductionParams) -> Instance:
    """DSHP instance encoding minimum domination of a connected regular graph.

    n assets and n uniform scenarios, budget k = n-1, all first-stage values
    1; asset i is worth 1-B under its own scenario and its neighbors'
    scenarios, 1+S under every other.
    """
    d = regular_degree(graph)
    if d is None:
        raise ReductionError("graph is not regular")
    if d != params.degree:
        raise ReductionError(f"params.degree={params.degree} but graph is {d}-regular")
    if not is_connected(graph):
        raise ReductionError("graph is not connected")
    if not window_holds(graph.n, params):
        lo, hi = window_bounds(graph.n, params.degree)
        ratio = params.premium / params.discount
        raise ReductionError(f"ratio window violated: need {lo} < S/B = {ratio} < {hi}")
    n = graph.n
    near = Fraction(1) - params.discount
    far = Fraction(1) + params.premium
    adj = adjacency(graph)
    f = tuple(
        tuple(near if j == i or j in adj[i] else far for j in range(n))
        for i in range(n)
    )
    return Instance(
        n=n,
        m=n,
        k=n - 1,
        c=(Fraction(1),) * n,
        p=(Fraction(1, n),) * n,
        f=f,
        label=f"reduction(n={n},d={d},B={params.discount},S={params.premium})",
    )


def is_dominating(graph: Graph, vertices) -> bool:
    """True iff every vertex is in the set or adjacent to one of its members."""
    chosen = set(vertices)
    for v in chosen:
        if not 0 <= v < graph.n:
            raise GraphError(f"vertex {v} out of range 0..{graph.n - 1}")
    adj = adjacency(graph)
    return all(v in chosen or adj[v] & chosen for v in range(graph.n))


def brute_force_mds(graph: Graph, max_n: int = DEFAULT_MAX_N) -> tuple[int, ...]:
    """Lexicographically first minimum dominating set, by exhaustive search up to max_n."""
    if graph.n > max_n:
        raise EnumerationCapError("brute-force", graph.n, max_n)
    n = graph.n
    closed = [1 << v for v in range(n)]
    for u, v in graph.edges:
        closed[u] |= 1 << v
        closed[v] |= 1 << u
    full = (1 << n) - 1
    for size in range(n + 1):
        for combo in itertools.combinations(range(n), size):
            cover = 0
            for v in combo:
                cover |= closed[v]
            if cover == full:
                return combo
    raise AssertionError("unreachable: the full vertex set always dominates")


def extract_dominating(graph: Graph, solution: Solution) -> tuple[int, ...]:
    """Vertices NOT sold at the first stage; a minimum dominating set when
    the solution optimizes the built instance."""
    first = set(solution.first_stage)
    return tuple(v for v in range(graph.n) if v not in first)


def dominating_solution_revenue(n: int, params: ReductionParams, dsize: int) -> Fraction:
    """Closed-form objective of the canonical plan built from a dominating set
    of the given size: sell everything outside it at stage 1, then per
    scenario all of it except one discounted asset."""
    if not 1 <= dsize <= n:
        raise ValueError(f"dsize must be in 1..{n}, got {dsize}")
    d = params.degree
    B, S = params.discount, params.premium
    row_sum = n - d * B + (n - d - 1) * S - B
    return (n - dsize) + Fraction(1, n) * (dsize * row_sum - n * (1 - B))


def dominating_plan(instance: Instance, dominating) -> Solution:
    """The canonical plan for a vertex set D on a built instance.

    Sells the complement of D at stage 1 and completes greedily, which per
    scenario sells all of D except one lowest-valued member.  Its value
    equals dominating_solution_revenue(n, params, |D|) exactly when D
    dominates the source graph.
    """
    chosen = set(dominating)
    first = [i for i in range(instance.n) if i not in chosen]
    return complete_first_stage(instance, first)


def gen_regular_graph(n: int, degree: int, seed: int, max_attempts: int = 5000) -> Graph:
    """Connected d-regular simple graph via the pairing model.

    Stubs (d copies of each vertex) are shuffled and paired; any attempt
    producing a loop, a repeated edge or a disconnected graph is rejected
    and retried with the attempt counter folded into the seed, so results
    are reproducible for a fixed (n, degree, seed).
    """
    if n < 1:
        raise ValueError(f"need at least one vertex, got n={n}")
    if not 0 <= degree < n:
        raise ValueError(f"need 0 <= degree < n, got degree={degree}, n={n}")
    if (n * degree) % 2:
        raise ValueError(f"n*degree = {n * degree} is odd: no {degree}-regular graph on {n} vertices")
    stubs_base = [v for v in range(n) for _ in range(degree)]
    for attempt in range(max_attempts):
        rng = random.Random(seed * 1_000_003 + attempt)
        stubs = stubs_base[:]
        rng.shuffle(stubs)
        edges = set()
        simple = True
        for u, v in zip(stubs[::2], stubs[1::2]):
            if u == v:
                simple = False
                break
            edge = (u, v) if u < v else (v, u)
            if edge in edges:
                simple = False
                break
            edges.add(edge)
        if not simple:
            continue
        graph = Graph(n, frozenset(edges))
        if is_connected(graph):
            return graph
    raise GenerationError(
        f"no connected {degree}-regular simple graph on {n} vertices found in "
        f"{max_attempts} pairing attempts (seed {seed})"
    )


def parse_graph(text: str) -> Graph:
    """Parse the edge-list format: "n e" header then e lines "u v" (u < v).

    Blank lines and lines starting with "#" are ignored.
    """
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        lines.append((lineno, stripped))
    if not lines:
        raise ParseError("empty graph file: missing 'n e' header")
    header_no, header = lines[0]
    parts = header.split()
    if len(parts) != 2:
        raise ParseError(f"line {header_no}: expected header 'n e', got {header!r}")
    try:
        n, e = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(f"line {header_no}: expected integers in header, got {header!r}") from None
    edges = set()
    for lineno, line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected edge 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: expected integer endpoints, got {line!r}") from None
        if not 0 <= u < v < n:
            raise ParseError(f"line {lineno}: edge must satisfy 0 <= u < v < n, got {u} {v}")
        if (u, v) in edges:
            raise ParseError(f"line {lineno}: duplicate edge {u} {v}")
        edges.add((u, v))
    if len(edges) != e:
        raise ParseError(f"header declares {e} edges but {len(edges)} were listed")
    return Graph(n, frozenset(edges))


def serialize_graph(graph: Graph) -> str:
    lines = [f"{graph.n} {len(graph.edges)}"]
    lines.extend(f"{u} {v}" for u, v in sorted(graph.edges))
    return "\n".join(lines) + "\n"
