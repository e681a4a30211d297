"""Dominating-set machinery: build DSHP instances from regular graphs.

A connected d-regular graph on n vertices maps to an n-asset, n-scenario
instance with budget n-1: every first-stage value is 1, and asset i is
worth 1-B under scenario j when j is i itself or a neighbor, 1+S otherwise.
When S/B sits strictly inside (d/(n-d), (d+1)/(n-d-1)), the assets NOT sold
at the first stage of an optimal plan form a minimum dominating set, so the
optimizer doubles as an (exponential) dominating-set solver and vice versa.

reduction_premises decides those premises once, for build_reduction and for
check_reduction, the round trip that checks an instance and a plan against
the graph they came from.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import NamedTuple

from .exact import ExactOptions, solve_exact
from .model import (
    DEFAULT_MAX_N,
    DshpError,
    EnumerationCapError,
    Instance,
    ParseError,
    Solution,
    as_rational,
    check_solution,
)

PAIRING_ATTEMPTS = 5000


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
    seen, frontier = {0}, [0]
    while frontier:
        fresh = adj[frontier.pop()] - seen
        seen |= fresh
        frontier.extend(fresh)
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


def default_params(n: int, degree: int) -> ReductionParams:
    """B = 1/2 and S/B at the window midpoint: maximal margin from both bounds."""
    lo, hi = window_bounds(n, degree)
    midpoint = (lo + hi) / 2
    return ReductionParams(degree=degree, discount=Fraction(1, 2), premium=midpoint / 2)


class Check(NamedTuple):
    """A named check; if it fails, build_reduction raises error, else detail."""

    name: str
    ok: bool
    detail: str = "ok"
    error: str | None = None


def reduction_premises(
    graph: Graph, params: ReductionParams | Instance | None = None
) -> tuple[list[Check], ReductionParams | None]:
    """The checks graph_regular, graph_connected and ratio_window, and the params.

    Given a built instance instead, B and S are decoded from its values and d is
    the graph's; given None, the params are default_params for the graph's
    degree.  The params are None if the graph is irregular, the values do not
    decode or no default fits.
    """
    degree = regular_degree(graph)
    regular = Check("graph_regular", True, f"degree {degree}")
    untestable = None  # why the window cannot be tested
    if degree is None:
        regular = Check("graph_regular", False, "vertex degrees differ", "graph is not regular")
        params, untestable = None, "window undefined: the graph is not regular"
    elif params is None:
        try:
            params = default_params(graph.n, degree)
        except ReductionError as exc:  # degree >= n-1: no S/B fits
            untestable = str(exc)
    elif isinstance(params, Instance):
        values, params = sorted(params.distinct), decode_params(params, degree)
        if params is None:
            untestable = (
                f"cannot infer (B, S): instance values {[str(v) for v in values]} "
                "are not of the form {1-B, 1, 1+S}"
            )
    elif params.degree != degree:
        detail = f"params.degree={params.degree} but graph is {degree}-regular"
        regular = Check("graph_regular", False, detail)
    if untestable:
        window = Check("ratio_window", False, untestable)
    else:
        ratio = params.premium / params.discount
        try:
            lo, hi = window_bounds(graph.n, params.degree)
        except ReductionError as exc:  # degree >= n-1: no S/B fits
            window = Check("ratio_window", False, f"{exc}; S/B = {ratio}", str(exc))
        else:
            detail = "ok" if lo < ratio < hi else f"need {lo} < S/B = {ratio} < {hi}"
            error = f"ratio window violated: {detail}"
            window = Check("ratio_window", detail == "ok", detail, error)
    connected = is_connected(graph)
    detail = "ok" if connected else "graph is not connected"
    return [regular, Check("graph_connected", connected, detail), window], params


def build_reduction(graph: Graph, params: ReductionParams | None = None) -> Instance:
    """DSHP instance encoding minimum domination of a connected regular graph.

    n assets and n uniform scenarios, budget k = n-1, all first-stage values
    1; asset i is worth 1-B under its own scenario and its neighbors'
    scenarios, 1+S under every other.  params default to default_params for
    the graph's degree.  A failing premise raises its reduction_premises error.
    """
    checks, params = reduction_premises(graph, params)
    for check in checks:
        if not check.ok:
            raise ReductionError(check.error or check.detail)
    return _encode(graph, params)


def _encode(graph: Graph, params: ReductionParams) -> Instance:
    """build_reduction's instance, for a graph and params whose premises hold."""
    n = graph.n
    near, far = 1 - params.discount, 1 + params.premium
    adj = adjacency(graph)
    f = tuple(tuple(near if j == i or j in adj[i] else far for j in range(n)) for i in range(n))
    return Instance(
        n=n,
        m=n,
        k=n - 1,
        c=(Fraction(1),) * n,
        p=(Fraction(1, n),) * n,
        f=f,
        label=f"reduction(n={n},d={params.degree},B={params.discount},S={params.premium})",
    )


def decode_params(instance: Instance, degree: int) -> ReductionParams | None:
    """B and S read back from values {1-B, 1, 1+S}, or None for other values."""
    values = sorted(instance.distinct)
    if len(values) == 3 and values[1] == 1 and values[0] < 1 < values[2]:
        return ReductionParams(degree, 1 - values[0], values[2] - 1)
    return None


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


def check_reduction(
    graph: Graph, instance: Instance, solution: Solution, max_n: int = DEFAULT_MAX_N
) -> tuple[list[dict], int | None]:
    """The round trip's nine named checks, and the brute-force MDS size or None.

    A failed premise stops the checks before the instance is rebuilt, and a
    failed instance or plan check before the searches; a search over max_n
    is reported as skipped.
    """
    checks, params = reduction_premises(graph, instance)
    if all(check.ok for check in checks):
        same = replace(_encode(graph, params), label=instance.label) == instance
        failures = check_solution(instance, solution)
        checks += [
            Check("instance_matches_reduction", same, "ok" if same else
                  "instance differs from the construction"),
            Check("solution_valid", not failures, "; ".join(failures) or "ok"),
        ]
    mds_size = None
    if all(check.ok for check in checks):
        skipped = f"skipped: n={graph.n} exceeds cap {max_n}"  # instance.n == graph.n here
        try:
            optimum = solve_exact(instance, ExactOptions(max_n=max_n)).value
        except EnumerationCapError:
            optimal = Check("solution_optimal", True, skipped)
        else:
            detail = f"solution {solution.value}, optimum {optimum}"
            optimal = Check("solution_optimal", solution.value == optimum, detail)
        dominating = extract_dominating(graph, solution)
        try:
            mds_size = len(brute_force_mds(graph, max_n))
        except EnumerationCapError:
            matches = Check("mds_size_matches", True, skipped)
        else:
            detail = f"extracted {len(dominating)}, brute force {mds_size}"
            matches = Check("mds_size_matches", len(dominating) == mds_size, detail)
        formula = dominating_solution_revenue(graph.n, params, len(dominating))
        checks += [
            optimal,
            Check("extracted_set_dominates", is_dominating(graph, dominating),
                  f"complement of first stage: {list(dominating)}"),
            matches,
            Check("revenue_formula", formula == solution.value,
                  f"formula {formula}, solution {solution.value}"),
        ]
    return [{"name": n, "ok": ok, "detail": d} for n, ok, d, _ in checks], mds_size


def gen_regular_graph(n: int, degree: int, seed: int) -> Graph:
    """Connected d-regular simple graph via the pairing model.

    Stubs (d copies of each vertex) are shuffled and paired; any attempt
    producing a loop, a repeated edge or a disconnected graph is rejected
    and retried, at most PAIRING_ATTEMPTS times, with the attempt counter
    folded into the seed, so results are reproducible for a fixed
    (n, degree, seed).
    """
    if n < 1:
        raise ValueError(f"need at least one vertex, got n={n}")
    if not 0 <= degree < n:
        raise ValueError(f"need 0 <= degree < n, got degree={degree}, n={n}")
    if (n * degree) % 2:
        raise ValueError(f"n*degree = {n * degree} is odd: no {degree}-regular graph on {n} vertices")
    stubs_base = [v for v in range(n) for _ in range(degree)]
    for attempt in range(PAIRING_ATTEMPTS):
        rng = random.Random(seed * 1_000_003 + attempt)
        stubs = stubs_base[:]
        rng.shuffle(stubs)
        edges = {(u, v) if u < v else (v, u) for u, v in zip(stubs[::2], stubs[1::2])}
        if len(edges) == len(stubs) // 2 and all(u < v for u, v in edges):
            graph = Graph(n, frozenset(edges))
            if is_connected(graph):
                return graph
    raise GenerationError(
        f"no connected {degree}-regular simple graph on {n} vertices found in "
        f"{PAIRING_ATTEMPTS} pairing attempts (seed {seed})"
    )


def parse_graph(text: str) -> Graph:
    """Parse the edge-list format: "n e" header then e lines "u v" (u < v).

    Blank lines and lines starting with "#" are ignored.
    """
    rows = ((lineno, raw.strip()) for lineno, raw in enumerate(text.splitlines(), start=1))
    lines = [(lineno, line) for lineno, line in rows if line and not line.startswith("#")]
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
