"""Finite binary tree flows and truncated boundary rays.

A depth-n flow assigns a nonnegative mass to every vertex of the rooted
binary tree down to generation n, subject to the flow condition: the mass
of a vertex equals the sum of its children's masses.  Vertices are
addressed as (depth, path bits) with the most significant bit the first
step from the root, so the depth-n vertices are in bijection with the
dyadic intervals [b 2^-n, (b+1) 2^-n).  Truncated boundary rays are
identified with their depth-n vertex.

Masses are stored per level in contiguous float64 arrays.  Flows are
immutable; every constructor freezes its arrays.
"""

import csv
import io
import json
import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FLOW_REL_TOL",
    "MAX_DEPTH",
    "Vertex",
    "Ray",
    "ROOT",
    "Flow",
    "FlowValidation",
    "flow_from_levels",
    "flow_from_leaves",
    "uniform_flow",
    "single_ray_flow",
    "normalize",
    "validate_flow",
    "truncate",
    "restrict",
    "common_ancestor_depth",
    "ray_distance",
    "flat_index",
    "sample_ray",
    "sample_rays",
    "pushforward_cdf",
    "leaf_cdf",
    "flow_to_json",
    "flow_from_json",
    "flow_to_csv",
    "flow_from_csv",
    "save_flow",
    "load_flow",
]

FLOW_REL_TOL = 1e-12

# Default guard against accidentally allocating astronomical trees; a
# depth-26 flow already holds ~134M vertex masses.
MAX_DEPTH = 26


@dataclass(frozen=True)
class Vertex:
    """Tree vertex addressed by depth and path bits (MSB = first branching)."""

    depth: int
    bits: int

    def __post_init__(self):
        if self.depth < 0:
            raise ValueError("depth must be nonnegative")
        if not 0 <= self.bits < (1 << self.depth):
            raise ValueError(f"bits {self.bits} out of range for depth {self.depth}")

    def child(self, bit):
        if bit not in (0, 1):
            raise ValueError("bit must be 0 or 1")
        return Vertex(self.depth + 1, (self.bits << 1) | bit)

    @property
    def left(self):
        return self.child(0)

    @property
    def right(self):
        return self.child(1)

    @property
    def parent(self):
        if self.depth == 0:
            raise ValueError("root has no parent")
        return Vertex(self.depth - 1, self.bits >> 1)

    def ancestor(self, depth):
        """Ancestor at the given depth (the vertex itself at its own depth)."""
        if not 0 <= depth <= self.depth:
            raise ValueError("ancestor depth out of range")
        return Vertex(depth, self.bits >> (self.depth - depth))

    def is_ancestor_of(self, other):
        """True when self lies on the root path of other (inclusive)."""
        if self.depth > other.depth:
            return False
        return other.bits >> (other.depth - self.depth) == self.bits

    def path_bit(self, generation):
        """Bit chosen at the given generation, 1-indexed from the root."""
        if not 1 <= generation <= self.depth:
            raise ValueError("generation out of range")
        return (self.bits >> (self.depth - generation)) & 1


Ray = Vertex

ROOT = Vertex(0, 0)


def common_ancestor_depth(u, v):
    """Depth of the deepest common ancestor of two vertices."""
    m = min(u.depth, v.depth)
    pu = u.bits >> (u.depth - m)
    pv = v.bits >> (v.depth - m)
    x = pu ^ pv
    return m - x.bit_length()


def ray_distance(xi, eta):
    """Ultrametric distance 2^-(meeting depth) between equal-depth rays.

    Identical truncated rays return 2^-depth, the resolution of the
    truncation, rather than 0: at depth n the rays are only known to agree
    on their first n bits.
    """
    if xi.depth != eta.depth:
        raise ValueError("rays must have equal depth")
    return 2.0 ** -common_ancestor_depth(xi, eta)


def flat_index(v):
    """Flat index of a non-root vertex in level-major order (level 1 first)."""
    if v.depth == 0:
        raise ValueError("root has no flat index")
    return (1 << v.depth) - 2 + v.bits


def _freeze(arr):
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Flow:
    """Immutable depth-n flow; ``levels[k]`` holds the 2^k masses at depth k.

    Depth is capped at the module-level ``MAX_DEPTH`` (raise it before
    constructing if a run really needs deeper trees); a depth-n flow
    keeps 2^(n+1) - 1 float64 masses in per-level contiguous arrays.
    """

    levels: tuple

    def __post_init__(self):
        if self.depth > MAX_DEPTH:
            raise ValueError(
                f"depth {self.depth} exceeds MAX_DEPTH={MAX_DEPTH}; "
                "raise treecascade.tree.MAX_DEPTH to allow deeper trees"
            )

    @property
    def depth(self):
        return len(self.levels) - 1

    @property
    def root_mass(self):
        return float(self.levels[0][0])

    @property
    def leaves(self):
        return self.levels[-1]

    def level(self, k):
        if not 0 <= k <= self.depth:
            raise ValueError("level out of range")
        return self.levels[k]

    def mass(self, v):
        if v.depth > self.depth:
            raise ValueError("vertex deeper than flow")
        return float(self.levels[v.depth][v.bits])

    def __eq__(self, other):
        if not isinstance(other, Flow):
            return NotImplemented
        return self.depth == other.depth and all(
            np.array_equal(a, b) for a, b in zip(self.levels, other.levels)
        )

    def __hash__(self):
        return hash((self.depth, self.root_mass))


def _pair_sums(a):
    # Same bits as numpy's sum over each pair, since a two-element reduce
    # is one add, but over ten times faster than that strided reduce.
    return a[..., 0::2] + a[..., 1::2]


def _levels_from_leaves(leaves):
    """Per-level pairwise sums of the leaves over the last axis, root level first."""
    levels = [leaves]
    while levels[-1].shape[-1] > 1:
        levels.append(_pair_sums(levels[-1]))
    return levels[::-1]


def flow_from_leaves(leaves):
    """Flow with the given leaf masses; internal masses are the pairwise sums."""
    leaves = np.ascontiguousarray(leaves, dtype=np.float64)
    n = leaves.size
    if n == 0 or n & (n - 1):
        raise ValueError("leaf count must be a positive power of two")
    if not np.all(np.isfinite(leaves)) or np.any(leaves < 0):
        raise ValueError("leaf masses must be finite and nonnegative")
    return Flow(tuple(_freeze(a) for a in _levels_from_leaves(leaves)))


def flow_from_levels(levels):
    """Flow from explicit per-level masses (shape-checked, not conservation-checked)."""
    arrs = [np.ascontiguousarray(a, dtype=np.float64) for a in levels]
    for k, a in enumerate(arrs):
        if a.shape != (1 << k,):
            raise ValueError(f"level {k} must have {1 << k} masses, got shape {a.shape}")
        if not np.all(np.isfinite(a)) or np.any(a < 0):
            raise ValueError(f"level {k} has negative or non-finite masses")
    if not arrs:
        raise ValueError("need at least the root level")
    return Flow(tuple(_freeze(a) for a in arrs))


def uniform_flow(depth):
    """The uniform flow: mass 2^-k at every depth-k vertex, total mass 1."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    return Flow(
        tuple(_freeze(np.full(1 << k, 2.0**-k)) for k in range(depth + 1))
    )


def single_ray_flow(depth, bits=0, mass=1.0):
    """Point mass on one truncated ray; zero everywhere off its root path."""
    if not 0 <= bits < (1 << depth):
        raise ValueError("bits out of range for depth")
    if mass <= 0:
        raise ValueError("mass must be positive")
    levels = []
    for k in range(depth + 1):
        a = np.zeros(1 << k)
        a[bits >> (depth - k)] = mass
        levels.append(_freeze(a))
    return Flow(tuple(levels))


def normalize(f):
    """Scale the flow to unit root mass.  Exact fixed point at root mass 1."""
    root = f.root_mass
    if root <= 0 or not np.isfinite(root):
        raise ValueError("cannot normalize flow with nonpositive root mass")
    if root == 1.0:
        return f
    return Flow(tuple(_freeze(a / root) for a in f.levels))


@dataclass(frozen=True)
class FlowValidation:
    """Outcome of ``validate_flow``: ``ok`` plus offending vertices."""

    ok: bool
    violations: tuple

    def __str__(self):
        if self.ok:
            return "valid flow"
        head = ";  ".join(
            f"{kind} at ({d},{b}): {detail}" for kind, d, b, detail in self.violations[:8]
        )
        more = "" if len(self.violations) <= 8 else f" (+{len(self.violations) - 8} more)"
        return f"{len(self.violations)} violations: {head}{more}"


def validate_flow(f, rel_tol=FLOW_REL_TOL):
    """Check positivity, finiteness, and the flow condition level by level.

    Returns a ``FlowValidation`` whose violations are (kind, depth, bits,
    detail) tuples, empty exactly when the flow is valid.  Zero masses are
    reported as positivity violations: they are legal inputs for some
    operations (point masses) but degenerate for sampling.
    """
    violations = []
    for k, a in enumerate(f.levels):
        bad = ~np.isfinite(a)
        for b in np.nonzero(bad)[0]:
            violations.append(("non-finite", k, int(b), float(a[b])))
        nonpos = np.isfinite(a) & (a <= 0)
        for b in np.nonzero(nonpos)[0]:
            violations.append(("nonpositive", k, int(b), float(a[b])))
    for k in range(f.depth):
        parent = f.levels[k]
        csum = _pair_sums(f.levels[k + 1])
        scale = np.maximum(np.abs(parent), np.abs(csum))
        bad = np.abs(parent - csum) > rel_tol * np.maximum(scale, 1e-300)
        for b in np.nonzero(bad)[0]:
            violations.append(
                ("conservation", k, int(b), f"parent {parent[b]!r} vs children {csum[b]!r}")
            )
    return FlowValidation(ok=not violations, violations=tuple(violations))


def truncate(f, depth):
    """Restrict the flow to levels 0..depth."""
    if not 0 <= depth <= f.depth:
        raise ValueError("truncation depth out of range")
    if depth == f.depth:
        return f
    return Flow(f.levels[: depth + 1])


def restrict(f, v):
    """Subtree flow rooted at v: level k holds the masses at depth |v|+k under v."""
    if v.depth > f.depth:
        raise ValueError("vertex deeper than flow")
    sub = []
    for k in range(f.depth - v.depth + 1):
        a = f.levels[v.depth + k]
        lo = v.bits << k
        sub.append(a[lo : lo + (1 << k)])
    return Flow(tuple(_freeze(np.array(a)) for a in sub))


def sample_ray(f, rng):
    """Draw one truncated ray from the normalized flow.

    Descends from the root choosing the left child with probability
    mass(left)/mass(parent).  Raises on zero-mass vertices along the walk.
    """
    bits = 0
    for k in range(f.depth):
        parent = f.levels[k][bits]
        if parent <= 0:
            raise ValueError(f"zero-mass vertex encountered at ({k},{bits})")
        p_left = f.levels[k + 1][2 * bits] / parent
        bits = 2 * bits + (rng.random() >= p_left)
    return Ray(f.depth, int(bits))


def sample_rays(f, size, rng):
    """Vectorized ``sample_ray``; returns an int64 array of leaf bits."""
    bits = np.zeros(size, dtype=np.int64)
    for k in range(f.depth):
        parent = f.levels[k][bits]
        if np.any(parent <= 0):
            b = int(bits[np.argmax(parent <= 0)])
            raise ValueError(f"zero-mass vertex encountered at ({k},{b})")
        p_left = f.levels[k + 1][2 * bits] / parent
        bits = 2 * bits + (rng.random(size) >= p_left)
    return bits


def leaf_cdf(f):
    """Normalized cumulative leaf masses; shape 2^n + 1, endpoints exactly 0 and 1."""
    out = np.empty(f.leaves.size + 1)
    out[0] = 0.0
    np.cumsum(f.leaves, out=out[1:])
    total = out[-1]
    if total <= 0:
        raise ValueError("flow has no mass")
    out /= total
    return out


def pushforward_cdf(f, x):
    """Mass of [0, x] under the normalized flow, x dyadic at the flow's depth.

    The flow's leaf masses define a measure on [0, 1] via the dyadic
    cylinder intervals; this evaluates its distribution function at a grid
    point ``x = k 2^-depth``.  Finer points are rejected: the flow carries
    no information below its resolution.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    k = x * (1 << f.depth)
    if abs(k - round(k)) > 1e-9:
        raise ValueError(f"x={x!r} is not dyadic at depth {f.depth}")
    return float(leaf_cdf(f)[int(round(k))])


def flow_to_json(f):
    """JSON text ``{"depth": n, "levels": [[...], ...]}``; floats round-trip exactly."""
    payload = {"depth": f.depth, "levels": [list(map(float, a)) for a in f.levels]}
    return json.dumps(payload, separators=(",", ":"))


def flow_from_json(text):
    payload = json.loads(text)
    levels = payload["levels"]
    if len(levels) != payload["depth"] + 1:
        raise ValueError("depth field inconsistent with level count")
    return flow_from_levels(levels)


def flow_to_csv(f):
    """Flat CSV (depth, path_bits, mass), level-major; floats round-trip exactly."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["depth", "path_bits", "mass"])
    for k, a in enumerate(f.levels):
        for b in range(a.size):
            w.writerow([k, b, repr(float(a[b]))])
    return buf.getvalue()


def flow_from_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["depth", "path_bits", "mass"]:
        raise ValueError("expected header depth,path_bits,mass")
    entries = [(int(d), int(b), float(m)) for d, b, m in rows[1:]]
    if not entries:
        raise ValueError("empty flow table")
    depth = max(d for d, _, _ in entries)
    levels = [np.full(1 << k, np.nan) for k in range(depth + 1)]
    for d, b, m in entries:
        levels[d][b] = m
    for k, a in enumerate(levels):
        if np.any(np.isnan(a)):
            raise ValueError(f"level {k} is incomplete")
    return flow_from_levels(levels)


def save_flow(f, path):
    """Write a flow as .json or .csv according to the file suffix."""
    ext = os.path.splitext(str(path))[1].lower()
    if ext == ".json":
        text = flow_to_json(f)
    elif ext == ".csv":
        text = flow_to_csv(f)
    else:
        raise ValueError(f"unsupported flow file suffix {ext!r}")
    with open(path, "w", newline="") as fh:
        fh.write(text)


def load_flow(path):
    ext = os.path.splitext(str(path))[1].lower()
    with open(path, "r", newline="") as fh:
        text = fh.read()
    if ext == ".json":
        return flow_from_json(text)
    if ext == ".csv":
        return flow_from_csv(text)
    raise ValueError(f"unsupported flow file suffix {ext!r}")
