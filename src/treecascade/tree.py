"""Finite binary tree flows and truncated boundary rays.

A depth-n flow assigns a nonnegative mass to every vertex of the rooted
binary tree down to generation n, subject to the flow condition: the mass
of a vertex equals the sum of its children's masses.  Vertices are
addressed as (depth, path bits) with the most significant bit the first
step from the root, so the depth-n vertices are in bijection with the
dyadic intervals [b 2^-n, (b+1) 2^-n).  Truncated boundary rays are
identified with their depth-n vertex.

A flow's masses are one read-only float64 buffer in level-major order,
vertex v at 2^|v| - 1 + bits; its levels are views of that buffer.
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
    "common_ancestor_depth",
    "flat_index",
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

    def is_ancestor_of(self, other):
        """True when self lies on the root path of other (inclusive)."""
        if self.depth > other.depth:
            return False
        return other.bits >> (other.depth - self.depth) == self.bits


ROOT = Vertex(0, 0)


def common_ancestor_depth(u, v):
    """Depth of the deepest common ancestor of two vertices."""
    m = min(u.depth, v.depth)
    pu = u.bits >> (u.depth - m)
    pv = v.bits >> (v.depth - m)
    x = pu ^ pv
    return m - x.bit_length()


def flat_index(v):
    """Flat index of a non-root vertex in level-major order (level 1 first)."""
    if v.depth == 0:
        raise ValueError("root has no flat index")
    return (1 << v.depth) - 2 + v.bits


def _check_depth(depth):
    # MAX_DEPTH is read at call time, so raising it takes effect at once
    if depth > MAX_DEPTH:
        raise ValueError(
            f"depth {depth} exceeds MAX_DEPTH={MAX_DEPTH}; "
            "raise treecascade.tree.MAX_DEPTH to allow deeper trees"
        )


@dataclass(frozen=True)
class Flow:
    """Immutable depth-n flow; ``flat`` holds its 2^(n+1) - 1 masses level-major.

    Vertex v sits at ``flat[2^|v| - 1 + bits]``, so level k is the view
    ``flat[2^k - 1 : 2^(k+1) - 1]``.  The buffer is made read-only on
    construction.  Depth is capped at the module-level ``MAX_DEPTH`` (raise
    it before constructing if a run really needs deeper trees).
    """

    flat: np.ndarray

    def __post_init__(self):
        _check_depth(self.depth)
        self.flat.flags.writeable = False

    @property
    def depth(self):
        return self.flat.size.bit_length() - 1

    @property
    def levels(self):
        return tuple(_level_views(self.flat))

    @property
    def root_mass(self):
        return float(self.flat[0])

    @property
    def leaves(self):
        return self.flat[self.flat.size // 2 :]

    def level(self, k):
        if not 0 <= k <= self.depth:
            raise ValueError("level out of range")
        return self.flat[(1 << k) - 1 : (2 << k) - 1]

    def mass(self, v):
        if v.depth > self.depth:
            raise ValueError("vertex deeper than flow")
        return float(self.flat[(1 << v.depth) - 1 + v.bits])

    def __eq__(self, other):
        if not isinstance(other, Flow):
            return NotImplemented
        return np.array_equal(self.flat, other.flat)

    def __hash__(self):
        return hash((self.depth, self.root_mass))


def _pair_sums(a):
    # Same bits as numpy's sum over each pair, since a two-element reduce
    # is one add, but over ten times faster than that strided reduce.
    return a[..., 0::2] + a[..., 1::2]


def _level_views(flat):
    """Levels 0..n of a level-major buffer of 2^(n+1) - 1 masses over the last axis.

    Level k is the view ``flat[..., 2^k - 1 : 2^(k+1) - 1]``, the layout of
    ``CascadePath.masses_flat``.
    """
    n = flat.shape[-1].bit_length() - 1
    return [flat[..., (1 << k) - 1 : (2 << k) - 1] for k in range(n + 1)]


def _flat_from_leaves(leaves):
    """Level-major buffer of 2^(n+1) - 1 masses over the last axis: the leaves
    and, above them, their pairwise sums level by level (see ``_level_views``)."""
    width = leaves.shape[-1]
    flat = np.empty(leaves.shape[:-1] + (2 * width - 1,))
    flat[..., width - 1 :] = leaves
    while width > 1:
        below = flat[..., width - 1 : 2 * width - 1]
        width //= 2
        # same bits as _pair_sums, written into the level above
        np.add(below[..., 0::2], below[..., 1::2], out=flat[..., width - 1 : 2 * width - 1])
    return flat


def flow_from_leaves(leaves):
    """Flow with the given leaf masses; internal masses are the pairwise sums."""
    leaves = np.ascontiguousarray(leaves, dtype=np.float64)
    n = leaves.size
    if n == 0 or n & (n - 1):
        raise ValueError("leaf count must be a positive power of two")
    if not np.all(np.isfinite(leaves)) or np.any(leaves < 0):
        raise ValueError("leaf masses must be finite and nonnegative")
    return Flow(_flat_from_leaves(leaves))


def flow_from_levels(levels):
    """Flow from explicit per-level masses (shape-checked, not conservation-checked).

    The flow holds a read-only copy: the caller's arrays stay as they were.
    """
    levels = list(levels)
    if not levels:
        raise ValueError("need at least the root level")
    _check_depth(len(levels) - 1)  # before the buffer is made
    flat = np.empty((2 << (len(levels) - 1)) - 1)
    for k, (view, a) in enumerate(zip(_level_views(flat), levels)):
        a = np.asarray(a, dtype=np.float64)
        if a.shape != view.shape:
            raise ValueError(f"level {k} must have {1 << k} masses, got shape {a.shape}")
        if not np.all(np.isfinite(a)) or np.any(a < 0):
            raise ValueError(f"level {k} has negative or non-finite masses")
        view[...] = a
    return Flow(flat)


def uniform_flow(depth):
    """The uniform flow: mass 2^-k at every depth-k vertex, total mass 1."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    _check_depth(depth)  # before the buffer is filled
    k = np.arange(depth + 1)
    return Flow(np.repeat(2.0**-k, 1 << k))


def single_ray_flow(depth, bits=0, mass=1.0):
    """Point mass on one truncated ray; zero everywhere off its root path."""
    _check_depth(depth)  # before the buffer is filled
    if not 0 <= bits < (1 << depth):
        raise ValueError("bits out of range for depth")
    if mass <= 0:
        raise ValueError("mass must be positive")
    flat = np.zeros((2 << depth) - 1)
    k = np.arange(depth + 1)
    flat[(1 << k) - 1 + (bits >> (depth - k))] = mass
    return Flow(flat)


def normalize(f):
    """Scale the flow to unit root mass.  Exact fixed point at root mass 1."""
    root = f.root_mass
    if root <= 0 or not np.isfinite(root):
        raise ValueError("cannot normalize flow with nonpositive root mass")
    if root == 1.0:
        return f
    return Flow(f.flat / root)


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


def validate_flow(f):
    """Check positivity, finiteness, and the flow condition (to relative
    ``FLOW_REL_TOL``) level by level.

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
        parent = f.level(k)
        csum = _pair_sums(f.level(k + 1))
        scale = np.maximum(np.abs(parent), np.abs(csum))
        bad = np.abs(parent - csum) > FLOW_REL_TOL * np.maximum(scale, 1e-300)
        for b in np.nonzero(bad)[0]:
            violations.append(
                ("conservation", k, int(b), f"parent {parent[b]!r} vs children {csum[b]!r}")
            )
    return FlowValidation(ok=not violations, violations=tuple(violations))


def truncate(f, depth):
    """Restrict the flow to levels 0..depth: a view of its buffer, not a copy."""
    if not 0 <= depth <= f.depth:
        raise ValueError("truncation depth out of range")
    if depth == f.depth:
        return f
    return Flow(f.flat[: (2 << depth) - 1])


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


def flow_to_json(f):
    """JSON text ``{"depth": n, "levels": [[...], ...]}``; floats round-trip exactly."""
    payload = {"depth": f.depth, "levels": [list(map(float, a)) for a in f.levels]}
    return json.dumps(payload, separators=(",", ":"))


def flow_from_json(text):
    """Flow from ``flow_to_json`` text; a malformed document raises ValueError."""
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError(f"flow JSON must be an object, got {type(payload).__name__}")
    missing = [k for k in ("depth", "levels") if k not in payload]
    if missing:
        raise ValueError(f"flow JSON lacks the field(s) {missing}")
    depth, levels = payload["depth"], payload["levels"]
    if type(depth) is not int or not 0 <= depth <= MAX_DEPTH:
        raise ValueError(f"depth field {depth!r} is not an integer in [0, {MAX_DEPTH}]")
    if not isinstance(levels, list) or len(levels) != depth + 1:
        raise ValueError("depth field inconsistent with level count")
    try:
        return flow_from_levels(levels)
    except TypeError as exc:
        raise ValueError(f"levels hold a value that is not a number: {exc}") from None


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
    """Flow from ``flow_to_csv`` text: one row per vertex of every level, in
    any order.  A malformed table raises ValueError naming its bad line."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["depth", "path_bits", "mass"]:
        raise ValueError("expected header depth,path_bits,mass")
    masses = {}
    for line, row in enumerate(rows[1:], start=2):
        try:
            d, b, m = row
            d, b, m = int(d), int(b), float(m)
        except ValueError as exc:
            raise ValueError(f"line {line}: bad row {row}: {exc}") from None
        if not (0 <= d <= MAX_DEPTH and 0 <= b < 1 << d):
            raise ValueError(
                f"line {line}: no vertex at depth {d}, path_bits {b} "
                f"(depth in [0, {MAX_DEPTH}], path_bits in [0, 2^depth))"
            )
        if (d, b) in masses:
            raise ValueError(f"line {line}: duplicate vertex at depth {d}, path_bits {b}")
        masses[d, b] = m
    if not masses:
        raise ValueError("empty flow table")
    flat = np.full((2 << max(d for d, _ in masses)) - 1, np.nan)
    for (d, b), m in masses.items():
        flat[(1 << d) - 1 + b] = m
    levels = _level_views(flat)
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
