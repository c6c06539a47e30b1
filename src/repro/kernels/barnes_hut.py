"""A 2-D Barnes-Hut N-body simulator.

The paper's GRAVITY application "implements the Barnes and Hut clustering
algorithm for simulating the gravitational interaction of a large number
of stars over time [Barnes & Hut 86].  This application repeats five
phases of execution for each time step of the simulation, the first being
sequential and the remaining four parallel."

This module implements the real algorithm with the same five-phase
structure per step:

1. **tree build** (sequential) — insert all bodies into a fresh quadtree;
2. **summarize** — compute centers of mass bottom-up (done during build
   finalization, exposed as its own phase);
3. **force** — per-body tree walk with the theta opening criterion;
4. **update** — leapfrog integration of velocities and positions;
5. **collect** — bounding box and diagnostics for the next step.

Phases 2-5 are embarrassingly parallel across bodies/nodes; the class
exposes them separately so callers can see (and parallelize) the
structure the scheduling model encodes.
"""

from __future__ import annotations

import dataclasses
import math
import typing

#: Gravitational constant (natural units; tests use G = 1).
DEFAULT_G = 1.0
#: Softening length avoiding singular forces at tiny separations.
DEFAULT_SOFTENING = 1e-3


@dataclasses.dataclass
class Body:
    """A point mass with position and velocity."""

    x: float
    y: float
    vx: float = 0.0
    vy: float = 0.0
    mass: float = 1.0


class _Node:
    """One square region of the quadtree."""

    __slots__ = ("cx", "cy", "half", "body", "children", "mass", "com_x", "com_y")

    def __init__(self, cx: float, cy: float, half: float) -> None:
        self.cx = cx
        self.cy = cy
        self.half = half
        self.body: typing.Optional[Body] = None
        self.children: typing.Optional[typing.List[typing.Optional["_Node"]]] = None
        self.mass = 0.0
        self.com_x = 0.0
        self.com_y = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.children is None

    def _quadrant(self, x: float, y: float) -> int:
        return (1 if x >= self.cx else 0) | (2 if y >= self.cy else 0)

    def insert(self, body: Body, depth: int = 0) -> None:
        if self.is_leaf:
            if self.body is None:
                self.body = body
                return
            if depth > 64:
                # Coincident points: merge into a single effective mass by
                # keeping both in this leaf's aggregate only.
                self.mass += body.mass
                self.com_x += body.mass * body.x
                self.com_y += body.mass * body.y
                return
            old, self.body = self.body, None
            self.children = [None, None, None, None]
            self._insert_child(old, depth)
        assert self.children is not None
        self._insert_child(body, depth)

    def _insert_child(self, body: Body, depth: int) -> None:
        assert self.children is not None
        quadrant = self._quadrant(body.x, body.y)
        child = self.children[quadrant]
        if child is None:
            quarter = self.half / 2.0
            cx = self.cx + (quarter if quadrant & 1 else -quarter)
            cy = self.cy + (quarter if quadrant & 2 else -quarter)
            child = _Node(cx, cy, quarter)
            self.children[quadrant] = child
        child.insert(body, depth + 1)

    def summarize(self) -> None:
        """Bottom-up centers of mass (the parallel 'summarize' phase)."""
        if self.is_leaf:
            if self.body is not None:
                self.mass += self.body.mass
                self.com_x += self.body.mass * self.body.x
                self.com_y += self.body.mass * self.body.y
            if self.mass > 0:
                self.com_x /= self.mass
                self.com_y /= self.mass
            return
        assert self.children is not None
        for child in self.children:
            if child is not None:
                child.summarize()
                self.mass += child.mass
                self.com_x += child.mass * child.com_x
                self.com_y += child.mass * child.com_y
        if self.mass > 0:
            self.com_x /= self.mass
            self.com_y /= self.mass


class QuadTree:
    """Barnes-Hut quadtree over a set of bodies."""

    def __init__(self, bodies: typing.Sequence[Body]) -> None:
        if not bodies:
            raise ValueError("need at least one body")
        xs = [b.x for b in bodies]
        ys = [b.y for b in bodies]
        cx = (min(xs) + max(xs)) / 2.0
        cy = (min(ys) + max(ys)) / 2.0
        half = max(max(xs) - min(xs), max(ys) - min(ys)) / 2.0 + 1e-9
        self.root = _Node(cx, cy, half)
        for body in bodies:
            self.root.insert(body)
        self.root.summarize()

    def force_on(
        self,
        body: Body,
        theta: float = 0.5,
        g: float = DEFAULT_G,
        softening: float = DEFAULT_SOFTENING,
    ) -> typing.Tuple[float, float]:
        """Approximate gravitational force on ``body`` via the theta test."""
        if theta <= 0:
            raise ValueError("theta must be positive")
        fx = fy = 0.0
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.mass == 0.0:
                continue
            dx = node.com_x - body.x
            dy = node.com_y - body.y
            dist_sq = dx * dx + dy * dy + softening * softening
            dist = math.sqrt(dist_sq)
            if node.is_leaf or (2.0 * node.half) / dist < theta:
                if node.is_leaf and node.body is body:
                    continue
                strength = g * body.mass * node.mass / dist_sq
                fx += strength * dx / dist
                fy += strength * dy / dist
            else:
                assert node.children is not None
                stack.extend(c for c in node.children if c is not None)
        return fx, fy


class BarnesHutSimulation:
    """Five-phase time stepping over a body set."""

    def __init__(
        self,
        bodies: typing.Sequence[Body],
        dt: float = 0.01,
        theta: float = 0.5,
        g: float = DEFAULT_G,
        softening: float = DEFAULT_SOFTENING,
    ) -> None:
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.bodies = list(bodies)
        self.dt = dt
        self.theta = theta
        self.g = g
        self.softening = softening
        self.steps_run = 0
        self.tree: typing.Optional[QuadTree] = None

    # Phases, exposed individually (GRAVITY's five-phase step structure):

    def phase_build_tree(self) -> QuadTree:
        """Phase 1 (sequential): build a fresh quadtree."""
        self.tree = QuadTree(self.bodies)
        return self.tree

    def phase_forces(self) -> typing.List[typing.Tuple[float, float]]:
        """Phase 3 (parallel across bodies): tree-walk forces."""
        if self.tree is None:
            raise RuntimeError("build the tree first")
        return [
            self.tree.force_on(b, self.theta, self.g, self.softening)
            for b in self.bodies
        ]

    def phase_update(self, forces: typing.Sequence[typing.Tuple[float, float]]) -> None:
        """Phase 4 (parallel across bodies): leapfrog integration."""
        if len(forces) != len(self.bodies):
            raise ValueError("one force per body required")
        for body, (fx, fy) in zip(self.bodies, forces):
            body.vx += fx / body.mass * self.dt
            body.vy += fy / body.mass * self.dt
            body.x += body.vx * self.dt
            body.y += body.vy * self.dt

    def phase_collect(self) -> typing.Tuple[float, float, float, float]:
        """Phase 5 (parallel reduction): bounding box for the next step."""
        xs = [b.x for b in self.bodies]
        ys = [b.y for b in self.bodies]
        return (min(xs), min(ys), max(xs), max(ys))

    def step(self) -> typing.Tuple[float, float, float, float]:
        """One full time step; returns the post-step bounding box."""
        self.phase_build_tree()
        forces = self.phase_forces()
        self.phase_update(forces)
        self.steps_run += 1
        return self.phase_collect()

    def run(self, n_steps: int) -> None:
        """Advance the simulation ``n_steps`` steps."""
        if n_steps < 0:
            raise ValueError("n_steps must be non-negative")
        for _ in range(n_steps):
            self.step()

    def total_momentum(self) -> typing.Tuple[float, float]:
        """Sum of m*v (approximately conserved by symmetric forces)."""
        px = sum(b.mass * b.vx for b in self.bodies)
        py = sum(b.mass * b.vy for b in self.bodies)
        return px, py
