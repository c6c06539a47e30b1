"""Barnes-Hut N-body: accuracy against direct summation, conservation."""

import math
import random

import pytest

from repro.kernels.barnes_hut import (
    DEFAULT_SOFTENING,
    BarnesHutSimulation,
    Body,
    QuadTree,
)


def kinetic_energy(body):
    """(1/2) m v^2 of one body."""
    return 0.5 * body.mass * (body.vx * body.vx + body.vy * body.vy)


def random_bodies(n, seed, spread=10.0):
    rng = random.Random(seed)
    return [
        Body(
            x=rng.uniform(-spread, spread),
            y=rng.uniform(-spread, spread),
            vx=rng.uniform(-1, 1),
            vy=rng.uniform(-1, 1),
            mass=rng.uniform(0.5, 2.0),
        )
        for _ in range(n)
    ]


def direct_force(bodies, target, g=1.0, softening=DEFAULT_SOFTENING):
    fx = fy = 0.0
    for other in bodies:
        if other is target:
            continue
        dx = other.x - target.x
        dy = other.y - target.y
        dist_sq = dx * dx + dy * dy + softening * softening
        dist = math.sqrt(dist_sq)
        strength = g * target.mass * other.mass / dist_sq
        fx += strength * dx / dist
        fy += strength * dy / dist
    return fx, fy


class TestQuadTree:
    def test_total_mass_preserved(self):
        bodies = random_bodies(50, 1)
        tree = QuadTree(bodies)
        assert tree.root.mass == pytest.approx(sum(b.mass for b in bodies))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            QuadTree([])

    def test_single_body_feels_no_force(self):
        body = Body(0.0, 0.0, mass=1.0)
        tree = QuadTree([body])
        assert tree.force_on(body) == (0.0, 0.0)

    def test_two_bodies_attract_symmetrically(self):
        a = Body(-1.0, 0.0, mass=2.0)
        b = Body(1.0, 0.0, mass=3.0)
        tree = QuadTree([a, b])
        fa = tree.force_on(a)
        fb = tree.force_on(b)
        assert fa[0] > 0 and fb[0] < 0
        assert fa[0] == pytest.approx(-fb[0], rel=1e-9)
        assert fa[1] == pytest.approx(0.0, abs=1e-12)

    def test_two_body_force_magnitude(self):
        a = Body(0.0, 0.0, mass=1.0)
        b = Body(3.0, 4.0, mass=2.0)  # distance 5
        tree = QuadTree([a, b])
        fx, fy = tree.force_on(a, softening=0.0)
        expected = 1.0 * 2.0 / 25.0
        assert math.hypot(fx, fy) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("theta", [0.3, 0.5, 0.8])
    def test_approximation_close_to_direct_sum(self, theta):
        bodies = random_bodies(60, 2)
        tree = QuadTree(bodies)
        for target in bodies[:10]:
            approx = tree.force_on(target, theta=theta)
            exact = direct_force(bodies, target)
            magnitude = math.hypot(*exact)
            error = math.hypot(approx[0] - exact[0], approx[1] - exact[1])
            assert error <= 0.15 * magnitude + 1e-9

    def test_smaller_theta_is_more_accurate(self):
        bodies = random_bodies(80, 3)
        tree = QuadTree(bodies)
        target = bodies[0]
        exact = direct_force(bodies, target)

        def error(theta):
            fx, fy = tree.force_on(target, theta=theta)
            return math.hypot(fx - exact[0], fy - exact[1])

        assert error(0.2) <= error(1.2) + 1e-12

    def test_coincident_bodies_do_not_recurse_forever(self):
        bodies = [Body(1.0, 1.0), Body(1.0, 1.0), Body(2.0, 2.0)]
        tree = QuadTree(bodies)
        assert tree.root.mass == pytest.approx(3.0)

    def test_invalid_theta(self):
        tree = QuadTree([Body(0, 0)])
        with pytest.raises(ValueError):
            tree.force_on(Body(1, 1), theta=0.0)


class TestSimulation:
    def test_step_advances_counter(self):
        sim = BarnesHutSimulation(random_bodies(10, 4), dt=0.01)
        sim.run(3)
        assert sim.steps_run == 3

    def test_momentum_approximately_conserved(self):
        bodies = random_bodies(30, 5)
        sim = BarnesHutSimulation(bodies, dt=0.001, theta=0.3)
        px0, py0 = sim.total_momentum()
        sim.run(20)
        px1, py1 = sim.total_momentum()
        scale = sum(abs(b.mass * b.vx) + abs(b.mass * b.vy) for b in bodies)
        assert abs(px1 - px0) < 0.05 * scale
        assert abs(py1 - py0) < 0.05 * scale

    def test_two_body_orbit_stays_bound(self):
        """A circular two-body orbit must not fly apart over a few periods."""
        m = 1.0
        r = 1.0
        # Circular orbit: v^2 = G * m_other / (2 r) for equal masses about COM.
        v = math.sqrt(m / (4 * r))
        bodies = [
            Body(-r, 0.0, vx=0.0, vy=-v, mass=m),
            Body(r, 0.0, vx=0.0, vy=v, mass=m),
        ]
        sim = BarnesHutSimulation(bodies, dt=0.005, theta=0.1, softening=0.0)
        sim.run(400)
        separation = math.hypot(
            bodies[0].x - bodies[1].x, bodies[0].y - bodies[1].y
        )
        assert 1.0 < separation < 4.0

    def test_phases_can_run_individually(self):
        sim = BarnesHutSimulation(random_bodies(10, 6))
        sim.phase_build_tree()
        forces = sim.phase_forces()
        assert len(forces) == 10
        sim.phase_update(forces)
        box = sim.phase_collect()
        assert box[0] <= box[2] and box[1] <= box[3]

    def test_forces_require_tree(self):
        sim = BarnesHutSimulation(random_bodies(5, 7))
        with pytest.raises(RuntimeError):
            sim.phase_forces()

    def test_update_requires_matching_forces(self):
        sim = BarnesHutSimulation(random_bodies(5, 8))
        with pytest.raises(ValueError):
            sim.phase_update([(0.0, 0.0)])

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BarnesHutSimulation(random_bodies(3, 9), dt=0.0)
        with pytest.raises(ValueError):
            BarnesHutSimulation(random_bodies(3, 9)).run(-1)

    def test_kinetic_energy(self):
        body = Body(0, 0, vx=3.0, vy=4.0, mass=2.0)
        assert kinetic_energy(body) == pytest.approx(25.0)
