"""Tests for room integrals, the isoperimetric check, and the cusp prism bound.

Independent oracles: closed forms for constant ceilings, an mpmath
reference for the g = r room, and a seeded Monte Carlo volume estimate that
never touches the production quadrature path.
"""

import math
import re
import warnings

import numpy as np
import pytest

from turnover import rooms
from turnover.errors import ConvergenceError, DomainError
from turnover.numerics import _NODE_COUNTS, Tolerance
from turnover.rooms import (
    CeilingFunction,
    PolarDisk,
    ProjectiveTriangle,
    ceiling_area,
    constant_H,
    cusp_prism_check,
    isoperimetric_check,
    isoperimetric_sweep,
    nice_ceiling_area,
    nice_height,
    nice_room_ratio,
    random_smooth_ceiling,
    room_volume,
)
from turnover.rooms import _triangle_quadrature

# mpmath, 40 digits
COTH_ROOT = 1.1996786402577338
RATIO_MIN = 1.6671131192019294  # 2 / COTH_ROOT
VOLUME_CONE_DISK1 = 2.8554000137249520  # g = r over the unit-radius disk
COSH_SQ_1 = 2.3810978455418157


def equilateral_triangle(circumradius: float) -> ProjectiveTriangle:
    pts = tuple(
        (
            circumradius * math.cos(2.0 * math.pi * k / 3.0),
            circumradius * math.sin(2.0 * math.pi * k / 3.0),
        )
        for k in range(3)
    )
    return ProjectiveTriangle(pts)


def tanh_mode_ceiling(c, a, f, df):
    """g = c + a f(theta) tanh r with its exact gradient
    (a f(theta) / cosh^2 r, a f'(theta) tanh r)."""
    return CeilingFunction(
        height=lambda r, t: c + a * f(t) * np.tanh(r),
        gradient=lambda r, t: (a * f(t) / np.cosh(r) ** 2, a * df(t) * np.tanh(r)),
    )


class TestFloors:
    def test_disk_area(self):
        assert PolarDisk(1.0).area == pytest.approx(
            2.0 * math.pi * (math.cosh(1.0) - 1.0), abs=1e-14
        )

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.inf])
    def test_disk_validation(self, radius):
        with pytest.raises(DomainError):
            PolarDisk(radius)

    def test_nan_radius_is_named_not_a_number(self):
        with pytest.raises(DomainError, match=r"disk radius is not a number \(nan\)"):
            PolarDisk(math.nan)

    def test_triangle_rejects_touching_circle(self):
        with pytest.raises(DomainError):
            ProjectiveTriangle(((1.0, 0.0), (0.0, 0.5), (-0.5, 0.0)))

    def test_triangle_rejects_collinear(self):
        with pytest.raises(DomainError):
            ProjectiveTriangle(((0.0, 0.0), (0.1, 0.1), (0.2, 0.2)))

    def test_triangle_rejects_duplicates(self):
        with pytest.raises(DomainError):
            ProjectiveTriangle(((0.1, 0.1), (0.1, 0.1), (0.2, 0.0)))

    def test_tiny_triangle_area_is_nearly_euclidean(self):
        tri = ProjectiveTriangle(((0.0, 0.0), (1e-3, 0.0), (0.0, 1e-3)))
        assert cusp_prism_check(tri)[1] == pytest.approx(0.5e-6, rel=1e-4)


class TestRoomVolume:
    def test_zero_ceiling(self):
        assert room_volume(PolarDisk(1.0), CeilingFunction.constant(0.0)) == 0.0

    @pytest.mark.parametrize("height", [0.3, 1.2, 2.5])
    def test_constant_ceiling_closed_form(self, height):
        disk = PolarDisk(1.0)
        expected = disk.area * 0.25 * (math.sinh(2.0 * height) + 2.0 * height)
        value = room_volume(disk, CeilingFunction.constant(height))
        assert value == pytest.approx(expected, rel=1e-11)

    def test_cone_ceiling_reference(self):
        cone = CeilingFunction(height=lambda r, t: r, gradient=lambda r, t: (1.0, 0.0))
        assert room_volume(PolarDisk(1.0), cone) == pytest.approx(
            VOLUME_CONE_DISK1, rel=1e-11
        )

    def test_cone_ceiling_against_monte_carlo(self):
        """Monte Carlo oracle: sample the floor with the hyperbolic area
        element via inverse transform, average the height kernel."""
        rng = np.random.default_rng(20240817)
        n = 10**7
        radius = 1.0
        u = rng.random(n)
        r = np.arccosh(1.0 + u * (math.cosh(radius) - 1.0))
        kernel = 0.25 * (np.sinh(2.0 * r) + 2.0 * r)
        estimate = PolarDisk(radius).area * float(kernel.mean())
        sigma = PolarDisk(radius).area * float(kernel.std()) / math.sqrt(n)
        cone = CeilingFunction(lambda r, t: r, lambda r, t: (1.0, 0.0))
        value = room_volume(PolarDisk(radius), cone)
        assert abs(value - estimate) < 5.0 * sigma
        assert value == pytest.approx(estimate, rel=1e-3)  # 3 significant digits

    def test_monotone_in_ceiling(self):
        disk = PolarDisk(1.0)
        lower = tanh_mode_ceiling(0.4, 0.2, np.cos, lambda t: -np.sin(t))
        upper = tanh_mode_ceiling(0.9, 0.2, np.cos, lambda t: -np.sin(t))
        assert room_volume(disk, lower) < room_volume(disk, upper)

    def test_triangle_floor_rejected(self):
        with pytest.raises(DomainError):
            room_volume(equilateral_triangle(0.5), CeilingFunction.constant(1.0))

    def test_too_tall_constant_ceiling_names_its_height(self):
        # sinh 800 overflows the volume density.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"height 400 over a disk of radius 1.0$"):
                room_volume(PolarDisk(1.0), CeilingFunction.constant(400.0))


class TestCeilingArea:
    def test_zero_ceiling_is_floor(self):
        disk = PolarDisk(1.0)
        value = ceiling_area(disk, CeilingFunction.constant(0.0))
        assert value == pytest.approx(disk.area, rel=1e-11)

    @pytest.mark.parametrize("height", [0.5, 1.2])
    def test_constant_ceiling_closed_form(self, height):
        disk = PolarDisk(1.0)
        value = ceiling_area(disk, CeilingFunction.constant(height))
        assert value == pytest.approx(disk.area * math.cosh(height) ** 2, rel=1e-11)

    def test_too_tall_constant_ceiling_names_its_height(self):
        # cosh^2 400 overflows the area density.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"height 400 over a disk of radius 1.0$"):
                ceiling_area(PolarDisk(1.0), CeilingFunction.constant(400.0))

    def test_height_alone_is_not_a_ceiling(self):
        with pytest.raises(TypeError):
            CeilingFunction(lambda r, t: 0.8)

    def test_dropped_gradient_lower_bound(self):
        disk = PolarDisk(1.0)
        ceiling = tanh_mode_ceiling(0.5, 0.3, np.sin, np.cos)
        area = ceiling_area(disk, ceiling)

        def no_gradient(ceiling, r, t):
            return (np.cosh(ceiling.height(r, t)) ** 2 * np.sinh(r),)

        from turnover.rooms import _disk_quadrature

        (dropped,) = _disk_quadrature(
            no_gradient, ceiling, 1.0, Tolerance(), ("no-gradient area",)
        )
        assert area >= dropped - 1e-9


class TestNiceRoom:
    def test_height_zero_volume(self):
        assert nice_height(0.0, 1.0) == 0.0

    def test_height_inverse_at_one(self):
        V = 0.25 * (math.sinh(2.0) + 2.0)
        assert nice_height(V, 1.0) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("height", [0.3, 1.2, 2.5])
    def test_round_trip(self, height):
        disk = PolarDisk(1.0)
        V = room_volume(disk, CeilingFunction.constant(height))
        assert nice_height(V, disk.area) == pytest.approx(height, abs=1e-9)

    def test_area_zero_volume(self):
        assert nice_ceiling_area(0.0, 2.0) == pytest.approx(2.0, abs=1e-12)

    def test_area_reference(self):
        V = 0.25 * (math.sinh(2.0) + 2.0)
        assert nice_ceiling_area(V, 1.0) == pytest.approx(COSH_SQ_1, abs=1e-10)

    def test_quadratic_form_matches_cosh_form_on_grid(self):
        for A_F in (0.5, 1.0, 3.0, 8.0):
            for V in (0.0, 0.1, 1.0, 5.0, 20.0):
                H = nice_height(V, A_F)
                assert nice_ceiling_area(V, A_F) == pytest.approx(
                    A_F * math.cosh(H) ** 2, abs=1e-9
                )

    def test_domain(self):
        with pytest.raises(DomainError):
            nice_height(-1.0, 1.0)
        with pytest.raises(DomainError):
            nice_height(1.0, 0.0)

    def test_infinity_is_named_not_finite(self):
        with pytest.raises(DomainError, match=r"^volume must be finite, got inf"):
            nice_height(math.inf, 1.0)
        with pytest.raises(DomainError, match=r"^floor area must be finite, got inf"):
            nice_height(1.0, math.inf)

    def test_overflowing_right_hand_side_is_named(self):
        # 4 V / A_F is inf; the bracket once doubled into math.sinh(1024).
        with pytest.raises(DomainError, match=r"^nice height overflows"):
            nice_height(1e308, 1e-10)
        with pytest.raises(DomainError, match=r"^nice height overflows"):
            nice_height(1e308, 1.0)

    def test_height_beyond_the_doubled_bracket(self):
        # The root lies in (256, 512), where sinh(2 * 512) is no float.
        H = nice_height(1e250, 1.0)
        assert 256.0 < H < 355.0
        assert math.sinh(2.0 * H) + 2.0 * H == pytest.approx(4e250, rel=1e-9)

    def test_nan_is_named_not_a_number(self):
        with pytest.raises(DomainError, match=r"^volume is not a number \(nan\)"):
            nice_height(math.nan, 1.0)
        with pytest.raises(DomainError, match=r"^floor area is not a number \(nan\)"):
            nice_height(1.0, math.nan)


class TestConstantHAndRatio:
    def test_constant_value(self):
        assert constant_H() == pytest.approx(COTH_ROOT, abs=1e-10)

    def test_defining_equation(self):
        H = constant_H()
        assert math.cosh(H) / math.sinh(H) - H == pytest.approx(0.0, abs=1e-10)

    def test_two_over_h(self):
        assert 2.0 / constant_H() == pytest.approx(RATIO_MIN, abs=1e-10)

    def test_ratio_at_minimum(self):
        assert nice_room_ratio(constant_H()) == pytest.approx(RATIO_MIN, abs=1e-10)

    def test_ratio_limits(self):
        assert abs(nice_room_ratio(20.0) - 2.0) < 1e-6
        assert nice_room_ratio(1e-4) > 1e3

    def test_ratio_global_minimum_sampled(self):
        H_star = constant_H()
        floor_value = 2.0 / H_star
        for i in range(1, 2001):
            H = 50.0 * i / 2000.0
            value = nice_room_ratio(H)
            assert value >= floor_value - 1e-12
            # Equality to 1e-8 happens only right next to the critical point.
            if value <= floor_value + 1e-8:
                assert abs(H - H_star) < 5e-3
        for H in (H_star - 1e-5, H_star, H_star + 1e-5):
            assert nice_room_ratio(H) <= floor_value + 1e-8
        for H in (0.5, 1.0, 1.5, 3.0):
            assert nice_room_ratio(H) > floor_value + 1e-8

    def test_ratio_critical_point(self):
        H = constant_H()
        h = 1e-5
        derivative = (nice_room_ratio(H + h) - nice_room_ratio(H - h)) / (2.0 * h)
        assert abs(derivative) < 1e-5

    def test_ratio_domain(self):
        with pytest.raises(DomainError):
            nice_room_ratio(0.0)

    def test_ratio_nan_is_named_not_a_number(self):
        with pytest.raises(DomainError, match=r"^height is not a number \(nan\)"):
            nice_room_ratio(math.nan)


class TestIsoperimetricCheck:
    def test_constant_ceiling_is_the_equality_case(self):
        spec = isoperimetric_check(PolarDisk(1.0), CeilingFunction.constant(1.2))
        assert abs(spec.margin) < 1e-8

    def test_wavy_ceiling_strict_gap(self):
        ceiling = tanh_mode_ceiling(0.5, 0.3, np.sin, np.cos)
        spec = isoperimetric_check(PolarDisk(1.0), ceiling)
        assert spec.margin > 0.0
        record = spec.to_record()
        assert set(record) == {"V", "A_C", "A_S", "H_equiv", "margin"}
        assert record["A_C"] > record["A_S"] > PolarDisk(1.0).area - 1e-9

    def test_sweep_has_no_violations(self):
        specs = isoperimetric_sweep(seed=7, count=20)
        assert len(specs) == 20
        for spec in specs:
            assert spec.margin > -1e-9
            assert spec.volume < 0.5 * constant_H() * spec.ceiling_area + 1e-9

    def test_unmeetable_tolerance_names_the_quadrature(self):
        with pytest.raises(ConvergenceError, match="disk quadrature.*residual"):
            isoperimetric_check(
                PolarDisk(1.0), CeilingFunction.constant(1.2), Tolerance(1e-300, 0.0)
            )

    def test_sweep_count_validation(self):
        with pytest.raises(DomainError):
            isoperimetric_sweep(seed=1, count=0)

    def test_negative_seed_is_a_domain_error(self):
        with pytest.raises(DomainError, match=r"^seed must be >= 0, got -1$"):
            isoperimetric_sweep(seed=-1, count=1)

    @pytest.mark.parametrize("height", [178.0, 400.0])
    def test_too_tall_constant_ceiling_names_its_height(self, height):
        # 178 once overflowed the nice-area squares, 400 the volume density.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=rf"height {height:g} "):
                isoperimetric_check(PolarDisk(1.0), CeilingFunction.constant(height))

    def test_nice_area_that_overflows_is_not_returned(self):
        # Over a radius-3 disk, A_S once came back inf with margin -inf.
        with pytest.raises(DomainError, match=r"nice ceiling area overflows"):
            isoperimetric_check(PolarDisk(3.0), CeilingFunction.constant(176.0))

    @pytest.mark.parametrize("seed, count", [(34, 1), (21, 2), (16, 4)])
    def test_sweeps_converge_at_default_tol(self, seed, count):
        # These draws raised ConvergenceError under a finite-difference gradient.
        assert len(isoperimetric_sweep(seed, count)) == count

    def test_nice_height_solved_once(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return nice_height(*args)

        monkeypatch.setattr(rooms, "nice_height", counted)
        isoperimetric_check(PolarDisk(1.0), CeilingFunction.constant(0.7))
        assert len(calls) == 1

    def test_random_ceiling_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        r = np.linspace(0.01, 1.4, 30)[:, None]
        t = np.linspace(0.0, 2.0 * math.pi, 30)[None, :]
        step = 1e-6
        for _ in range(10):
            ceiling = random_smooth_ceiling(rng)
            g_r, g_t = ceiling.gradient(r, t)
            fd_r = (ceiling.height(r + step, t) - ceiling.height(r - step, t)) / (2 * step)
            fd_t = (ceiling.height(r, t + step) - ceiling.height(r, t - step)) / (2 * step)
            np.testing.assert_allclose(g_r, fd_r, atol=1e-8)
            np.testing.assert_allclose(g_t, fd_t, atol=1e-8)

    def test_random_ceilings_stay_in_range(self):
        rng = np.random.default_rng(3)
        r = np.linspace(0.0, 1.4, 40)
        t = np.linspace(0.0, 2.0 * math.pi, 40)
        for _ in range(25):
            ceiling = random_smooth_ceiling(rng)
            values = ceiling.height(r[:, None], t[None, :])
            assert float(values.min()) > 0.0
            assert float(values.max()) < 3.0


def documented_draws(rng):
    """The draws ``random_smooth_ceiling`` documents, in its order: base,
    mode count, frequencies, phases, raw amplitudes."""
    base = float(rng.uniform(0.6, 1.4))
    n_modes = int(rng.integers(1, 4))
    freqs = rng.integers(1, 4, size=n_modes)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=n_modes)
    raw = rng.uniform(0.2, 1.0, size=n_modes)
    amps = raw * (0.85 * base / raw.sum())
    return base, list(zip(amps.tolist(), freqs.tolist(), phases.tolist()))


def per_mode_reference(base, modes, r, t):
    """Height and gradient of the random ceiling summed one mode at a time."""
    tanh = np.tanh(r)
    g, g_r, g_t = base, 0.0, 0.0
    for a, f, ph in modes:
        angle = f * t + ph
        g = g + a * tanh**f * np.cos(angle)
        g_r = g_r + a * f * tanh ** (f - 1) * (1.0 - tanh * tanh) * np.cos(angle)
        g_t = g_t - a * f * tanh**f * np.sin(angle)
    return g, g_r, g_t


class TestRandomCeiling:
    @pytest.mark.parametrize("seed", range(20))
    def test_matrix_form_equals_the_per_mode_sum(self, seed):
        ceiling = random_smooth_ceiling(np.random.default_rng(seed))
        base, modes = documented_draws(np.random.default_rng(seed))
        for n in _NODE_COUNTS:
            r, t = rooms._disk_grid(n, 1.4)
            g, g_r, g_t = per_mode_reference(base, modes, r, t)
            assert np.shape(ceiling.height(r, t)) == (n, 2 * n)
            np.testing.assert_allclose(ceiling.height(r, t), g, rtol=0.0, atol=1e-14)
            got_r, got_t = ceiling.gradient(r, t)
            np.testing.assert_allclose(got_r, g_r, rtol=0.0, atol=1e-14)
            np.testing.assert_allclose(got_t, g_t, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("seed", range(20))
    def test_draws_are_the_documented_ones(self, seed):
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        random_smooth_ceiling(rng)
        documented_draws(twin)
        assert rng.random() == twin.random()

    def test_one_dimensional_nodes_are_a_domain_error(self):
        # 1-D r and theta as long as the mode list would pass through the
        # matrix products and give a wrong array if they were not rejected.
        for seed in range(20):
            _, modes = documented_draws(np.random.default_rng(seed))
            ceiling = random_smooth_ceiling(np.random.default_rng(seed))
            r = np.linspace(0.1, 1.0, len(modes))
            t = np.linspace(0.0, 2.0, len(modes))
            for evaluate in (ceiling.height, ceiling.gradient):
                with pytest.raises(DomainError, match=r"\(n, 1\) column.*\(1, m\) row"):
                    evaluate(r, t)
        with pytest.raises(DomainError):
            ceiling.height(0.5, 0.0)
        with pytest.raises(DomainError):
            ceiling.height(np.full((3, 2), 0.5), np.zeros((1, 4)))


def on_full_grid(ceiling):
    """``ceiling`` with every value broadcast to the full (n, 2n) grid."""

    def full(value, r, t):
        return value + np.zeros(np.broadcast(r, t).shape)

    return CeilingFunction(
        height=lambda r, t: full(ceiling.height(r, t), r, t),
        gradient=lambda r, t: tuple(full(v, r, t) for v in ceiling.gradient(r, t)),
    )


class TestCeilingShapes:
    """A ceiling may return scalars, or arrays narrower than the node grid
    in shape or type."""

    CEILINGS = (
        # constant in r: height and gradient are (1, 2n) rows
        CeilingFunction(lambda r, t: 0.8 + 0.1 * np.cos(t),
                        lambda r, t: (0.0, -0.1 * np.sin(t))),
        # g_r an (n, 1) column, g_theta a (1, 2n) row, the height the full grid
        CeilingFunction(lambda r, t: 0.5 + 0.25 * r * r + 0.1 * np.cos(t),
                        lambda r, t: (0.5 * r, -0.1 * np.sin(t))),
        # an integer g_r column, which cannot hold a float sum
        CeilingFunction(lambda r, t: 0.7 + 0.0 * r,
                        lambda r, t: (np.zeros(np.shape(r), dtype=int), 0.0)),
    )

    @pytest.mark.parametrize("index", range(len(CEILINGS)))
    def test_narrow_values_integrate_like_the_full_grid(self, index):
        # g_theta does not vanish at the origin, so the area density has a
        # kink there and converges only to a looser tolerance.
        ceiling, floor, tol = self.CEILINGS[index], PolarDisk(1.1), Tolerance(1e-8, 1e-8)
        spec = isoperimetric_check(floor, ceiling, tol)
        full = isoperimetric_check(floor, on_full_grid(ceiling), tol)
        assert spec.volume == pytest.approx(full.volume, rel=1e-13)
        assert spec.ceiling_area == pytest.approx(full.ceiling_area, rel=1e-13)
        assert spec.volume == room_volume(floor, ceiling, tol)
        assert spec.ceiling_area == ceiling_area(floor, ceiling, tol)


def counting_ceiling(ceiling):
    """``ceiling`` with the node order of every height and gradient call logged."""
    calls = {"height": [], "gradient": []}

    def height(r, t):
        calls["height"].append(np.shape(r)[0])
        return ceiling.height(r, t)

    def gradient(r, t):
        calls["gradient"].append(np.shape(r)[0])
        return ceiling.gradient(r, t)

    return CeilingFunction(height, gradient), calls


class TestFusedRoomIntegrals:
    TOLERANCES = (Tolerance(), Tolerance(1e-10, 1e-10))

    @pytest.mark.parametrize("seed", [0, 3])
    def test_one_height_and_one_gradient_call_per_order(self, seed):
        rng = np.random.default_rng(seed)
        for ceiling in (random_smooth_ceiling(rng), CeilingFunction.constant(0.9)):
            counted, calls = counting_ceiling(ceiling)
            isoperimetric_check(PolarDisk(1.1), counted)
            orders = calls["height"]
            assert len(orders) >= 2
            assert orders == list(_NODE_COUNTS[: len(orders)])
            assert calls["gradient"] == orders

    @pytest.mark.parametrize("seed", [0, 1, 2, 13])
    def test_fused_room_equals_the_lone_integrals(self, seed):
        rng = np.random.default_rng(seed)
        for tol in self.TOLERANCES:
            for _ in range(8):
                floor = PolarDisk(float(rng.uniform(0.6, 1.4)))
                for ceiling in (random_smooth_ceiling(rng),
                                CeilingFunction.constant(float(rng.uniform(0.0, 3.0)))):
                    spec = isoperimetric_check(floor, ceiling, tol)
                    assert spec.volume == room_volume(floor, ceiling, tol)
                    assert spec.ceiling_area == ceiling_area(floor, ceiling, tol)

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_prism_pair_equals_the_lone_triangle_integrals(self, seed):
        rng = np.random.default_rng(seed)
        for tol in self.TOLERANCES:
            for _ in range(10):
                r, a = 0.9 * np.sqrt(rng.uniform(size=3)), rng.uniform(0.0, 2.0 * np.pi, 3)
                tri = ProjectiveTriangle(tuple(zip(r * np.cos(a), r * np.sin(a))))
                (inverse_gap,) = _triangle_quadrature(
                    lambda x, y: (1.0 / (1.0 - x * x - y * y),), tri, tol, ("1/gap",)
                )
                (area,) = _triangle_quadrature(
                    lambda x, y: ((1.0 - x * x - y * y) ** -1.5,), tri, tol, ("area",)
                )
                assert cusp_prism_check(tri, tol) == (0.5 * inverse_gap, area)


class TestCuspPrism:
    def test_unconverged_prism_names_its_vertices(self):
        tri = ProjectiveTriangle(((0.9995, 0.0), (0.0, 0.5), (-0.5, -0.5)))
        where = re.escape("triangle quadrature over ((0.9995, 0.0), (0.0, 0.5), (-0.5, -0.5))")
        with pytest.raises(ConvergenceError) as info:
            cusp_prism_check(tri)
        assert re.fullmatch(
            rf"{where} of 1/gap did not converge in 9 orders \(up to 256 nodes\): "
            rf"residual \S+; {where} of gap\^-1\.5 did not converge in 9 orders "
            rf"\(up to 256 nodes\): residual \S+",
            str(info.value),
        )

    def test_equilateral_point_nine(self):
        volume, area = cusp_prism_check(equilateral_triangle(0.9))
        assert volume < 0.5 * area
        assert volume > 0.0 and area > 0.0

    def test_tiny_triangle_ratio_approaches_half_from_below(self):
        tri = ProjectiveTriangle(((1e-3, 0.0), (0.0, 1e-3), (-1e-3, -1e-3)))
        volume, area = cusp_prism_check(tri)
        ratio = volume / area
        assert 0.499999 < ratio < 0.5

    def test_floor_area_matches_gauss_bonnet(self):
        """The projective floor area is pi minus the angle sum, with sides from
        the Klein-model distance and angles from the hyperbolic law of cosines."""

        def cosh_dist(u, v):
            dot = u[0] * v[0] + u[1] * v[1]
            return (1.0 - dot) / math.sqrt(
                (1.0 - u[0] ** 2 - u[1] ** 2) * (1.0 - v[0] ** 2 - v[1] ** 2)
            )

        for tri in (
            equilateral_triangle(0.7),
            ProjectiveTriangle(((0.1, 0.2), (-0.5, 0.3), (0.4, -0.6))),
        ):
            a, b, c = tri.vertices
            ch = (cosh_dist(b, c), cosh_dist(c, a), cosh_dist(a, b))
            sh = tuple(math.sqrt(x * x - 1.0) for x in ch)
            angle_sum = sum(
                math.acos((ch[j] * ch[k] - ch[i]) / (sh[j] * sh[k]))
                for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1))
            )
            _, area = cusp_prism_check(tri)
            assert area == pytest.approx(math.pi - angle_sum, rel=1e-12), tri

    def test_random_triangles_never_violate(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 10:
            pts = tuple(map(tuple, rng.uniform(-0.92, 0.92, size=(3, 2))))
            try:
                tri = ProjectiveTriangle(pts)
            except DomainError:
                continue
            volume, area = cusp_prism_check(tri)
            assert volume < 0.5 * area
            checked += 1
