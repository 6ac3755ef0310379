"""Invariance constants, admissible discretization, deviation remainder."""

import math

import numpy as np
import pytest

from mas.bounds import (deviation_remainder, discretization_range,
                        lipschitz_constants, theorem1_constants)
from mas.errors import DiameterTooLarge, SamplingOutOfRange
from mas.graph import build_graph, relative_state, spectral

from conftest import random_connected_graph


def _report(edges, agents, v_max=1.0, **kw):
    g = build_graph(agents, edges)
    return theorem1_constants(spectral(g), g, v_max, **kw)


def test_invariance_coefficient_path3():
    rep = _report([(1, 2), (2, 3)], 3)
    assert rep.k2 == pytest.approx(12.0, rel=1e-12)


def test_invariance_coefficient_single_edge():
    rep = _report([(1, 2)], 2)
    assert rep.k2 == pytest.approx(1.0, rel=1e-12)


def test_invariance_coefficient_triangle():
    rep = _report([(1, 2), (2, 3), (1, 3)], 3)
    assert rep.k2 == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_radius_and_drift_bound_scale_with_safety_and_input():
    rep = _report([(1, 2), (2, 3)], 3, v_max=2.0, safety=1.25)
    assert rep.r_bar == pytest.approx(1.25 * 12.0 * 2.0, rel=1e-12)
    assert rep.m_bound == rep.r_bar


def test_safety_factor_must_exceed_one():
    with pytest.raises(ValueError):
        _report([(1, 2)], 2, safety=1.0)


def test_radius_override_and_hypothesis_flag():
    rep = _report([(1, 2)], 2, v_max=1.0, r_bar_override=0.9)
    assert rep.r_bar == 0.9
    assert not rep.hypothesis_satisfied  # 0.9 <= K2 v_max = 1
    rep = _report([(1, 2)], 2, v_max=1.0, r_bar_override=1.1)
    assert rep.hypothesis_satisfied


def test_lipschitz_constants_path3_and_edge():
    assert lipschitz_constants(build_graph(3, [(1, 2), (2, 3)])) \
        == (pytest.approx(math.sqrt(2)), 2.0, pytest.approx(14.0))
    assert lipschitz_constants(build_graph(2, [(1, 2)])) == (1.0, 1.0, 7.0)


def test_diameter_supremum_fixture():
    # M fixed by override: d_max_sup = (1-lambda)^2 v^2 / (4 M L)
    rep = _report([(1, 2)], 2, v_max=1.0, r_bar_override=1.1,
                  lambda_reach=0.5)
    rng = discretization_range(rep)
    assert rng.d_max_sup == pytest.approx(0.008116883116883116, abs=1e-15)


def test_interval_collapses_at_supremum():
    rep = _report([(1, 2)], 2, v_max=1.0, r_bar_override=1.1,
                  lambda_reach=0.5)
    sup = discretization_range(rep).d_max_sup
    rng = discretization_range(rep, chosen_d_max=sup)
    collapse = (1.0 - 0.5) * 1.0 / (2.0 * 1.1 * 7.0)
    assert abs(rng.dt_hi - rng.dt_lo) < 1e-12
    assert rng.dt_lo == pytest.approx(collapse, abs=1e-12)
    assert rng.dt_hi == pytest.approx(collapse, abs=1e-12)
    assert collapse == pytest.approx(0.032467532467532464, abs=1e-15)


def test_default_choices_are_admissible():
    rep = _report([(1, 2), (2, 3)], 3, v_max=10.0)
    rng = discretization_range(rep)
    assert rng.chosen_d_max == pytest.approx(0.5 * rng.d_max_sup)
    assert rng.dt_lo < rng.chosen_dt < rng.dt_hi
    assert rng.chosen_dt == pytest.approx(0.5 * (rng.dt_lo + rng.dt_hi))


def test_interval_endpoints_are_admissible_choices():
    rep = _report([(1, 2)], 2, v_max=100.0, safety=1.05)
    rng = discretization_range(rep, chosen_d_max=0.336)
    for dt in (rng.dt_lo, rng.dt_hi):
        again = discretization_range(rep, chosen_d_max=0.336, chosen_dt=dt)
        assert again.chosen_dt == dt


def test_oversized_diameter_rejected():
    rep = _report([(1, 2)], 2)
    sup = discretization_range(rep).d_max_sup
    with pytest.raises(DiameterTooLarge):
        discretization_range(rep, chosen_d_max=sup * 1.01)


def test_out_of_range_period_rejected():
    rep = _report([(1, 2)], 2, v_max=100.0, safety=1.05)
    rng = discretization_range(rep, chosen_d_max=0.336)
    with pytest.raises(SamplingOutOfRange):
        discretization_range(rep, chosen_d_max=0.336, chosen_dt=rng.dt_hi * 1.1)
    with pytest.raises(SamplingOutOfRange):
        discretization_range(rep, chosen_d_max=0.336, chosen_dt=rng.dt_lo * 0.5)


def test_interval_widens_as_diameter_shrinks():
    rep = _report([(1, 2), (2, 3)], 3, v_max=5.0)
    sup = discretization_range(rep).d_max_sup
    narrow = discretization_range(rep, chosen_d_max=0.9 * sup)
    wide = discretization_range(rep, chosen_d_max=0.3 * sup)
    assert wide.dt_lo < narrow.dt_lo <= narrow.dt_hi < wide.dt_hi


def test_deviation_remainder_fixture_and_monotonicity():
    rep = _report([(1, 2)], 2, v_max=100.0, safety=1.05)
    assert rep.m_bound == pytest.approx(105.0, rel=1e-12)
    assert deviation_remainder(rep, 0.0103) \
        == pytest.approx(0.16362097740289525, rel=1e-12)
    samples = [deviation_remainder(rep, dt)
               for dt in np.linspace(1e-4, 0.06, 25)]
    assert all(a < b for a, b in zip(samples, samples[1:]))
    assert deviation_remainder(rep, 0.0) == 0.0


def test_drift_magnitude_bounded_by_l1_times_relative_norm():
    """The per-agent coupling never exceeds L1 * ||relative state||; this is
    what makes M = R_bar a sound drift bound inside the invariant ball."""
    rng = np.random.default_rng(20240819)
    for _ in range(200):
        g = random_connected_graph(rng)
        l1, _, _ = lipschitz_constants(g)
        x = rng.normal(size=(g.agent_count, g.dimension)) \
            * 10.0 ** float(rng.integers(-2, 3))
        rel_norm = float(np.linalg.norm(relative_state(g, x)))
        for i in range(1, g.agent_count + 1):
            f_i = -(g.laplacian @ x)[i - 1]
            assert np.linalg.norm(f_i) <= l1 * rel_norm + 1e-9
