"""Workspace grids, label-compliant refinement, point-to-cell lookup."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mas.errors import BudgetExceeded, OutsideWorkspace, SemanticError
from mas.partition import (_ALIGN_TOL, LabeledRegion, ServiceLabeling,
                           Workspace, cell_of, cells_of, grid_decompose,
                           refine_to_compliance)


def _ws(lower, upper):
    return Workspace(np.asarray(lower, dtype=float),
                     np.asarray(upper, dtype=float))


def test_grid_numbering_is_row_major_one_based():
    grid = grid_decompose(_ws([0, 0], [3, 2]), math.sqrt(2) + 1e-9)
    assert grid.cells_per_axis == (3, 2)
    assert grid.cell_count == 6
    # last axis fastest: (ix, iy) -> ix * 2 + iy + 1
    for ix in range(3):
        for iy in range(2):
            lo, hi = grid.bounds(ix * 2 + iy + 1)
            assert np.allclose(lo, [ix, iy])
            assert np.allclose(hi, [ix + 1, iy + 1])


def test_grid_meets_target_diameter_with_fewest_cells():
    ws = _ws([0, 0], [1, 1])
    for target in (0.31, 0.5, 1.4, 2.0):
        grid = grid_decompose(ws, target)
        assert grid.diameter <= target + 1e-12
        coarser = tuple(max(1, c - 1) for c in grid.cells_per_axis)
        if coarser != grid.cells_per_axis:
            sides = ws.extent / np.array(coarser)
            assert np.linalg.norm(sides) > target - 1e-12


def test_adjacent_cells_share_bitwise_equal_faces():
    grid = grid_decompose(_ws([0.0], [4.032]), 0.336)
    assert grid.cell_count == 12
    for c in range(1, 12):
        hi = grid.bounds(c)[1]
        lo_next = grid.bounds(c + 1)[0]
        assert hi[0] == lo_next[0]  # exactly equal, not just close
    assert grid.bounds(12)[1][0] == 4.032


def test_grid_cell_budget():
    with pytest.raises(BudgetExceeded):
        grid_decompose(_ws([0, 0, 0], [1, 1, 1]), 0.001, cap=1000)


def test_cell_of_centers_and_boundaries():
    grid = grid_decompose(_ws([0, 0], [3, 2]), math.sqrt(2) + 1e-9)
    for c in range(1, grid.cell_count + 1):
        lo, hi = grid.bounds(c)
        assert cell_of(grid, 0.5 * (lo + hi)) == c
    # interior faces belong to the cell on the upper side of the cut
    assert cell_of(grid, [1.0, 0.5]) == 3
    assert cell_of(grid, [0.5, 1.0]) == 2
    # workspace's upper boundary folds into the last cell along that axis
    assert cell_of(grid, [3.0, 2.0]) == 6
    assert cell_of(grid, [0.0, 0.0]) == 1


def test_cell_of_rejects_outside_points():
    grid = grid_decompose(_ws([0, 0], [3, 2]), 1.5)
    with pytest.raises(OutsideWorkspace):
        cell_of(grid, [3.1, 1.0])
    with pytest.raises(OutsideWorkspace):
        cell_of(grid, [-0.01, 0.5])
    with pytest.raises(OutsideWorkspace):
        cell_of(grid, [1.0])


@settings(max_examples=200, deadline=None)
@given(st.floats(0, 3), st.floats(0, 2))
def test_cell_of_returns_a_containing_cell(px, py):
    grid = grid_decompose(_ws([0, 0], [3, 2]), 0.9)
    c = cell_of(grid, [px, py])
    lo, hi = grid.bounds(c)
    assert np.all(lo <= [px, py]) and np.all([px, py] <= hi)


def _reference_cell(decomposition, point) -> int:
    """First cell whose stored bounds hold the point (test oracle).

    Cells are half-open except on the workspace's upper faces, which belong
    to the touching cell.
    """
    p = np.asarray(point, dtype=float).reshape(-1)
    ws = decomposition.workspace
    if not ws.contains(p):
        raise OutsideWorkspace("outside")
    at_top = p == ws.upper
    ge_lo = decomposition.lows <= p
    lt_hi = (p < decomposition.highs) | (at_top & (p == decomposition.highs))
    hits = np.nonzero(np.all(ge_lo & lt_hi, axis=1))[0]
    if hits.size == 0:
        raise OutsideWorkspace("falls between cells")
    return int(hits[0]) + 1


def _lookup_cases():
    """Uniform grids and refined decompositions in 1-D and 2-D."""
    line = grid_decompose(_ws([0.0], [4.032]), 0.336)
    plane = grid_decompose(_ws([0.0, -1.0], [3.0, 1.3]), 0.45)
    tiled = [LabeledRegion(np.array([0.0]), np.array([1.1]),
                           {1: frozenset({"a"})}),
             LabeledRegion(np.array([1.1]), np.array([4.032]),
                           {1: frozenset({"b"})})]
    sparse = [LabeledRegion(np.array([0.3, -0.55]), np.array([1.2, 0.1]),
                            {1: frozenset({"a"})}),
              LabeledRegion(np.array([2.05, 0.7]), np.array([2.8, 1.3]),
                            {2: frozenset({"b"})})]
    return [line, plane, refine_to_compliance(tiled, line)[0],
            refine_to_compliance(sparse, plane)[0]]


def _probe_points(decomposition, rng):
    """Random interior points, points on cell faces and on the upper faces."""
    ws = decomposition.workspace
    n = ws.dimension
    inner = ws.lower + rng.random((200, n)) * ws.extent
    cells = rng.integers(0, decomposition.cell_count, size=200)
    faces = decomposition.lows[cells].copy()
    tops = decomposition.highs[cells].copy()
    axis = rng.integers(0, n, size=200)
    # one coordinate on a face, the rest anywhere in the workspace
    mixed = inner.copy()
    mixed[np.arange(200), axis] = faces[np.arange(200), axis]
    corner = np.broadcast_to(ws.upper, (1, n))
    upper = inner.copy()
    upper[np.arange(200), axis] = ws.upper[axis]
    return np.concatenate([inner, faces, tops, mixed, upper, corner])


def test_array_lookup_matches_the_point_lookup_it_replaced():
    rng = np.random.default_rng(11)
    for decomposition in _lookup_cases():
        points = _probe_points(decomposition, rng)
        expected = [_reference_cell(decomposition, p) for p in points]
        assert cells_of(decomposition, points).tolist() == expected
        assert [cell_of(decomposition, p) for p in points] == expected
        # leading axes are kept: (steps, agents, n) -> (steps, agents)
        grid = points[:120].reshape(40, 3, -1)
        assert np.array_equal(cells_of(decomposition, grid),
                              np.reshape(expected[:120], (40, 3)))


def _cut_probes(decomposition, rng, count):
    """Points with one coordinate on a cut or one ulp either side of it,
    and points with every coordinate so (grid corners and their ulps)."""
    ws = decomposition.workspace
    n = ws.dimension
    points = []
    for k, cuts in enumerate(decomposition.cuts):
        near = np.concatenate([cuts, np.nextafter(cuts, -np.inf),
                               np.nextafter(cuts, np.inf)])
        near = near[(near >= ws.lower[k]) & (near <= ws.upper[k])]
        base = ws.lower + rng.random((near.size, n)) * ws.extent
        base[:, k] = near
        points.append(base)
    corners = np.empty((count, n))
    for k, cuts in enumerate(decomposition.cuts):
        picks = rng.choice(cuts, size=count)
        corners[:, k] = np.nextafter(
            picks, picks + rng.choice([-1.0, 0.0, 1.0], size=count))
    points.append(np.clip(corners, ws.lower, ws.upper))
    return np.concatenate(points)


def _random_services(rng):
    """Services of one region: 1-2 agents, each from its own name pool."""
    agents = rng.choice([1, 2, 3], size=int(rng.integers(1, 3)), replace=False)
    return {int(a): frozenset(f"s{a}{int(j)}"
                              for j in rng.integers(0, 3, size=2))
            for a in agents}


def _random_regions(kind, ws, grid, rng):
    """A region list of one kind, in shuffled order.

    sparse: a few boxes anywhere, some reaching past the workspace;
    aligned: boxes between grid cuts, some bounds a fraction of the snap
    tolerance off the cut; tiling: a guillotine tiling of the workspace
    (not a product in 2-D); near: sparse boxes plus boxes whose bounds lie
    a fraction of the snap tolerance off another region's bound.
    """
    n = ws.dimension
    tol = _ALIGN_TOL * np.maximum(1.0, ws.extent)

    def jitter(values, k):
        return values + rng.uniform(-0.4, 0.4, size=np.shape(values)) * tol[k]

    boxes = []
    if kind in ("sparse", "near"):
        for _ in range(int(rng.integers(1, 5))):
            lo = ws.lower - 0.2 * ws.extent + rng.random(n) * 1.2 * ws.extent
            boxes.append((lo, lo + rng.uniform(0.05, 0.6, size=n) * ws.extent))
    if kind == "near":
        for _ in range(int(rng.integers(1, 4))):
            lo, hi = np.empty(n), np.empty(n)
            for k in range(n):
                anchors = np.unique(np.concatenate(
                    [[b[0][k] for b in boxes], [b[1][k] for b in boxes],
                     grid.cuts[k]]))
                a, b = np.sort(rng.choice(anchors, size=2, replace=False))
                lo[k], hi[k] = jitter(a, k), jitter(b, k)
            boxes.append((lo, hi))
    if kind == "aligned":
        for _ in range(int(rng.integers(1, 5))):
            lo, hi = np.empty(n), np.empty(n)
            for k, cuts in enumerate(grid.cuts):
                i, j = np.sort(rng.choice(len(cuts), size=2, replace=False))
                lo[k], hi[k] = cuts[i], cuts[j]
                if rng.random() < 0.5:
                    lo[k], hi[k] = jitter(lo[k], k), jitter(hi[k], k)
            boxes.append((lo, hi))
    if kind == "tiling":
        boxes = [(ws.lower.copy(), ws.upper.copy())]
        for _ in range(int(rng.integers(1, 6))):
            lo, hi = boxes.pop(int(rng.integers(len(boxes))))
            k = int(rng.integers(n))
            cut = lo[k] + rng.uniform(0.2, 0.8) * (hi[k] - lo[k])
            upper, lower = hi.copy(), lo.copy()
            upper[k] = lower[k] = cut
            boxes += [(lo, upper), (lower, hi)]
    order = rng.permutation(len(boxes))
    return [LabeledRegion(*boxes[i], _random_services(rng)) for i in order]


def _assert_compliant(regions, grid, refined, labeling):
    """The refinement tiles the workspace, nests in the grid, respects every
    region and labels each cell with its covering regions' services."""
    ws = grid.workspace
    for k, cuts in enumerate(refined.cuts):
        assert cuts[0] == ws.lower[k] and cuts[-1] == ws.upper[k]
        assert np.all(np.diff(cuts) > 0)
    volumes = np.prod(refined.highs - refined.lows, axis=1)
    assert volumes.sum() == pytest.approx(float(np.prod(ws.extent)),
                                          rel=1e-12)
    # every cell nests in exactly one grid cell, face for face
    nests = np.all((grid.lows <= refined.lows[:, None])
                   & (refined.highs[:, None] <= grid.highs), axis=2)
    assert np.all(nests.sum(axis=1) == 1)
    # a region bound moves by at most the snap tolerance
    tol = _ALIGN_TOL * np.maximum(1.0, ws.extent)
    agents = sorted({a for r in regions for a in r.services})
    for c in range(1, refined.cell_count + 1):
        lo, hi = refined.bounds(c)
        expected = {a: set() for a in agents}
        for r in regions:
            inside = np.all(r.lower - tol <= lo) and np.all(hi <= r.upper + tol)
            apart = np.any(np.minimum(hi, r.upper) - np.maximum(lo, r.lower)
                           <= tol)
            assert inside != apart
            if inside:
                for a, services in r.services.items():
                    expected[a] |= services
        assert {a: set(labeling.label(a, c)) for a in agents} == expected
    assert labeling.alphabets == {
        a: frozenset().union(*labeling.labels[a].values()) for a in agents}


def test_lookup_agrees_with_the_stored_bounds_on_and_beside_every_cut():
    rng = np.random.default_rng(5)
    kinds = ("sparse", "aligned", "tiling", "near")
    for trial in range(80):
        n = 1 + trial % 2
        lower = rng.uniform(-3.0, 3.0, size=n)
        ws = _ws(lower, lower + rng.uniform(0.5, 4.0, size=n))
        grid = grid_decompose(ws, float(rng.uniform(0.05, 1.0)))
        regions = _random_regions(kinds[trial // 2 % 4], ws, grid, rng)
        refined, labeling = refine_to_compliance(regions, grid)
        _assert_compliant(regions, grid, refined, labeling)
        for decomposition in (grid, refined):
            points = _cut_probes(decomposition, rng, 40)
            cells = cells_of(decomposition, points)
            lo = decomposition.lows[cells - 1]
            hi = decomposition.highs[cells - 1]
            assert np.all((lo <= points) & (points <= hi))
            expected = [_reference_cell(decomposition, p) for p in points]
            assert cells.tolist() == expected


def test_array_lookup_rejects_outside_points_and_names_the_first():
    for decomposition in _lookup_cases():
        ws = decomposition.workspace
        inside = np.tile(0.5 * (ws.lower + ws.upper), (5, 1))
        for bad in (ws.upper + 1e-12, ws.lower - 0.25,
                    np.full(ws.dimension, np.nan)):
            points = inside.copy()
            points[2] = bad
            points[4] = ws.upper + 7.0
            with pytest.raises(OutsideWorkspace,
                               match=re.escape(str(points[2].tolist()))):
                cells_of(decomposition, points)
            with pytest.raises(OutsideWorkspace):
                cell_of(decomposition, bad)
        with pytest.raises(OutsideWorkspace, match="dimension"):
            cells_of(decomposition, np.zeros((3, ws.dimension + 1)))


def test_refinement_identity_when_regions_align():
    grid = grid_decompose(_ws([0.0], [4.032]), 0.336)
    regions = [
        LabeledRegion(np.array([0.672]), np.array([1.008]),
                      {1: frozenset({"port"})}),
        LabeledRegion(np.array([1.344]), np.array([1.68]),
                      {2: frozenset({"dock"})}),
    ]
    dec, lab = refine_to_compliance(regions, grid)
    assert dec.cell_count == 12
    assert dict(lab.labels[1]) == {3: frozenset({"port"})}
    assert dict(lab.labels[2]) == {5: frozenset({"dock"})}
    assert lab.alphabets[1] == frozenset({"port"})


def test_refinement_of_staggered_region():
    grid = grid_decompose(_ws([0, 0], [3, 2]), math.sqrt(2) + 1e-9)
    region = LabeledRegion(np.array([0.5, 0.25]), np.array([1.5, 1.75]),
                           {1: frozenset({"a"})})
    dec, lab = refine_to_compliance([region], grid)
    # cuts x: 0,.5,1,1.5,2,3 and y: 0,.25,1,1.75,2 -> 5*4 cells
    assert dec.cell_count == 20
    assert sorted(lab.labels[1]) == [6, 7, 10, 11]
    # refined cells tile the workspace ...
    volumes = [np.prod(dec.bounds(c)[1] - dec.bounds(c)[0])
               for c in range(1, dec.cell_count + 1)]
    assert sum(volumes) == pytest.approx(6.0, rel=1e-12)
    # ... and each refined cell nests inside exactly one original grid cell
    for c in range(1, dec.cell_count + 1):
        lo, hi = dec.bounds(c)
        inside = [g for g in range(1, grid.cell_count + 1)
                  if np.all(grid.bounds(g)[0] <= lo + 1e-12)
                  and np.all(hi <= grid.bounds(g)[1] + 1e-12)]
        assert len(inside) == 1
    # labeled cells lie inside the region, unlabeled ones outside
    for c in range(1, dec.cell_count + 1):
        lo, hi = dec.bounds(c)
        covered = np.all(region.lower <= lo + 1e-12) \
            and np.all(hi <= region.upper + 1e-12)
        assert covered == (c in lab.labels[1])


def test_refinement_of_tiling_regions_labels_every_cell_once():
    grid = grid_decompose(_ws([0, 0], [2, 1]), 0.75)
    regions = [
        LabeledRegion(np.array([0.0, 0.0]), np.array([1.0, 1.0]),
                      {1: frozenset({"left"})}),
        LabeledRegion(np.array([1.0, 0.0]), np.array([2.0, 1.0]),
                      {2: frozenset({"right"})}),
    ]
    dec, lab = refine_to_compliance(regions, grid)
    assert dec.cells_per_axis == grid.cells_per_axis
    total = np.prod(_ws([0, 0], [2, 1]).extent)
    volumes = [np.prod(dec.bounds(c)[1] - dec.bounds(c)[0])
               for c in range(1, dec.cell_count + 1)]
    assert sum(volumes) == pytest.approx(float(total), rel=1e-12)
    # every cell carries exactly one side's label
    for c in range(1, dec.cell_count + 1):
        left = lab.label(1, c)
        right = lab.label(2, c)
        assert (left == frozenset({"left"})) != (right == frozenset({"right"}))


def test_tiling_that_is_not_a_product_gets_the_product_refinement():
    grid = grid_decompose(_ws([0, 0], [2, 1]), 1.5)
    assert grid.cells_per_axis == (2, 1)
    regions = [
        LabeledRegion(np.array([0.0, 0.0]), np.array([1.0, 1.0]),
                      {1: frozenset({"a"})}),
        LabeledRegion(np.array([1.0, 0.0]), np.array([2.0, 0.3]),
                      {1: frozenset({"b"})}),
        LabeledRegion(np.array([1.0, 0.3]), np.array([2.0, 1.0]),
                      {1: frozenset({"c"})}),
    ]
    dec, lab = refine_to_compliance(regions, grid)
    # the left region is cut at y = 0.3 too: 4 cells, not 3
    assert [c.tolist() for c in dec.cuts] == [[0.0, 1.0, 2.0], [0.0, 0.3, 1.0]]
    assert dict(lab.labels[1]) == {1: frozenset({"a"}), 2: frozenset({"a"}),
                                   3: frozenset({"b"}), 4: frozenset({"c"})}


def test_tiling_listed_out_of_order_is_numbered_left_to_right():
    grid = grid_decompose(_ws([0.0], [3.0]), 3.0)
    regions = [LabeledRegion(np.array([lo]), np.array([lo + 1.0]),
                             {1: frozenset({name})})
               for lo, name in ((2.0, "c"), (0.0, "a"), (1.0, "b"))]
    dec, lab = refine_to_compliance(regions, grid)
    assert dec.lows[:, 0].tolist() == [0.0, 1.0, 2.0]
    assert dict(lab.labels[1]) == {1: frozenset({"a"}), 2: frozenset({"b"}),
                                   3: frozenset({"c"})}


def test_bounds_merged_into_one_cut_label_against_that_cut():
    grid = grid_decompose(_ws([0.0], [4.032]), 0.336)
    # B's lower bound is 5e-10 above A's, inside the merge tolerance, so
    # both regions start on the one cut at 0.5 and B covers cell 3 too
    regions = [LabeledRegion(np.array([0.5]), np.array([0.9]),
                             {1: frozenset({"a"})}),
               LabeledRegion(np.array([0.5 + 5e-10]), np.array([0.8]),
                             {2: frozenset({"b"})})]
    dec, lab = refine_to_compliance(regions, grid)
    assert dec.cell_count == 15
    assert dec.bounds(3)[0][0] == 0.5
    assert sorted(lab.labels[1]) == [3, 4, 5]
    assert sorted(lab.labels[2]) == [3, 4]
    _assert_compliant(regions, grid, dec, lab)


def test_region_bounds_snap_onto_grid_cuts():
    grid = grid_decompose(_ws([0.0], [4.032]), 0.336)
    eps = 1e-11  # inside the snap tolerance
    region = LabeledRegion(np.array([0.672 + eps]), np.array([1.008 - eps]),
                           {1: frozenset({"p"})})
    dec, lab = refine_to_compliance([region], grid)
    assert dec.cell_count == 12
    assert sorted(lab.labels[1]) == [3]


def test_service_sets_must_be_disjoint_across_agents():
    with pytest.raises(SemanticError):
        ServiceLabeling({1: frozenset({"s"}), 2: frozenset({"s"})},
                        {1: {1: frozenset({"s"})}, 2: {2: frozenset({"s"})}})


def test_degenerate_region_rejected():
    with pytest.raises(ValueError):
        LabeledRegion(np.array([1.0]), np.array([1.0]), {1: frozenset({"x"})})


def test_degenerate_workspace_rejected():
    with pytest.raises(ValueError):
        _ws([2.0], [1.0])


def test_labeling_of_unknown_agent_or_cell_is_empty():
    labeling = ServiceLabeling({1: frozenset({"s"})},
                               {1: {4: frozenset({"s"})}})
    assert labeling.label(1, 4) == frozenset({"s"})
    assert labeling.label(1, 5) == frozenset()
    assert labeling.label(9, 4) == frozenset()
