"""Tests for non-dominated filtering, the global ratio, and domain scans."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mgdkit import (
    Problem,
    critical_region_scan,
    get_problem,
    global_pareto_ratio,
    nondominated_filter,
    nondominated_mask,
)
from mgdkit.direction import TOL_GRAD
from mgdkit.metrics import _SCAN_CHUNK
from oracles import critical_region_scan_oracle, nondominated_mask_oracle


def _points(fs):
    return [(np.zeros(1), np.asarray(f, dtype=float)) for f in fs]


# Few distinct values, signed zeros and infinities among them, so ties and
# equal rows are common.
VALUES = st.one_of(
    st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 0.5, 1.0, np.inf]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=True),
)


@st.composite
def objective_rows(draw):
    """A (k, m) array, m = 1..4, holding copies of some of its own rows,
    each exact or with the sign of its zeros flipped (an equal row).

    k is drawn first, up to 130 rows, so that the 3-objective mask's
    levels reach block size 128; a list's own size would stay short.  Each
    cell is one of a drawn pool of 1-16 distinct values, picked by a
    generator seeded from one draw: many distinct rows and many ties, at a
    few draws per set instead of one per cell.  In some 3-objective sets f2
    gets a distinct integer added to each row and f3 is minus f2: most rows
    are not dominated, and the largest f3 is often held by one row on the
    front, which the mask must keep at every level."""
    m = draw(st.integers(1, 4))
    k = draw(st.integers(0, 130))
    rng = np.random.Generator(np.random.Philox(draw(st.integers(0, 2**32 - 1))))
    size = int(rng.integers(1, 17))
    signed = lambda v: (v, np.copysign(1.0, v))  # -0.0 and 0.0 both count
    pool = np.array(draw(st.lists(VALUES, min_size=size, max_size=size, unique_by=signed)))
    F = pool[rng.integers(0, size, size=(k, m))]
    if m == 3 and draw(st.booleans()):
        F[:, 1] += rng.permutation(k)
        F[:, 2] = -F[:, 1]
    rows = F.tolist()
    if rows:
        for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=5)):
            flip = draw(st.booleans())
            copy = [-v if flip and v == 0 else v for v in rows[i]]
            rows.insert(draw(st.integers(0, len(rows))), copy)
    return np.array(rows, dtype=float).reshape(-1, m)


def _edge_ties():
    """130 rows in lexicographic order, row i = (i, -floor((i+1)/2), floor(i/2)):
    rows 2j+1 and 2j+2 share f2 and rows 2j and 2j+1 share f3, so a tie lies
    across every block edge of the 3-objective mask, and row 2j+2 is
    dominated only by row 2j+1.  Equal rows on both sides of edges 64 and
    128, -0.0 (row 0's f2) and rows with f1 = inf, which sort last and so
    keep the edges in place, ride along."""
    i = np.arange(130, dtype=float)
    F = np.column_stack([i, -np.floor((i + 1) / 2), np.floor(i / 2)])
    inf = [[np.inf, -np.inf, 0.0], [np.inf, 0.0, -np.inf], [np.inf, np.inf, np.inf]]
    return np.vstack([F, inf, F[[5, 63, 64, 127, 128]]])


# Mostly dominated: 200 rows over seven values, many of them equal; 7 survive.
_CROWDED = np.random.Generator(np.random.Philox(8)).choice(
    [-np.inf, -1.0, -0.0, 0.0, 1.0, 2.0, np.inf], size=(200, 3)
)


class TestNondominatedFilter:
    def test_simple_front(self):
        kept = nondominated_filter(_points([[0, 1], [1, 0], [1, 1]]))
        assert [tuple(f) for _, f in kept] == [(0.0, 1.0), (1.0, 0.0)]

    def test_equal_duplicates_survive(self):
        kept = nondominated_filter(_points([[0, 0], [0, 0]]))
        assert len(kept) == 2

    def test_singleton(self):
        kept = nondominated_filter(_points([[3, 4]]))
        assert len(kept) == 1

    def test_empty(self):
        assert nondominated_filter([]) == []

    def test_idempotent_and_permutation_invariant(self):
        rng = np.random.Generator(np.random.Philox(41))
        for m in (1, 2, 3, 4):
            F = np.round(rng.normal(size=(60, m)), 1)
            mask = nondominated_mask(F)
            assert nondominated_mask(F[mask]).all()
            perm = rng.permutation(len(F))
            assert np.array_equal(nondominated_mask(F[perm]), mask[perm])

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_mask_matches_brute_force(self, m):
        rng = np.random.Generator(np.random.Philox(42 + m))
        # For m = 3, sets whose last block at a level is one short of full,
        # full, and one over.
        extra = [63, 64, 65, 127, 128, 129, 255, 256, 257] if m == 3 else []
        for size in [None] * 20 + extra:
            if size is None:
                size = int(rng.integers(1, 80))
            F = np.round(rng.normal(size=(size, m)), 1)  # rounding forces ties
            assert np.array_equal(nondominated_mask(F), nondominated_mask_oracle(F))

    @settings(max_examples=300, deadline=None)
    @given(objective_rows())
    # A first row with f2 = +inf is not dominated by anything before it.
    @example(np.array([[0.0, np.inf]]))
    @example(np.array([[0.0, np.inf], [1.0, np.inf]]))
    @example(_edge_ties())
    @example(_CROWDED)
    def test_mask_matches_pairwise_oracle(self, F):
        mask = nondominated_mask(F)
        assert mask.dtype == bool and mask.shape == (len(F),)
        assert np.array_equal(mask, nondominated_mask_oracle(F))

    def test_antichain_with_dominated_copies(self):
        # An exact antichain of 2**17 + 3 rows (u, t, 1 - t), with t distinct
        # multiples of 2**-18 so that 1 - t is exact.  A copy of every 10th
        # row, f1 raised and f3 raised by less than the spacing of t, is
        # dominated by its own row alone, which sorts anywhere before it.
        rng = np.random.Generator(np.random.Philox(17))
        k = 2**17 + 3
        t = rng.permutation(k) / 2.0**18
        front = np.column_stack([rng.integers(0, 1000, k).astype(float), t, 1.0 - t])
        copies = front[::10].copy()
        copies[:, 0] += rng.integers(0, 1000, len(copies))
        copies[:, 2] += 2.0**-20
        perm = rng.permutation(k + len(copies))
        expected = np.arange(k + len(copies)) < k
        mask = nondominated_mask(np.vstack([front, copies])[perm])
        assert np.array_equal(mask, expected[perm])

    def test_mask_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            nondominated_mask(np.zeros(3))

    @pytest.mark.parametrize(
        "F",
        [
            np.zeros((3, 0)),
            [[np.nan], [1.0], [2.0]],
            [[0.0, np.nan], [1.0, 1.0], [2.0, 2.0]],
            [[0.0, 0.0, np.nan], [1.0, 1.0, 1.0], [2.0, 2.0, 2.0]],
        ],
        ids=["m0", "m1", "m2", "m3"],
    )
    def test_mask_rejects_nan_and_no_objectives(self, F):
        # A NaN compares false both ways: the pairwise relation keeps its
        # row, while a running minimum carries it to every later row.
        with pytest.raises(ValueError):
            nondominated_mask(np.array(F, dtype=float))


def _runs(*fs):
    return [np.array(f, dtype=float).reshape(-1, 2) for f in fs]


class TestGlobalParetoRatio:
    def test_mutually_nondominated(self):
        ratio, mask = global_pareto_ratio(_runs([[0, 1]], [[1, 0]]))
        assert type(ratio) is float and ratio == pytest.approx(1.0)
        assert mask.tolist() == [True, True]

    def test_one_dominated(self):
        ratio, mask = global_pareto_ratio(_runs([[0, 0]], [[1, 1]]))
        assert ratio == pytest.approx(0.5)
        assert mask.tolist() == [True, False]

    def test_equal_outputs_both_count(self):
        ratio, mask = global_pareto_ratio(_runs([[0, 0]], [[0, 0]]))
        assert ratio == pytest.approx(1.0)
        assert mask.tolist() == [True, True]

    def test_antichain_union_scores_one(self):
        runs = _runs(*[[[float(j), float(9 - j)]] for j in range(10)])
        assert global_pareto_ratio(runs)[0] == pytest.approx(1.0)

    def test_single_dominating_run(self):
        runs = _runs([[0.0, 0.0]], *[[[1.0 + j, 1.0 + j]] for j in range(4)])
        assert global_pareto_ratio(runs)[0] == pytest.approx(1.0 / 5.0)

    def test_empty_runs_score_zero(self):
        ratio, mask = global_pareto_ratio(_runs([], []))
        assert ratio == 0.0
        assert mask.shape == (0,)

    def test_nan_row_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            global_pareto_ratio(_runs([[0.0, np.nan]], [[1.0, 1.0]], [[2.0, 2.0]]))

    def test_at_least_one_run_required(self):
        with pytest.raises(ValueError):
            global_pareto_ratio([])


def _two_quadratics():
    a = np.array([1.0, 0.0])

    def evaluator(x):
        return (
            np.array([float((x - a) @ (x - a)), float((x + a) @ (x + a))]),
            np.vstack([2.0 * (x - a), 2.0 * (x + a)]),
        )

    return Problem(
        name="two-quadratics",
        n=2,
        m=2,
        evaluator=evaluator,
        domain_box=np.tile([-2.0, 2.0], (2, 1)),
        default_max_iters=1,
    )


class TestCriticalRegionScan:
    def test_two_quadratics_marks_connecting_segment(self):
        prob = _two_quadratics()
        mask = critical_region_scan(
            prob, prob.domain_box, [64, 64], (1, 2), tol=1e-6
        )
        assert mask.shape == (64, 64)
        centers = -2.0 + (np.arange(64) + 0.5) * 4.0 / 64
        xs, ys = centers, centers
        for ix, iy in np.argwhere(mask):
            # Gradients are anti-parallel exactly on the open segment
            # between the two minimizers (the x-axis between -1 and 1).
            assert abs(ys[iy]) < 1e-9
            assert -1.0 < xs[ix] < 1.0
        # The segment itself is hit only if a row of cell centers lies on
        # y = 0; with 64 cells it does not, so check a 65-cell grid too.
        mask65 = critical_region_scan(
            prob, prob.domain_box, [65, 65], (1, 2), tol=1e-6
        )
        assert mask65.sum() > 0

    def test_three_objective_ring_region(self):
        prob = get_problem("viennet")
        mask = critical_region_scan(
            prob, prob.domain_box, [128, 128], (1, 3), tol=1e-8
        )
        assert mask.sum() > 0

    def test_two_objective_region_in_cube(self):
        prob = get_problem("kursawe")
        # The near-cancelling region is thin; 32 cells per axis misses it.
        mask = critical_region_scan(
            prob, prob.domain_box, [64, 64, 64], (1, 2), tol=1e-3
        )
        assert mask.shape == (64, 64, 64)
        assert mask.sum() > 0

    def test_pair_validation(self):
        prob = _two_quadratics()
        with pytest.raises(ValueError):
            critical_region_scan(prob, prob.domain_box, [8, 8], (1, 1), 1e-3)
        with pytest.raises(ValueError):
            critical_region_scan(prob, prob.domain_box, [8, 8], (0, 1), 1e-3)
        # Objective numbers are integers: 1.5 lies between 1 and m but is none.
        viennet = get_problem("viennet")
        for pair in ((1.5, 3), (1, 2.0), ("1", 3)):
            with pytest.raises(ValueError, match="pair"):
                critical_region_scan(viennet, viennet.domain_box, [4, 4], pair, 0.1)
        mask = critical_region_scan(viennet, viennet.domain_box, [4, 4], np.int64([1, 3]), 0.1)
        assert mask.shape == (4, 4)

    def test_resolution_validation(self):
        prob = _two_quadratics()
        with pytest.raises(ValueError):
            critical_region_scan(prob, prob.domain_box, [1, 8], (1, 2), 1e-3)
        with pytest.raises(ValueError):
            critical_region_scan(prob, prob.domain_box, [8], (1, 2), 1e-3)
        # A cell count is an integer: 2.5 and 3.9 are not truncated to a 2x3 grid.
        for resolution in ([2.5, 3.9], [8, 8.0], ["8", 8]):
            with pytest.raises(ValueError, match="resolution must be an integer"):
                critical_region_scan(prob, prob.domain_box, resolution, (1, 2), 1e-3)
        mask = critical_region_scan(prob, prob.domain_box, np.int64([2, 3]), (1, 2), 1e-3)
        assert mask.shape == (2, 3)

    @pytest.mark.parametrize("tol, tol_grad", [(np.nan, 1e-12), (1e-3, np.nan), (1e-3, np.inf)])
    def test_tolerance_validation(self, tol, tol_grad):
        prob = _two_quadratics()
        with pytest.raises(ValueError, match="finite"):
            critical_region_scan(prob, prob.domain_box, [8, 8], (1, 2), tol, tol_grad=tol_grad)

    def test_zero_gradient_cells_unmarked(self):
        # At the midpoint between the two minimizers both gradients are
        # nonzero; at each minimizer one gradient vanishes and the cell
        # must stay unmarked even with a huge tolerance.
        prob = _two_quadratics()
        box = np.array([[0.999, 1.001], [-0.001, 0.001]])
        mask = critical_region_scan(prob, box, [3, 3], (1, 2), tol=10.0, tol_grad=1e-2)
        assert not mask[1, 1]


# (problem, box or None for the domain box, resolution, pair, tol, tol_grad)
_SCAN_CASES = {
    "viennet-12-64": ("viennet", None, [64, 64], (1, 2), 0.05, TOL_GRAD),
    "viennet-13-64": ("viennet", None, [64, 64], (1, 3), 1e-8, TOL_GRAD),
    "viennet-23-64": ("viennet", None, [64, 64], (2, 3), 0.05, TOL_GRAD),
    "kursawe-16": ("kursawe", None, [16, 16, 16], (1, 2), 0.05, TOL_GRAD),
    # Odd resolution on a box symmetric about 0: cell centres fall on
    # x_i = 0 (where |x|^0.8 has no slope) and on the s = 0 slice.
    "kursawe-symmetric-15": ("kursawe", [[-1.0, 1.0]] * 3, [15, 15, 15], (1, 2), 0.05,
                             TOL_GRAD),
    "fonseca-fleming-9": ("fonseca-fleming", None, [9, 9, 9], (1, 2), 0.05, TOL_GRAD),
    # No jac_batch: goes through the evaluator fallback.
    "two-quadratics-65": ("two-quadratics", None, [65, 65], (1, 2), 0.05, TOL_GRAD),
    "two-quadratics-tol-grad": ("two-quadratics", [[0.999, 1.001], [-0.001, 0.001]], [3, 3],
                                (1, 2), 10.0, 1.5e-3),
    # More than one chunk, and not a multiple of it.
    "viennet-13-67": ("viennet", None, [67, 67], (1, 3), 1e-8, TOL_GRAD),
}


class TestScanMatchesCellByCell:
    def test_chunked_case_spans_chunks(self):
        cells = 67 * 67
        assert cells > _SCAN_CHUNK and cells % _SCAN_CHUNK != 0

    @pytest.mark.parametrize("case", sorted(_SCAN_CASES))
    def test_same_mask_as_oracle(self, case):
        name, box, resolution, pair, tol, tol_grad = _SCAN_CASES[case]
        prob = _two_quadratics() if name == "two-quadratics" else get_problem(name)
        box = prob.domain_box if box is None else np.array(box)
        mask = critical_region_scan(prob, box, resolution, pair, tol, tol_grad=tol_grad)
        expected = critical_region_scan_oracle(prob, box, resolution, pair, tol, tol_grad)
        assert mask.dtype == bool and mask.shape == tuple(resolution)
        assert np.array_equal(mask, expected)
        assert expected.any()
